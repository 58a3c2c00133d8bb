"""Streaming University-shaped record generation.

:func:`stream_university_records` scales the PR-2 University population
(:mod:`repro.university.generator`) to millions of records without ever
materializing the population: it is a generator yielding one AB
:class:`~repro.abdm.record.Record` at a time, deterministic in
``(count, seed)``, with O(1) memory independent of *count*.

The stream reproduces the University database's *file shape* — the same
AB files, attribute names, and value distributions the small population
has — rather than its relational closure (entity-valued functions need
the whole key space resolved up front, which is exactly the
materialization this path exists to avoid).  Cross-record references
(advisor names, course depts) are drawn from the same deterministic
pools, so selective queries over the scaled data stay meaningful:
``GPA > 3.5`` or ``dept = computer_science`` select stable fractions at
any scale.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.abdm.record import Record
from repro.university.generator import (
    _COURSE_TOPICS,
    _DEPT_NAMES,
    _FIRST_NAMES,
    _LAST_NAMES,
    _MAJORS,
    _RANKS,
    _SEMESTERS,
    _SKILLS,
)

#: Files emitted by the stream with their relative frequency out of 20.
#: Students dominate, as in the generated population (60% students,
#: 30% faculty, 15% staff over persons, plus courses and departments).
_CYCLE = (
    ("student", 10),
    ("faculty", 4),
    ("support_staff", 2),
    ("course", 3),
    ("department", 1),
)


def _file_for(index: int) -> str:
    slot = index % 20
    for name, weight in _CYCLE:
        if slot < weight:
            return name
        slot -= weight
    return _CYCLE[0][0]  # pragma: no cover - weights sum to the cycle


def stream_university_records(count: int, seed: int = 1987) -> Iterator[Record]:
    """Yield *count* University-shaped records, deterministically.

    Records carry a unique ``ID`` (their stream index), so every record
    is individually addressable in flat-latency probes.
    """
    rng = random.Random(seed)
    for index in range(count):
        file_name = _file_for(index)
        name = (
            f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)} {index}"
        )
        if file_name == "student":
            yield Record.from_pairs(
                [
                    ("FILE", "student"),
                    ("ID", index),
                    ("name", name),
                    ("age", rng.randint(18, 30)),
                    ("major", rng.choice(_MAJORS)),
                    ("gpa", round(rng.uniform(2.0, 4.0), 2)),
                ]
            )
        elif file_name == "faculty":
            yield Record.from_pairs(
                [
                    ("FILE", "faculty"),
                    ("ID", index),
                    ("name", name),
                    ("age", rng.randint(28, 70)),
                    ("rank", rng.choice(_RANKS)),
                    ("dept", rng.choice(_DEPT_NAMES)),
                    ("salary", float(rng.randint(30, 90) * 1000)),
                ]
            )
        elif file_name == "support_staff":
            yield Record.from_pairs(
                [
                    ("FILE", "support_staff"),
                    ("ID", index),
                    ("name", name),
                    ("age", rng.randint(20, 65)),
                    ("skill", rng.choice(_SKILLS)),
                    ("salary", float(rng.randint(18, 45) * 1000)),
                ]
            )
        elif file_name == "course":
            level = rng.choice(("Introductory", "Intermediate", "Advanced"))
            yield Record.from_pairs(
                [
                    ("FILE", "course"),
                    ("ID", index),
                    ("title", f"{level} {rng.choice(_COURSE_TOPICS)} {index}"),
                    ("dept", rng.choice(_DEPT_NAMES)),
                    ("semester", rng.choice(_SEMESTERS)),
                    ("credits", rng.randint(1, 5)),
                ]
            )
        else:
            yield Record.from_pairs(
                [
                    ("FILE", "department"),
                    ("ID", index),
                    ("dname", f"{rng.choice(_DEPT_NAMES)}_{index}"),
                    ("budget", rng.randint(4, 40) * 25_000),
                ]
            )
