"""Inputs and oracle of the ``fullstack`` benchmark.

Everything the served MLDS is asked comes from here, derived from
``(seed, connection index)``, together with the answer a correct system
must give.  The oracle is a plain-Python model of each database — dicts,
sorted lists and :mod:`bisect` — that shares no code with the system
under test, so "four languages, one answer" is checked against something
that speaks none of them.

The launcher (:mod:`serve`) imports the same row generators to load the
databases; the generator process imports them to build the model.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

#: The one credential the launcher registers and the generator presents.
TOKEN = "fullstack"
BRANCHES = 97
REGIONS = 8
NOTE_TAGS = 8
LBAL_MAX = 1_000_000
#: Statements per language in the fits-in-cache pools (the qc caches hold
#: 128 results / 256 translations / 512 parses, so 64 fits in each).
POOL = 64
#: Rows every pooled DAPLEX statement returns: its cost is one kernel
#: request per row, so a fixed count keeps the class's latency one mode.
DAPLEX_ROWS = 8
#: Rows a ``wide`` scan returns (the reply-codec-heavy statement).
WIDE_ROWS = 1000

BANK_DDL = """\
DATABASE bank;
CREATE TABLE acct (id INT, branch INT, bal INT, note CHAR(20), PRIMARY KEY (id));
CREATE TABLE led (lid INT, lbranch INT, lbal INT, lnote CHAR(8), PRIMARY KEY (lid));
CREATE TABLE br (branch INT, region CHAR(8), PRIMARY KEY (branch));
"""
#: Attributes indexed in every deployment.  Indexes are per attribute
#: name across the whole farm, which is why the scanned table ``led``
#: spells its columns differently: nothing it is asked can use one.
INDEXED = ("id", "bal")

SCHOOL_DDL = """\
DATABASE school;
SEGMENT dept ROOT (dname CHAR(20), budget INT);
SEGMENT course UNDER dept (title CHAR(40), credits INT);
SEGMENT offering UNDER course (semester CHAR(6), instructor CHAR(30));
"""
COURSES_PER_DEPT = 9
OFFERINGS_PER_COURSE = 10


# -- sizes and workloads -------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    """How much of each database one deployment holds."""

    acct: int  #: rows of bank.acct, the indexed table every write goes to
    led: int  #: rows of bank.led, the never-indexed table the scans read
    persons: int  #: University persons (functional; DAPLEX and CODASYL-DML)
    courses: int  #: University courses
    school_depts: int  #: school roots; each carries 1 + 9 + 90 segments
    stream: int  #: stream_university_records bulk-loaded beside the databases
    tail_txns: int  #: single-INSERT transactions between checkpoint and SIGKILL

    def shrunk(self, divisor: int) -> "Sizes":
        """The smoke-mode deployment: every size divided, none below a floor
        that keeps each statement class answerable."""
        if divisor <= 1:
            return self
        return Sizes(
            acct=max(200, self.acct // divisor),
            led=max(400, self.led // divisor),
            persons=max(40, self.persons // divisor),
            courses=max(8, self.courses // divisor),
            school_depts=max(1, self.school_depts // divisor),
            stream=self.stream // divisor,
            tail_txns=max(4, self.tail_txns // divisor),
        )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: Sizes
    engine: str  #: 'serial' or 'process' (workers=2)
    mix: dict  #: statement class -> weight by count in the timed phase


_SMALL = Sizes(
    acct=2_000, led=4_000, persons=60, courses=10, school_depts=2, stream=0,
    tail_txns=20,
)
_SCAN_MIX = {"conj": 6, "count": 6, "wide": 6, "join": 6, "group": 1}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oltp_sql",
            "served OLTP with cold caches: 10k-row keyspace far beyond the qc "
            "caches, 85% point / 9% range / 4% UPDATE / 2% txn, WAL "
            "WalManager(dir,4,sync=True) fsync per commit, no group window",
            replace(_SMALL, acct=10_000),
            "serial",
            {"point": 85, "range": 9, "update": 4, "txn": 2},
        ),
        Workload(
            "four_lang_read",
            "kernel work is tiny, so LIL+parser+KMS+KC+server codec are the "
            "statement: 3 sql : 3 codasyl : 3 dli : 1 daplex from 64-statement "
            "pools that fit every cache",
            replace(_SMALL, persons=400, courses=40, school_depts=8),
            "serial",
            {"view": 3, "codasyl": 3, "dli": 3, "daplex": 1},
        ),
        Workload(
            "olap_scan",
            "unindexed scans with distinct predicates (result cache never "
            "hits): backend scan + compiled matchers + merge dominate, so a "
            "codec or translator change must not move it",
            replace(_SMALL, led=20_000),
            "serial",
            _SCAN_MIX,
        ),
        Workload(
            "olap_scan_process",
            "the identical plan, seed and data behind MLDS(engine='process', "
            "workers=2): the engine ablation at latency_scale=0, scans behind "
            "repro.ipc pipes",
            replace(_SMALL, led=20_000),
            "process",
            _SCAN_MIX,
        ),
        Workload(
            "ingest_recover",
            "what an operator pays: bulk ingest rate, single-INSERT "
            "transactions fsynced one by one, checkpoint, SIGKILL with a "
            "transaction open, restart from snapshot + WAL tail",
            replace(_SMALL, stream=20_000, tail_txns=40),
            "serial",
            {"insert_txn": 1},
        ),
    )
}

#: statement class -> (language, kind, session).  *kind* decides which
#: latency metric the class feeds; *session* names the open LIL session.
CLASSES = {
    "point": ("sql", "read", "bank"),
    "range": ("sql", "read", "bank"),
    "update": ("sql", "write", "bank"),
    "txn": ("sql", "txn", "bank"),
    "insert_txn": ("sql", "txn", "bank"),
    "conj": ("sql", "read", "bank"),
    "count": ("sql", "read", "bank"),
    "wide": ("sql", "read", "bank"),
    "join": ("sql", "read", "bank"),
    "group": ("sql", "read", "bank"),
    "view": ("sql", "read", "view"),
    "codasyl": ("codasyl", "read", "codasyl"),
    "dli": ("dli", "read", "dli"),
    "daplex": ("daplex", "read", "daplex"),
}
#: session name -> (language, database), opened in this order on every
#: connection (the launcher's tracer relies on the order being fixed).
SESSIONS = {
    "bank": ("sql", "bank"),
    "view": ("sql", "school"),
    "codasyl": ("codasyl", "university"),
    "dli": ("dli", "school"),
    "daplex": ("daplex", "university"),
}
#: What the probe phase sends, round-robin, for every metric the timed
#: mix has no statement for: one class per language's reads, the
#: autocommit write, the transaction.
PROBE_CLASSES = ("view", "codasyl", "dli", "daplex", "update", "txn")


# -- rows ----------------------------------------------------------------------


def acct_rows(seed: int, count: int) -> Iterator[tuple]:
    rng = random.Random(f"{seed}:acct")
    for i in range(count):
        yield (i, i % BRANCHES, rng.randrange(4 * count), f"n{i}")


def led_rows(seed: int, count: int) -> Iterator[tuple]:
    rng = random.Random(f"{seed}:led")
    for i in range(count):
        yield (
            i,
            rng.randrange(BRANCHES),
            rng.randrange(LBAL_MAX),
            f"t{rng.randrange(NOTE_TAGS)}",
        )


def br_rows() -> Iterator[tuple]:
    for branch in range(BRANCHES):
        yield (branch, f"r{branch % REGIONS}")


def school_tree(depts: int) -> list[tuple]:
    """``[(dname, budget, [(title, credits, [(semester, instructor)])])]``."""
    return [
        (
            f"d{d}",
            100 + d,
            [
                (
                    f"t{d}_{c}",
                    1 + (d + c) % 5,
                    [(f"s{o}", f"i{d}_{c}_{o}") for o in range(OFFERINGS_PER_COURSE)],
                )
                for c in range(COURSES_PER_DEPT)
            ],
        )
        for d in range(depts)
    ]


def value_bytes(values: Sequence) -> int:
    """Bytes of user data in *values*: text length of each one."""
    return sum(len(str(v)) for v in values)


# -- operations ----------------------------------------------------------------


class Op:
    """One generated operation and the answer a correct system gives.

    *statements* go to the named session one ``execute`` each; with *txn*
    they travel between ``begin`` and ``commit``.  *check* receives the
    list of replies (one list of wire results per statement) and *apply*
    updates the model once the system has acknowledged the work.
    """

    __slots__ = ("cls", "session", "statements", "txn", "check", "apply", "user_bytes")

    def __init__(
        self,
        cls: str,
        statements: tuple,
        check: Callable[[list], bool],
        txn: bool = False,
        apply: Optional[Callable[[], None]] = None,
        user_bytes: int = 0,
    ) -> None:
        self.cls = cls
        self.session = CLASSES[cls][2]
        self.statements = statements
        self.txn = txn
        self.check = check
        self.apply = apply
        self.user_bytes = user_bytes


def _rows(reply: list) -> list:
    """The row dicts of a one-result SQL/DAPLEX reply (else a mismatch)."""
    if len(reply) != 1:
        raise ValueError("expected one result")
    return reply[0]["rows"]


def _multiset(rows: list, columns: tuple) -> list:
    return sorted(tuple(row[c] for c in columns) for row in rows)


def _checked(check: Callable[[list], bool]) -> Callable[[list], bool]:
    """A reply of the wrong shape is a wrong answer, not a crash."""

    def safe(replies: list) -> bool:
        try:
            return check(replies)
        except (KeyError, IndexError, TypeError, ValueError):
            return False

    return safe


class AcctPartition:
    """The rows of ``acct`` one connection owns (ids ≡ its index mod 2).

    Only the owner writes them, so the owner's reads of them are exact;
    the other connection's rows are shape-checked (right key, right
    immutable columns, balance inside the predicate).
    """

    def __init__(self, seed: int, count: int, index: int, connections: int) -> None:
        self.count = count
        self.index = index
        self.connections = connections
        self.bal = {
            i: bal for i, _, bal, _ in acct_rows(seed, count) if i % connections == index
        }
        self.by_bal = sorted((bal, i) for i, bal in self.bal.items())
        self.inserted = 0

    def owns(self, key: int) -> bool:
        return key % self.connections == self.index

    def set_bal(self, key: int, bal: int) -> None:
        old = self.bal.get(key)
        if old is not None:
            del self.by_bal[bisect_left(self.by_bal, (old, key))]
        self.bal[key] = bal
        insort(self.by_bal, (bal, key))

    def next_key(self) -> int:
        """A fresh id in this partition, past every loaded row."""
        base = -(-self.count // self.connections) * self.connections
        key = base + self.inserted * self.connections + self.index
        self.inserted += 1
        return key

    def in_range(self, low: int, high: int) -> list:
        """Owned ``(id, bal)`` with ``low <= bal < high``, sorted."""
        start = bisect_left(self.by_bal, (low, -1))
        stop = bisect_left(self.by_bal, (high, -1))
        return sorted((i, bal) for bal, i in self.by_bal[start:stop])


def acct_row(key: int, bal: int) -> tuple:
    return (key, key % BRANCHES, bal, f"n{key}")


class LedModel:
    """The scanned table, read-only: sorted once, answered by bisect."""

    def __init__(self, seed: int, count: int) -> None:
        self.count = count
        self.rows = sorted(
            (lbal, lid, lbranch, lnote) for lid, lbranch, lbal, lnote in led_rows(seed, count)
        )
        self.lbals = [row[0] for row in self.rows]
        self.by_branch: list[list] = [[] for _ in range(BRANCHES)]
        for row in self.rows:
            self.by_branch[row[2]].append(row)
        self.branch_lbals = [[row[0] for row in rows] for rows in self.by_branch]

    def window(self, low: int, high: int) -> list:
        return self.rows[bisect_left(self.lbals, low) : bisect_left(self.lbals, high)]

    def branch_window(self, branch: int, low: int, high: int) -> list:
        lbals = self.branch_lbals[branch]
        return self.by_branch[branch][bisect_left(lbals, low) : bisect_left(lbals, high)]


class ReadPools:
    """The four fits-in-cache statement pools with their answers.

    Built from the same generated University population and school tree
    the launcher loads; nothing writes to either database, so every
    answer is fixed for the run.
    """

    def __init__(self, seed: int, sizes: Sizes) -> None:
        from repro.university.generator import generate_university

        rng = random.Random(f"{seed}:pools")
        data = generate_university(
            persons=sizes.persons, courses=sizes.courses, seed=seed
        )
        tree = school_tree(sizes.school_depts)
        courses = [(title, credits) for _, _, cs in tree for title, credits, _ in cs]
        offerings = [
            (dname, title, semester, instructor)
            for dname, _, cs in tree
            for title, _, offs in cs
            for semester, instructor in offs
        ]
        self.ops = {
            "view": [self._view(*c) for c in _sample(rng, courses)],
            "codasyl": [self._codasyl(p.name, p.age) for p in _sample(rng, data.persons)],
            "dli": [self._dli(*o) for o in _sample(rng, offerings)],
            "daplex": self._daplex(rng, data.persons),
        }

    @staticmethod
    def _view(title: str, credits: int) -> Op:
        expected = [(title, credits)]
        return Op(
            "view",
            (f"SELECT title, credits FROM course WHERE title = '{title}'",),
            _checked(
                lambda r: _multiset(_rows(r[0]), ("title", "credits")) == expected
            ),
        )

    @staticmethod
    def _codasyl(name: str, age: int) -> Op:
        def check(replies: list) -> bool:
            results = replies[0]
            got = results[-1]
            return (
                len(results) == 3
                and all(result["status"] == "ok" for result in results)
                and got["values"]["name"] == name
                and got["values"]["age"] == age
            )

        return Op(
            "codasyl",
            (
                f"MOVE '{name}' TO name IN person\n"
                "FIND ANY person USING name IN person\n"
                "GET person",
            ),
            _checked(check),
        )

    @staticmethod
    def _dli(dname: str, title: str, semester: str, instructor: str) -> Op:
        expected = {"semester": semester, "instructor": instructor}

        def check(replies: list) -> bool:
            (result,) = replies[0]
            return result["segment"] == "offering" and result["fields"] == expected

        return Op(
            "dli",
            (
                f"GU dept(dname = '{dname}') course(title = '{title}') "
                f"offering(semester = '{semester}')",
            ),
            _checked(check),
        )

    @staticmethod
    def _daplex(rng: random.Random, persons: list) -> list:
        students = sorted((p.gpa, p.name) for p in persons if p.is_student)
        gpas = [gpa for gpa, _ in students]
        windows = []
        for start in range(len(students) - DAPLEX_ROWS):
            low, high = gpas[start], gpas[start + DAPLEX_ROWS]
            hit = students[bisect_left(gpas, low) : bisect_left(gpas, high)]
            if len(hit) == DAPLEX_ROWS and (low, high) not in windows:
                windows.append((low, high))
        ops = []
        for low, high in _sample(rng, windows):
            expected = sorted(
                (name, gpa)
                for gpa, name in students[bisect_left(gpas, low) : bisect_left(gpas, high)]
            )
            ops.append(
                Op(
                    "daplex",
                    (
                        f"FOR EACH s IN student SUCH THAT gpa(s) >= {low!r} "
                        f"AND gpa(s) < {high!r} PRINT name(s), gpa(s);",
                    ),
                    _checked(
                        lambda r, expected=expected: _multiset(
                            _rows(r[0]), ("name(s)", "gpa(s)")
                        )
                        == expected
                    ),
                )
            )
        return ops


def _sample(rng: random.Random, items: list) -> list:
    return rng.sample(items, min(POOL, len(items)))


class ConnectionPlan:
    """The deterministic op stream of one connection.

    ``(seed, index)`` fixes every statement; the server sees only the
    generated text.
    """

    def __init__(
        self,
        seed: int,
        index: int,
        connections: int,
        sizes: Sizes,
        led: LedModel,
        pools: ReadPools,
    ) -> None:
        self.rng = random.Random(f"{seed}:conn:{index}")
        self.sizes = sizes
        self.led = led
        self.pools = pools
        self.acct = AcctPartition(seed, sizes.acct, index, connections)
        self._builders = {
            "point": self._point, "range": self._range, "update": self._update,
            "txn": self._txn, "insert_txn": self._insert_txn, "conj": self._conj,
            "count": self._count, "wide": self._wide, "join": self._join,
            "group": self._group,
        }

    def stream(self, mix: dict) -> Iterator[Op]:
        classes = list(mix)
        weights = [mix[c] for c in classes]
        while True:
            yield self.op(self.rng.choices(classes, weights)[0])

    def op(self, cls: str) -> Op:
        builder = self._builders.get(cls)
        if builder is not None:
            return builder()
        return self.rng.choice(self.pools.ops[cls])

    # -- bank.acct: the written, indexed table ---------------------------------

    def _own_key(self) -> int:
        keys = self.acct.count // self.acct.connections
        return self.rng.randrange(keys) * self.acct.connections + self.acct.index

    def _new_bal(self) -> int:
        return self.rng.randrange(4 * self.acct.count)

    def _point(self) -> Op:
        key = self.rng.randrange(self.acct.count)
        acct = self.acct

        def check(replies: list) -> bool:
            (row,) = _rows(replies[0])
            got = (row["id"], row["branch"], row["bal"], row["note"])
            if acct.owns(key):
                return got == acct_row(key, acct.bal[key])
            return got == acct_row(key, got[2]) and isinstance(got[2], int)

        return Op(
            "point",
            (f"SELECT id, branch, bal, note FROM acct WHERE id = {key}",),
            _checked(check),
        )

    def _range(self) -> Op:
        low = self._new_bal()
        high = low + 16
        acct = self.acct

        def check(replies: list) -> bool:
            got = _multiset(_rows(replies[0]), ("id", "bal"))
            mine = [pair for pair in got if acct.owns(pair[0])]
            others = [pair for pair in got if not acct.owns(pair[0])]
            return (
                mine == acct.in_range(low, high)
                and all(low <= bal < high for _, bal in others)
                and len({key for key, _ in got}) == len(got)
            )

        return Op(
            "range",
            (f"SELECT id, bal FROM acct WHERE bal >= {low} AND bal < {high}",),
            _checked(check),
        )

    def _update_statement(self) -> tuple:
        key, bal = self._own_key(), self._new_bal()
        return key, bal, f"UPDATE acct SET bal = {bal} WHERE id = {key}"

    def _insert_statement(self) -> tuple:
        key, bal = self.acct.next_key(), self._new_bal()
        row = acct_row(key, bal)
        text = f"INSERT INTO acct VALUES ({row[0]}, {row[1]}, {row[2]}, '{row[3]}')"
        return key, bal, text, value_bytes(row)

    def _update(self) -> Op:
        key, bal, text = self._update_statement()
        return Op(
            "update",
            (text,),
            _checked(lambda r: r[0][0]["touched"] == 1),
            apply=lambda: self.acct.set_bal(key, bal),
            user_bytes=len(str(bal)),
        )

    def _txn(self) -> Op:
        new_key, new_bal, insert, size = self._insert_statement()
        key, bal, update = self._update_statement()

        def apply() -> None:
            self.acct.set_bal(new_key, new_bal)
            self.acct.set_bal(key, bal)

        return Op(
            "txn",
            (insert, update),
            _checked(lambda r: r[0][0]["touched"] == 1 and r[1][0]["touched"] == 1),
            txn=True,
            apply=apply,
            user_bytes=size + len(str(bal)),
        )

    def _insert_txn(self) -> Op:
        key, bal, insert, size = self._insert_statement()
        return Op(
            "insert_txn",
            (insert,),
            _checked(lambda r: r[0][0]["touched"] == 1),
            txn=True,
            apply=lambda: self.acct.set_bal(key, bal),
            user_bytes=size,
        )

    # -- bank.led: the scanned table --------------------------------------------

    def _low(self, width: int) -> int:
        return self.rng.randrange(LBAL_MAX - width)

    def _conj(self) -> Op:
        branch = self.rng.randrange(BRANCHES)
        tag = f"t{self.rng.randrange(NOTE_TAGS)}"
        low = self._low(LBAL_MAX // 4)
        high = low + LBAL_MAX // 4
        expected = sorted(
            (lid, lbal)
            for lbal, lid, _, lnote in self.led.branch_window(branch, low, high)
            if lnote == tag
        )
        return Op(
            "conj",
            (
                f"SELECT lid, lbal FROM led WHERE lbranch = {branch} AND "
                f"lbal >= {low} AND lbal < {high} AND lnote = '{tag}'",
            ),
            _checked(lambda r: _multiset(_rows(r[0]), ("lid", "lbal")) == expected),
        )

    def _rank_window(self, rows: int) -> tuple:
        """``(low, high)`` holding about *rows* rows (exactly, barring ties)."""
        rows = min(rows, self.led.count // 4)
        start = self.rng.randrange(self.led.count - rows)
        return self.led.lbals[start], self.led.lbals[start + rows]

    def _count(self) -> Op:
        low, high = self._rank_window(WIDE_ROWS)
        expected = len(self.led.window(low, high))
        return Op(
            "count",
            (f"SELECT COUNT(*) FROM led WHERE lbal >= {low} AND lbal < {high}",),
            _checked(lambda r: _rows(r[0])[0]["COUNT(*)"] == expected),
        )

    def _wide(self) -> Op:
        low, high = self._rank_window(WIDE_ROWS)
        expected = sorted(
            (lid, lbranch, lbal, lnote)
            for lbal, lid, lbranch, lnote in self.led.window(low, high)
        )
        return Op(
            "wide",
            (
                "SELECT lid, lbranch, lbal, lnote FROM led "
                f"WHERE lbal >= {low} AND lbal < {high}",
            ),
            _checked(
                lambda r: _multiset(_rows(r[0]), ("lid", "lbranch", "lbal", "lnote"))
                == expected
            ),
        )

    def _join(self) -> Op:
        region = self.rng.randrange(REGIONS)
        low, high = self._rank_window(WIDE_ROWS)
        expected = sorted(
            (lid, f"r{region}")
            for _, lid, lbranch, _ in self.led.window(low, high)
            if lbranch % REGIONS == region
        )
        return Op(
            "join",
            (
                "SELECT lid, region FROM led, br WHERE led.lbranch = br.branch "
                f"AND region = 'r{region}' AND lbal >= {low} AND lbal < {high}",
            ),
            _checked(lambda r: _multiset(_rows(r[0]), ("lid", "region")) == expected),
        )

    def _group(self) -> Op:
        low, high = self._rank_window(self.led.count // 20)
        counts: dict = {}
        for _, _, lbranch, _ in self.led.window(low, high):
            counts[lbranch] = counts.get(lbranch, 0) + 1
        expected = sorted(counts.items())
        return Op(
            "group",
            (
                "SELECT lbranch, COUNT(*) FROM led "
                f"WHERE lbal >= {low} AND lbal < {high} GROUP BY lbranch",
            ),
            _checked(
                lambda r: _multiset(_rows(r[0]), ("lbranch", "COUNT(*)")) == expected
            ),
        )
