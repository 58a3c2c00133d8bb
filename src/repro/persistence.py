"""Saving and loading an MLDS instance.

The thesis's MLDS keeps descriptor and template files on disk (the
ddl_info structures of Figure 4.20); this module provides the modern
equivalent: a JSON snapshot of the whole system — every schema in its
own DDL text, the database-key counters, and the exact per-backend
record contents — restorable into an identical :class:`~repro.core.MLDS`.

.. code-block:: python

    from repro.persistence import save_mlds, load_mlds

    save_mlds(mlds, "university.mlds.json")
    restored = load_mlds("university.mlds.json")

The snapshot restores the *exact* backend partitioning (records are
placed back on their original backend), so simulated response times and
set-iteration orders are reproducible across save/load.

Format **2** (the only one :func:`load_mlds` restores) carries, beside
schemas, timing, key counters and per-backend records, ``wal`` (the
durability watermark: the last committed WAL transaction the snapshot
contains, written when the system has a write-ahead log attached — see
:mod:`repro.wal`), ``placement`` (the round-robin counters, so
inserts after a restore land on the same backends they would have
without the restart) and, when the controller indexes any, ``indexes``
(its index attributes, rebuilt on the restored farm; a snapshot without
the key, such as one written before the key existed, loads with none).
The machine settings — engine, workers, lock timeout, read path — are
not in the file: the loader takes them as one
:class:`~repro.core.mlds.MLDSConfig`.

The file is one line of compact JSON, written by the C encoder in one
pass (an ``indent`` would send CPython back to its pure-Python
encoder), and every reader parses it once.  Building the snapshot and
writing it, and parsing it and restoring the farm, each run inside
:func:`collector_paused`: the hundreds of thousands of lists and dicts
either side builds are all alive until the end, so a cyclic-collector
pass over them would find nothing to free.  Indented snapshots written
before the switch load unchanged — only whitespace differs.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Iterator, Union

from repro.core.mlds import MLDS, MLDSConfig
from repro.errors import MLDSError
from repro.mbds.timing import TimingModel
from repro.wal.recovery import restore_farm

#: Snapshot format version, bumped on incompatible layout changes.
FORMAT_VERSION = 2


@contextmanager
def collector_paused() -> Iterator[None]:
    """Hold the cyclic garbage collector off for the block.

    The collector is turned back on afterwards — on success and on error
    alike — only if it was on when the block began, so nested pauses and
    callers that run with it disabled keep their state.  Nothing is
    frozen and no threshold changes.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _dump_records(mlds: MLDS) -> list[list[dict]]:
    """Per-backend record dumps (pairs + textual portion)."""
    dumps: list[list[dict]] = []
    for backend in mlds.kds.controller.backends:
        rows = []
        for record in backend.store.all_records():
            rows.append({"pairs": record.pairs(), "text": record.text})
        dumps.append(rows)
    return dumps


def save_mlds(mlds: MLDS, path: Union[str, Path]) -> None:
    """Write a complete JSON snapshot of *mlds* to *path*."""
    with collector_paused():
        text = json.dumps(_snapshot(mlds), separators=(",", ":"))
    Path(path).write_text(text)


def _snapshot(mlds: MLDS) -> dict:
    """The format-2 snapshot of *mlds* as plain JSON-ready data."""
    wal = mlds.kds.wal
    snapshot = {
        "format": FORMAT_VERSION,
        "backend_count": mlds.kds.controller.backend_count,
        "wal": wal.checkpoint_state() if wal is not None else None,
        "placement": mlds.kds.controller.placement.snapshot_state(),
        "timing": asdict(mlds.kds.controller.timing),
        "functional": {
            name: {
                "ddl": schema.render(),
                "key_counters": {
                    entity.name: entity.last_key
                    for entity in schema.entity_types.values()
                },
            }
            for name, schema in mlds._functional.items()
        },
        "network": {
            name: {
                "ddl": schema.render(),
                "key_counters": dict(mlds._network_mappings[name]._key_counters),
            }
            for name, schema in mlds._network.items()
        },
        "relational": {
            name: {
                "ddl": schema.render(),
                "key_counters": dict(mlds._relational_mappings[name]._key_counters),
            }
            for name, schema in mlds._relational.items()
        },
        "hierarchical": {
            name: {
                "ddl": schema.render(),
                "key_counters": dict(mlds._hierarchical_mappings[name]._key_counters),
                "sequence": mlds._hierarchical_mappings[name]._sequence,
            }
            for name, schema in mlds._hierarchical.items()
        },
        "backends": _dump_records(mlds),
    }
    indexes = mlds.kds.controller.indexed_attributes
    if indexes:  # absent means none, as in snapshots written before the key
        snapshot["indexes"] = list(indexes)
    return snapshot


def load_mlds(
    path: Union[str, Path],
    config: MLDSConfig = MLDSConfig(),
    *,
    store_factory=None,
    obs=None,
) -> MLDS:
    """Restore an :class:`MLDS` from a snapshot written by :func:`save_mlds`.

    The machine settings are not part of the snapshot — they describe
    the machine, not the data — so the caller passes them whole as
    *config* (a replacement system passes the replaced one's
    :attr:`~repro.core.mlds.MLDS.config`).  *store_factory* and *obs* are
    handed to the new system as they are.

    The farm section — per-backend records, index attributes and the
    round-robin counters — is read by
    :func:`~repro.wal.recovery.restore_farm`, the same reader farm
    healing uses.  A snapshot whose ``placement`` names a retired kind
    (``hash_shard``, ``least_loaded``) still restores every record; only
    the counters start empty.  The snapshot's WAL watermark is left on
    the returned system as :attr:`~repro.core.mlds.MLDS.restored_txn`, so
    recovery need not read the file again.
    """
    with collector_paused():
        snapshot = json.loads(Path(path).read_text())
    version = snapshot.get("format")
    if version != FORMAT_VERSION:
        raise MLDSError(
            f"snapshot format {version!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    # Built between the two pauses: a process engine forks its workers
    # here, each keeps the collector state it was born with, and each
    # freezes the parsed snapshot it inherits before it serves (see
    # repro.ipc.worker) — its collector never walks that heap.
    mlds = MLDS(
        backend_count=snapshot["backend_count"],
        timing=TimingModel(**snapshot["timing"]),
        store_factory=store_factory,
        obs=obs,
        **asdict(config),
    )
    try:
        with collector_paused():
            for name, entry in snapshot["functional"].items():
                schema = mlds.define_functional_database(entry["ddl"])
                for entity_name, last_key in entry["key_counters"].items():
                    schema.entity_types[entity_name].last_key = last_key
            for name, entry in snapshot["network"].items():
                mlds.define_network_database(entry["ddl"])
                mlds._network_mappings[name]._key_counters.update(entry["key_counters"])
            for name, entry in snapshot["relational"].items():
                mlds.define_relational_database(entry["ddl"])
                mlds._relational_mappings[name]._key_counters.update(entry["key_counters"])
            for name, entry in snapshot["hierarchical"].items():
                mlds.define_hierarchical_database(entry["ddl"])
                mapping = mlds._hierarchical_mappings[name]
                mapping._key_counters.update(entry["key_counters"])
                mapping._sequence = entry["sequence"]
            mlds.restored_txn = restore_farm(mlds.kds.controller, snapshot)
    except BaseException:
        mlds.kds.shutdown()  # no half-loaded system keeps workers alive
        raise
    return mlds
