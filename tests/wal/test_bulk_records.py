"""Bulk journaling: a bulk batch is never a torn batch.

A bulk batch is **atomic in the journal** — one BULK-INSERT log record
per backend; a crash anywhere around the bulk append loses the whole
transaction, never applies part of a batch (serial AND process engines).
"""

from __future__ import annotations

import pytest

from repro.core.mlds import MLDS
from repro.wal.faults import CrashPoint, FaultInjector, InjectedCrash
from repro.wal.log import WalManager
from repro.wal.recovery import recover_mlds

from tests.wal.conftest import bulk, farm_image, insert

BACKENDS = 3

ENGINES = [("serial", None), ("process", 2)]


def seed(kds):
    for i in range(6):
        kds.execute(insert("f", a=i))


class TestTornBatch:
    """A bulk batch is journaled whole or not at all."""

    @pytest.mark.parametrize("engine,workers", ENGINES, ids=[e for e, _ in ENGINES])
    @pytest.mark.parametrize(
        "point",
        [CrashPoint.BEFORE_BULK_APPEND, CrashPoint.AFTER_BULK_APPEND],
        ids=lambda p: p.value,
    )
    def test_bulk_crash_never_partially_applies(self, tmp_path, point, engine, workers):
        injector = FaultInjector()
        wal = WalManager(tmp_path / "wal", BACKENDS, injector=injector)
        mlds = MLDS(backend_count=BACKENDS, engine=engine, workers=workers, wal=wal)
        seed(mlds.kds)
        pre = farm_image(mlds)

        injector.arm(point)
        with pytest.raises(InjectedCrash):
            # 9 records spread over all three backends: the batch shards
            # into three per-backend journal records.
            mlds.kds.execute(bulk("f", range(100, 109)))
        wal.close()
        mlds.kds.controller.engine.shutdown()

        recovered = recover_mlds(
            tmp_path / "wal", engine=engine, workers=workers, attach_wal=False
        )
        assert farm_image(recovered) == pre
        for backend in recovered.kds.controller.backends:
            values = [r.get("a") for r in backend.store.all_records()]
            assert not any(v is not None and v >= 100 for v in values)
        recovered.kds.shutdown()

    @pytest.mark.parametrize("engine,workers", ENGINES, ids=[e for e, _ in ENGINES])
    def test_crash_between_backend_shards_discards_them_all(
        self, tmp_path, engine, workers
    ):
        """2 of 3 shard records journaled, then the machine dies: recovery
        must not apply the journaled shards without the third."""
        injector = FaultInjector()
        wal = WalManager(tmp_path / "wal", BACKENDS, injector=injector)
        mlds = MLDS(backend_count=BACKENDS, engine=engine, workers=workers, wal=wal)
        seed(mlds.kds)
        pre = farm_image(mlds)

        injector.arm(CrashPoint.AFTER_BULK_APPEND, hits=2)
        with pytest.raises(InjectedCrash):
            mlds.kds.execute(bulk("f", range(100, 109)))
        wal.close()
        mlds.kds.controller.engine.shutdown()

        recovered = recover_mlds(
            tmp_path / "wal", engine=engine, workers=workers, attach_wal=False
        )
        assert farm_image(recovered) == pre
        recovered.kds.shutdown()
