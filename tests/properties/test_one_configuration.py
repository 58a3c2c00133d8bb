"""Property: one configuration, carried by the system.

For any configuration — one to four backends, the serial or process
engine, workers, lock timeout, read path, a subset of index attributes
and the WAL's sync mode — every path that builds a system from files or
from another system builds the same one:

* checkpoint, drop the system, then ``recover_mlds(dir)`` with no other
  argument: the durable part (backend count, index attributes built on
  every store, sync mode) is equal;
* the shell's ``.recover`` and ``.load``: the whole ``config`` is equal,
  and so are the indexes;
* ``heal_workers`` after a worker dies (process engine): the whole
  ``config`` is equal, and so are the indexes, one added after the
  checkpoint included.

Process-engine examples fork real workers, so they get a small example
budget.  A plain test ties :class:`MLDSConfig` to ``MLDS.__init__``: every
machine keyword is a field with the same default, so a new keyword
cannot be forgotten by one replacement path.
"""

from __future__ import annotations

import inspect
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.abdl import parse_request
from repro.cli import MLDSShell
from repro.core.mlds import MLDS, MLDSConfig
from repro.wal.log import WalManager
from repro.wal.recovery import checkpoint_mlds, recover_mlds
from tests.wal.conftest import insert

ATTRIBUTES = ("a", "b", "c")

#: ``MLDS.__init__`` keywords that are not machine settings, and why.
NOT_MACHINE = {
    "backend_count": "durable: wal-meta.json and the snapshot",
    "timing": "durable: the snapshot",
    "wal": "durable: the directory, which records its sync mode",
    "store_factory": "an object handed to the new system as it is",
    "obs": "an object handed to the new system as it is",
}


@st.composite
def deployments(draw, engine: str):
    """(backends, machine config, index attributes, WAL sync mode)."""
    backends = draw(st.integers(1, 4))
    config = MLDSConfig(
        engine=engine,
        workers=draw(st.none() | st.integers(1, backends)) if engine == "process" else None,
        lock_timeout=draw(st.sampled_from((0.5, 2.0, 10.0))),
        snapshot_reads=draw(st.booleans()),
    )
    indexes = draw(st.lists(st.sampled_from(ATTRIBUTES), unique=True))
    return backends, config, indexes, draw(st.booleans())


def build(wal_dir: Path, backends: int, config: MLDSConfig, indexes, sync: bool) -> MLDS:
    mlds = MLDS(
        backend_count=backends,
        wal=WalManager(wal_dir, backends, sync=sync),
        **asdict(config),
    )
    mlds.kds.controller.add_index(*indexes)
    for i in range(7):
        mlds.kds.execute(insert("f", a=i, b=i % 3, c=f"v{i}"))
    return mlds


def index_state(mlds: MLDS) -> tuple:
    """The controller's attributes and each store's built indexes."""
    stores = [b.store.index_snapshot() for b in mlds.kds.controller.backends]
    return (
        list(mlds.kds.controller.indexed_attributes),
        [(store["attributes"], store["files"]) for store in stores],
    )


def durable_part(mlds: MLDS) -> tuple:
    return mlds.kds.controller.backend_count, index_state(mlds), mlds.kds.wal.sync


def check_restart(deployment) -> None:
    backends, config, indexes, sync = deployment
    with tempfile.TemporaryDirectory() as scratch:
        wal_dir = Path(scratch) / "wal"
        mlds = build(wal_dir, backends, config, indexes, sync)
        checkpoint_mlds(mlds)
        mlds.kds.execute(insert("f", a=99, b=1, c="tail"))  # replayed onto the indexes
        expected = durable_part(mlds)
        mlds.kds.shutdown()

        recovered = recover_mlds(wal_dir)
        try:
            assert durable_part(recovered) == expected
        finally:
            recovered.kds.shutdown()


def check_shell(deployment) -> None:
    backends, config, indexes, sync = deployment
    with tempfile.TemporaryDirectory() as scratch:
        wal_dir = Path(scratch) / "wal"
        shell = MLDSShell(build(wal_dir, backends, config, indexes, sync))
        try:
            expected = index_state(shell.mlds)
            assert "checkpointed" in shell.handle_line(".checkpoint")
            assert "recovered" in shell.handle_line(f".recover {wal_dir}")
            assert (shell.mlds.config, index_state(shell.mlds)) == (config, expected)
            snapshot = Path(scratch) / "snap.json"
            assert "saved" in shell.handle_line(f".save {snapshot}")
            assert "loaded" in shell.handle_line(f".load {snapshot}")
            assert (shell.mlds.config, index_state(shell.mlds)) == (config, expected)
        finally:
            shell.mlds.kds.shutdown()


@settings(max_examples=25, deadline=None)
@given(deployments("serial"))
def test_serial_restart_keeps_the_durable_settings(deployment):
    check_restart(deployment)


@settings(max_examples=4, deadline=None)
@given(deployments("process"))
def test_process_restart_keeps_the_durable_settings(deployment):
    check_restart(deployment)


@settings(max_examples=15, deadline=None)
@given(deployments("serial"))
def test_serial_shell_replacements_keep_the_config(deployment):
    check_shell(deployment)


@settings(max_examples=3, deadline=None)
@given(deployments("process"))
def test_process_shell_replacements_keep_the_config(deployment):
    check_shell(deployment)


@settings(max_examples=4, deadline=None)
@given(deployments("process"))
def test_heal_keeps_the_config(deployment):
    backends, config, indexes, sync = deployment
    with tempfile.TemporaryDirectory() as scratch:
        mlds = build(Path(scratch) / "wal", backends, config, indexes, sync)
        try:
            checkpoint_mlds(mlds)
            mlds.kds.controller.add_index("d")  # after the checkpoint
            mlds.kds.execute(insert("f", a=99, d=1))
            expected = index_state(mlds)
            process = mlds.kds.controller.backends[0]._process
            process.kill()
            process.join(timeout=10)
            mlds.kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))  # heals
            assert mlds.kds.controller.backends[0]._process is not process
            assert (mlds.config, index_state(mlds)) == (config, expected)
        finally:
            mlds.kds.shutdown()


def test_config_fields_are_the_machine_keywords_of_mlds():
    parameters = inspect.signature(MLDS.__init__).parameters
    machine = {
        name: parameter.default
        for name, parameter in parameters.items()
        if name != "self" and name not in NOT_MACHINE
    }
    assert {field.name: field.default for field in fields(MLDSConfig)} == machine
    assert MLDS(backend_count=1).config == MLDSConfig()
