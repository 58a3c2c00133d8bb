"""Shared fixtures for the query-compilation/caching suite.

Every test runs against pristine qc state: the process-wide
:data:`repro.qc.runtime.config` singleton and the statement memo are
reset before and after each test so switch flips and memo contents never
leak between tests (or into the rest of the suite).
"""

from __future__ import annotations

import pytest

from repro.qc import runtime as qc_runtime


@pytest.fixture(autouse=True)
def _pristine_qc_state():
    qc_runtime.reset()
    yield
    qc_runtime.reset()


@pytest.fixture
def config():
    return qc_runtime.config
