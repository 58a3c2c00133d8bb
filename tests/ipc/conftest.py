"""Shared fixtures for the worker-transport tests."""

from __future__ import annotations

import multiprocessing

import pytest


@pytest.fixture()
def pipe_pair():
    left_end, right_end = multiprocessing.Pipe(duplex=True)
    yield left_end, right_end
    left_end.close()
    right_end.close()
