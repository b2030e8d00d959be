"""Fixtures for the process-backend tests."""

from __future__ import annotations

import contextlib

import pytest

from repro.parallel.backend import ProcessBackend


@contextlib.contextmanager
def _ship_records():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ProcessBackend, "_may_hold", lambda self: False)
        yield


@pytest.fixture(scope="session")
def ship_records():
    """``with ship_records(): run_ppm(..., executor="process")`` runs
    every round on the record-shipping path — the reference the
    zero-merge commit is diffed against — by answering "no" at the one
    place the parent decides whether a ``do`` may hold its operations
    worker-side.  Session-scoped and stateless (a context-manager
    factory), so hypothesis-driven tests can use it."""
    return _ship_records
