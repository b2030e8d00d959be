"""Interrupt safety of ``run_ppm``: a KeyboardInterrupt inside a VP
body must propagate (not be swallowed or re-wrapped) and must not leak
a partial commit.  (That ``run_ppm`` still closes the runtime is
``test_hot_path.py::TestRuntimeClose``; that the process executor
leaves no worker or segment behind is tests/parallel/test_teardown.py.)"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import testing as mkconfig
from repro.core import ppm_function, run_ppm
from repro.machine import Cluster


def _cluster(**kw):
    return Cluster(mkconfig(n_nodes=2, cores_per_node=2, **kw))


@ppm_function
def _interrupting(ctx, A, interrupt):
    yield ctx.global_phase
    A[ctx.global_rank] = 1.0
    yield ctx.global_phase
    A[ctx.global_rank] = 2.0
    if interrupt and ctx.global_rank == 3:
        raise KeyboardInterrupt
    yield ctx.global_phase
    A[ctx.global_rank] = 3.0


class TestKeyboardInterrupt:
    def test_propagates_uncommitted(self):
        """The interrupt surfaces as KeyboardInterrupt (BaseException
        must not be converted to VpProgramError) and the interrupted
        phase's buffered writes never commit."""
        state = {}

        def main(ppm):
            A = ppm.global_shared("A", 4)
            A[:] = -1.0
            state["A"] = A
            ppm.do(2, _interrupting, A, interrupt=True)

        with pytest.raises(KeyboardInterrupt):
            run_ppm(main, _cluster())
        committed = state["A"].committed
        # Phase 0 (writes of 1.0) committed; the interrupted phase 1
        # aborted before its barrier, so no element ever became 2.0.
        assert np.array_equal(committed, np.full(4, 1.0))

    def test_clean_run_unaffected(self):
        def main(ppm):
            A = ppm.global_shared("A", 4)
            ppm.do(2, _interrupting, A, interrupt=False)
            return A.committed

        _, a = run_ppm(main, _cluster())
        assert np.array_equal(a, np.full(4, 3.0))
