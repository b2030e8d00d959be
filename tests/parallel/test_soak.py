"""A long process-backend run holds steady: what the parent keeps for
its workers' phase shapes is bounded by the shapes, not by the rounds.

Barnes-Hut repeats two shapes every step (tree build, integration)
and its force walk is new every step: its data-driven reads go into
row logs, so that round ships in full and nothing of it is kept.  Two
steps and five must therefore end a ``do`` with the same plans on both
ends of the pipe.  CI runs this file under ``PPM_ZERO_MERGE_VERIFY=1``.
"""

from __future__ import annotations

from repro.apps.barneshut import make_plummer_cloud, ppm_bh_simulate
from repro.config import franklin
from repro.core.runtime import PpmRuntime
from repro.machine import Cluster
from repro.parallel.backend import ProcessBackend


class TestSoak:
    def test_barnes_hut_keeps_as_many_plans_after_5_steps_as_after_2(
        self, monkeypatch
    ):
        kept, at_end = [0], []
        run_phase, end_do = PpmRuntime._run_phase, ProcessBackend.end_do

        # The runtime drops its plans just before end_do, so the count
        # is taken after each round.
        def running(self, *args):
            run_phase(self, *args)
            kept[0] = len(self._phase_plans)

        def ending(self):
            at_end.append(([len(c) for c in self._rec_cache], kept[0]))
            end_do(self)

        monkeypatch.setattr(PpmRuntime, "_run_phase", running)
        monkeypatch.setattr(ProcessBackend, "end_do", ending)
        for steps in (2, 5):
            pos, vel, mass = make_plummer_cloud(256, seed=3)
            ppm_bh_simulate(
                pos, vel, mass, Cluster(franklin(n_nodes=4)), steps=steps,
                executor="process", workers=2,
            )
        assert at_end == [([2], 2), ([2], 2)]
