"""The six benchmark workloads.

Each workload builds its inputs from the seed, runs one *pass* of the
program under test (the unit every host-time metric is reported per),
and reduces the pass's outputs to a digest — simulated seconds, wire
messages and bytes, a CRC of the committed arrays — that must repeat
exactly: host time is the metric, simulated statistics are
correctness.  The program only ever receives the generated inputs.

Sizes are set so that a pass takes 0.5-1.3 s on the 2-core sandbox:
with three fresh processes sharing ``run_seconds`` a run still takes
nine or more passes, which is what keeps the medians steady.  The
seeded inputs are sized so that every seed gives the same amount of
work: 80k vertices of degree 12 always reach ~81% of the graph in BFS
level 4 of 5 (at degree 8 the two big levels split anywhere between
35/62% and 50/45%, and peak memory with them), and 2048 particles
keep the tree walk's read count within 2-3% across seeds (1024: 9%).
"""

from __future__ import annotations

import glob
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import dataflow, lint
from repro.apps.barneshut import make_plummer_cloud, ppm_bh_simulate, serial_bh_simulate
from repro.apps.cg import build_chimney_problem, ppm_cg_solve, serial_cg_solve
from repro.apps.graph import hashed_graph, ppm_bfs, serial_bfs
from repro.config import franklin
from repro.machine import Cluster
from repro.obs.events import PhaseTrace
from repro.obs.metrics import RunReport

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


@dataclass(frozen=True)
class Sizes:
    cg_grid: int
    cg_nodes: tuple[int, ...]
    cg_iters: int
    bfs_vertices: int
    bfs_degree: int
    bfs_nodes: int
    bh_particles: int
    bh_nodes: int
    bh_steps: int
    analyze_sweeps: int


SIZES = {
    "full": Sizes(12, (1, 2, 4, 8, 16, 32, 64), 10, 80_000, 12, 16, 2048, 8, 1, 5),
    "smoke": Sizes(12, (1, 2, 4), 5, 2_000, 12, 16, 256, 8, 1, 1),
}


@dataclass
class Outputs:
    """What one pass produced."""

    sim_s: list[float] = field(default_factory=list)
    messages: int = 0
    nbytes: int = 0
    arrays: list[np.ndarray] = field(default_factory=list)
    #: Exact non-array results (the analyzer's verdict counts).
    counts: dict = field(default_factory=dict)
    #: One PhaseTrace per ``run_ppm`` when the pass attached them.
    traces: list = field(default_factory=list)

    def digest(self) -> dict:
        crc = 0
        for a in self.arrays:
            crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
        return {
            "sim_s": list(self.sim_s),
            "messages": self.messages,
            "bytes": self.nbytes,
            "crc": crc,
            **self.counts,
        }

    def absorb(self, cluster: Cluster, elapsed: float, *arrays: np.ndarray) -> None:
        self.sim_s.append(elapsed)
        self.messages += cluster.trace.total_messages()
        self.nbytes += cluster.trace.total_bytes()
        self.arrays.extend(arrays)


class Workload:
    """One set of inputs plus the way the program is run on them."""

    name: str
    why: str
    #: Phase bodies run in this process (kernels and accessors can be
    #: wrapped by the traced run).
    inline = True
    #: The seed changes the inputs (and so the golden digest).
    seeded = False
    #: Digest keys whose golden values hold on any host.  Float CRCs
    #: depend on the BLAS kernels numpy dispatches to, so they are
    #: compared only in the float environment that wrote the golden.
    portable = ("sim_s", "messages", "bytes", "phases", "vp_phases")
    #: Per-layer metric this workload's ratio to ``baseline()`` feeds.
    ratio_metric: str | None = None
    work_unit = "vp_phases"
    #: Worker processes the phase bodies run in (1: this process).
    workers = 1

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    def build(self) -> None:
        """Generate the inputs."""

    def run(self, observe: bool = False) -> Outputs:
        """One pass.  ``observe`` attaches a PhaseTrace to every
        ``run_ppm`` (an untimed pass the benchmark counts work on)."""
        raise NotImplementedError

    def baseline(self) -> Outputs | None:
        """The same problem under the plain inline configuration, for
        the workloads that are a different configuration of it."""
        return None

    def reference_errors(self, out: Outputs) -> list[str]:
        """Compare a pass's arrays with the serial reference."""
        raise NotImplementedError

    def observed(self, out: Outputs) -> dict:
        """Counts of an ``observe`` pass that repeat exactly, plus the
        process backend's host-side summaries."""
        reports = [RunReport.from_trace(t) for t in out.traces]
        phases = [p for r in reports for p in r.phases]
        bundled = sum(r.total_messages for r in reports)
        zm = [r.zero_merge for r in reports if r.zero_merge is not None]
        hits = sum(z.plan_hits for z in zm)
        misses = sum(z.plan_misses for z in zm)
        return {
            "phases": len(phases),
            "vp_phases": sum(p.vp_count for p in phases),
            "bundling_ratio": (
                sum(r.unbundled_messages for r in reports) / bundled if bundled else 0.0
            ),
            "worker_busy_s": sum(w.busy_s for r in reports for w in r.workers or ()),
            "zero_merge_commits": sum(z.commits for z in zm),
            "zero_merge_plan_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }


# ----------------------------------------------------------------------
# Conjugate gradient: the Figure-1 sweep under three configurations
# ----------------------------------------------------------------------
class CgSweep(Workload):
    name = "cg_sweep"
    why = (
        "Figure-1 PPM CG over 1-64 Franklin nodes, inline: regular slice "
        "reads/writes and reductions, so per-VP generator stepping and "
        "access recording do most of the work."
    )
    run_opts: dict = {}
    attach_trace = False

    def build(self) -> None:
        self.problem = build_chimney_problem(self.sizes.cg_grid)

    def _sweep(self, opts: dict, attach: bool) -> Outputs:
        out = Outputs()
        for n in self.sizes.cg_nodes:
            cluster = Cluster(franklin(n_nodes=n))
            trace = PhaseTrace() if attach else None
            result, elapsed = ppm_cg_solve(
                self.problem, cluster, max_iters=self.sizes.cg_iters, tol=0.0,
                trace=trace, **opts,
            )
            out.absorb(cluster, elapsed, result.x)
            if attach:
                out.traces.append(trace)
        return out

    def run(self, observe: bool = False) -> Outputs:
        return self._sweep(self.run_opts, observe or self.attach_trace)

    def reference_errors(self, out: Outputs) -> list[str]:
        p = self.problem
        ref = serial_cg_solve(p.A, p.b, tol=0.0, max_iters=self.sizes.cg_iters)
        scale = float(np.linalg.norm(ref.x))
        errors = []
        for n, x in zip(self.sizes.cg_nodes, out.arrays):
            err = float(np.linalg.norm(x - ref.x)) / scale
            res = float(np.linalg.norm(p.b - p.A @ x))
            if err > 1e-9 or abs(res - ref.residual_norm) > 1e-9 * max(ref.residual_norm, 1.0):
                errors.append(
                    f"{n} nodes: |x-x_ref|/|x_ref|={err:.3e}, residual {res:.6e} "
                    f"vs serial {ref.residual_norm:.6e}"
                )
        return errors


class CgProcess(CgSweep):
    name = "cg_process"
    why = (
        "The same sweep with executor='process', workers=2: pool spawn, pipe "
        "round-trips, shm and zero-merge commit do the work, inline stepping "
        "none - so the process speedup is a ratio of two benchmark rows."
    )
    inline = False
    workers = 2
    run_opts = {"executor": "process", "workers": workers}
    ratio_metric = "parallel.speedup_vs_inline"

    def baseline(self) -> Outputs:
        return self._sweep({}, False)


class CgObserved(CgSweep):
    name = "cg_observed"
    why = (
        "The same sweep with a PhaseTrace, sanitize='warn' and a RunReport per "
        "solve: event emission and sanitizer checks sit on the hot path, so cost "
        "pushed from the plain path into the observed one shows."
    )
    run_opts = {"sanitize": "warn"}
    attach_trace = True
    ratio_metric = "obs.overhead_vs_plain"

    def run(self, observe: bool = False) -> Outputs:
        out = super().run(observe)
        if not observe:
            # The observed flow ends in the report a user reads.
            for trace in out.traces:
                RunReport.from_trace(trace)
        return out

    def baseline(self) -> Outputs:
        return self._sweep({}, False)


# ----------------------------------------------------------------------
class BfsScatter(Workload):
    name = "bfs_scatter"
    why = (
        "Level-synchronous BFS on a hashed graph: data-driven fancy-index "
        "accumulate(minimum), so bundling's dedup/owner split of irregular "
        "footprints dominates and per-VP stepping is negligible."
    )
    seeded = True
    portable = Workload.portable + ("crc",)  # int64 distances

    def build(self) -> None:
        self.graph = hashed_graph(
            self.sizes.bfs_vertices, degree=self.sizes.bfs_degree, seed=self.seed
        )

    def run(self, observe: bool = False) -> Outputs:
        out = Outputs()
        cluster = Cluster(franklin(n_nodes=self.sizes.bfs_nodes))
        trace = PhaseTrace() if observe else None
        dist, elapsed = ppm_bfs(self.graph, 0, cluster, trace=trace)
        out.absorb(cluster, elapsed, dist)
        if observe:
            out.traces.append(trace)
        return out

    def reference_errors(self, out: Outputs) -> list[str]:
        ref = serial_bfs(self.graph, 0)
        wrong = int(np.count_nonzero(out.arrays[0] != ref))
        return [f"{wrong} distances differ from serial_bfs"] if wrong else []


class BhReads(Workload):
    name = "bh_reads"
    why = (
        "Barnes-Hut force walk (Figure 3's kernel): tens of thousands of "
        "fine-grained random GlobalShared reads and almost no writes, so a "
        "write-path gain that taxes reads shows here."
    )
    seeded = True
    # Opening decisions compare floats, so even the traffic counts are
    # only golden in the float environment that recorded them.
    portable = ("phases", "vp_phases")

    def build(self) -> None:
        self.pos, self.vel, self.mass = make_plummer_cloud(
            self.sizes.bh_particles, seed=self.seed
        )

    def run(self, observe: bool = False) -> Outputs:
        out = Outputs()
        cluster = Cluster(franklin(n_nodes=self.sizes.bh_nodes))
        trace = PhaseTrace() if observe else None
        pos, vel, elapsed = ppm_bh_simulate(
            self.pos, self.vel, self.mass, cluster, steps=self.sizes.bh_steps, trace=trace
        )
        out.absorb(cluster, elapsed, pos, vel)
        if observe:
            out.traces.append(trace)
        return out

    def reference_errors(self, out: Outputs) -> list[str]:
        ref_pos, ref_vel = serial_bh_simulate(self.pos, self.vel, self.mass, steps=self.sizes.bh_steps
        )
        errors = []
        for label, got, ref in (("pos", out.arrays[0], ref_pos), ("vel", out.arrays[1], ref_vel)):
            err = float(np.abs(got - ref).max())
            if err > 1e-9 * max(float(np.abs(ref).max()), 1.0):
                errors.append(f"{label} differs from serial_bh by {err:.3e}")
        return errors


class AnalyzeApps(Workload):
    name = "analyze_apps"
    why = (
        "Static verifier plus linter over the six shipped PPM kernels: "
        "repro.analysis does all the work and the runtime none - the only "
        "host-time gate for analyzer rewrites."
    )
    portable = ("kernels", "certified", "findings", "lint_findings")
    work_unit = "kernels"

    def build(self) -> None:
        self.paths = sorted(glob.glob(os.path.join(SRC, "repro", "apps", "*", "ppm_*.py")))

    def run(self, observe: bool = False) -> Outputs:
        kernels = certified = findings = lint_findings = 0
        for _ in range(self.sizes.analyze_sweeps):
            # Through the module attributes, so the traced run's
            # wrappers see the calls.
            diags, summaries = dataflow.verify_paths(self.paths)
            kernels += len(summaries)
            certified += sum(s.certified for s in summaries)
            findings += len(diags)
            lint_findings += len(lint.lint_paths(self.paths))
        return Outputs(counts={
            "kernels": kernels, "certified": certified,
            "findings": findings, "lint_findings": lint_findings,
        })

    def reference_errors(self, out: Outputs) -> list[str]:
        # The verdict counts have no second implementation; golden.json
        # is their reference.  All six apps must at least be found.
        expect = 6 * self.sizes.analyze_sweeps
        got = out.counts["kernels"]
        return [] if got == expect else [f"verified {got} kernels, expected {expect}"]

    def observed(self, out: Outputs) -> dict:
        return dict(out.counts)


WORKLOADS = {
    w.name: w
    for w in (CgSweep, CgProcess, CgObserved, BfsScatter, BhReads, AnalyzeApps)
}
