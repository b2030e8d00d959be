"""Series builders for every figure of the paper plus the ablations.

Each function runs the relevant application(s) over a node-count (or
cores-per-node) sweep on freshly built simulated clusters and returns
a :class:`~repro.bench.harness.SweepResult` whose rows mirror the
figure's data series.  Times are simulated seconds on the Franklin-like
machine model — the *shape* (who wins, by what factor, where curves
cross) is the reproduction target, not absolute values.
"""

from __future__ import annotations

from typing import Sequence

from repro.apps.barneshut import make_plummer_cloud, mpi_bh_simulate, ppm_bh_simulate
from repro.apps.cg import build_chimney_problem, mpi_cg_solve, ppm_cg_solve
from repro.apps.collocation import CollocationConfig, MultiscaleProblem, mpi_generate, ppm_generate
from repro.bench.harness import SweepResult, run_sweep
from repro.config import franklin
from repro.machine import Cluster

DEFAULT_NODES = (1, 2, 4, 8, 16, 32, 64)


def _cluster(nodes: int, **overrides) -> Cluster:
    return Cluster(franklin(n_nodes=nodes, **overrides))


# ----------------------------------------------------------------------
# Figure 1: Conjugate Gradient solver
# ----------------------------------------------------------------------

def fig1_cg(
    node_counts: Sequence[int] = DEFAULT_NODES,
    *,
    nx: int = 12,
    iters: int = 30,
    **overrides,
) -> SweepResult:
    """Figure 1: CG solve time, PPM vs tuned MPI, strong scaling."""
    problem = build_chimney_problem(nx)

    def runner(nodes: int) -> dict:
        _, t_ppm = ppm_cg_solve(
            problem, _cluster(nodes, **overrides), max_iters=iters, tol=0.0
        )
        _, t_mpi = mpi_cg_solve(
            problem, _cluster(nodes, **overrides), max_iters=iters, tol=0.0
        )
        return {
            "ppm_s": t_ppm,
            "mpi_s": t_mpi,
            "ppm/mpi": t_ppm / t_mpi,
        }

    result = run_sweep(
        "fig1_cg",
        "nodes",
        node_counts,
        runner,
        notes=(
            f"CG, 27-pt stencil on {nx}x{nx}x{2*nx} chimney grid "
            f"({problem.n} rows, {problem.nnz} nnz), {iters} iterations, "
            "4 cores/node (Franklin-like)"
        ),
    )
    ratios = result.series("ppm/mpi")
    result.claim("PPM is much slower on one node (ppm/mpi > 2.0)", ratios[0] > 2.0)
    result.claim("PPM has nearly caught up at scale (ppm/mpi < 1.1)", ratios[-1] < 1.1)
    result.claim(
        "the ppm/mpi ratio falls as nodes increase (monotone, or more than halved)",
        ratios == sorted(ratios, reverse=True) or ratios[-1] < 0.5 * ratios[0],
    )
    return result


# ----------------------------------------------------------------------
# Figure 2: multiscale collocation matrix generation
# ----------------------------------------------------------------------

def fig2_matgen(
    node_counts: Sequence[int] = DEFAULT_NODES,
    *,
    levels: int = 10,
    **overrides,
) -> SweepResult:
    """Figure 2: matrix generation time, PPM vs MPI request/reply."""
    problem = MultiscaleProblem(CollocationConfig(levels=levels))

    def runner(nodes: int) -> dict:
        _, t_ppm = ppm_generate(problem, _cluster(nodes, **overrides))
        _, t_mpi = mpi_generate(problem, _cluster(nodes, **overrides))
        return {
            "ppm_s": t_ppm,
            "mpi_s": t_mpi,
            "ppm/mpi": t_ppm / t_mpi,
        }

    result = run_sweep(
        "fig2_matgen",
        "nodes",
        node_counts,
        runner,
        notes=(
            f"Multiscale collocation generation, L={levels} "
            f"({problem.n} rows, cache {problem.cache_total} integrals), "
            "4 cores/node"
        ),
    )
    ratios = result.series("ppm/mpi")
    result.claim("PPM is at least competitive everywhere (ppm/mpi < 1.25)", max(ratios) < 1.25)
    result.claim("PPM scales clearly better (ppm/mpi < 0.5 at scale)", ratios[-1] < 0.5)
    result.claim("the gap widens with node count", ratios[-1] < ratios[0])
    return result


# ----------------------------------------------------------------------
# Figure 3: Barnes-Hut
# ----------------------------------------------------------------------

def fig3_barneshut(
    node_counts: Sequence[int] = DEFAULT_NODES,
    *,
    n_particles: int = 2048,
    steps: int = 2,
    mpi_reference_max_nodes: int = 8,
    **overrides,
) -> SweepResult:
    """Figure 3: Barnes-Hut step time, PPM scaling.

    The paper had no MPI Barnes-Hut (Table 1 lists it as N/A); the
    tree-replication method it criticises ([9]) is included here as a
    reference up to ``mpi_reference_max_nodes`` nodes.
    """
    pos, vel, mass = make_plummer_cloud(n_particles, seed=11)

    def runner(nodes: int) -> dict:
        _, _, t_ppm = ppm_bh_simulate(
            pos, vel, mass, _cluster(nodes, **overrides), steps=steps
        )
        row = {"ppm_s": t_ppm}
        if nodes <= mpi_reference_max_nodes:
            _, _, t_mpi = mpi_bh_simulate(
                pos, vel, mass, _cluster(nodes, **overrides), steps=steps
            )
            row["mpi_repl_s"] = t_mpi
        return row

    result = run_sweep(
        "fig3_barneshut",
        "nodes",
        node_counts,
        runner,
        notes=(
            f"Barnes-Hut, {n_particles} particles, theta=0.5, "
            f"{steps} steps, 4 cores/node; mpi_repl_s = tree-replication "
            "reference [9] (not in the paper's figure)"
        ),
    )
    times = result.series("ppm_s")
    result.claim(
        "PPM time falls over each of the first two node doublings",
        all(b < a for a, b in zip(times, times[1:3])),
    )
    if n_particles >= 1024:
        # Smaller clouds hit the per-phase latency floor first (512
        # particles bottom out at 0.43x): the claim needs the work.
        result.claim(
            "PPM scales well: the best time is far below one node's (< 0.4x)",
            min(times) < 0.4 * times[0],
        )
    return result


# ----------------------------------------------------------------------
# Ablations (claims A1-A4 in DESIGN.md)
# ----------------------------------------------------------------------

def ablation_manycore(
    cores_sweep: Sequence[int] = (4, 16, 64),
    *,
    total_cores: int = 256,
    nx: int = 12,
    iters: int = 20,
) -> SweepResult:
    """A1: "the benefits of the PPM model ... will be more significant
    when the number of cores per node increases."  Fixed total core
    budget, redistributed into fatter nodes (always keeping a
    multi-node cluster — a single fat node has no network and is
    outside the claim)."""
    problem = build_chimney_problem(nx)

    def runner(cores: int) -> dict:
        nodes = max(1, total_cores // cores)
        cluster_p = Cluster(franklin(n_nodes=nodes).replace(cores_per_node=cores))
        _, t_ppm = ppm_cg_solve(problem, cluster_p, max_iters=iters, tol=0.0)
        cluster_m = Cluster(franklin(n_nodes=nodes).replace(cores_per_node=cores))
        _, t_mpi = mpi_cg_solve(problem, cluster_m, max_iters=iters, tol=0.0)
        return {
            "nodes": nodes,
            "ppm_s": t_ppm,
            "mpi_s": t_mpi,
            "ppm/mpi": t_ppm / t_mpi,
        }

    result = run_sweep(
        "ablation_manycore",
        "cores_per_node",
        cores_sweep,
        runner,
        notes=f"CG ({nx}^2 x {2*nx} grid), {total_cores} total cores redistributed",
    )
    ratios = result.series("ppm/mpi")
    result.claim("PPM's relative position improves as nodes get fatter", ratios[-1] < ratios[0])
    result.claim("PPM wins outright on manycore nodes (ppm/mpi < 1.0)", ratios[-1] < 1.0)
    return result


def ablation_bundling(
    node_counts: Sequence[int] = (2, 4, 8),
    *,
    n_particles: int = 1024,
) -> SweepResult:
    """A2: message bundling is what makes fine-grained shared access
    viable (paper section 3.3)."""
    pos, vel, mass = make_plummer_cloud(n_particles, seed=11)

    def runner(nodes: int) -> dict:
        _, _, t_on = ppm_bh_simulate(
            pos, vel, mass, _cluster(nodes), steps=1
        )
        _, _, t_off = ppm_bh_simulate(
            pos, vel, mass, _cluster(nodes, bundling=False), steps=1
        )
        return {"bundled_s": t_on, "unbundled_s": t_off, "speedup": t_off / t_on}

    result = run_sweep(
        "ablation_bundling",
        "nodes",
        node_counts,
        runner,
        notes=f"PPM Barnes-Hut, {n_particles} particles, bundling on vs one message per element",
    )
    result.claim(
        "bundling is a large win on fine-grained access (speedup > 3.0 everywhere)",
        all(s > 3.0 for s in result.series("speedup")),
    )
    return result


def ablation_overlap(
    node_counts: Sequence[int] = (4, 16, 64),
    *,
    nx: int = 12,
    iters: int = 20,
) -> SweepResult:
    """A3: comm/computation overlap and NIC scheduling help at scale."""
    problem = build_chimney_problem(nx)

    def runner(nodes: int) -> dict:
        _, t_on = ppm_cg_solve(problem, _cluster(nodes), max_iters=iters, tol=0.0)
        _, t_off = ppm_cg_solve(
            problem,
            _cluster(nodes, overlap_fraction=0.0, nic_scheduling=False),
            max_iters=iters,
            tol=0.0,
        )
        return {"optimised_s": t_on, "disabled_s": t_off, "speedup": t_off / t_on}

    result = run_sweep(
        "ablation_overlap",
        "nodes",
        node_counts,
        runner,
        notes=f"PPM CG ({nx} grid), overlap+NIC scheduling on vs off",
    )
    speedups = result.series("speedup")
    result.claim("overlap + NIC scheduling never hurt (speedup >= 1.0)", all(s >= 1.0 for s in speedups))
    result.claim("the optimisations matter at scale (speedup > 1.02)", speedups[-1] > 1.02)
    return result


def ablation_smartmap(
    node_counts: Sequence[int] = (1, 2, 4),
    *,
    nx: int = 12,
    iters: int = 20,
) -> SweepResult:
    """A4 (the paper's footnote 1): SmartMap-style cheap intra-node MPI
    reduces the baseline's overhead where ranks share a node."""
    problem = build_chimney_problem(nx)

    def runner(nodes: int) -> dict:
        _, t_plain = mpi_cg_solve(problem, _cluster(nodes), max_iters=iters, tol=0.0)
        _, t_smart = mpi_cg_solve(
            problem, _cluster(nodes, smartmap=True), max_iters=iters, tol=0.0
        )
        return {"mpi_s": t_plain, "mpi_smartmap_s": t_smart, "speedup": t_plain / t_smart}

    result = run_sweep(
        "ablation_smartmap",
        "nodes",
        node_counts,
        runner,
        notes=f"MPI CG ({nx} grid), stock intra-node messaging vs SmartMap-like",
    )
    speedups = result.series("speedup")
    result.claim("SmartMap never hurts (speedup >= 1.0)", all(s >= 1.0 for s in speedups))
    result.claim("SmartMap helps most when nodes are few (speedup > 1.01)", speedups[0] > 1.01)
    return result


# ----------------------------------------------------------------------
# Extension experiments (motivating workloads the paper never measured)
# ----------------------------------------------------------------------

def ext_bfs(
    node_counts: Sequence[int] = (1, 2, 4, 8),
    *,
    n_vertices: int = 4000,
    degree: int = 4,
) -> SweepResult:
    """Extension: level-synchronous BFS (the intro's "graph
    algorithms"), PPM vs MPI owner-directed updates."""
    from repro.apps.graph import hashed_graph, mpi_bfs, ppm_bfs

    graph = hashed_graph(n_vertices, degree=degree, seed=7)

    def runner(nodes: int) -> dict:
        _, t_ppm = ppm_bfs(graph, 0, _cluster(nodes))
        _, t_mpi = mpi_bfs(graph, 0, _cluster(nodes))
        return {"ppm_s": t_ppm, "mpi_s": t_mpi, "ppm/mpi": t_ppm / t_mpi}

    result = run_sweep(
        "ext_bfs",
        "nodes",
        node_counts,
        runner,
        notes=f"BFS from vertex 0 on a hashed expander ({n_vertices} vertices, degree {degree})",
    )
    ratios = result.series("ppm/mpi")
    result.claim("PPM wins BFS at scale (ppm/mpi < 0.8)", ratios[-1] < 0.8)
    result.claim("PPM's relative position improves with node count", ratios[-1] < ratios[0])
    return result


def ext_trsv(
    node_counts: Sequence[int] = (1, 2, 4, 8),
    *,
    nx: int = 8,
) -> SweepResult:
    """Extension: wavefront sparse triangular solve (the intro's [20]).
    Documents an honest limitation: the tuned asynchronous MPI push
    wins this latency-bound kernel against phase-per-wavefront PPM."""
    from repro.apps.sptrsv import build_trsv_problem, mpi_trsv, ppm_trsv

    problem = build_trsv_problem(nx)

    def runner(nodes: int) -> dict:
        _, t_ppm = ppm_trsv(problem, _cluster(nodes))
        _, t_mpi = mpi_trsv(problem, _cluster(nodes))
        return {"ppm_s": t_ppm, "mpi_s": t_mpi, "ppm/mpi": t_ppm / t_mpi}

    result = run_sweep(
        "ext_trsv",
        "nodes",
        node_counts,
        runner,
        notes=(
            f"Forward substitution, tril of the {nx}^2x{2*nx} stencil matrix "
            f"({problem.n} rows, {problem.n_levels} wavefront levels)"
        ),
    )
    result.claim(
        "the documented limitation: tuned MPI wins every multi-node run (ppm/mpi > 1.0)",
        all(r > 1.0 for r in result.series("ppm/mpi")[1:]),
    )
    return result


def ablation_loadbalance(
    vp_factors: Sequence[int] = (2, 4, 8),
    *,
    n_nodes: int = 4,
    phases: int = 6,
) -> SweepResult:
    """A5 (section 3): processor virtualisation lets the runtime load-
    balance.  A skewed synthetic workload — per-VP cost drawn from a
    heavy-tailed hash — under static loop chunking vs measured-cost
    rebalancing, at increasing virtualisation factors (VPs per core)."""
    from repro.apps.common import hash_unit
    from repro.core import ppm_function, run_ppm

    def make_main(vps_per_core: int):
        @ppm_function
        def skewed(ctx):
            # Persistent per-VP skew (e.g. spatial imbalance): the
            # regime where measured history predicts the next phase.
            u = float(hash_unit(ctx.global_rank * 131))
            for _p in range(phases):
                yield ctx.global_phase
                ctx.work(50_000 + int(2_000_000 * u**4))  # heavy tail

        def main(ppm):
            ppm.do(ppm.cores_per_node * vps_per_core, skewed)
            return ppm.elapsed

        return main

    def runner(vpf: int) -> dict:
        main = make_main(vpf)
        _, t_static = run_ppm(main, _cluster(n_nodes))
        _, t_lb = run_ppm(main, _cluster(n_nodes, load_balancing=True))
        return {"static_s": t_static, "balanced_s": t_lb, "speedup": t_static / t_lb}

    result = run_sweep(
        "ablation_loadbalance",
        "vps_per_core",
        vp_factors,
        runner,
        notes=(
            f"Synthetic heavy-tailed per-VP work, {n_nodes} nodes x 4 cores, "
            f"{phases} phases; static loop chunks vs measured-cost LPT"
        ),
    )
    speedups = result.series("speedup")
    result.claim("rebalancing never hurts (speedup >= 1.0)", all(s >= 1.0 for s in speedups))
    result.claim("balancing pays off on skewed work (best speedup > 1.2)", max(speedups) > 1.2)
    return result


def ext_multigrid(
    node_counts: Sequence[int] = (1, 2, 4, 8),
    *,
    levels: int = 8,
    cycles: int = 5,
) -> SweepResult:
    """Extension: geometric multigrid V-cycles (the intro's
    "multi-grid").  Both models hit the coarse-level synchronisation
    squeeze; PPM's fixed phase cost versus MPI's per-op halo plans."""
    from repro.apps.multigrid import build_mg_problem, mpi_mg_solve, ppm_mg_solve

    problem = build_mg_problem(levels=levels)

    def runner(nodes: int) -> dict:
        _, t_ppm = ppm_mg_solve(problem, _cluster(nodes), cycles=cycles)
        _, t_mpi = mpi_mg_solve(problem, _cluster(nodes), cycles=cycles)
        return {"ppm_s": t_ppm, "mpi_s": t_mpi, "ppm/mpi": t_ppm / t_mpi}

    result = run_sweep(
        "ext_multigrid",
        "nodes",
        node_counts,
        runner,
        notes=(
            f"1-D Poisson V(2,2) cycles x{cycles}, {2 ** levels * 4 + 1} fine "
            f"points, {levels + 1} levels"
        ),
    )
    result.claim(
        "PPM at least matches MPI at scale (ppm/mpi < 1.2)",
        result.series("ppm/mpi")[-1] < 1.2,
    )
    return result
