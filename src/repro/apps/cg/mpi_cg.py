"""MPI implementation of the Conjugate Gradient solver.

This is the hand-tuned message-passing baseline of the paper's
Figure 1: block row distribution (one block per rank, one rank per
core), precomputed neighbour lists, packed halo exchange of the search
direction before every matrix-vector product, and allreduce dot
products.  All the communication bookkeeping that PPM's runtime does
implicitly — computing who needs which elements, packing them into
send buffers, posting matched sends/receives, unpacking into halo
slots — is explicit application code here, which is exactly why the
paper's MPI CG is 733 lines against PPM's 161.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.cg.problem import CgProblem
from repro.apps.cg.serial_cg import CgResult
from repro.apps.common import CsrBlock, csr_matvec, split_range
from repro.machine import Cluster
from repro.mpi import run_mpi

_HALO_TAG = 11


@dataclass(frozen=True)
class _RankPlan:
    """Precomputed communication plan for one rank.

    Attributes
    ----------
    lo, hi:
        Owned row range.
    Ac:
        Local matrix block with columns renumbered into the compressed
        footprint ``cols``.
    cols:
        Sorted global column footprint of the local block.
    own_pos:
        Positions of the owned columns within ``cols``.
    recv_plan:
        ``peer -> positions (within cols) of the halo entries that
        peer owns`` — where unpacked values land.
    send_plan:
        ``peer -> local row offsets this rank must pack and send``.
    """

    lo: int
    hi: int
    Ac: CsrBlock
    cols: np.ndarray
    own_pos: np.ndarray
    recv_plan: dict[int, np.ndarray]
    send_plan: dict[int, np.ndarray]


def build_rank_plans(problem: CgProblem, size: int) -> list[_RankPlan]:
    """Precompute every rank's halo-exchange plan (setup, untimed).

    A real tuned code computes this once per matrix; we do it centrally
    so each simulated rank starts with the same data a real rank would
    have after its setup phase.
    """
    n = problem.n
    blocks = split_range(n, size)
    bounds = np.array([b[0] for b in blocks] + [n])
    local: list[CsrBlock] = []
    plans_recv: list[dict[int, np.ndarray]] = []
    for rank in range(size):
        lo, hi = blocks[rank]
        local.append(CsrBlock(problem.A, lo, hi))
        cols = local[rank].cols
        owners = np.searchsorted(bounds, cols, side="right") - 1
        recv_plan: dict[int, np.ndarray] = {}
        for peer in np.unique(owners):
            peer = int(peer)
            if peer == rank:
                continue
            recv_plan[peer] = np.nonzero(owners == peer)[0]
        plans_recv.append(recv_plan)

    plans: list[_RankPlan] = []
    for rank in range(size):
        lo, hi = blocks[rank]
        Ac = local[rank]
        cols = Ac.cols
        own_pos = np.searchsorted(cols, np.arange(lo, hi))
        send_plan: dict[int, np.ndarray] = {}
        for peer in range(size):
            if peer == rank:
                continue
            wanted_pos = plans_recv[peer].get(rank)
            if wanted_pos is not None and wanted_pos.size:
                global_ids = local[peer].cols[wanted_pos]
                send_plan[peer] = global_ids - lo
        plans.append(
            _RankPlan(
                lo=lo,
                hi=hi,
                Ac=Ac,
                cols=cols,
                own_pos=own_pos,
                recv_plan=plans_recv[rank],
                send_plan=send_plan,
            )
        )
    return plans


def _exchange_halo(comm, plan: _RankPlan, p_local: np.ndarray, p_full: np.ndarray) -> None:
    """One halo exchange of the search direction.

    Packs the boundary entries each neighbour needs, posts the sends,
    receives the matching halo segments and scatters them into the
    compressed-footprint vector ``p_full``.
    """
    for peer, rows in plan.send_plan.items():
        buf = p_local[rows]  # pack
        comm.mem_work(rows.size)  # user-level packing cost
        comm.send(buf, dest=peer, tag=_HALO_TAG)
    for peer, positions in plan.recv_plan.items():
        buf = comm.recv(source=peer, tag=_HALO_TAG)
        if len(buf) != positions.size:
            raise RuntimeError(
                f"halo length mismatch from rank {peer}: "
                f"got {len(buf)}, expected {positions.size}"
            )
        p_full[positions] = buf  # unpack
        comm.mem_work(positions.size)


def _cg_rank(comm, problem: CgProblem, plans, b_norm, max_iters, tol):
    plan: _RankPlan = plans[comm.rank]
    lo, hi = plan.lo, plan.hi
    m = hi - lo

    x = np.zeros(m)
    r = problem.b[lo:hi].copy()
    p = r.copy()
    p_full = np.zeros(plan.cols.size)

    rz = comm.allreduce(float(r @ r), op="sum")
    comm.work(2 * m)

    it = 0
    converged = False
    for it in range(1, max_iters + 1):
        # Halo exchange, then local sparse matvec.
        p_full[plan.own_pos] = p
        _exchange_halo(comm, plan, p, p_full)
        q = csr_matvec(plan.Ac, p_full)
        comm.work(2 * plan.Ac.nnz)

        pq = comm.allreduce(float(p @ q), op="sum")
        comm.work(2 * m)
        if pq == 0.0:
            break
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        comm.work(4 * m)

        rz_new = comm.allreduce(float(r @ r), op="sum")
        comm.work(2 * m)
        if np.sqrt(rz_new) <= tol * b_norm:
            rz = rz_new
            converged = True
            break
        beta = rz_new / rz
        rz = rz_new
        p = r + beta * p
        comm.work(2 * m)

    return x, it, rz, converged


def mpi_cg_solve(
    problem: CgProblem,
    cluster: Cluster,
    *,
    max_iters: int = 200,
    tol: float = 1e-8,
    ranks: int | None = None,
) -> tuple[CgResult, float]:
    """Solve the problem with the MPI CG baseline on the cluster.

    One rank per core by default.  Returns the result and the
    simulated execution time of the solve.
    """
    size = cluster.total_cores if ranks is None else ranks
    plans = build_rank_plans(problem, size)
    b_norm = float(np.sqrt(problem.b @ problem.b)) or 1.0
    res = run_mpi(
        _cg_rank, cluster, problem, plans, b_norm, max_iters, tol, ranks=ranks
    )
    x = np.concatenate([out[0] for out in res.results])
    _, iterations, rz, converged = res.results[0]
    result = CgResult(
        x=x,
        iterations=iterations,
        residual_norm=float(np.sqrt(rz)),
        converged=converged,
    )
    return result, res.elapsed
