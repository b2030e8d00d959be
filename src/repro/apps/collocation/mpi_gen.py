"""MPI implementation of the multiscale matrix generation.

The message-passing counterpart of :mod:`repro.apps.collocation.ppm_gen`:
the cache tables are block-distributed over the ranks, and every
level's random accesses become an explicit request/reply protocol that
the application must write itself —

1. deduplicate the cache indices this rank's rows need and split them
   by owning rank;
2. tell every peer how many indices are coming (count exchange — a
   receiver cannot size its buffers otherwise);
3. ship the index lists, receive the peers' lists;
4. serve each incoming list from the local cache slice and ship the
   values back;
5. receive the value buffers and unpack them into a lookup aligned
   with the deduplicated index order.

All of this bundling/unbundling is user code here; in PPM the runtime
does it (paper section 4.6: "the MPI programs include very significant
codes in bundling and unbundling fine-grained communication
messages").
"""

from __future__ import annotations

import numpy as np

from repro.apps.collocation.multiscale import MultiscaleProblem, slots_to_coo
from repro.apps.common import split_range
from repro.machine import Cluster
from repro.mpi import run_mpi

_TAG_COUNT = 21
_TAG_INDEX = 22
_TAG_VALUE = 23


def _exchange_cache_values(comm, uniq, owners, local_cache, cache_lo):
    """The request/reply protocol: fetch the cache values for the
    deduplicated global indices ``uniq`` from their owning ranks.

    Returns the values aligned with ``uniq``.
    """
    rank, size = comm.rank, comm.size
    values = np.empty(uniq.size)

    # Build per-owner request lists (packing).
    requests: dict[int, np.ndarray] = {}
    positions: dict[int, np.ndarray] = {}
    for peer in range(size):
        sel = np.nonzero(owners == peer)[0]
        if sel.size == 0:
            continue
        positions[peer] = sel
        requests[peer] = uniq[sel]
    comm.mem_work(uniq.size)

    # Serve myself without messaging.
    if rank in requests:
        values[positions[rank]] = local_cache[requests[rank] - cache_lo]

    # Round 0: counts, so receivers can size buffers (the classic
    # MPI_Alltoall over the request-count vector).
    counts_out = [
        len(requests.get(peer, ())) if peer != rank else 0 for peer in range(size)
    ]
    counts_in = comm.alltoall(counts_out)
    incoming_counts = {
        peer: counts_in[peer] for peer in range(size) if peer != rank
    }

    # Round 1: ship index lists.
    for peer, req in requests.items():
        if peer != rank:
            comm.send(req, dest=peer, tag=_TAG_INDEX)
    incoming_requests = {}
    for peer, count in incoming_counts.items():
        if count == 0:
            continue
        req = comm.recv(source=peer, tag=_TAG_INDEX)
        if len(req) != count:
            raise RuntimeError(
                f"request length mismatch from rank {peer}: "
                f"got {len(req)}, expected {count}"
            )
        incoming_requests[peer] = req

    # Round 2: serve and ship values back.
    served = 0
    for peer, req in incoming_requests.items():
        reply = local_cache[req - cache_lo]
        served += reply.size
        comm.send(reply, dest=peer, tag=_TAG_VALUE)
    comm.mem_work(served)

    for peer, sel in positions.items():
        if peer == rank:
            continue
        reply = comm.recv(source=peer, tag=_TAG_VALUE)
        values[sel] = reply  # unpack
    comm.mem_work(uniq.size)
    return values


def _gen_rank(comm, problem: MultiscaleProblem, cache_blocks, row_blocks):
    rank, size = comm.rank, comm.size
    cache_lo, cache_hi = cache_blocks[rank]
    row_lo, row_hi = row_blocks[rank]
    my_rows = np.arange(row_lo, row_hi, dtype=np.int64)
    cache_bounds = np.array([b[0] for b in cache_blocks] + [problem.cache_total])

    base = problem.config.base_cols
    local_cache = np.zeros(cache_hi - cache_lo)
    vals_local = np.zeros((row_hi - row_lo, base * (problem.config.levels + 1)))

    for level in range(problem.config.levels + 1):
        # Evaluate my slice of this level's cache table.
        lo = max(cache_lo, int(problem.cache_offsets[level]))
        hi = min(cache_hi, int(problem.cache_offsets[level + 1]))
        if lo < hi:
            idx = np.arange(lo, hi, dtype=np.int64)
            local_cache[lo - cache_lo : hi - cache_lo] = problem.cache_values(idx)
            comm.work(problem.quad_flops(hi - lo))
        # Everyone's cache slice must be ready before requests arrive.
        comm.barrier()

        # Which cache entries do my rows need, and who owns them?
        r, _c, cache_idx, coeffs, slot_j = problem.row_entries(my_rows, level)
        uniq = np.unique(cache_idx)
        owners = np.searchsorted(cache_bounds, uniq, side="right") - 1

        values = _exchange_cache_values(comm, uniq, owners, local_cache, cache_lo)

        if r.size == 0:
            continue
        inv = np.searchsorted(uniq, cache_idx)
        entry_vals = (coeffs * values[inv]).sum(axis=1)
        comm.work(problem.combine_flops(r.size))
        vals_local[r - row_lo, level * base + slot_j] = entry_vals

    return vals_local


def mpi_generate(
    problem: MultiscaleProblem,
    cluster: Cluster,
    *,
    ranks: int | None = None,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], float]:
    """Generate the matrix with the MPI baseline on the cluster.

    Returns the matrix's COO triple ``(rows, cols, vals)`` and the
    simulated time.
    """
    size = cluster.total_cores if ranks is None else ranks
    cache_blocks = split_range(problem.cache_total, size)
    row_blocks = split_range(problem.n, size)
    res = run_mpi(_gen_rank, cluster, problem, cache_blocks, row_blocks, ranks=ranks)
    vals = np.vstack(res.results)
    return slots_to_coo(problem, vals), res.elapsed
