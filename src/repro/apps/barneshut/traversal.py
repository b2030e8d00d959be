"""Fetch-driven Barnes-Hut traversal.

One traversal engine serves all three implementations; what differs is
where the tree lives, expressed by two fetch callbacks:

* serial — direct numpy indexing of the local tree;
* PPM — the callbacks index global shared arrays, so every fetched
  record is a fine-grained remote access the runtime bundles (the
  paper: "totally data-driven random access to the tree and the
  particles");
* MPI — indexing of the replicated tree copies received each step.

The walk is breadth-first and vectorised over a particle chunk:
each round fetches the unique tree records the frontier needs, adds
monopole contributions for accepted cells, resolves leaves by direct
summation, and expands the rest.  A round's leaves are fetched in one
call, in node order, then all of its leaf pairs are interacted in one
flat batch.  Per particle, cells are visited in a deterministic order
independent of the chunking, so all three implementations produce
bit-identical accelerations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps.barneshut.octree import (
    F_COM,
    F_FIRST_CHILD,
    F_HALFW,
    F_MASS,
    F_NCHILDREN,
    F_PCOUNT,
    F_PSTART,
)

FLOPS_PER_INTERACTION = 20.0


@dataclass(frozen=True)
class WalkResult:
    """Accelerations plus traversal statistics for cost charging."""

    acc: np.ndarray
    interactions: int
    rounds: int
    records_fetched: int


def walk_forces(
    pos_chunk: np.ndarray,
    fetch_tree: Callable[[np.ndarray], np.ndarray],
    fetch_leaves: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    theta: float = 0.5,
    eps: float = 1e-3,
) -> WalkResult:
    """Compute accelerations on ``pos_chunk`` against the tree behind
    the fetch callbacks.

    ``fetch_tree(rows)`` returns tree records; ``fetch_leaves(starts,
    counts)`` the ``(counts.sum(), 4)`` position+mass rows of the
    leaves whose particles sit at ``perm[s:s + c]``, leaf after leaf
    (``posm[perm[flat_ranges(starts, counts)]]`` over local arrays).
    """
    m = pos_chunk.shape[0]
    acc = np.zeros((m, 3))
    if m == 0:
        return WalkResult(acc=acc, interactions=0, rounds=0, records_fetched=0)
    pairs_p = np.arange(m, dtype=np.int64)
    pairs_n = np.zeros(m, dtype=np.int64)  # everyone starts at the root
    theta2 = theta * theta
    eps2 = eps * eps
    interactions = 0
    rounds = 0
    fetched = 0

    while pairs_p.size:
        rounds += 1
        # Sorted unique nodes and each pair's slot among them, by a
        # bitmap over the frontier's node range rather than a sort.
        lo = int(pairs_n.min())
        off = pairs_n - lo
        seen = np.zeros(int(off.max()) + 1, dtype=bool)
        seen[off] = True
        uniq = np.flatnonzero(seen) + lo
        inv = (np.cumsum(seen) - 1)[off]
        recs = np.asarray(fetch_tree(uniq))
        fetched += uniq.size
        R = recs[inv]
        d = R[:, F_COM] - pos_chunk[pairs_p]
        r2 = np.einsum("ij,ij->i", d, d)
        size = 2.0 * R[:, F_HALFW]
        is_leaf = R[:, F_NCHILDREN] == 0
        accept = (size * size < theta2 * r2) & (R[:, F_MASS] > 0.0)

        a_idx = np.nonzero(accept)[0]
        if a_idx.size:
            rr2 = r2[a_idx] + eps2
            inv_r3 = np.where(rr2 > 0.0, R[a_idx, F_MASS] / (rr2 * np.sqrt(rr2)), 0.0)
            np.add.at(acc, pairs_p[a_idx], d[a_idx] * inv_r3[:, None])
            interactions += int(a_idx.size)

        l_idx = np.nonzero(~accept & is_leaf)[0]
        if l_idx.size:
            # Group leaf pairs by tree node so each leaf's particles
            # are fetched once per round, all leaves in one call.
            l_sorted = l_idx[np.argsort(pairs_n[l_idx], kind="stable")]
            first = np.r_[True, np.diff(pairs_n[l_sorted]) != 0]
            group = np.cumsum(first) - 1
            heads = R[l_sorted[first]]
            pc = heads[:, F_PCOUNT].astype(np.int64)
            rows = np.asarray(fetch_leaves(heads[:, F_PSTART].astype(np.int64), pc))
            fetched += rows.shape[0]
            # Then every leaf pair of the round in one flat batch: pair
            # j meets the rows of its leaf, segment by segment.  A
            # particle meeting itself has dp == 0, contributing exactly
            # zero — no special case needed.
            counts = pc[group]
            src = flat_ranges((np.cumsum(pc) - pc)[group], counts)
            interactions += src.size
            owner = np.repeat(np.arange(l_sorted.size), counts)
            p_sorted = pairs_p[l_sorted]
            dp = rows[src, 0:3]
            dp -= pos_chunk[p_sorted[owner]]
            rr2 = np.einsum("ij,ij->i", dp, dp)
            rr2 += eps2
            inv_r3 = np.sqrt(rr2)
            np.multiply(rr2, inv_r3, out=inv_r3)
            np.divide(rows[src, 3], inv_r3, out=inv_r3)
            np.copyto(inv_r3, 0.0, where=~(rr2 > 0.0))
            np.multiply(dp, inv_r3[:, None], out=dp)
            # bincount adds each pair's terms in order, as the per-leaf
            # sum does; it starts from +0.0, which changes only the sign
            # of an all-zero sum, and acc never holds -0.0.
            sums = np.empty((l_sorted.size, 3))
            for k in range(3):
                sums[:, k] = np.bincount(owner, weights=dp[:, k], minlength=l_sorted.size)
            np.add.at(acc, p_sorted, sums)

        e_idx = np.nonzero(~accept & ~is_leaf)[0]
        if e_idx.size:
            nc = R[e_idx, F_NCHILDREN].astype(np.int64)
            pairs_p = np.repeat(pairs_p[e_idx], nc)
            pairs_n = flat_ranges(R[e_idx, F_FIRST_CHILD].astype(np.int64), nc)
        else:
            break

    return WalkResult(
        acc=acc, interactions=interactions, rounds=rounds, records_fetched=fetched
    )


def flat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs ``arange(s, s + c)`` of ``zip(starts, counts)``,
    concatenated, without a Python loop."""
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(out.size)
    return out
