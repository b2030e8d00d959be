"""Fetch-driven Barnes-Hut traversal.

One traversal engine serves all three implementations; what differs is
where the tree lives, expressed by three fetch callbacks:

* serial — direct numpy indexing of the local tree;
* PPM — the callbacks index global shared arrays, so every fetched
  record is a fine-grained remote access the runtime bundles (the
  paper: "totally data-driven random access to the tree and the
  particles");
* MPI — indexing of the replicated tree copies received each step.

The walk is breadth-first and vectorised over a particle chunk:
each round fetches the unique tree records the frontier needs, adds
monopole contributions for accepted cells, resolves leaves by direct
summation, and expands the rest.  A round's leaves are fetched one by
one, in node order, then all of its leaf pairs are interacted in one
batch.  Per particle, cells are visited in a deterministic order
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
    fetch_perm: Callable[[int, int], np.ndarray],
    fetch_posm: Callable[[np.ndarray], np.ndarray],
    *,
    theta: float = 0.5,
    eps: float = 1e-3,
) -> WalkResult:
    """Compute accelerations on ``pos_chunk`` against the tree behind
    the fetch callbacks.

    ``fetch_tree(rows)`` returns tree records; ``fetch_perm(start,
    count)`` a leaf's slice of the particle permutation;
    ``fetch_posm(ids)`` rows of the ``(n, 4)`` position+mass table.
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
        uniq, inv = np.unique(pairs_n, return_inverse=True)
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
            # are fetched once per round, into a zero-padded table.
            l_sorted = l_idx[np.argsort(pairs_n[l_idx], kind="stable")]
            first = np.r_[True, np.diff(pairs_n[l_sorted]) != 0]
            group = np.cumsum(first) - 1
            heads = R[l_sorted[first]]
            pc = heads[:, F_PCOUNT].astype(np.int64)
            table = np.zeros((pc.size, int(pc.max()), 4))
            starts = heads[:, F_PSTART].astype(np.int64).tolist()
            for g, (ps, c) in enumerate(zip(starts, pc.tolist())):
                ids = np.asarray(fetch_perm(ps, c), dtype=np.int64)
                table[g, :c] = fetch_posm(ids)
            fetched += int(pc.sum())
            counts = pc[group]
            interactions += int(counts.sum())
            # Then every leaf pair of the round in one batch, reusing
            # the temporaries.  A particle meeting itself has dp == 0,
            # contributing exactly zero — no special case needed.
            p_sorted = pairs_p[l_sorted]
            dp = table[group, :, 0:3]
            dp -= pos_chunk[p_sorted][:, None, :]
            rr2 = np.einsum("ijk,ijk->ij", dp, dp)
            rr2 += eps2
            inv_r3 = np.sqrt(rr2)
            np.multiply(rr2, inv_r3, out=inv_r3)
            np.divide(table[group, :, 3], inv_r3, out=inv_r3)
            np.copyto(inv_r3, 0.0, where=~(rr2 > 0.0))
            np.multiply(dp, inv_r3[:, :, None], out=dp)
            # Padded slots add -0.0, which leaves every sum's bits
            # alone; summing the middle axis is sequential, so each
            # pair's sum equals the unpadded one.
            pad = np.arange(dp.shape[1]) >= counts[:, None]
            np.copyto(dp, -0.0, where=pad[:, :, None])
            np.add.at(acc, p_sorted, dp.sum(axis=1))

        e_idx = np.nonzero(~accept & ~is_leaf)[0]
        if e_idx.size:
            fc = R[e_idx, F_FIRST_CHILD].astype(np.int64)
            nc = R[e_idx, F_NCHILDREN].astype(np.int64)
            total = int(nc.sum())
            starts = np.repeat(fc, nc)
            within = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(nc) - nc, nc
            )
            pairs_p = np.repeat(pairs_p[e_idx], nc)
            pairs_n = starts + within
        else:
            break

    return WalkResult(
        acc=acc, interactions=interactions, rounds=rounds, records_fetched=fetched
    )
