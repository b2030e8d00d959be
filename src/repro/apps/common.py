"""Small utilities shared by the application implementations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

_SPLITMIX_MULT = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def split_range(n: int, parts: int) -> list[tuple[int, int]]:
    """Partition ``range(n)`` into ``parts`` contiguous blocks whose
    sizes differ by at most one (the canonical block distribution)."""
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    bounds = [(i * n) // parts for i in range(parts + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(parts)]


def block_of(index: int, n: int, parts: int) -> int:
    """The block (from :func:`split_range`) containing ``index``."""
    if not 0 <= index < n:
        raise IndexError(f"index {index} out of range [0, {n})")
    # Inverse of the floor-division bounds: smallest p with
    # ((p+1)*n)//parts > index.
    p = (index * parts) // n
    while (p + 1) * n // parts <= index:
        p += 1
    return p


def hash_u64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    """SplitMix64 integer hash — the deterministic pseudo-randomness
    used by the synthetic workloads (identical in serial, PPM and MPI
    implementations, so results can be compared exactly)."""
    with np.errstate(over="ignore"):
        z = (np.asarray(x, dtype=np.uint64) + _SPLITMIX_MULT) & _U64
        z = ((z ^ (z >> np.uint64(30))) * _MIX1) & _U64
        z = ((z ^ (z >> np.uint64(27))) * _MIX2) & _U64
        return z ^ (z >> np.uint64(31))


def hash_unit(x: np.ndarray | int) -> np.ndarray | float:
    """Deterministic hash of integers into [0, 1)."""
    h = hash_u64(x)
    return np.asarray(h, dtype=np.float64) / 2.0**64


@dataclass(frozen=True, eq=False)
class Csr:
    """A CSR matrix as scipy stores one: ``data``, ``indices`` and
    ``indptr``, nothing more, so a kernel argument pickles to the same
    size.  Row ``i`` holds ``data[indptr[i]:indptr[i + 1]]`` at columns
    ``indices[...]``.  ``A @ v`` is bitwise equal to scipy's (see
    :func:`csr_matvec`); whoever needs more of scipy wraps the arrays in
    a ``scipy.sparse.csr_matrix`` itself.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]
    format: ClassVar[str] = "csr"

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def rows(self) -> np.ndarray:
        """Each stored entry's row, built per call (a :class:`CsrBlock`
        keeps its own)."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return csr_matvec(self, v)


class CsrBlock:
    """Rows ``[lo, hi)`` of CSR matrix ``A``, columns renumbered into
    their sorted footprint ``cols``: a rank's or VP's private block as
    plain arrays (``data`` a view of ``A.data``; ``cols``, ``indices``
    and each entry's row ``rows`` int64, so a fancy index needs no cast
    to intp).  ``cols`` is owned, so ``X[cols]`` keeps a shared
    variable's memoised access record; it is marked in a bitmap over
    the block's column hull, O(local nnz + hull).  It must not be the
    view ``nonzero`` returns under numpy 2: reads through a view index
    go to the row log, which never replays a phase plan.  Common
    to the PPM and MPI CG, so outside Table 1's per-model line counts.
    """

    __slots__ = ("indptr", "indices", "data", "rows", "cols", "shape", "nnz")

    def __init__(self, A, lo: int, hi: int):
        if getattr(A, "format", None) != "csr":
            raise TypeError(f"CsrBlock needs a CSR matrix, got {type(A).__name__}")
        s, e = int(A.indptr[lo]), int(A.indptr[hi])
        glob = A.indices[s:e]
        self.indptr = A.indptr[lo : hi + 1] - A.indptr[lo]
        self.data = A.data[s:e]
        self.nnz = e - s
        self.rows = np.repeat(np.arange(hi - lo), np.diff(self.indptr))
        if self.nnz:
            c0 = int(glob.min())
            rel = glob - c0
            mark = np.zeros(int(rel.max()) + 1, dtype=bool)
            mark[rel] = True
            self.cols = mark.nonzero()[0] + c0
            local = mark.cumsum()
            local -= 1
            self.indices = local[rel]
        else:
            self.cols, self.indices = np.zeros(0, np.int64), np.zeros(0, np.int64)
        self.shape = (hi - lo, self.cols.size)


def csr_matvec(Ac: CsrBlock | Csr, v: np.ndarray) -> np.ndarray:
    """``Ac @ v`` for a :class:`CsrBlock` or :class:`Csr`, bitwise equal
    to scipy's.

    ``np.bincount`` adds each weight into a zeroed output in input
    order, which is exactly scipy's ``sum += Ax[jj] * Xx[Aj[jj]]`` loop
    from +0.0, one row at a time.  ``np.add.reduceat`` would not do:
    it sums a segment of eight or more entries pairwise, and a stencil
    row holds up to 27.  The solver kernels run this thousands of times
    per solve.
    """
    return np.bincount(Ac.rows, weights=Ac.data * v[Ac.indices], minlength=Ac.shape[0])
