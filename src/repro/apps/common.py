"""Small utilities shared by the application implementations."""

from __future__ import annotations

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


class CsrBlock:
    """Rows ``[lo, hi)`` of CSR matrix ``A``, columns renumbered into
    their sorted footprint ``cols``: a rank's or VP's private block as
    plain arrays (``data`` a view of ``A.data``, indices in ``A``'s
    dtype).  ``cols`` is owned, so ``X[cols]`` keeps a shared variable's
    memoised access record; it is marked in a bitmap over the block's
    column hull, O(local nnz + hull).  It stays a copy because
    ``nonzero`` returns a view under numpy 2, and reads through a view
    index go to the row log, which never replays a phase plan.  Common
    to the PPM and MPI CG, so outside Table 1's per-model line counts.
    """

    __slots__ = ("indptr", "indices", "data", "cols", "shape", "nnz", "dtype")

    def __init__(self, A, lo: int, hi: int):
        if getattr(A, "format", None) != "csr":
            raise TypeError(f"CsrBlock needs a CSR matrix, got {type(A).__name__}")
        s, e = int(A.indptr[lo]), int(A.indptr[hi])
        glob = A.indices[s:e]
        self.indptr = A.indptr[lo : hi + 1] - A.indptr[lo]
        self.data = A.data[s:e]
        self.nnz = e - s
        self.dtype = A.data.dtype
        if self.nnz:
            c0 = int(glob.min())
            rel = glob - c0
            mark = np.zeros(int(rel.max()) + 1, dtype=bool)
            mark[rel] = True
            self.cols = mark.nonzero()[0].astype(glob.dtype)
            self.cols += c0
            local = mark.cumsum(dtype=glob.dtype)
            local -= 1
            self.indices = local[rel]
        else:
            self.cols, self.indices = glob.copy(), glob
        self.shape = (hi - lo, self.cols.size)


_UNRESOLVED = object()
_csr_matvec = _UNRESOLVED  # scipy's kernel, looked up at the first call


def csr_matvec(Ac: CsrBlock, v: np.ndarray) -> np.ndarray:
    """``Ac @ v`` for a :class:`CsrBlock` without scipy's per-call
    dispatch overhead.

    Identical arithmetic to scipy's ``@`` (its ``_matmul_vector`` is
    exactly zeros + ``csr_matvec``) on the same three arrays, so results
    are bitwise equal; the solver kernels run this thousands of times
    per solve.  When ``v`` shares the block's cached ``dtype`` that is
    the output dtype, with no ``np.result_type`` call.  scipy's kernel
    is looked up at the first call, so importing this module (every app
    does) does not load scipy.
    """
    global _csr_matvec
    if _csr_matvec is _UNRESOLVED:
        try:  # scipy's csr matvec kernel, minus the operator-dispatch layers.
            from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
        except ImportError:  # pragma: no cover - older/newer scipy layouts
            _csr_matvec = None
    if _csr_matvec is None:
        from scipy.sparse import csr_matrix

        return csr_matrix((Ac.data, Ac.indices, Ac.indptr), shape=Ac.shape) @ v
    M, N = Ac.shape
    dtype = Ac.dtype if v.dtype is Ac.dtype else np.result_type(Ac.dtype, v.dtype)
    out = np.zeros(M, dtype=dtype)
    _csr_matvec(M, N, Ac.indptr, Ac.indices, Ac.data, v, out)
    return out

