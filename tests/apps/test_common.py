"""Tests for shared application utilities."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.common import (
    Csr,
    CsrBlock,
    block_of,
    csr_matvec,
    hash_u64,
    hash_unit,
    split_range,
)


class TestSplitRange:
    def test_covers_everything(self):
        blocks = split_range(10, 3)
        assert blocks[0][0] == 0
        assert blocks[-1][1] == 10
        for (a, b), (c, d) in zip(blocks, blocks[1:]):
            assert b == c

    def test_balanced(self):
        blocks = split_range(11, 4)
        sizes = [b - a for a, b in blocks]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 11

    def test_more_parts_than_items(self):
        blocks = split_range(2, 5)
        sizes = [b - a for a, b in blocks]
        assert sum(sizes) == 2
        assert all(s in (0, 1) for s in sizes)

    def test_zero_items(self):
        assert all(a == b for a, b in split_range(0, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            split_range(5, 0)
        with pytest.raises(ValueError):
            split_range(-1, 2)


class TestBlockOf:
    def test_matches_split_range(self):
        n, parts = 17, 5
        blocks = split_range(n, parts)
        for i in range(n):
            p = block_of(i, n, parts)
            lo, hi = blocks[p]
            assert lo <= i < hi

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            block_of(5, 5, 2)


class TestHashing:
    def test_deterministic(self):
        x = np.arange(100, dtype=np.uint64)
        assert (hash_u64(x) == hash_u64(x)).all()

    def test_spreads_values(self):
        h = hash_unit(np.arange(10_000))
        assert 0.45 < h.mean() < 0.55
        assert h.min() >= 0.0 and h.max() < 1.0

    def test_distinct_inputs_distinct_outputs(self):
        h = hash_u64(np.arange(100_000, dtype=np.uint64))
        assert np.unique(h).size == 100_000

    def test_scalar_input(self):
        assert hash_u64(5) == hash_u64(np.array([5]))[0]


@st.composite
def csr_slices(draw):
    """A raw CSR matrix (empty rows, unsorted and duplicate column
    indices allowed; int32 or int64 index arrays) and a row range.

    Rows hold up to 30 entries, past the 8 where numpy's pairwise
    summation starts, so a kernel that does not add left to right from
    +0.0 fails the bitwise comparison.  Values have full mantissas over
    ten decades, a tenth each +0.0 and -0.0 (short-mantissa floats, which
    hypothesis favours, sum exactly in any order), and ``hi`` counts down
    from ``n_rows`` so that most ranges hold rows."""
    n_rows = draw(st.integers(0, 8))
    n_cols = draw(st.integers(1, 10))
    row = st.sampled_from(range(31)).flatmap(
        lambda k: st.lists(st.integers(0, n_cols - 1), min_size=k, max_size=k)
    )
    rows = [draw(row) for _ in range(n_rows)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([c for r in rows for c in r], dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal(indices.size) * 10.0 ** rng.integers(-5, 6, indices.size)
    data[rng.random(indices.size) < 0.1] = 0.0
    data[rng.random(indices.size) < 0.1] = -0.0
    A = sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))
    idx_dtype = draw(st.sampled_from([np.int32, np.int64]))
    A.indices, A.indptr = A.indices.astype(idx_dtype), A.indptr.astype(idx_dtype)
    lo = draw(st.integers(0, n_rows))
    hi = n_rows - draw(st.integers(0, n_rows - lo))
    return A, lo, hi


class TestCsrBlock:
    @settings(max_examples=60, deadline=None)
    @given(csr_slices(), st.randoms(use_true_random=False))
    def test_matches_scipy_slice_renumbered(self, case, rnd):
        A, lo, hi = case
        block = CsrBlock(A, lo, hi)
        ref = A[lo:hi]
        cols = np.unique(ref.indices)
        assert block.cols.base is None
        assert block.cols.dtype == block.indices.dtype == np.int64
        np.testing.assert_array_equal(block.cols, cols)
        np.testing.assert_array_equal(block.indptr, ref.indptr)
        np.testing.assert_array_equal(block.indices, np.searchsorted(cols, ref.indices))
        assert block.data.tobytes() == ref.data.tobytes()
        assert block.shape == (hi - lo, cols.size) and block.nnz == ref.nnz
        v = np.array([rnd.choice([-0.0, rnd.uniform(-1, 1)]) for _ in range(cols.size)])
        want = (ref[:, cols] @ v).tobytes()
        assert csr_matvec(block, v).tobytes() == want
        w = np.array([rnd.choice([-0.0, rnd.uniform(-1, 1)]) for _ in range(A.shape[1])])
        assert (Csr(A.data, A.indices, A.indptr, A.shape) @ w).tobytes() == (A @ w).tobytes()

    @pytest.mark.parametrize("A", [sp.csc_matrix(np.eye(3)), np.eye(3)])
    def test_non_csr_is_refused(self, A):
        with pytest.raises(TypeError, match="CsrBlock needs a CSR matrix"):
            CsrBlock(A, 0, 2)
