"""Properties of the CSR matrix and of its Matrix Market round trip, over
matrices built by ``from_triplets`` from drawn triplets: duplicates, exact
cancellations, empty rows and columns, shapes down to 1 x 1."""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ilsolve import SparseMatrixCsr, read_matrix_market, spmv, spmv_transpose
from ilsolve.mmio import write_matrix_market
from ilsolve.problem import IlsProblem, _gram_pair

# Few distinct values make duplicates that cancel; the rest are arbitrary
# finite floats, kept small enough that summed duplicates stay finite.
VALUES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]), st.floats(-1e150, 1e150))

property_settings = settings(max_examples=80, derandomize=True, database=None, deadline=None)


@st.composite
def csr_matrices(draw, values=VALUES):
    n_rows, n_cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    count = draw(st.integers(0, 2 * n_rows * n_cols))
    index = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), values)
    triplets = draw(st.lists(index, min_size=count, max_size=count))
    rows, cols, vals = (np.array(t) for t in zip(*triplets)) if triplets else ([], [], [])
    return SparseMatrixCsr.from_triplets(n_rows, n_cols, rows, cols, vals)


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("row_offsets", "col_indices", "values"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@property_settings
@given(a=csr_matrices())
def test_matrix_market_round_trip_is_exact(a, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "round_trip.mtx"
    write_matrix_market(a, path)
    assert_same_csr(read_matrix_market(path), a)


def triplet_arrays(triplets):
    """(rows, cols, values) arrays of ((i, j), v) pairs, empty ones too."""
    rows, cols = (np.array([place[k] for place, _ in triplets], dtype=np.int64) for k in (0, 1))
    return rows, cols, np.array([v for _, v in triplets], dtype=np.float64)


@property_settings
@given(n_rows=st.integers(0, 6), n_cols=st.integers(0, 6), data=st.data())
def test_from_triplets_gives_the_same_bits_in_any_order(n_rows, n_cols, data):
    # Distinct entries, -0.0 and 0.0 among them, in (row, col) order (the
    # path without a sort), then with duplicates whose sums are exact in
    # any order, sorted and shuffled: +-0.0 added to an entry, and x, -x
    # at a free place.  Every build gives the arrays of the nonzero entries.
    places = list(itertools.product(range(n_rows), range(n_cols)))
    entries = data.draw(st.dictionaries(st.sampled_from(places), st.one_of(VALUES, st.just(-0.0)))) if places else {}
    zeros = data.draw(st.lists(st.tuples(st.sampled_from(sorted(entries)), st.sampled_from([0.0, -0.0])))) if entries else []
    free = [place for place in places if place not in entries]
    cancelling = []
    if free:
        pairs = st.tuples(st.sampled_from(free), st.floats(-1e150, 1e150))
        cancelling = data.draw(st.lists(pairs, max_size=3, unique_by=lambda t: t[0]))
    ordered = sorted(entries.items())
    duplicated = sorted(ordered + zeros + [(place, s * x) for place, x in cancelling for s in (1, -1)], key=lambda t: t[0])
    shuffled = data.draw(st.permutations(duplicated))

    rows, cols, vals = triplet_arrays([(place, v) for place, v in ordered if v != 0.0])
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])
    for triplets in (ordered, duplicated, shuffled):
        a = SparseMatrixCsr.from_triplets(n_rows, n_cols, *triplet_arrays(triplets))
        for name, want in (("row_offsets", offsets), ("col_indices", cols), ("values", vals), ("_rows", rows)):
            got = getattr(a, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@property_settings
@given(a=csr_matrices())
def test_triplets_rebuild_the_matrix(a):
    assert_same_csr(SparseMatrixCsr.from_triplets(a.n_rows, a.n_cols, *a.to_triplets()), a)


@property_settings
@given(a=csr_matrices(values=st.floats(-1e3, 1e3)), seed=st.integers(0, 2**16))
def test_products_match_the_dense_matrix(a, seed):
    rng = np.random.default_rng(seed)
    dense = a.to_dense()
    x, y = rng.standard_normal(a.n_cols), rng.standard_normal(a.n_rows)
    eps = np.finfo(float).eps
    # The rounding bound of a length-k dot product: k eps |A| |x|.
    assert np.all(np.abs(a @ x - dense @ x) <= 2 * a.n_cols * eps * (np.abs(dense) @ np.abs(x)))
    assert np.all(np.abs(y @ a - y @ dense) <= 2 * a.n_rows * eps * (np.abs(y) @ np.abs(dense)))


@property_settings
@given(a=csr_matrices(), data=st.data())
def test_row_slices_stack_to_the_matrix(a, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, a.n_rows), max_size=4)))
    bounds = [0, *cuts, a.n_rows]
    pieces = [a.row_slice(lo, hi).to_dense() for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert np.array_equal(np.vstack(pieces), a.to_dense())


@property_settings
@given(a=csr_matrices(values=st.floats(-1e3, 1e3)), seed=st.integers(0, 2**16), shift=st.sampled_from([0.0, 0.5]))
@example(a=SparseMatrixCsr.from_triplets(1, 1, [], [], []), seed=0, shift=0.5)
@example(a=SparseMatrixCsr.from_triplets(1, 1, [0], [0], [2.0]), seed=0, shift=0.0)
@example(a=SparseMatrixCsr.from_triplets(3, 3, [0, 2], [2, 2], [1.5, -1.0]), seed=1, shift=0.5)
def test_products_are_the_bincount_formula_bit_for_bit(a, seed, shift):
    # spmv, spmv_transpose and the Gram pair of inner CG share one kernel;
    # each must give exactly the bincount of the gathered products, so
    # that iterates and counts do not depend on which path a product takes.
    # The strategy and the examples cover empty rows and columns, nnz = 0
    # and 1 x 1.
    rng = np.random.default_rng(seed)
    rows, cols, vals = a.to_triplets()
    x, y = rng.standard_normal(a.n_cols), rng.standard_normal(a.n_rows)
    ax = np.bincount(rows, weights=vals * x[cols], minlength=a.n_rows)
    assert np.array_equal(spmv(a, x), ax)
    assert np.array_equal(spmv_transpose(a, y), np.bincount(cols, weights=vals * y[rows], minlength=a.n_cols))
    gram = np.bincount(cols, weights=vals * ax[rows], minlength=a.n_cols)
    prob = IlsProblem(a, np.ones((1, a.n_cols)), np.ones(a.n_rows), np.ones(1), 1.0)
    sx, a1x = _gram_pair(prob, shift)(x)
    assert np.array_equal(a1x, ax)
    assert np.array_equal(sx, shift * x + gram if shift else gram)


@property_settings
@given(
    a=csr_matrices(values=st.floats(-1e3, 1e3)), seed=st.integers(0, 2**16),
    k=st.integers(1, 4), layout=st.sampled_from(["C", "F", "strided"]),
)
@example(a=SparseMatrixCsr.from_triplets(1, 1, [], [], []), seed=0, k=1, layout="C")
@example(a=SparseMatrixCsr.from_triplets(3, 3, [0, 2], [2, 2], [1.5, -1.0]), seed=1, k=1, layout="strided")
@example(a=SparseMatrixCsr.from_triplets(4, 5, [0, 0, 3], [1, 4, 1], [2.0, -1.0, 0.5]), seed=2, k=3, layout="F")
def test_block_products_are_the_vector_products_column_by_column(a, seed, k, layout):
    # A @ X and Y @ A on a block give, column by column (row by row for
    # Y @ A), exactly the 1-D kernel's products, whatever the memory
    # layout of the block.  The strategy and the examples cover empty rows
    # and columns, nnz = 0 and k = 1.
    rng = np.random.default_rng(seed)

    def block(rows):
        full = rng.standard_normal((rows, 2 * k))
        if layout == "strided":
            return full[:, ::2]
        return np.asfortranarray(full[:, :k]) if layout == "F" else full[:, :k].copy()

    x, y = block(a.n_cols), block(a.n_rows)
    ax, ya = a @ x, y.T @ a
    assert ax.shape == (a.n_rows, k) and ya.shape == (k, a.n_cols)
    assert np.array_equal(spmv(a, x), ax) and np.array_equal(spmv_transpose(a, y), ya.T)
    for c in range(k):
        assert np.array_equal(ax[:, c], spmv(a, x[:, c].copy()))
        assert np.array_equal(ya[c], spmv_transpose(a, y[:, c].copy()))
