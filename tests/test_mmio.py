import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ilsolve as il
from ilsolve import ParseError, parse_matrix_market, read_matrix_market
from ilsolve.mmio import write_matrix_market

from conftest import random_csr


def test_coordinate_general():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.0\n2 1 -1.0\n"
    a = parse_matrix_market(text)
    assert a.shape == (2, 2) and a.nnz == 2
    assert np.array_equal(a.to_dense(), np.array([[3.0, 0.0], [-1.0, 0.0]]))


def test_symmetric_expansion():
    text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 1 5.0\n"
    a = parse_matrix_market(text)
    assert a.nnz == 3
    assert np.array_equal(a.to_dense(), np.array([[1.0, 5.0], [5.0, 0.0]]))


def test_comments_and_blank_lines_skipped():
    text = (
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n\n"
        "2 2 1\n"
        "% another\n"
        "2 2 7.5\n"
    )
    a = parse_matrix_market(text)
    assert a.to_dense()[1, 1] == 7.5


def test_duplicate_entries_summed():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n1 1 2.5\n2 2 1.0\n"
    a = parse_matrix_market(text)
    assert a.to_dense()[0, 0] == 3.5


def test_integer_field():
    text = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 -4\n"
    a = parse_matrix_market(text)
    assert a.to_dense()[0, 1] == -4.0


def test_array_general_column_major():
    text = "%%MatrixMarket matrix array real general\n2 3 \n1\n2\n3\n4\n5\n6\n"
    a = parse_matrix_market(text)
    assert np.array_equal(a.to_dense(), np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]))


def test_array_symmetric_lower_triangle():
    text = "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n"
    a = parse_matrix_market(text)
    assert np.array_equal(a.to_dense(), np.array([[1.0, 2.0], [2.0, 3.0]]))


def test_array_symmetric_four_by_four_matches_scipy(tmp_path):
    values = np.arange(1.0, 11.0)  # the ten lower-triangle entries, column by column
    text = "%%MatrixMarket matrix array real symmetric\n4 4\n" + "".join(f"{v}\n" for v in values)
    path = tmp_path / "s.mtx"
    path.write_text(text)
    want = scipy.io.mmread(str(path))
    assert np.array_equal(parse_matrix_market(text).to_dense(), want)
    assert want[3, 0] == want[0, 3] == 4.0 and want[1, 1] == 5.0


def test_array_drops_stored_zeros():
    text = "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n"
    a = parse_matrix_market(text)
    assert a.nnz == 2


@pytest.mark.parametrize("tail", ["", "\n", "\n  \n% c\n"])
def test_empty_coordinate_body(tail):
    a = parse_matrix_market("%%MatrixMarket matrix coordinate real general\n1 1 0" + tail)
    assert a.shape == (1, 1) and a.nnz == 0


def test_array_body_with_comment_and_blank_lines():
    text = "%%MatrixMarket matrix array real general\n2 2\n% c\n1\n\n2\n  % d\n  \n3\n4\n"
    a = parse_matrix_market(text)
    assert np.array_equal(a.to_dense(), np.array([[1.0, 3.0], [2.0, 4.0]]))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n_rows=st.integers(1, 8), n_cols=st.integers(1, 8), field=st.sampled_from(["real", "integer"]),
    symmetry=st.sampled_from(["general", "symmetric"]), data=st.data(),
)
def test_array_body_matches_scipy(n_rows, n_cols, field, symmetry, data, tmp_path_factory):
    # scipy.io.mmread is the oracle for the column-major order and the
    # lower-triangle expansion of array bodies.
    if symmetry == "symmetric":
        n_cols = n_rows
    count = n_rows * n_cols if symmetry == "general" else n_rows * (n_rows + 1) // 2
    values = st.integers(-10**6, 10**6) if field == "integer" else st.floats(allow_nan=False, allow_infinity=False)
    drawn = data.draw(st.lists(values, min_size=count, max_size=count))
    header = f"%%MatrixMarket matrix array {field} {symmetry}"
    text = "\n".join([header, f"{n_rows} {n_cols}", *(repr(v) for v in drawn)]) + "\n"
    path = tmp_path_factory.getbasetemp() / "array.mtx"
    path.write_text(text)
    assert np.array_equal(parse_matrix_market(text).to_dense(), scipy.io.mmread(path))


class TestErrors:
    def test_missing_banner(self):
        with pytest.raises(ParseError, match="banner"):
            parse_matrix_market("2 2 1\n1 1 1.0\n")

    def test_unsupported_field_names_token_and_line(self):
        with pytest.raises(ParseError, match="complex") as exc:
            parse_matrix_market("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n")
        assert exc.value.line_no == 1
        with pytest.raises(ParseError, match="pattern"):
            parse_matrix_market("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")

    def test_skew_symmetric_rejected(self):
        with pytest.raises(ParseError, match="skew-symmetric"):
            parse_matrix_market("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n")

    def test_index_out_of_bounds(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        with pytest.raises(ParseError, match="bounds") as exc:
            parse_matrix_market(text)
        assert exc.value.line_no == 3

    def test_wrong_entry_count(self):
        with pytest.raises(ParseError, match="declared"):
            parse_matrix_market("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")

    def test_malformed_value_names_line(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix_market("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n")
        assert exc.value.line_no == 3

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n% c\n2 2 nan\n", 5),
            ("%%MatrixMarket matrix array real general\n2 1\n1.0\n-inf\n", 4),
        ],
    )
    def test_non_finite_value_names_line(self, text, line_no):
        with pytest.raises(ParseError, match="non-finite") as exc:
            parse_matrix_market(text)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize(
        "text, message, line_no",
        [
            ("array real general\n2 1\n1\n2 3\n", "array entry must be a single value, got '2 3'", 4),
            ("array real general\n2 1\n% c\n1_0\n2\n", "bad value '1_0'", 4),
            ("coordinate integer general\n2 2 1\n1 2 1.5\n", "bad entry '1 2 1.5'", 3),
            ("coordinate integer general\n2 2 2\n1 2 3\n2 2 4.0\n", "bad entry '2 2 4.0'", 4),
            ("array integer general\n2 1\n1\n2.5\n", "bad value '2.5'", 4),
            ("array integer symmetric\n2 2\n1\n\n-1e3\n3\n", "bad value '-1e3'", 5),
        ],
    )
    def test_bad_body_line_is_named(self, text, message, line_no):
        with pytest.raises(ParseError, match=message) as exc:
            parse_matrix_market(f"%%MatrixMarket matrix {text}")
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize(
        "text, message, line_no",
        [
            ("coordinate real general\n2 2 1\n1.7 2 3.0\n", "bad entry '1.7 2 3.0'", 3),
            ("coordinate integer general\n2 2 1\n1 2 1.5\n", "bad entry '1 2 1.5'", 3),
            ("array integer general\n2 1\n1\n2.5\n", "bad value '2.5'", 4),
            ("coordinate real general\n2.0 2 1\n1 2 3.0\n", "bad size line '2.0 2 1'", 2),
        ],
        ids=["index", "integer-coordinate", "integer-array", "size-line"],
    )
    def test_truncating_loadtxt_is_refused(self, monkeypatch, text, message, line_no):
        # numpy 1.23 to 1.26 read a float token into an int64 column by
        # truncating it, with only a DeprecationWarning; this stands in.
        loadtxt = np.loadtxt

        def truncating(lines, dtype, **kwargs):
            dtype = np.dtype(dtype)
            kinds = [dtype[k].kind for k in range(len(dtype))] or [dtype.kind]
            read = []
            for line in lines:
                tokens = line.split()
                for k, token in enumerate(tokens):
                    if kinds[min(k, len(kinds) - 1)] == "i" and "." in token:
                        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
                        tokens[k] = str(int(float(token)))
                read.append(" ".join(tokens))
            return loadtxt(read, dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", truncating)
        ok = parse_matrix_market("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 3\n")
        assert np.array_equal(ok.to_dense(), [[0.0, 3.0], [0.0, 0.0]])
        with pytest.raises(ParseError, match=message) as exc:
            parse_matrix_market(f"%%MatrixMarket matrix {text}")
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("size", ["1_0 1_0 1", "\u0661 1 1", "1 1 1e0"])
    def test_size_line_takes_the_body_token_rule(self, size):
        # int() reads '1_0' as 10 and an Arabic-Indic one as 1.
        with pytest.raises(ParseError, match="bad size line") as exc:
            parse_matrix_market(f"%%MatrixMarket matrix coordinate real general\n{size}\n1 1 1.0\n")
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("symmetry, declared", [("general", 4_000_000), ("symmetric", 2_001_000)])
    def test_short_array_body_is_refused_before_its_indices_are_built(self, symmetry, declared):
        # The declared size costs 32 MB of int64 indices or more; a body
        # too short for it must be refused without allocating them.
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=f"declared array of {declared} values but found 1") as exc:
                parse_matrix_market(f"%%MatrixMarket matrix array real {symmetry}\n2000 2000\n1.0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.line_no == 2 and peak < 1 << 20

    @pytest.mark.parametrize("layout, size", [("coordinate", "-1 2 0"), ("array", "-2 -3")])
    def test_negative_size_names_size_line(self, layout, size):
        text = f"%%MatrixMarket matrix {layout} real general\n{size}\n"
        with pytest.raises(ParseError, match=f"negative count in size line '{size}'") as exc:
            parse_matrix_market(text)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "layout, body",
        [
            ("coordinate", "3 2 1\n3 1 1.0\n"),  # its mirror (1, 3) is out of bounds
            ("coordinate", "3 2 1\n2 1 1.0\n"),  # the entry and its mirror both fit
            ("array", "3 2\n1\n2\n3\n"),
        ],
    )
    def test_symmetric_must_be_square(self, layout, body):
        text = f"%%MatrixMarket matrix {layout} real symmetric\n{body}"
        with pytest.raises(ParseError, match=f"symmetric {layout} matrix must be square") as exc:
            parse_matrix_market(text)
        assert exc.value.line_no == 2


class TestLongBody:
    """A body long enough that a bulk parse pays; a bad line anywhere in it
    is still named with its message and line number."""

    @staticmethod
    def body(rng, count=600):
        rows = rng.integers(1, 41, count)
        cols = rng.integers(1, 31, count)
        return [f"{i} {j} {float(v)!r}" for i, j, v in zip(rows, cols, rng.standard_normal(count))]

    @staticmethod
    def text(lines, header="%%MatrixMarket matrix coordinate real general"):
        count = sum(not line.lstrip().startswith("%") for line in lines)
        return "\n".join([header, f"40 30 {count}", *lines]) + "\n"

    @pytest.mark.parametrize(
        "layout",
        [
            lambda text: text,  # the line format perfbench/workloads.py writes
            lambda text: text.replace("\n", "\n\n  \n"),
            lambda text: text.replace(" ", "\t"),
            lambda text: text.replace("\n", "  \n"),
            lambda text: text.replace("\n", "\r\n"),
        ],
        ids=["as-written", "blank-lines", "tabs", "trailing-spaces", "crlf"],
    )
    def test_every_layout_gives_the_same_csr(self, rng, layout):
        lines = self.body(rng)
        want = parse_matrix_market(self.text(lines))
        plain = parse_matrix_market(layout(self.text(lines)))
        commented = parse_matrix_market(layout(self.text(lines[:300] + ["% c", "  %c"] + lines[300:])))
        for got in (plain, commented):
            assert got.shape == want.shape
            for field in ("row_offsets", "col_indices", "values"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_all_blank_body_is_a_count_mismatch(self):
        with pytest.raises(ParseError, match="declared 1 entries but found 0") as exc:
            parse_matrix_market("%%MatrixMarket matrix coordinate real general\n2 2 1\n\n  \n")
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("7 3 abc", "bad entry '7 3 abc'"),
            ("7.0 3 1.5", "bad entry '7.0 3 1.5'"),
            ("7 3 1.5 2", "coordinate entry needs 'i j value'"),
            ("41 3 1.5", "index \\(41, 3\\) outside declared 40 x 30 bounds"),
            ("7 3 inf", "non-finite value in '7 3 inf'"),
            ("7_0 3 1.5", "bad entry '7_0 3 1.5'"),  # int() reads 7_0 as 70; np.loadtxt refuses it
            ("7 3 1_5", "bad entry '7 3 1_5'"),
        ],
    )
    def test_bad_late_line_is_named(self, rng, entry, message):
        lines = self.body(rng)
        lines[500] = entry
        with pytest.raises(ParseError, match=message) as exc:
            parse_matrix_market(self.text(lines))
        assert exc.value.line_no == 503  # banner, size line, then entries

    def test_symmetric_and_integer_bodies(self, rng):
        lines = [f"{i} {j} {int(v)}" for i, j, v in
                 zip(rng.integers(1, 31, 300), rng.integers(1, 31, 300), rng.integers(-9, 10, 300))]
        lines = [line for line in lines if int(line.split()[0]) >= int(line.split()[1])]
        header = "%%MatrixMarket matrix coordinate integer symmetric"
        text = "\n".join([header, f"30 30 {len(lines)}", *lines]) + "\n"
        fast = parse_matrix_market(text)
        slow = parse_matrix_market(text.replace("\n", "\n% c\n", 1))
        assert np.array_equal(fast.to_dense(), slow.to_dense())
        assert np.array_equal(fast.to_dense(), fast.to_dense().T)


class TestWriteReadRoundTrip:
    def test_matrix_roundtrip_exact(self, rng, tmp_path):
        a = random_csr(rng, 6, 4, density=0.5)
        path = tmp_path / "m.mtx"
        write_matrix_market(a, path)
        back = read_matrix_market(path)
        assert np.array_equal(back.to_dense(), a.to_dense())

    def test_against_scipy_reader(self, rng, tmp_path):
        a = random_csr(rng, 5, 7, density=0.5)
        path = tmp_path / "m.mtx"
        write_matrix_market(a, path)
        oracle = scipy.io.mmread(path).toarray()
        assert np.array_equal(oracle, a.to_dense())

    def test_scipy_written_file_parses(self, rng, tmp_path):
        dense = rng.standard_normal((4, 4))
        dense[np.abs(dense) < 0.7] = 0.0
        path = tmp_path / "s.mtx"
        scipy.io.mmwrite(path, scipy.sparse.coo_matrix(dense))
        a = read_matrix_market(path)
        assert np.allclose(a.to_dense(), dense, rtol=0, atol=1e-15)

    def test_vector_roundtrip(self, rng, tmp_path):
        v = rng.standard_normal(6)
        path = tmp_path / "v.mtx"
        write_matrix_market(v, path)
        back = read_matrix_market(path)
        assert back.shape == (6, 1)
        assert np.array_equal(back.to_dense()[:, 0], np.where(v == 0.0, 0.0, v))


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _awkward_values(rng, shape) -> np.ndarray:
    """Values over the whole exponent range, with +0.0, -0.0 and the
    smallest subnormal among them."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    a.flat[:3] = [0.0, -0.0, -5e-324]
    return a


class TestOneWriterForEveryBlockKind:
    """write_matrix_market writes a CSR matrix in coordinate layout and an
    ndarray in array layout, and every value reads back bit for bit."""

    def test_csr_matrix(self, rng, tmp_path):
        dense = _awkward_values(rng, (7, 5))
        dense[rng.random(dense.shape) < 0.4] = 0.0
        rows, cols = np.nonzero(dense)
        a = il.SparseMatrixCsr.from_triplets(7, 5, rows, cols, dense[rows, cols])
        path = tmp_path / "a.mtx"
        write_matrix_market(a, path)
        assert path.read_text().startswith("%%MatrixMarket matrix coordinate real general\n")
        back = read_matrix_market(path)
        assert back.shape == a.shape
        for got, want in zip(back.to_triplets(), a.to_triplets()):
            assert np.array_equal(got, want)
        assert np.array_equal(_bits(back.values), _bits(a.values))
        assert np.array_equal(_bits(scipy.io.mmread(path).toarray()), _bits(a.to_dense()))

    @pytest.mark.parametrize("shape", [(6, 4), (5, 1), (1, 3), (8,)])
    def test_array(self, rng, tmp_path, shape):
        a = _awkward_values(rng, shape)
        path = tmp_path / "a.mtx"
        write_matrix_market(a, path)
        assert path.read_text().startswith("%%MatrixMarket matrix array real general\n")
        column = a.reshape(shape[0], -1)  # a 1-D array is one column
        # The file keeps every bit, the sign of -0.0 included, in
        # column-major order.
        _, size, *body = path.read_text().splitlines()
        assert size == f"{column.shape[0]} {column.shape[1]}"
        assert np.array_equal(_bits([float(tok) for tok in body]), _bits(column.ravel(order="F")))
        # scipy reads the same array (it drops the sign of -0.0).
        oracle = scipy.io.mmread(path)
        assert oracle.shape == column.shape
        assert np.array_equal(oracle, column)
        assert np.array_equal(_bits(oracle[column != 0.0]), _bits(column[column != 0.0]))
        # The reader's CSR matrix keeps the nonzeros bit for bit and drops
        # the zeros of either sign.
        back = read_matrix_market(path)
        rows, cols = np.nonzero(column)
        assert back.shape == column.shape and back.nnz == rows.size
        r, c, v = back.to_triplets()
        assert np.array_equal(r, rows) and np.array_equal(c, cols)
        assert np.array_equal(_bits(v), _bits(column[rows, cols]))

    def test_empty_array(self, tmp_path):
        path = tmp_path / "a.mtx"
        write_matrix_market(np.zeros((0, 3)), path)
        assert read_matrix_market(path).shape == (0, 3)


class TestWriterRefusals:
    """write_matrix_market writes only what parse_matrix_market reads back,
    and refuses the rest before it opens the file."""

    @pytest.mark.parametrize(
        "a, error, message",
        [([[1 + 2j, 3]], TypeError, "matrix must be real, got dtype complex128"),
         (np.ones((2, 2, 2)), ValueError, r"matrix must be 1-D or 2-D, got shape \(2, 2, 2\)"),
         (np.float64(3.0), ValueError, r"matrix must be 1-D or 2-D, got shape \(\)"),
         ([[1.0, np.nan]], ValueError, "non-finite"), ([np.inf, 1.0], ValueError, "non-finite"),
         (il.SparseMatrixCsr.from_triplets(2, 2, [0, 1], [1, 0], [1.0, -np.inf]), ValueError, "non-finite")],
        ids=["complex", "3-D", "0-d", "nan", "inf", "csr-inf"],
    )
    def test_refusal_names_its_cause(self, tmp_path, a, error, message):
        path = tmp_path / "a.mtx"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way
            with pytest.raises(error, match=message):
                write_matrix_market(a, path)
        assert not path.exists()


_WRITER_DTYPES = [np.float64, np.float32, np.int64, np.uint8, np.bool_, np.complex128]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data(), as_csr=st.booleans())
def test_what_the_writer_accepts_reads_back_equal(data, as_csr, tmp_path_factory):
    dtype = data.draw(st.sampled_from(_WRITER_DTYPES))
    shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
    a = data.draw(hnp.arrays(dtype, shape))
    complex_input = a.dtype.kind == "c"
    accepted = not complex_input and a.ndim in (1, 2) and bool(np.isfinite(a).all())
    want = a.astype(np.float64).reshape(a.shape[0], a.shape[1] if a.ndim == 2 else 1) if accepted else None
    if as_csr and a.ndim == 2 and not complex_input:
        rows, cols = np.nonzero(a)
        a = il.SparseMatrixCsr.from_triplets(*a.shape, rows, cols, a[rows, cols])
    path = tmp_path_factory.getbasetemp() / "roundtrip.mtx"
    path.unlink(missing_ok=True)
    if not accepted:
        with pytest.raises(TypeError if complex_input else ValueError):
            write_matrix_market(a, path)
        assert not path.exists()
        return
    write_matrix_market(a, path)
    back = read_matrix_market(path)
    assert back.shape == want.shape and np.array_equal(back.to_dense(), want)


def test_parse_normalize_unit_norm(rng, tmp_path):
    from ilsolve import normalize_to_unit_one_norm, one_norm

    for i in range(5):
        a = random_csr(rng, 8, 8, density=0.3)
        path = tmp_path / f"n{i}.mtx"
        write_matrix_market(a, path)
        parsed = read_matrix_market(path)
        assert abs(one_norm(normalize_to_unit_one_norm(parsed)) - 1.0) <= 1e-15
