import numpy as np
import pytest
import scipy.io

from ilsolve import ParseError, SparseMatrixCsr, parse_matrix_market, read_matrix_market
from ilsolve.mmio import write_matrix_market, write_vector_matrix_market

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
        write_vector_matrix_market(v, path)
        back = read_matrix_market(path)
        assert back.shape == (6, 1)
        assert np.array_equal(back.to_dense()[:, 0], np.where(v == 0.0, 0.0, v))


def test_parse_normalize_unit_norm(rng, tmp_path):
    from ilsolve import normalize_to_unit_one_norm, one_norm

    for i in range(5):
        a = random_csr(rng, 8, 8, density=0.3)
        path = tmp_path / f"n{i}.mtx"
        write_matrix_market(a, path)
        parsed = read_matrix_market(path)
        assert abs(one_norm(normalize_to_unit_one_norm(parsed)) - 1.0) <= 1e-15
