import numpy as np
import pytest
import scipy.io

from ilsolve import ParseError, mmio, parse_matrix_market, read_matrix_market
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
    """A body long enough that the one-call parse does the work; any line
    it cannot take goes to the per-line parse and its message."""

    @staticmethod
    def body(rng, count=600):
        rows = rng.integers(1, 41, count)
        cols = rng.integers(1, 31, count)
        return [f"{i} {j} {float(v)!r}" for i, j, v in zip(rows, cols, rng.standard_normal(count))]

    @staticmethod
    def text(lines, header="%%MatrixMarket matrix coordinate real general"):
        count = sum(not line.startswith("%") for line in lines)
        return "\n".join([header, f"40 30 {count}", *lines]) + "\n"

    @pytest.fixture
    def fast_results(self, monkeypatch):
        """What each call of ``mmio._coordinate_fast`` returned, in order."""
        seen = []
        real = mmio._coordinate_fast

        def spy(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(mmio, "_coordinate_fast", spy)
        return seen

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
    def test_matches_the_per_line_parse(self, rng, fast_results, layout):
        lines = self.body(rng)
        fast = parse_matrix_market(layout(self.text(lines)))
        # A comment line sends the whole body through the per-line parse.
        slow = parse_matrix_market(layout(self.text(lines[:300] + ["% c"] + lines[300:])))
        assert fast_results[0] is not None and fast_results[1] is None
        for field in ("row_offsets", "col_indices", "values"):
            assert np.array_equal(getattr(fast, field), getattr(slow, field))

    def test_all_blank_body_falls_back(self, fast_results):
        with pytest.raises(ParseError, match="declared 1 entries but found 0"):
            parse_matrix_market("%%MatrixMarket matrix coordinate real general\n2 2 1\n\n  \n")
        assert fast_results == [None]

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("7 3 abc", "bad entry '7 3 abc'"),
            ("7.0 3 1.5", "bad entry '7.0 3 1.5'"),
            ("7 3 1.5 2", "coordinate entry needs 'i j value'"),
            ("41 3 1.5", "index \\(41, 3\\) outside declared 40 x 30 bounds"),
            ("7 3 inf", "non-finite value in '7 3 inf'"),
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
