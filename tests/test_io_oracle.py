"""The streaming reader and row-template writers against the per-cell oracle.

``io_oracle`` holds the loops that ``fftasca.io`` replaced: every cell
through ``csv.writer`` and ``"{:.17g}"`` on the way out, every token
through ``float`` on the way in.  The new paths must write the same bytes,
accept and reject the same tokens, and raise the same errors at the same
line, column and row.  The one intended difference: a non-finite value is
now a ParseError at its cell.
"""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import io_oracle
from fftasca import io as dataio
from fftasca.errors import ParseError, RaggedRows

SETTINGS = settings(max_examples=75, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

ODD_IDS = ("", ",", '"', 'a"b', "\r", "\n", "x\r\ny", " lead", "trail ", "é", "√2", "s1")
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
           1.7976931348623157e308, 0.1, -1.5, 1e17, 123456789.0)

ids_text = st.one_of(st.sampled_from(ODD_IDS),
                     st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
finite = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
any_float = st.one_of(finite, st.sampled_from((np.nan, np.inf, -np.inf)))


@st.composite
def matrices(draw, elements=finite, max_cols=5):
    """(unique ids, n x m float matrix) with one or more rows, zero or more columns."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, max_cols))
    ids = draw(st.lists(ids_text, min_size=n, max_size=n, unique=True))
    cells = draw(st.lists(elements, min_size=n * m, max_size=n * m))
    return ids, np.array(cells, dtype=float).reshape(n, m)


def same_bytes(tmp_path, write_new, write_old):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_new(new)
    write_old(old)
    return new.read_bytes() == old.read_bytes()


def bits(values):
    return np.ascontiguousarray(values).tobytes()


def complex_of(re, imag):
    """Complex matrix with exactly these parts; ``re + 1j * im`` can flip -0.0."""
    values = np.empty(re.shape, dtype=np.complex128)
    values.real = re
    values.imag = np.resize(np.array(imag, dtype=float), re.shape)
    return values


class TestWritersMatchOracle:
    @SETTINGS
    @given(case=matrices(any_float))
    def test_chromatograms(self, tmp_path, case):
        ids, values = case
        assert same_bytes(tmp_path,
                          lambda p: dataio.write_chromatograms(p, ids, values),
                          lambda p: io_oracle.write_chromatograms(p, ids, values))

    @SETTINGS
    @given(case=matrices(any_float), imag=st.lists(any_float, min_size=20, max_size=20))
    def test_complex_matrix(self, tmp_path, case, imag):
        ids, re = case
        values = complex_of(re, imag)
        assert same_bytes(tmp_path,
                          lambda p: dataio.write_complex_matrix(p, ids, values),
                          lambda p: io_oracle.write_complex_matrix(p, ids, values))

    @SETTINGS
    @given(case=matrices(any_float), with_ids=st.booleans())
    def test_real_matrix(self, tmp_path, case, with_ids):
        ids, values = case
        names = [f"pc{j + 1}" for j in range(values.shape[1])]
        row_ids = ids if with_ids else None
        assert same_bytes(
            tmp_path,
            lambda p: dataio.write_real_matrix_csv(p, names, values, row_ids=row_ids),
            lambda p: io_oracle.write_real_matrix_csv(p, names, values, row_ids=row_ids))

    def test_non_contiguous_complex_input(self, tmp_path):
        values = (np.arange(24.0) - 1j * np.arange(24.0)).reshape(4, 6)[:, ::2]
        ids = ["a", "b", "c", "d"]
        assert same_bytes(tmp_path,
                          lambda p: dataio.write_complex_matrix(p, ids, values),
                          lambda p: io_oracle.write_complex_matrix(p, ids, values))


class TestRoundTrip:
    @SETTINGS
    @given(case=matrices())
    def test_chromatograms_exact(self, tmp_path, case):
        ids, values = case
        p = tmp_path / "c.csv"
        dataio.write_chromatograms(p, ids, values)
        got_ids, labels, got = dataio.read_chromatograms(p)
        assert got_ids == tuple(ids)
        assert labels == tuple(f"t{j}" for j in range(values.shape[1]))
        assert got.shape == values.shape and bits(got) == bits(values)

    @SETTINGS
    @given(case=matrices(), imag=st.lists(finite, min_size=20, max_size=20))
    def test_complex_exact(self, tmp_path, case, imag):
        ids, re = case
        values = complex_of(re, imag)
        p = tmp_path / "k.csv"
        dataio.write_complex_matrix(p, ids, values)
        got_ids, got = dataio.read_complex_matrix(p)
        assert got_ids == tuple(ids)
        assert got.dtype == np.complex128 and got.shape == values.shape
        assert bits(got) == bits(values)


def outcome(read, path):
    try:
        return "ok", read(path)
    except (ParseError, RaggedRows, IndexError, ValueError) as exc:
        return (type(exc), getattr(exc, "line", None), getattr(exc, "column", None),
                getattr(exc, "row", None))


def first_non_finite(values):
    """(line, column) of the first non-finite float cell in file order, or None."""
    bad = np.argwhere(~np.isfinite(values))
    return None if bad.size == 0 else tuple(int(k) + 2 for k in bad[0])


TOKENS = ("1", "-0", "0.5", "1e308", "1e309", "-1e400", "5e-324", " 2 ", "1_000", "0x10",
          "", "oops", "1e", "nan", "NaN", "-inf", "Infinity", "١٢", "+3", ".5")


@st.composite
def csv_files(draw):
    """CSV text over valid, invalid and non-finite tokens, sometimes ragged."""
    width = draw(st.integers(1, 5))
    rows = [["sample", *(f"c{j}" for j in range(width - 1))]]
    for i in range(draw(st.integers(0, 4))):
        cells = draw(st.lists(st.sampled_from(TOKENS), min_size=0, max_size=width))
        rows.append([draw(ids_text), *cells])
    if draw(st.booleans()):
        rows = rows[:1] + [[f"s{i}", *r[1:]] for i, r in enumerate(rows[1:])]
    return rows


class TestReadersMatchOracle:
    def check(self, tmp_path, rows, read_new, read_old, to_floats):
        p = tmp_path / "in.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        old, new = outcome(read_old, p), outcome(read_new, p)
        if old[0] != "ok":
            if old[0] is ParseError and old[1] is None:
                # duplicate ids: the new reader may find a non-finite value first
                assert new[0] is ParseError
            else:
                assert new == old
            return
        at = first_non_finite(to_floats(old[1]))
        if at is not None:
            assert new == (ParseError, *at, None)
            return
        assert new[0] == "ok"
        for got, want in zip(new[1], old[1]):
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert bits(got) == bits(want)
            else:
                assert got == want

    @SETTINGS
    @given(rows=csv_files())
    def test_chromatograms(self, tmp_path, rows):
        self.check(tmp_path, rows, dataio.read_chromatograms,
                   io_oracle.read_chromatograms, lambda r: r[2])

    @SETTINGS
    @given(rows=csv_files())
    def test_complex_matrix(self, tmp_path, rows):
        self.check(tmp_path, rows, dataio.read_complex_matrix,
                   io_oracle.read_complex_matrix, lambda r: r[1].view(np.float64))


class TestErrorLocations:
    @pytest.mark.parametrize("read", [dataio.read_chromatograms, dataio.read_complex_matrix])
    def test_bad_token(self, tmp_path, read):
        p = tmp_path / "bad.csv"
        p.write_text("sample,a,b,c,d\ns1,1,2,3,4\ns2,5,6,x7,8\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read(p)
        assert (err.value.line, err.value.column) == (3, 4)

    @pytest.mark.parametrize("read", [dataio.read_chromatograms, dataio.read_complex_matrix])
    def test_ragged_row(self, tmp_path, read):
        p = tmp_path / "bad.csv"
        p.write_text("sample,a,b\ns1,1,2\ns2,3,4\ns3,5\n", encoding="utf-8")
        with pytest.raises(RaggedRows) as err:
            read(p)
        assert err.value.row == 4

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("read", [dataio.read_chromatograms, dataio.read_complex_matrix])
    def test_non_finite_value(self, tmp_path, read, token):
        p = tmp_path / "bad.csv"
        p.write_text(f"sample,a,b\ns1,1,2\ns2,3,{token}\ns3,nan,4\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read(p)
        assert (err.value.line, err.value.column) == (3, 3)
        assert "non-finite" in str(err.value)

    @pytest.mark.parametrize("read", [dataio.read_chromatograms, dataio.read_complex_matrix])
    def test_header_only(self, tmp_path, read):
        p = tmp_path / "bad.csv"
        p.write_text("sample,a,b\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read(p)
        assert err.value.line == 1

    def test_unpaired_complex_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("sample,k0_re,k0_im,k1_re\ns1,1,2,oops\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            dataio.read_complex_matrix(p)
        assert (err.value.line, err.value.column) == (1, None)
