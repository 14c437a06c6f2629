"""The streaming reader and row-template writers against the per-cell oracle.

``io_oracle`` holds the loops that ``fftasca.io`` replaced: every cell
through ``csv.writer`` and ``"{:.17g}"`` on the way out, every token
through ``float`` on the way in.  The new paths must write the same bytes,
accept and reject the same tokens, and raise the same errors at the same
line, column and row.  The intended differences: a non-finite value is
now a ParseError at its cell on the way in, and a NonFiniteResult on the
way out, with nothing written.
"""

import csv
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import io_oracle
from fftasca import io as dataio
from fftasca.errors import NonFiniteResult, ParseError, RaggedRows

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


def same_bytes_or_refused(tmp_path, values, write_new, write_old):
    """:func:`same_bytes` for finite ``values``; else the new writer raises
    NonFiniteResult and leaves no file."""
    if np.isfinite(values).all():
        return same_bytes(tmp_path, write_new, write_old)
    new = tmp_path / "new.csv"
    new.unlink(missing_ok=True)
    with pytest.raises(NonFiniteResult):
        write_new(new)
    return not new.exists()


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
        assert same_bytes_or_refused(tmp_path, values,
                                     lambda p: dataio.write_chromatograms(p, ids, values),
                                     lambda p: io_oracle.write_chromatograms(p, ids, values))

    @SETTINGS
    @given(case=matrices(any_float), imag=st.lists(any_float, min_size=20, max_size=20))
    def test_complex_matrix(self, tmp_path, case, imag):
        ids, re = case
        values = complex_of(re, imag)
        assert same_bytes_or_refused(tmp_path, values,
                                     lambda p: dataio.write_complex_matrix(p, ids, values),
                                     lambda p: io_oracle.write_complex_matrix(p, ids, values))

    @SETTINGS
    @given(case=matrices(any_float), with_ids=st.booleans())
    def test_real_matrix(self, tmp_path, case, with_ids):
        ids, values = case
        names = [f"pc{j + 1}" for j in range(values.shape[1])]
        row_ids = ids if with_ids else None
        assert same_bytes_or_refused(
            tmp_path, values,
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


def table_outcome(path, paired=False):
    """What ``_read_float_table`` gives: ids, header and value bits, or the error."""
    try:
        ids, header, values = dataio._read_float_table(path, paired)
    except Exception as exc:  # csv.Error too: every path must raise the same
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None), getattr(exc, "row", None))
    return "ok", ids, header, values.shape, bits(values)


def csv_only(path, paired=False):
    """The outcome of the ``csv.reader`` path alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_plain_table", lambda *args: None)
        return table_outcome(path, paired)


def pooled(path, paired=False, block=16):
    """The outcome with every table spread over the pool in ``block``-byte ranges."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_POOL_BLOCKS", 0)
        mp.setattr(dataio, "_BLOCK_BYTES", block)
        return table_outcome(path, paired)


DEFECT_LINES = ("", '"q,1",2', 'a\rb,1', "a\x00,1", "s,1,2,3,4,5,6", "s,x7")


@st.composite
def raw_files(draw):
    """CSV bytes that csv.writer would not always write: unquoted odd ids, either
    line ending, and sometimes a blank, quoted, CR, NUL, ragged or non-UTF-8 line."""
    lines = [",".join(row) for row in draw(csv_files())]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(DEFECT_LINES)))
    end = draw(st.sampled_from(("\n", "\r\n")))
    data = (end.join(lines) + draw(st.sampled_from(("", end)))).encode("utf-8")
    if data and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + b"\xff" + data[at + 1:]
    return data


class TestPlainPathMatchesCsvPath:
    """The plain-line parser, in-process and pooled, against ``csv.reader``."""

    @SETTINGS
    @given(data=raw_files(), paired=st.booleans(), block=st.integers(1, 64))
    def test_every_path_reads_alike(self, tmp_path, data, paired, block):
        p = tmp_path / "in.csv"
        p.write_bytes(data)
        want = csv_only(p, paired)
        assert table_outcome(p, paired) == want
        assert pooled(p, paired, block) == want

    @SETTINGS
    @given(rows=csv_files())
    def test_csv_writer_files_read_alike(self, tmp_path, rows):
        p = tmp_path / "in.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        want = csv_only(p)
        assert table_outcome(p) == want
        assert pooled(p) == want


def study_file(tmp_path, last_line=None, n=40, m=30):
    """A chromatogram file of ``n`` rows, its last line replaced by ``last_line``."""
    rng = np.random.default_rng(0)
    p = tmp_path / "study.csv"
    dataio.write_chromatograms(p, [f"s{i}" for i in range(n)], rng.normal(size=(n, m)))
    if last_line is not None:
        lines = p.read_bytes().split(b"\r\n")
        lines[-2] = last_line
        p.write_bytes(b"\r\n".join(lines))
    return p


LAST_LINES = {
    "ragged row": b"s39,1,2",
    "bad token": b"s39," + b"1," * 29 + b"x7",
    "non-UTF-8 byte": b"s39," + b"1," * 29 + b"\xff",
    "quoted id": b'"s,39",' + b"1," * 29 + b"2",
    "blank line": b"",
    "non-finite value": b"s39," + b"1," * 29 + b"inf",
}


class TestPooledReadErrors:
    @pytest.mark.parametrize("case", sorted(LAST_LINES))
    def test_last_chunk_defect_matches_csv_path(self, tmp_path, case):
        p = study_file(tmp_path, LAST_LINES[case])
        want = csv_only(p)
        assert pooled(p, block=4096) == want
        assert table_outcome(p) == want
        if case == "quoted id":
            assert want[0] == "ok" and want[1][-1] == "s,39"
        else:
            assert want[0] in (ParseError, RaggedRows)

    def test_clean_file_matches_csv_path(self, tmp_path):
        p = study_file(tmp_path)
        assert pooled(p, block=4096) == csv_only(p) == table_outcome(p)
        assert csv_only(p)[0] == "ok"


QUOTED_IDS = ["a,b", 'say "x"', "c\rd", "e\nf", " lead", "é", "plain", "", "g,h,i"]


def written(tmp_path, name, write, pool):
    p = tmp_path / name
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_POOL_BLOCKS", 0 if pool else 1 << 62)
        mp.setattr(dataio, "_BLOCK_BYTES", 256)
        write(p)
    return p.read_bytes()


class TestPooledWritesMatchSerial:
    @pytest.mark.parametrize("kind", ["chromatograms", "complex", "real rows", "real ids"])
    def test_same_bytes_with_ids_that_need_quoting(self, tmp_path, kind):
        rng = np.random.default_rng(4)
        n = len(QUOTED_IDS)
        values = rng.normal(size=(n, 12)) * 10.0 ** rng.integers(-30, 30, size=(n, 12))
        values[0, :3] = (-0.0, 5e-324, 1.7976931348623157e308)
        index = rng.integers(0, 4, size=n)
        write = {
            "chromatograms": lambda p: dataio.write_chromatograms(p, QUOTED_IDS, values),
            "complex": lambda p: dataio.write_complex_matrix(
                p, QUOTED_IDS, complex_of(values, values[::-1].ravel())),
            "real rows": lambda p: dataio.write_real_matrix_csv(
                p, [f"c{j}" for j in range(12)], values[:4], row_ids=QUOTED_IDS, rows=index),
            "real ids": lambda p: dataio.write_real_matrix_csv(
                p, [f"c{j}" for j in range(12)], values, row_ids=QUOTED_IDS),
        }[kind]
        assert written(tmp_path, "pool.csv", write, True) == \
            written(tmp_path, "serial.csv", write, False)
        if kind == "chromatograms":
            assert same_bytes(tmp_path, write,
                              lambda p: io_oracle.write_chromatograms(p, QUOTED_IDS, values))


class DiesInWorker:
    """A stand-in for a function of ``fftasca.io`` that exits a forked worker
    calling it; this process gets the function itself."""

    def __init__(self, name):
        self.fn, self.parent = getattr(dataio, name), os.getpid()

    def __getstate__(self):
        return {"parent": self.parent}

    def __call__(self, *args):
        if os.getpid() != self.parent:
            os._exit(1)
        return self.fn(*args)


def _refuse_to_start(most):
    raise OSError("cannot fork")


class TestPoolFallback:
    """A pool that cannot start or breaks leaves the work to this process."""

    @pytest.fixture()
    def forced(self, monkeypatch):
        monkeypatch.setattr(dataio, "_POOL_BLOCKS", 0)
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 4096)
        return monkeypatch

    def roundtrip(self, tmp_path):
        src = study_file(tmp_path)
        ids, _, values = dataio.read_chromatograms(src)
        out = tmp_path / "out.csv"
        dataio.write_chromatograms(out, ids, values)
        return ids, values, out.read_bytes() == src.read_bytes()

    def test_pool_that_cannot_start(self, tmp_path, forced):
        forced.setattr(dataio, "_fork_pool", _refuse_to_start)
        ids, values, same = self.roundtrip(tmp_path)
        assert len(ids) == 40 and values.shape == (40, 30) and same

    def test_pool_that_breaks_during_the_map(self, tmp_path, forced):
        forced.setattr(dataio, "_plain_rows", DiesInWorker("_plain_rows"))
        forced.setattr(dataio, "_row_texts", DiesInWorker("_row_texts"))
        ids, values, same = self.roundtrip(tmp_path)
        assert len(ids) == 40 and values.shape == (40, 30) and same
        assert multiprocessing.active_children() == []

    def test_broken_pool_error_is_caught(self, tmp_path, forced):
        from concurrent.futures.process import BrokenProcessPool

        class Breaks:
            """Its first task completes; then the pool is found broken."""

            def map(self, fn, *iterables):
                yield fn(*next(zip(*iterables)))
                raise BrokenProcessPool("a worker died")

            def shutdown(self, cancel_futures=False):
                pass

        forced.setattr(dataio, "_fork_pool", lambda most: Breaks())
        ids, values, same = self.roundtrip(tmp_path)
        assert len(ids) == 40 and values.shape == (40, 30) and same


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="a pool needs two CPUs in the affinity mask")
class TestWorkersJoined:
    @pytest.fixture()
    def started(self, monkeypatch):
        monkeypatch.setattr(dataio, "_POOL_BLOCKS", 0)
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 4096)
        pools = []
        fork_pool = dataio._fork_pool
        monkeypatch.setattr(dataio, "_fork_pool",
                            lambda most: pools.append(fork_pool(most)) or pools[-1])
        return pools

    def test_after_read_and_write(self, tmp_path, started):
        p = study_file(tmp_path)
        started.clear()
        ids, _, values = dataio.read_chromatograms(p)
        assert multiprocessing.active_children() == []
        dataio.write_chromatograms(tmp_path / "out.csv", ids, values)
        assert multiprocessing.active_children() == []
        assert len(started) == 2 and all(pool is not None for pool in started)

    def test_after_read_that_fails(self, tmp_path, started):
        p = study_file(tmp_path, LAST_LINES["bad token"])
        started.clear()
        with pytest.raises(ParseError):
            dataio.read_chromatograms(p)
        assert multiprocessing.active_children() == []
        assert len(started) == 1 and started[0] is not None
