"""CSV ingestion and serialization: every CSV file fftasca reads or writes.

One interchange format: RFC-4180-style comma-separated UTF-8 text with a
single header row.  Chromatogram files carry one sample per row, the first
column holding the sample id; metadata files carry the same ids plus one
categorical column per factor.  :func:`_csv_line` formats every line of
cells, quoting a cell that holds a comma, quote, CR or LF; float tables end
their lines in CRLF, the ANOVA table and metadata files in LF.  Floats are
written with 17 significant digits so a write/read round trip is exact.
Large float tables are parsed and formatted in forked workers on every CPU
of the affinity mask, with the same bytes and the same errors as in one
process.
"""

import collections
import contextlib
import csv
import itertools
import os
import warnings
from io import StringIO

import numpy as np

from .design import DesignSpec, Factor
from .errors import IdMismatch, NonFiniteResult, ParseError, RaggedRows
from .glm import AnovaRow, AnovaTable

__all__ = [
    "read_chromatograms",
    "write_chromatograms",
    "read_metadata",
    "write_metadata",
    "load_dataset",
    "read_complex_matrix",
    "write_complex_matrix",
    "write_anova_csv",
    "read_anova_csv",
    "write_real_matrix_csv",
    "write_jitter_table",
    "read_design_spec",
]

# Float tables are parsed and formatted in blocks of about this many bytes of
# text, which bounds the memory a block takes; more than _POOL_BLOCKS blocks
# are spread over forked workers, one per CPU of the affinity mask.  Below
# that a pool's import, fork and join cost about as much as they save: on
# two CPUs the break-even was about 2.5 MB.
_BLOCK_BYTES = 1 << 20
_POOL_BLOCKS = 4
# the width of a ``%.17g`` value and its comma, as a typical float takes
_VALUE_BYTES = 24


def _fork_pool(most):
    """A process pool forking one worker per CPU of the affinity mask, at most
    ``most``; None if that is fewer than two."""
    cpus = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1, most)
    if cpus < 2:
        return None
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(cpus, mp_context=multiprocessing.get_context("fork"))


def _mapped(fn, tasks):
    """Yield ``fn(*task)`` for each task, in order; in forked workers if
    there are more than ``_POOL_BLOCKS`` tasks.

    With a single CPU, or where a pool cannot start or breaks, the tasks
    left run in this process.  The workers are joined when the generator
    ends or is closed.
    """
    done = 0
    try:
        pool = _fork_pool(len(tasks)) if len(tasks) > _POOL_BLOCKS else None
    except OSError:
        pool = None
    if pool is not None:
        from concurrent.futures.process import BrokenProcessPool
        try:
            with warnings.catch_warnings():
                # the workers only parse or format text, so they take no lock
                # that another thread holds: the CLI runs no BLAS thread, but
                # a library caller's process may
                warnings.filterwarnings("ignore", ".* is multi-threaded, use of fork",
                                        DeprecationWarning)
                results = pool.map(fn, *zip(*tasks))
            for result in results:
                yield result
                done += 1
        except (OSError, BrokenProcessPool):
            pass
        finally:
            pool.shutdown(cancel_futures=True)
    for task in tasks[done:]:
        yield fn(*task)


def _decoded_rows(fh, path):
    """``csv.reader`` rows of ``fh``; text that is not UTF-8, or that
    ``csv.reader`` rejects, such as a field longer than
    ``csv.field_size_limit()``, is a ParseError that names its line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        # no multi-byte UTF-8 character holds the LF that ends a line
        with open(path, "rb") as raw:
            line = next((i for i, b in enumerate(raw, 1)
                         if b.decode("utf-8", "ignore").encode() != b), None)
        raise ParseError(f"{path}: line {line} is not valid UTF-8 text ({exc.reason})",
                         line=line) from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc} (line {reader.line_num})",
                         line=reader.line_num) from None


def _data_rows(fh, path):
    """Yield the header row, then (line, row) per data row, width-checked."""
    reader = _decoded_rows(fh, path)
    header, first = next(reader, None), next(reader, None)
    if first is None:
        raise ParseError(f"{path}: expected a header row and at least one data row", line=1)
    if not header:
        raise ParseError(f"{path}: line 1 is blank, expected a header row", line=1)
    yield header
    for i, row in enumerate(itertools.chain([first], reader), start=2):
        if len(row) != len(header):
            raise RaggedRows(
                f"{path}: row {i} has {len(row)} fields, expected {len(header)}", row=i)
        yield i, row


def _check_unique(ids, path):
    dupes = sorted(s for s, count in collections.Counter(ids).items() if count > 1)
    if dupes:
        raise ParseError(f"{path}: duplicate sample ids {dupes}")


def _parse_number(token, line, column, path, kind=float):
    try:
        return kind(token)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ParseError(
            f"{path}: cannot parse '{token}' as {what} (line {line}, column {column})",
            line=line, column=column,
        ) from None


def _too_long(line, fields):
    """Whether a field of ``line`` is longer than ``csv.reader`` accepts."""
    limit = csv.field_size_limit()
    return len(line) > limit and max(map(len, fields)) > limit


def _plain_line(raw):
    """The text of the line ``raw`` without its ending, if ``csv.reader``
    would split it at every comma; None if it is not UTF-8, is blank or holds
    a quote, a NUL or a lone CR."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    line = line[:-2] if line.endswith("\r\n") else line[:-1] if line.endswith("\n") else line
    if not line or '"' in line or "\r" in line or "\0" in line:
        return None
    return line


def _plain_rows(path, start, stop, width):
    """(ids, values) of the lines of ``path`` that begin in bytes [start, stop).

    Each line is split at its commas and its tokens parsed with ``float``.
    None at the first line that is not plain: see :func:`_plain_line`; a
    line must also hold ``width - 1`` commas and only tokens ``float`` takes.
    """
    ids, rows = [], []
    with open(path, "rb") as fh:
        if start > 0:
            fh.seek(start - 1)
            if fh.read(1) != b"\n":
                fh.readline()
        at = fh.tell()
        while at < stop:
            raw = fh.readline()
            at += len(raw)
            line = _plain_line(raw)
            if line is None:
                return None
            tokens = line.split(",")
            if len(tokens) != width or _too_long(line, tokens):
                return None
            ids.append(tokens[0])
            try:
                rows.append(np.fromiter(map(float, itertools.islice(tokens, 1, None)),
                                        dtype=float, count=width - 1))
            except ValueError:
                return None
    return ids, np.array(rows, dtype=float).reshape(len(rows), width - 1)


def _plain_table(path, paired):
    """(ids, header, values) of a file of plain lines, else None.

    The data lines are parsed in blocks of ``_BLOCK_BYTES``, across the CPUs
    when there are more than ``_POOL_BLOCKS`` blocks.  Any file the blocks do not
    all take, or with unpaired re/im columns when ``paired``, gives None.
    """
    with open(path, "rb") as fh:
        head = _plain_line(fh.readline())
        start, size = fh.tell(), os.fstat(fh.fileno()).st_size
    if head is None or start == size:
        return None
    header = head.split(",")
    width = len(header)
    if _too_long(head, header) or paired and width % 2 == 0:
        return None
    tasks = [(path, a, min(a + _BLOCK_BYTES, size), width)
             for a in range(start, size, _BLOCK_BYTES)]
    ids, blocks = [], []
    with contextlib.closing(_mapped(_plain_rows, tasks)) as parts:
        for part in parts:
            if part is None:
                return None
            ids += part[0]
            # a pooled block was unpickled on the pool's result thread: a copy
            # frees it at once, which keeps that thread's malloc arena small
            blocks.append(part[1].copy())
    return tuple(ids), header, np.concatenate(blocks)


def _csv_table(path, paired):
    """(ids, header, values) through ``csv.reader``, raising at the first bad cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = _data_rows(fh, path)
        header = next(rows)
        if paired and (len(header) - 1) % 2 != 0:
            raise ParseError(f"{path}: expected paired re/im columns", line=1)
        ids, data = [], []
        for i, row in rows:
            ids.append(row[0])
            try:
                cells = list(map(float, row[1:]))
            except ValueError:
                cells = [_parse_number(tok, i, j + 2, path)
                         for j, tok in enumerate(row[1:])]
            data.append(np.array(cells, dtype=float))
    return tuple(ids), header, np.array(data, dtype=float)


def _read_float_table(path, paired=False):
    """(ids, header, values) from a CSV of an id plus float columns.

    A file of plain lines is parsed by :func:`_plain_table`; any other goes
    through ``csv.reader``, whose ParseErrors and RaggedRows name the line
    and column of a bad token.  Either way a non-finite value is a
    ParseError at its cell.
    """
    table = _plain_table(path, paired)
    ids, header, values = _csv_table(path, paired) if table is None else table
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0].tolist()
        raise ParseError(f"{path}: non-finite value {values[i, j]} "
                         f"(line {i + 2}, column {j + 2})", line=i + 2, column=j + 2)
    return ids, header, values


def _csv_line(cells):
    """``cells`` as one line of ``csv.writer``'s default dialect, without its
    CRLF; a cell holding a comma, quote, CR or LF is quoted."""
    buf = StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()[:-2]


def _row_texts(values, fmt):
    """``fmt % row`` for each row of the 2-D array ``values``."""
    return [fmt % tuple(row) for row in values.tolist()]


def _write_float_rows(path, header, values, ids=None, rows=None):
    """Write ``header``, then one ``%.17g``-template line per row, led by its id.

    Line ``i`` holds ``values[rows[i]]``; ``rows`` defaults to each row of
    ``values`` once.  Each row of ``values`` is formatted once, in blocks
    of about ``_BLOCK_BYTES`` of text, across the CPUs when there are more
    than ``_POOL_BLOCKS`` blocks; without ``rows`` the blocks stream to the file.
    A NaN or inf, which the readers reject, raises NonFiniteResult first.
    """
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise NonFiniteResult(f"{path}: a value to write is not finite")
    width = values.shape[1]
    fmt = ",".join(["%.17g"] * width) + "\r\n"
    step = max(1, _BLOCK_BYTES // (_VALUE_BYTES * width + 2))
    blocks = [(values[i:i + step], fmt) for i in range(0, values.shape[0], step)]
    # an id and, when floats follow, the comma before them
    leads = (itertools.repeat("") if ids is None
             else (_csv_line([sid] + [""] * min(width, 1)) for sid in ids))
    with contextlib.closing(_mapped(_row_texts, blocks)) as parts:
        texts = itertools.chain.from_iterable(parts)
        if rows is not None:
            distinct = list(texts)
            texts = (distinct[k] for k in np.asarray(rows).tolist())
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(_csv_line(header) + "\r\n")
            for lead, text in zip(leads, texts):
                fh.write(lead + text)


def read_chromatograms(path):
    """Read a sample-per-row intensity matrix.

    Returns (ids, axis_labels, values) where values is a real N x M array.
    """
    ids, header, values = _read_float_table(path)
    _check_unique(ids, path)
    return ids, tuple(header[1:]), values


def write_chromatograms(path, ids, values, axis_labels=None):
    if axis_labels is None:
        axis_labels = [f"t{j}" for j in range(np.shape(values)[1])]
    _write_float_rows(path, ["sample", *axis_labels], values, ids)


def read_metadata(path):
    """Read sample ids plus categorical factor columns.

    Returns (ids, factor_names, label_columns) with labels kept as strings.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = _data_rows(fh, path)
        header = next(rows)
        if len(header) < 2:
            raise ParseError(
                f"{path}: metadata needs an id column and at least one factor", line=1)
        body = []
        for i, row in rows:
            if any(tok.strip() == "" for tok in row):
                raise ParseError(f"{path}: empty cell on line {i}", line=i)
            body.append(row)
    ids, *columns = zip(*body)
    _check_unique(ids, path)
    return ids, tuple(header[1:]), list(columns)


def write_metadata(path, ids, factor_names, columns):
    """Write sample ids plus one label column per factor, as
    :func:`read_metadata` reads them."""
    _write_lines(path, [["sample", *factor_names], *zip(ids, *columns)])


def read_design_spec(path, ids_order):
    """Build a DesignSpec from a metadata file, aligned to ``ids_order``.

    String labels are mapped to integer codes in sorted label order, with
    the original strings retained as level names.
    """
    meta_ids, names, columns = read_metadata(path)
    meta_set, data_set = set(meta_ids), set(ids_order)
    missing_meta = [s for s in ids_order if s not in meta_set]
    missing_data = [s for s in meta_ids if s not in data_set]
    if missing_meta or missing_data:
        raise IdMismatch(
            f"{path}: sample ids disagree with the data file "
            f"(missing in metadata: {missing_meta[:5]}, "
            f"missing in data: {missing_data[:5]})",
            missing_in_metadata=missing_meta,
            missing_in_data=missing_data,
        )
    position = {s: k for k, s in enumerate(meta_ids)}
    order = [position[s] for s in ids_order]
    factors = []
    for name, col in zip(names, columns):
        aligned = [col[k] for k in order]
        levels = sorted(set(aligned))
        code = {lab: i for i, lab in enumerate(levels)}
        factors.append(Factor.from_labels(
            name, [code[lab] for lab in aligned],
            level_names={i: lab for lab, i in code.items()},
        ))
    return DesignSpec(factors=tuple(factors))


def load_dataset(chromatogram_path, metadata_path):
    """Load intensities and design together, joined on sample id.

    Returns (values, spec, ids): values is complex N x M with zero
    imaginary part, rows in the chromatogram file's order.
    """
    ids, _, values = read_chromatograms(chromatogram_path)
    spec = read_design_spec(metadata_path, ids)
    return values.astype(np.complex128), spec, ids


def write_complex_matrix(path, ids, values):
    """Complex matrix as alternating re/im columns per bin."""
    values = np.ascontiguousarray(values, dtype=np.complex128)
    header = ["sample", *(f"k{j}_{part}" for j in range(values.shape[1])
                          for part in ("re", "im"))]
    _write_float_rows(path, header, values.view(np.float64), ids)


def read_complex_matrix(path):
    ids, _, values = _read_float_table(path, paired=True)
    return ids, values.view(np.complex128)


def write_real_matrix_csv(path, column_names, values, row_ids=None, rows=None):
    """Generic real matrix with named columns (scores, loadings, views).

    With ``rows``, ``values`` holds distinct rows and line ``i`` of the
    file is ``values[rows[i]]``.
    """
    header = list(column_names) if row_ids is None else ["sample", *column_names]
    _write_float_rows(path, header, values, row_ids, rows)


def _write_lines(path, rows):
    """Write each row of cells as one :func:`_csv_line` ended by LF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(_csv_line(row) + "\n" for row in rows)


def write_anova_csv(path, table):
    """One line per row of ``table``; F and p are empty where absent."""
    _write_lines(path, [AnovaTable.COLUMNS, *(
        [r.term, f"{r.sum_sq:.17g}", f"{r.perc_sum_sq:.17g}", str(r.df), f"{r.mean_sq:.17g}",
         *("" if v is None else f"{v:.17g}" for v in (r.f, r.p_value))]
        for r in table.rows)])


def read_anova_csv(path):
    """The table :func:`write_anova_csv` wrote, with ``n_permutations`` 0."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = _data_rows(fh, path)
        header = next(rows)
        if tuple(header) != AnovaTable.COLUMNS:
            raise ParseError(f"{path}: unexpected header {header}", line=1)
        parsed = [AnovaRow(
            term=row[0],
            sum_sq=_parse_number(row[1], i, 2, path),
            perc_sum_sq=_parse_number(row[2], i, 3, path),
            df=_parse_number(row[3], i, 4, path, kind=int),
            mean_sq=_parse_number(row[4], i, 5, path),
            f=None if row[5] == "" else _parse_number(row[5], i, 6, path),
            p_value=None if row[6] == "" else _parse_number(row[6], i, 7, path),
        ) for i, row in rows]
    return AnovaTable(rows=tuple(parsed), n_permutations=0)


def write_jitter_table(path, trials):
    values = np.array([(t.jitter, t.trial, t.z_time, t.z_freq) for t in trials])
    _write_float_rows(path, ["jitter", "trial", "z_time", "z_freq"], values.reshape(-1, 4))
