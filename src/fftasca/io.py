"""CSV ingestion and serialization.

One interchange format: RFC-4180-style comma-separated UTF-8 text with a
single header row.  Chromatogram files carry one sample per row, the first
column holding the sample id; metadata files carry the same ids plus one
categorical column per factor.  Floats are written with 17 significant
digits so a write/read round trip is exact.
"""

import collections
import csv
import itertools
from io import StringIO

import numpy as np

from .design import DesignSpec, Factor
from .errors import IdMismatch, ParseError, RaggedRows
from .glm import AnovaRow, AnovaTable

__all__ = [
    "read_chromatograms",
    "write_chromatograms",
    "read_metadata",
    "load_dataset",
    "read_complex_matrix",
    "write_complex_matrix",
    "write_anova_csv",
    "read_anova_csv",
    "write_real_matrix_csv",
    "write_jitter_table",
    "read_design_spec",
]


def _decoded_rows(fh, path):
    """``csv.reader`` rows of ``fh``; text that is not UTF-8 is a ParseError."""
    try:
        yield from csv.reader(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 text ({exc.reason})") from None


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


def _parse_float(token, line, column, path):
    try:
        return float(token)
    except ValueError:
        raise ParseError(
            f"{path}: cannot parse '{token}' as a number (line {line}, column {column})",
            line=line, column=column,
        ) from None


def _read_float_table(path, paired=False):
    """Stream (ids, header, values) from a CSV of an id plus float columns.

    ParseErrors name the line and column of a bad token or non-finite value.
    """
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
                cells = [_parse_float(tok, i, j + 2, path)
                         for j, tok in enumerate(row[1:])]
            data.append(np.array(cells, dtype=float))
    values = np.array(data, dtype=float)
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0].tolist()
        raise ParseError(f"{path}: non-finite value {values[i, j]} "
                         f"(line {i + 2}, column {j + 2})", line=i + 2, column=j + 2)
    return tuple(ids), header, values


def _id_cell(sid, width):
    """``sid`` as csv.writer writes it, with the comma before a first float."""
    buf = StringIO()
    csv.writer(buf).writerow([sid] + [""] * min(width, 1))
    return buf.getvalue()[:-2]


def _write_float_rows(path, header, values, ids=None, rows=None):
    """Write ``header``, then one ``%.17g``-template line per row, led by its id.

    Line ``i`` holds ``values[rows[i]]``; ``rows`` defaults to each row of
    ``values`` once.  Each row is formatted once, and its text is kept
    only until its last line, so a matrix of distinct rows streams.
    """
    values = np.asarray(values, dtype=float)
    rows = range(values.shape[0]) if rows is None else np.asarray(rows).tolist()
    width = values.shape[1]
    fmt = ",".join(["%.17g"] * width) + "\r\n"
    last = {k: i for i, k in enumerate(rows)}
    texts = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        leads = itertools.repeat("") if ids is None else (_id_cell(s, width) for s in ids)
        for i, (lead, k) in enumerate(zip(leads, rows)):
            text = texts.pop(k, None) or fmt % tuple(values[k].tolist())
            if last[k] > i:
                texts[k] = text
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


def write_anova_csv(path, table):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(table.to_csv())


def read_anova_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows or tuple(rows[0]) != AnovaTable.COLUMNS:
        raise ParseError(f"{path}: unexpected header {rows[0] if rows else '(none)'}",
                         line=1)
    parsed = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(AnovaTable.COLUMNS):
            raise RaggedRows(f"{path}: row {i} has {len(row)} fields", row=i)
        parsed.append(AnovaRow(
            term=row[0],
            sum_sq=_parse_float(row[1], i, 2, path),
            perc_sum_sq=_parse_float(row[2], i, 3, path),
            df=int(row[3]),
            mean_sq=_parse_float(row[4], i, 5, path),
            f=None if row[5] == "" else _parse_float(row[5], i, 6, path),
            p_value=None if row[6] == "" else _parse_float(row[6], i, 7, path),
        ))
    return AnovaTable(rows=tuple(parsed), n_permutations=0)


def write_jitter_table(path, trials):
    values = np.array([(t.jitter, t.trial, t.z_time, t.z_freq) for t in trials])
    _write_float_rows(path, ["jitter", "trial", "z_time", "z_freq"], values.reshape(-1, 4))
