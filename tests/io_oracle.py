"""Reference CSV readers and writers: one Python loop per cell.

These are the straightforward float-matrix paths that the streaming reader
and the row-template writer in ``fftasca.io`` replaced, kept as a test
oracle.  Every cell goes through ``csv.writer`` and ``"{:.17g}".format``
on the way out and through ``float`` on the way in, so their bytes,
accepted tokens and error locations define what the fast paths must
reproduce exactly.
"""

import csv

import numpy as np

from fftasca.errors import ParseError, RaggedRows

FLOAT_FMT = "{:.17g}"


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows) < 2:
        raise ParseError(f"{path}: expected a header row and at least one data row",
                         line=1)
    return rows


def _parse_float(token, line, column, path):
    try:
        return float(token)
    except ValueError:
        raise ParseError(
            f"{path}: cannot parse '{token}' as a number (line {line}, column {column})",
            line=line, column=column,
        ) from None


def read_chromatograms(path):
    rows = _read_rows(path)
    header = rows[0]
    width = len(header)
    axis_labels = tuple(header[1:])
    ids, data = [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise RaggedRows(
                f"{path}: row {i} has {len(row)} fields, expected {width}", row=i
            )
        ids.append(row[0])
        data.append([_parse_float(tok, i, j + 2, path)
                     for j, tok in enumerate(row[1:])])
    if len(set(ids)) != len(ids):
        dupes = sorted({s for s in ids if ids.count(s) > 1})
        raise ParseError(f"{path}: duplicate sample ids {dupes}")
    return tuple(ids), axis_labels, np.array(data, dtype=float)


def write_chromatograms(path, ids, values, axis_labels=None):
    values = np.asarray(values)
    if axis_labels is None:
        axis_labels = [f"t{j}" for j in range(values.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", *axis_labels])
        for sid, row in zip(ids, values):
            writer.writerow([sid, *(FLOAT_FMT.format(v) for v in row)])


def write_complex_matrix(path, ids, values):
    values = np.asarray(values, dtype=np.complex128)
    header = ["sample"]
    for j in range(values.shape[1]):
        header += [f"k{j}_re", f"k{j}_im"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for sid, row in zip(ids, values):
            cells = [sid]
            for v in row:
                cells += [FLOAT_FMT.format(v.real), FLOAT_FMT.format(v.imag)]
            writer.writerow(cells)


def read_complex_matrix(path):
    rows = _read_rows(path)
    header = rows[0]
    if (len(header) - 1) % 2 != 0:
        raise ParseError(f"{path}: expected paired re/im columns", line=1)
    m = (len(header) - 1) // 2
    ids, data = [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise RaggedRows(
                f"{path}: row {i} has {len(row)} fields, expected {len(header)}", row=i
            )
        ids.append(row[0])
        vals = [_parse_float(tok, i, j + 2, path) for j, tok in enumerate(row[1:])]
        data.append([complex(vals[2 * k], vals[2 * k + 1]) for k in range(m)])
    return tuple(ids), np.array(data, dtype=np.complex128)


def write_real_matrix_csv(path, column_names, values, row_ids=None):
    values = np.asarray(values, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if row_ids is None:
            writer.writerow(list(column_names))
            for row in values:
                writer.writerow([FLOAT_FMT.format(v) for v in row])
        else:
            writer.writerow(["sample", *column_names])
            for sid, row in zip(row_ids, values):
                writer.writerow([sid, *(FLOAT_FMT.format(v) for v in row)])
