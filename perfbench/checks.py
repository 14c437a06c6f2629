"""Output checks behind ``failed_frac``.

Every check returns a list of failure names; an empty list means the
outputs passed.  The least-squares oracle is the benchmark's own numpy
code: it re-encodes the design from the metadata file, re-imputes missing
cells for pCMR, and solves with ``numpy.linalg.lstsq``, sharing nothing
with ``fftasca``.
"""

import csv
import math
import os
import re
import statistics

import numpy as np

_NONFINITE = re.compile(r"(?i)(?<![a-z0-9_])[-+]?(nan|inf|infinity)(?![a-z0-9_])")

# relative tolerances of the oracle comparison: the program fits through an
# SVD pseudoinverse and a Gram-matrix trace, the oracle through lstsq, so the
# two agree to a few hundred ulps of the total sum of squares
SUMSQ_RTOL = 1e-9
F_RTOL = 1e-7


def read_matrix(path):
    """(ids, values) of a ``sample,<columns>`` CSV of floats."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    return [r[0] for r in rows], np.array([r[1:] for r in rows], dtype=float)


def read_columns(path):
    """Header-keyed string columns of a CSV, in row order."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {name: [r[j] for r in rows[1:]] for j, name in enumerate(rows[0])}


def read_anova(path):
    """term -> {"SumSq", "df", "F", "Pvalue"} (F and p None when blank)."""
    table = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            table[row["term"]] = {
                "SumSq": float(row["SumSq"]),
                "df": int(row["df"]),
                "F": float(row["F"]) if row["F"] else None,
                "Pvalue": float(row["Pvalue"]) if row["Pvalue"] else None,
            }
    return table


def read_summary(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split(": ", 1) for line in fh if ": " in line)


def _coding(labels):
    """Sum-to-zero coding, levels in sorted order, last level coded -1."""
    levels = sorted(set(labels))
    cols = np.zeros((len(labels), len(levels) - 1))
    for i, lab in enumerate(labels):
        k = levels.index(lab)
        if k == len(levels) - 1:
            cols[i, :] = -1.0
        else:
            cols[i, k] = 1.0
    return cols


def design_blocks(metadata, factors, interactions):
    """Ordered term -> coding block, including ``mean``."""
    n = len(metadata[factors[0]])
    blocks = {"mean": np.ones((n, 1))}
    for f in factors:
        blocks[f] = _coding(metadata[f])
    for a, b in interactions:
        pa, pb = blocks[a], blocks[b]
        blocks[f"{a}:{b}"] = (pa[:, :, None] * pb[:, None, :]).reshape(n, -1)
    return blocks


def impute_cells(x, metadata, factors):
    """Replace zeros by the mean of observed entries in their design cell.

    A cell with no observed value in a column takes the column's observed
    mean, or 0 when the column has no observed value at all.
    """
    missing = x == 0.0
    observed = np.where(missing, 0.0, x)
    counts = (~missing).sum(axis=0)
    grand = np.divide(observed.sum(axis=0), counts, out=np.zeros(x.shape[1]),
                      where=counts > 0)
    keys = list(zip(*(metadata[f] for f in factors)))
    out = x.copy()
    for key in sorted(set(keys)):
        rows = [i for i, k in enumerate(keys) if k == key]
        c = (~missing[rows]).sum(axis=0)
        means = np.divide(observed[rows].sum(axis=0), c, out=grand.copy(), where=c > 0)
        for i in rows:
            out[i, missing[i]] = means[missing[i]]
    return out


def anova_oracle(y, blocks):
    """Nominal SumSq per term, residual and total SumSq, and F per term."""
    d = np.hstack(list(blocks.values()))
    theta, *_ = np.linalg.lstsq(d.astype(y.dtype), y, rcond=None)
    rank = np.linalg.matrix_rank(d)
    out, start = {}, 0
    for term, block in blocks.items():
        span = slice(start, start + block.shape[1])
        start = span.stop
        out[term] = {"SumSq": float(np.sum(np.abs(block @ theta[span]) ** 2)),
                     "df": block.shape[1]}
    resid = float(np.sum(np.abs(y - d.astype(y.dtype) @ theta) ** 2))
    nu2 = y.shape[0] - rank
    for term in blocks:
        if term != "mean":
            out[term]["F"] = (out[term]["SumSq"] / out[term]["df"]) / (resid / nu2)
    out["Residuals"] = {"SumSq": resid, "df": nu2}
    out["Total"] = {"SumSq": float(np.sum(np.abs(y) ** 2)), "df": y.shape[0]}
    return out


def check_anova(table, oracle, label):
    failures = []
    total = oracle["Total"]["SumSq"]
    for term, ref in oracle.items():
        key = "Mean" if term == "mean" else term
        row = table.get(key)
        if row is None:
            failures.append(f"{label}.missing_row.{key}")
            continue
        if row["df"] != ref["df"]:
            failures.append(f"{label}.df.{key}")
        if abs(row["SumSq"] - ref["SumSq"]) > SUMSQ_RTOL * total:
            failures.append(f"{label}.sumsq.{key}")
        if "F" in ref and (row["F"] is None
                           or abs(row["F"] - ref["F"]) > F_RTOL * abs(ref["F"])):
            failures.append(f"{label}.f.{key}")
    return failures


def on_lattice(p, n_permutations):
    """True when ``p == k / (B + 1)`` for an integer ``k`` in ``1..B+1``."""
    k = p * (n_permutations + 1)
    return 1 <= round(k) <= n_permutations + 1 and abs(k - round(k)) <= 1e-9 * k


def check_lattice(pvalues, n_permutations, label):
    return [f"{label}.p_off_lattice.{term}" for term, p in pvalues.items()
            if not on_lattice(p, n_permutations)]


def check_pins(values, pinned, label):
    """Exact equality with the values recorded at the seed commit."""
    if pinned is None:
        return []
    failures = []
    for key in sorted(set(values) | set(pinned)):
        if values.get(key) != pinned.get(key):
            failures.append(f"{label}.pin.{key}")
    return failures


def check_finite_file(path):
    """A CSV or SVG that spells a NaN or an infinity fails."""
    with open(path, encoding="utf-8") as fh:
        bad = _NONFINITE.search(fh.read())
    return [f"nonfinite.{os.path.basename(path)}"] if bad else []


def check_finite(out_dir):
    failures = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith((".csv", ".svg")):
            failures += check_finite_file(os.path.join(out_dir, name))
    return failures


def check_artifacts(out_dir, expected):
    present = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
    return [f"missing_artifact.{name}" for name in sorted(set(expected) - present)]


def fft_tolerance(values, passes):
    """Bound on the float64 error of ``passes`` FFTs of rows of length M.

    Each pass adds about log2(M) roundings, each at most eps times the
    largest magnitude in play; one more rounding covers the 17-digit CSV
    text between the passes.  The factor 8 is headroom over that count.
    """
    m = values.shape[1]
    scale = float(np.max(np.abs(values)))
    return 8.0 * np.finfo(float).eps * (passes * math.log2(m) + 1.0) * scale


def z_on_lattice(z, n_permutations):
    """True when ``z = -Phi^-1(p)`` for a lattice ``p = k / (B + 1)``."""
    p = statistics.NormalDist().cdf(-z)
    k = p * (n_permutations + 1)
    return 1 <= round(k) <= n_permutations + 1 and abs(k - round(k)) <= 1e-6 * k
