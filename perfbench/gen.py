"""Seeded input files for the benchmark workloads.

The generator is the benchmark's own numpy code, not the program's, so a
change to ``fftasca.synth`` cannot move the inputs.  The same seed gives
byte-identical files: floats are written with ``repr`` (shortest exact
round trip) and nothing depends on the clock.  numpy's vectorised ``exp``
may round differently on another CPU, so each run records the SHA-256 of
its inputs instead of comparing it with a stored one.

* ``study``: 93 chromatograms of 5000 acquisitions, Gaussian bands of width
  4*sigma = 20 as in ``synth.generate``, a 3-level ``treatment`` and a
  2-level ``batch`` factor.  93 samples in 6 cells cannot be balanced, so
  the design is unbalanced on purpose.  Treatment shifts bands 0-2 and
  batch shifts bands 6-7 by three to four times the per-sample amplitude
  spread, so both terms are significant at any seed.
* ``peaks``: a 48 x 300 peak-area table with a 2-level ``diet`` and a
  4-level ``time`` factor (6 samples per cell), multiplicative effects on
  disjoint peak blocks, no interaction, and about 15 % of the entries set
  to zero (missing) at random.
"""

import hashlib
import os

import numpy as np

STUDY_SHAPE = (93, 5000)
STUDY_PEAKS = 10
PEAK_SIGMA = 5.0
TREATMENT_LEVELS = ("ctrl", "dose_lo", "dose_hi")
TREATMENT_SHIFT = (-2.0, 0.0, 2.0)
BATCH_LEVELS = ("b1", "b2")
BATCH_SHIFT = (-1.5, 1.5)

PEAKS_SHAPE = (48, 300)
DIET_LEVELS = ("chow", "fat")
TIME_LEVELS = ("d00", "d07", "d14", "d28")
MISSING_FRACTION = 0.15


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(stream,)))


def _sample_ids(n):
    return [f"s{i:03d}" for i in range(n)]


def write_matrix(path, ids, values, prefix):
    lines = [",".join(["sample", *(f"{prefix}{j}" for j in range(values.shape[1]))])]
    for sid, row in zip(ids, values.tolist()):
        lines.append(sid + "," + ",".join(map(repr, row)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_metadata(path, ids, columns):
    names = list(columns)
    lines = [",".join(["sample", *names])]
    for i, sid in enumerate(ids):
        lines.append(",".join([sid, *(columns[c][i] for c in names)]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def study_design(n):
    treatment = [TREATMENT_LEVELS[i % 3] for i in range(n)]
    batch = [BATCH_LEVELS[(i // 3) % 2] for i in range(n)]
    return {"treatment": treatment, "batch": batch}


def study_matrix(seed):
    rng = _rng(seed, 0)
    n, m = STUDY_SHAPE
    design = study_design(n)
    spacing = m / (STUDY_PEAKS + 1)
    centers = np.array([round(spacing * (p + 1)) for p in range(STUDY_PEAKS)])
    base = rng.uniform(5.0, 10.0, size=STUDY_PEAKS)
    noise_sd = 0.01 * float(base.max())
    amplitudes = base + 5.0 * noise_sd * rng.normal(size=(n, STUDY_PEAKS))
    t_shift = np.array([TREATMENT_SHIFT[TREATMENT_LEVELS.index(v)]
                        for v in design["treatment"]])
    b_shift = np.array([BATCH_SHIFT[BATCH_LEVELS.index(v)] for v in design["batch"]])
    amplitudes[:, 0:3] += t_shift[:, None]
    amplitudes[:, 6:8] += b_shift[:, None]
    jitter = rng.integers(0, 3, size=(n, STUDY_PEAKS))
    t = np.arange(m, dtype=float)
    x = np.zeros((n, m))
    for p in range(STUDY_PEAKS):
        offsets = t[None, :] - (centers[p] + jitter[:, p])[:, None]
        x += amplitudes[:, p, None] * np.exp(-(offsets ** 2) / (2.0 * PEAK_SIGMA ** 2))
    x += noise_sd * rng.normal(size=(n, m))
    return x, design


def peaks_design(n):
    per_cell = n // (len(DIET_LEVELS) * len(TIME_LEVELS))
    diet, time = [], []
    for d in DIET_LEVELS:
        for t in TIME_LEVELS:
            diet += [d] * per_cell
            time += [t] * per_cell
    return {"diet": diet, "time": time}


def peaks_matrix(seed):
    rng = _rng(seed, 1)
    n, m = PEAKS_SHAPE
    design = peaks_design(n)
    log_base = rng.normal(3.0, 0.5, size=m)
    d_idx = np.array([DIET_LEVELS.index(v) for v in design["diet"]])
    t_idx = np.array([TIME_LEVELS.index(v) for v in design["time"]])
    log_x = log_base + 0.15 * rng.normal(size=(n, m))
    log_x[:, 0:40] += 0.7 * d_idx[:, None]
    log_x[:, 40:80] += 0.25 * t_idx[:, None]
    x = np.exp(log_x)
    x[rng.random(size=(n, m)) < MISSING_FRACTION] = 0.0
    return x, design


def make_inputs(workload, seed, out_dir):
    """Write the workload's input files into ``out_dir``; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    if workload == "peaks_pcmr":
        x, design = peaks_matrix(seed)
        prefix = "p"
    else:
        x, design = study_matrix(seed)
        prefix = "t"
    ids = _sample_ids(x.shape[0])
    paths = {"data": os.path.join(out_dir, "data.csv"),
             "metadata": os.path.join(out_dir, "metadata.csv")}
    write_matrix(paths["data"], ids, x, prefix)
    write_metadata(paths["metadata"], ids, design)
    return paths
