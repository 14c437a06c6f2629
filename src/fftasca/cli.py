"""Command-line front end.

Subcommands:

* ``analyze``    ingest data + metadata, run the permutation GLM in the
                 chosen domain, emit the ANOVA table and per-significant-term
                 component artifacts (CSV + SVG).
* ``simulate``   run the drift-sensitivity experiment on synthetic data.
* ``transform``  forward/inverse transform of a matrix file.
* ``impute``     preview of cell-mean replacement on a peak table.

Exit codes: 0 success, 2 configuration errors, 3 data/parse errors and
files that cannot be read or written, 4 numeric failures and exhausted
memory.
"""

import argparse
import datetime
import os
import sys
import warnings

import numpy as np

from . import io as dataio
from . import plots
from .design import MAX_PERMUTATIONS, encode
from .errors import ConfigInvalid, DataError, FftascaError, NumericError
from .glm import (
    _grand_means,
    fit,
    impute_cell_means,
    pcmr_permutation_test,
    permutation_test,
    zeros_to_missing,
)
from .linalg import mean_center_columns
from .sca import _real_part, effect_to_time, loadings_to_time, real_scores, sca_fit
from .spectral import inverse_rows, transform_rows
from .synth import SynthConfig, generate, jitter_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fftasca",
        description="Frequency-domain ANOVA-simultaneous component analysis "
                    "of multi-sample separations data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="permutation GLM + component analysis")
    pa.add_argument("chromatograms", help="intensity CSV, one sample per row")
    pa.add_argument("metadata", help="factor CSV sharing the sample ids")
    pa.add_argument("--domain", choices=("time", "freq", "mag"), default="freq",
                    help="analyze raw rows, complex spectra, or bin magnitudes")
    pa.add_argument("--center", action="store_true",
                    help="subtract column means before the analysis")
    pa.add_argument("--permutations", type=int, default=1000)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--pcmr", action="store_true",
                    help="treat zeros as missing and re-impute cell means "
                         "inside every permutation (time domain only)")
    pa.add_argument("--trim", action="store_true",
                    help="refit keeping only terms significant in the first pass")
    pa.add_argument("--components", type=int, default=None,
                    help="component count per effect (default: 95%% of effect ssq)")
    pa.add_argument("--interactions", action="append", default=[],
                    metavar="A:B", help="interaction of two factor names; repeatable")
    pa.add_argument("--alpha", type=float, default=0.05)
    pa.add_argument("--out-dir", default=None,
                    help="directory for CSV/SVG artifacts (default: table to stdout only)")
    pa.add_argument("--no-timestamp", action="store_true")

    ps = sub.add_parser("simulate", help="time vs frequency drift-sensitivity experiment")
    ps.add_argument("--jitter-grid", default="0:10:50", metavar="START:STEP:STOP")
    ps.add_argument("--trials", type=int, default=20)
    ps.add_argument("--permutations", type=int, default=200)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--effect-size", type=float, default=3.0)
    ps.add_argument("--acquisitions", type=int, default=5000)
    ps.add_argument("--peaks", type=int, default=10)
    ps.add_argument("--significant", type=int, default=5)
    ps.add_argument("--replicates", type=int, default=5,
                    help="samples per level of the two-level factor")
    ps.add_argument("--noise-sd", type=float, default=None)
    ps.add_argument("--dataset-out", default=None, metavar="PREFIX",
                    help="also write one generated dataset as PREFIX_chromatograms.csv "
                         "and PREFIX_metadata.csv")
    ps.add_argument("--out-dir", default=".")
    ps.add_argument("--no-timestamp", action="store_true")

    pt = sub.add_parser("transform", help="row-wise forward/inverse transform of a CSV")
    pt.add_argument("input")
    pt.add_argument("--out", required=True)
    pt.add_argument("--inverse", action="store_true")

    pi = sub.add_parser("impute", help="cell-mean replacement preview for a peak table")
    pi.add_argument("peaks")
    pi.add_argument("metadata")
    pi.add_argument("--out", required=True)
    return parser


def _parse_interactions(tokens, spec):
    pairs = []
    for tok in tokens:
        a, sep, b = tok.partition(":")
        if not sep:
            raise ConfigInvalid(f"--interactions expects A:B, got '{tok}'")
        try:
            pair = (spec.factor_index(a), spec.factor_index(b))
        except KeyError as exc:
            raise ConfigInvalid(f"unknown factor '{exc.args[0]}' in --interactions") from None
        if pair[0] == pair[1]:
            raise ConfigInvalid(f"--interactions '{tok}' pairs a factor with itself")
        if pair in pairs or pair[::-1] in pairs:
            raise ConfigInvalid(f"--interactions '{tok}' repeats a pair")
        pairs.append(pair)
    return tuple(pairs)


def _parse_grid(token):
    parts = token.split(":")
    if len(parts) != 3:
        raise ConfigInvalid(f"--jitter-grid expects START:STEP:STOP, got '{token}'")
    try:
        start, step, stop = (int(p) for p in parts)
    except ValueError:
        raise ConfigInvalid(f"--jitter-grid must be integers, got '{token}'") from None
    if step <= 0 or stop < start:
        raise ConfigInvalid("--jitter-grid needs a positive step and stop >= start")
    return list(range(start, stop + 1, step))


def _check_count(flag, n, least=1, most=None):
    if n < least:
        raise ConfigInvalid(f"{flag} must be at least {least}, got {n}")
    if most is not None and n > most:
        raise ConfigInvalid(f"{flag} must be at most {most}, got {n}")


def _term_filename(term):
    return term.replace(":", "_x_")


def _group_labels(spec, term):
    """Display label per sample for a factor or interaction term."""
    columns = []
    for k in spec.term_factors[term]:
        names = spec.factors[k].level_names or {}
        columns.append([str(names.get(lab, lab)) for lab in spec.factors[k].labels])
    return ["/".join(labs) for labs in zip(*columns)]


def _scatter_series(scores, labels):
    series = {}
    for lab in sorted(set(labels)):
        idx = [i for i, v in enumerate(labels) if v == lab]
        if scores.shape[1] >= 2:
            series[lab] = (scores[idx, 0], scores[idx, 1])
        else:
            series[lab] = (np.asarray(idx, dtype=float), scores[idx, 0])
    return series


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_pair(out_dir, name, columns, values, series, row_ids=None, rows=None, **svg):
    """Write ``values`` to ``name.csv``, then ``series`` plotted to ``name.svg``."""
    path = os.path.join(out_dir, name)
    dataio.write_real_matrix_csv(f"{path}.csv", columns, values, row_ids=row_ids, rows=rows)
    _write_text(f"{path}.svg", plots.emit_svg(series, **svg))


def _write_anova(out_dir, name, table):
    dataio.write_anova_csv(os.path.join(out_dir, f"{name}.csv"), table)
    _write_text(os.path.join(out_dir, f"{name}.txt"), table.to_text())


def _emit_term_artifacts(args, out_dir, model, decomp, spec, ids):
    term = model.term
    n_comp = model.n_components
    stem = _term_filename(term)
    pcs = [f"pc{r + 1}" for r in range(n_comp)]

    scores = real_scores(model)
    labels = _group_labels(spec, term)
    _write_pair(out_dir, f"scores_{stem}", pcs, scores, _scatter_series(scores, labels),
                row_ids=ids, kind="scatter", title=f"scores: {term}",
                x_label="component 1" if n_comp >= 2 else "sample index",
                y_label="component 2" if n_comp >= 2 else "component 1")

    if args.domain == "freq":
        loadings = loadings_to_time(model).values
        name, title, x_label = "loadings_time", "time-domain loadings", "acquisition"
    else:
        loadings = model.loadings.real
        name, title, x_label = "loadings", "loadings", "variable"
    _write_pair(out_dir, f"{name}_{stem}", pcs, loadings,
                {pc: loadings[:, r] for r, pc in enumerate(pcs)}, kind="line",
                title=f"{title}: {term}", x_label=x_label, y_label="loading")

    if args.domain == "freq":
        # every sample of a level has its level's row: write and plot the distinct rows
        rows = decomp.distinct_rows(term)
        levels = effect_to_time(decomp, term).values[rows.first]
        level_traces = {lab: levels[rows.inverse[labels.index(lab)]]
                        for lab in sorted(set(labels))}
        _write_pair(out_dir, f"effect_time_{stem}", [f"t{j}" for j in range(levels.shape[1])],
                    levels, level_traces, row_ids=ids, rows=rows.inverse, kind="line",
                    title=f"time-domain effect: {term}", x_label="acquisition",
                    y_label="intensity")


def _cmd_analyze(args):
    _check_count("--permutations", args.permutations, most=MAX_PERMUTATIONS)
    _check_count("--seed", args.seed, least=0)
    if not 0 < args.alpha < 1:
        raise ConfigInvalid(f"--alpha must lie in (0, 1), got {args.alpha}")
    if args.components is not None:
        _check_count("--components", args.components)
    x, spec, ids = dataio.load_dataset(args.chromatograms, args.metadata)
    interactions = _parse_interactions(args.interactions, spec)
    if interactions:
        spec = type(spec)(factors=spec.factors, interactions=interactions)
    dmatrix = encode(spec)

    mask = None
    if args.pcmr:
        if args.domain != "time":
            raise ConfigInvalid("--pcmr applies to peak tables and requires --domain time")
        values, mask = zeros_to_missing(x.real)
        x = values.astype(np.complex128)

    if args.center:
        # with a mask, centre by observed-entry means and leave masked cells as they are
        x = (mean_center_columns(x) if mask is None
             else np.where(mask, x, x - _grand_means(x, mask)))

    if args.domain == "time":
        data = x
    else:
        spectra = transform_rows(x)
        data = spectra if args.domain == "freq" else np.abs(spectra)

    def run_test(dm):
        if mask is None:
            return permutation_test(data, dm, n_permutations=args.permutations, seed=args.seed)
        return pcmr_permutation_test(data, mask, dm, n_permutations=args.permutations,
                                     seed=args.seed)

    table = run_test(dmatrix)
    sys.stdout.write(table.to_text())
    floor = 1 / (table.n_permutations + 1)
    if floor > args.alpha:
        sys.stderr.write(
            f"warning: the smallest p {table.n_permutations} permutations can give is "
            f"{floor:.4g} > --alpha {args.alpha:g}; no term can be significant\n")

    if args.out_dir is None:
        return EXIT_OK
    significant = [t for t in dmatrix.terms if table.row(t).p_value <= args.alpha]
    # every component model is fitted before the first artifact is written,
    # so a component count above an effect's rank leaves no partial --out-dir
    models = []
    if significant:
        fitted = data if mask is None else impute_cell_means(data, mask, dmatrix, warn_empty=False)
        decomp = fit(fitted, dmatrix)
        models = [sca_fit(decomp.effect(t), decomp.residuals, args.components, term=t,
                          cap=max(decomp.dof[t], 1), rows=decomp.distinct_rows(t))
                  for t in significant]

    os.makedirs(args.out_dir, exist_ok=True)
    _write_anova(args.out_dir, "anova", table)
    for model in models:
        _emit_term_artifacts(args, args.out_dir, model, decomp, spec, ids)

    if args.trim:
        # keep the significant factors, and the significant interactions of two of them
        kept = [spec.term_factors[t] for t in significant]
        factors = [ks[0] for ks in kept if len(ks) == 1]
        if factors:
            remap = {k: i for i, k in enumerate(factors)}
            trimmed_spec = type(spec)(
                factors=tuple(spec.factors[k] for k in factors),
                interactions=tuple(tuple(remap[k] for k in ks) for ks in kept
                                   if len(ks) == 2 and set(ks) <= remap.keys()))
            _write_anova(args.out_dir, "anova_trimmed", run_test(encode(trimmed_spec)))
        else:
            sys.stderr.write("trim requested but no term passed the threshold\n")

    _write_summary(args, args.out_dir, extra={
        "domain": args.domain,
        "permutations": str(table.n_permutations),
        "significant": ",".join(significant) or "(none)",
    })
    return EXIT_OK


def _write_summary(args, out_dir, extra):
    lines = []
    if not args.no_timestamp:
        lines.append(f"# generated: {datetime.datetime.now().isoformat()}")
    lines.append(f"command: {args.command}")
    for k, v in extra.items():
        lines.append(f"{k}: {v}")
    _write_text(os.path.join(out_dir, "summary.txt"), "\n".join(lines) + "\n")


def _cmd_simulate(args):
    _check_count("--permutations", args.permutations, most=MAX_PERMUTATIONS)
    _check_count("--trials", args.trials)
    _check_count("--seed", args.seed, least=0)
    levels = _parse_grid(args.jitter_grid)
    config = SynthConfig(
        n_acquisitions=args.acquisitions,
        n_peaks=args.peaks,
        n_significant=args.significant,
        replicates_per_level=args.replicates,
        effect_size=args.effect_size,
        noise_sd=args.noise_sd,
        seed=args.seed,
    )
    config.validate()
    trials = jitter_experiment(config, levels, args.trials,
                               n_permutations=args.permutations, seed=args.seed)
    if args.dataset_out:
        data = generate(config)
        dataio.write_chromatograms(f"{args.dataset_out}_chromatograms.csv",
                                   data.sample_ids, data.x_time)
        factor = data.design.factors[0]
        with open(f"{args.dataset_out}_metadata.csv", "w", encoding="utf-8") as fh:
            fh.write("sample,group\n")
            for sid, lab in zip(data.sample_ids, factor.labels):
                fh.write(f"{sid},{factor.level_names[lab]}\n")
    os.makedirs(args.out_dir, exist_ok=True)
    dataio.write_jitter_table(os.path.join(args.out_dir, "jitter_z.csv"), trials)

    mean_time, mean_freq = [], []
    for j in levels:
        zt = [t.z_time for t in trials if t.jitter == j]
        zf = [t.z_freq for t in trials if t.jitter == j]
        mean_time.append(float(np.mean(zt)))
        mean_freq.append(float(np.mean(zf)))
    grid = np.asarray(levels, dtype=float)
    svg = plots.emit_svg(
        {"time domain": (grid, np.asarray(mean_time)),
         "frequency magnitudes": (grid, np.asarray(mean_freq))},
        kind="line", title="drift sensitivity",
        x_label="max jitter (acquisitions)", y_label="mean z",
    )
    _write_text(os.path.join(args.out_dir, "jitter_z.svg"), svg)
    _write_summary(args, args.out_dir, extra={
        "jitter_levels": ",".join(str(j) for j in levels),
        "trials": str(args.trials),
    })
    return EXIT_OK


def _cmd_transform(args):
    if args.inverse:
        ids, values = dataio.read_complex_matrix(args.input)
        back, residue = _real_part(inverse_rows(values))
        scale = float(np.max(np.abs(back))) if back.size else 1.0
        if residue > 1e-6 * max(scale, 1.0):
            sys.stderr.write(
                f"warning: discarding imaginary parts up to {residue:.3g}\n")
        dataio.write_chromatograms(args.out, ids, back)
    else:
        ids, _, values = dataio.read_chromatograms(args.input)
        dataio.write_complex_matrix(args.out, ids, transform_rows(values))
    return EXIT_OK


def _cmd_impute(args):
    x, spec, ids = dataio.load_dataset(args.peaks, args.metadata)
    values, mask = zeros_to_missing(x.real)
    dmatrix = encode(spec)
    imputed = impute_cell_means(values.astype(np.complex128), mask, dmatrix)
    dataio.write_chromatograms(args.out, ids, imputed.real)
    sys.stdout.write(f"imputed {int(mask.sum())} of {mask.size} entries\n")
    return EXIT_OK


def _warning_line(message, category, filename, lineno, line=None):
    """A warning as one ``warning: ...`` line, like the CLI's other messages."""
    return f"warning: {message}\n"


def run_pipeline(argv=None):
    """Parse arguments and run one subcommand; returns the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "transform": _cmd_transform,
        "impute": _cmd_impute,
    }
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return handlers[args.command](args)
    except ConfigInvalid as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return EXIT_DATA
    except NumericError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC
    except MemoryError as exc:
        sys.stderr.write(f"numeric error: out of memory{f': {exc}' if str(exc) else ''}\n")
        return EXIT_NUMERIC
    except FftascaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    finally:
        warnings.formatwarning = formatwarning


def main():
    sys.exit(run_pipeline())


if __name__ == "__main__":
    main()
