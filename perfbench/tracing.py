"""Span tracing of one CLI invocation, and per-layer metrics from the spans.

Run as a script, this is the traced child of a benchmark run::

    python3 perfbench/tracing.py --spans OUT.json --run-id K -- analyze ...

It imports ``fftasca.cli``, replaces each function listed in ``TARGETS``
on every ``fftasca`` module object that holds it with a wrapper that
records a span, then calls ``fftasca.cli.run_pipeline(argv)`` in-process.
A span is ``[name, start, end, parent, run_id, extra]``: ``parent`` is the
index of the enclosing span (-1 for the root) and ``extra`` a count taken
from the call (bytes of a file, rows of a permutation array, ...).  Spans
stay in memory and are written once, when the pipeline ends.

Imported as a module, :func:`layer_metrics` turns the spans of one or more
traced invocations into the per-layer metrics of ``BENCHMARK.json``.
"""

import argparse
import functools
import importlib
import json
import os
import sys
import time
import warnings


def _path_bytes(args, kwargs, out):
    path = args[0] if args else kwargs.get("path")
    return os.path.getsize(path)


def _rows(args, kwargs, out):
    return int(out.shape[0])


def _n_permutations(args, kwargs, out):
    return int(out.n_permutations)


def _length(args, kwargs, out):
    return len(out)


# module -> {public function: probe for the span's ``extra``, or None}
TARGETS = {
    "io": {
        "load_dataset": None,
        "read_design_spec": None,
        "read_chromatograms": _path_bytes,
        "read_metadata": _path_bytes,
        "read_complex_matrix": _path_bytes,
        "write_chromatograms": _path_bytes,
        "write_complex_matrix": _path_bytes,
        "write_real_matrix_csv": _path_bytes,
        "write_anova_csv": _path_bytes,
        "write_jitter_table": _path_bytes,
    },
    "spectral": {
        "transform_rows": None,
        "inverse_rows": None,
        "dft_forward": None,
        "dft_inverse": None,
        "reversed_conjugate": None,
    },
    "design": {
        "encode": None,
        "is_balanced": None,
        "interaction_name": None,
        "permute_rows": _rows,
    },
    "glm": {
        "fit": None,
        "f_ratio": None,
        "permutation_test": _n_permutations,
        "pcmr_permutation_test": _n_permutations,
        "impute_cell_means": None,
        "zeros_to_missing": None,
    },
    "linalg": {
        "svd": None,
        "ssq": None,
        "pinv": None,
        "numerical_rank": None,
        "hermitian": None,
        "mean_center_columns": None,
    },
    "sca": {
        "sca_fit": None,
        "default_components": None,
        "loadings_to_time": None,
        "effect_to_time": None,
        "real_scores": None,
    },
    "synth": {
        "generate": None,
        "jitter_experiment": _length,
        "p_to_z": None,
    },
    "plots": {
        "emit_svg": _length,
    },
}

IO_FILE_OPS = {name for name, probe in TARGETS["io"].items() if probe is _path_bytes}
WARNING_NAMES = ("UnbalancedDesignWarning", "RankWarning", "EmptyCellWarning")


class Tracer:
    """Holds the spans of one process and the stack of open spans."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, probe=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if probe is not None:
                rec[5] = probe(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        """Wrap every target on each ``fftasca`` module that refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fftasca" or n.startswith("fftasca.")]
        for layer, functions in TARGETS.items():
            home = importlib.import_module(f"fftasca.{layer}")
            for fname, probe in functions.items():
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original, probe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def _child(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file the spans go to")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import fftasca.cli

    tracer = Tracer(args.run_id)
    tracer.install()
    root = tracer.wrap("cli.run_pipeline", fftasca.cli.run_pipeline)
    code, caught = None, []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = root(cli_args)
    finally:
        counts = dict.fromkeys(WARNING_NAMES, 0)
        for w in caught:
            counts[w.category.__name__] = counts.get(w.category.__name__, 0) + 1
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"exit_code": code, "spans": tracer.spans, "warnings": counts}, fh)
    return code


def _self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _has_ancestor(spans, i, layer):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0].startswith(layer + "."):
            return True
        parent = spans[parent][3]
    return False


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(traces):
    """Per-layer metrics from a list of child trace records.

    Each record is the JSON a traced child wrote.  Times are self times
    (a span's duration minus its children's), in seconds.  Returns the
    metrics and a detail record: the seconds the root spans cover and the
    self time of each layer.
    """
    spans = []
    for rec in traces:
        offset = len(spans)
        for s in rec["spans"]:
            spans.append([s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1,
                          s[4], s[5]])
    own = _self_times(spans)

    def self_s(*names):
        return sum(own[i] for i, s in enumerate(spans) if s[0] in names)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def extra(*names):
        return sum(s[5] for s in spans if s[0] in names)

    def layer_self(layer, pred=lambda fname: True):
        return sum(own[i] for i, s in enumerate(spans)
                   if s[0].split(".", 1)[0] == layer and pred(s[0].split(".", 1)[1]))

    tests = ("glm.permutation_test", "glm.pcmr_permutation_test")
    permutations = extra(*tests)
    test_wall = sum(s[2] - s[1] for s in spans if s[0] in tests)
    sca_fits = calls("sca.sca_fit")
    large_svds = sum(1 for i, s in enumerate(spans)
                     if s[0] == "linalg.svd" and _has_ancestor(spans, i, "sca"))

    trial_s = []
    for i, s in enumerate(spans):
        if s[0] != "synth.jitter_experiment":
            continue
        starts = [t[1] for t in spans if t[0] == "synth.generate" and t[3] == i]
        bounds = starts + [s[2]]
        trial_s += [b - a for a, b in zip(bounds, bounds[1:])]

    read_files = {"read_chromatograms", "read_metadata", "read_complex_matrix"}
    metrics = {
        "cli.self_s": layer_self("cli"),
        "io.read_s": layer_self("io", lambda f: f.startswith(("read_", "load_"))),
        "io.write_s": layer_self("io", lambda f: f.startswith("write_")),
        "io.bytes_read": extra(*(f"io.{f}" for f in read_files)),
        "io.bytes_written": extra(*(f"io.{f}" for f in IO_FILE_OPS - read_files)),
        "io.calls": sum(calls(f"io.{f}") for f in IO_FILE_OPS),
        "spectral.s": layer_self("spectral"),
        "spectral.calls": sum(1 for s in spans if s[0].startswith("spectral.")),
        "design.encode_s": self_s("design.encode", "design.is_balanced"),
        "design.permute_rows_s": self_s("design.permute_rows"),
        "design.permutations_generated": extra("design.permute_rows"),
        "glm.permutation_test_s": self_s("glm.permutation_test"),
        "glm.pcmr_test_s": self_s("glm.pcmr_permutation_test"),
        "glm.fit_s": self_s("glm.fit"),
        "glm.tests": sum(calls(t) for t in tests),
        "glm.permutations_evaluated": permutations,
        "glm.us_per_permutation": 1e6 * test_wall / permutations if permutations else 0.0,
        "linalg.svd.calls": calls("linalg.svd"),
        "linalg.svd_s": self_s("linalg.svd"),
        "linalg.ssq.calls": calls("linalg.ssq"),
        "linalg.ssq_s": self_s("linalg.ssq"),
        "linalg.pinv.calls": calls("linalg.pinv"),
        "linalg.numerical_rank.calls": calls("linalg.numerical_rank"),
        "sca.fit_s": self_s("sca.sca_fit", "sca.default_components"),
        "sca.back_transform_s": self_s("sca.loadings_to_time", "sca.effect_to_time"),
        "sca.large_svds_per_term": large_svds / sca_fits if sca_fits else 0.0,
        "synth.generate_s": self_s("synth.generate"),
        "synth.trials": extra("synth.jitter_experiment"),
        "synth.trial_s.p50": _percentile(trial_s, 50),
        "synth.trial_s.p90": _percentile(trial_s, 90),
        "plots.emit_svg_s": self_s("plots.emit_svg"),
        "plots.bytes": extra("plots.emit_svg"),
    }
    for name in WARNING_NAMES:
        metrics[f"warnings.{name}"] = sum(rec["warnings"].get(name, 0) for rec in traces)
    detail = {"root_s": sum(s[2] - s[1] for s in spans if s[3] < 0),
              "self_s_by_layer": {layer: layer_self(layer) for layer in ["cli", *TARGETS]}}
    return metrics, detail


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
