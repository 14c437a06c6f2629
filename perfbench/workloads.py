"""The four benchmark workloads: CLI argv, reference values and output checks.

Each workload is a closed loop with one client: one unit is one or two CLI
invocations run one after the other.  ``prepare`` runs once per benchmark
run, outside the timed region, and computes what the checks compare with;
``check`` returns the names of the failed checks for one unit's outputs,
keyed by the index of the invocation they charge.
"""

import json
import math
import os

import numpy as np

import checks
import gen

ALPHA = 0.05
STUDY_PERMUTATIONS = 1000
DRIFT_PERMUTATIONS = 200
DRIFT_GRID = "0:10:50"
# one trial per jitter level: six trials, about 3 s per invocation on a
# 2-core Xeon, so a run holds several invocations to take a median over
DRIFT_TRIALS = 1
PEAKS_PERMUTATIONS = 1000

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load_pins():
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _stem(term):
    return term.replace(":", "_x_")


def _pvalues(table):
    return {t: r["Pvalue"] for t, r in table.items() if r["Pvalue"] is not None}


def _significant(out_dir):
    table = checks.read_anova(os.path.join(out_dir, "anova.csv"))
    return [t for t, p in _pvalues(table).items() if p <= ALPHA]


class _Analyze:
    """Shared checks of the two ``analyze`` workloads."""

    planted = ()
    base_artifacts = ("anova.csv", "anova.txt", "summary.txt")

    def term_artifacts(self, term):
        raise NotImplementedError

    def oracles(self, significant):
        """label -> (csv name, oracle table) for the tables this unit writes."""
        raise NotImplementedError

    def check(self, out_dir, pinned):
        failures = checks.check_artifacts(out_dir, self.base_artifacts)
        if failures:
            return {0: failures}
        summary = checks.read_summary(os.path.join(out_dir, "summary.txt"))
        if not summary.get("permutations", "").isdigit():
            return {0: ["summary.permutations"]}
        significant = _significant(out_dir)
        failures += [f"not_significant.{t}" for t in self.planted if t not in significant]
        expected = [a for t in significant for a in self.term_artifacts(t)]
        failures += checks.check_artifacts(out_dir, expected)
        for label, (name, oracle) in self.oracles(significant).items():
            got = checks.read_anova(os.path.join(out_dir, name))
            failures += checks.check_anova(got, oracle, label)
            failures += checks.check_lattice(_pvalues(got), int(summary["permutations"]), label)
            failures += checks.check_pins(_pvalues(got), (pinned or {}).get(label), label)
        failures += checks.check_finite(out_dir)
        return {0: failures}

    def pin_values(self, out_dir):
        return {label: _pvalues(checks.read_anova(os.path.join(out_dir, name)))
                for label, (name, _) in self.oracles(_significant(out_dir)).items()}


class StudyFreq(_Analyze):
    name = "study_freq"
    planted = ("treatment", "batch")

    def prepare(self, in_dir, seed):
        self.inputs = gen.make_inputs(self.name, seed, in_dir)
        _, x = checks.read_matrix(self.inputs["data"])
        meta = checks.read_columns(self.inputs["metadata"])
        blocks = checks.design_blocks(meta, ["treatment", "batch"], [])
        self.oracle = checks.anova_oracle(np.fft.fft(x, axis=1), blocks)
        return self.inputs

    def invocations(self, out_dir, seed):
        return [["analyze", self.inputs["data"], self.inputs["metadata"],
                 "--domain", "freq", "--permutations", str(STUDY_PERMUTATIONS),
                 "--seed", str(seed), "--out-dir", out_dir, "--no-timestamp"]]

    def term_artifacts(self, term):
        s = _stem(term)
        return [f"{kind}_{s}.{ext}" for kind in ("scores", "loadings_time", "effect_time")
                for ext in ("csv", "svg")]

    def oracles(self, significant):
        return {"anova": ("anova.csv", self.oracle)}


class PeaksPcmr(_Analyze):
    name = "peaks_pcmr"
    planted = ("diet", "time")
    base_artifacts = _Analyze.base_artifacts + ("anova_trimmed.csv", "anova_trimmed.txt")

    def prepare(self, in_dir, seed):
        self.inputs = gen.make_inputs(self.name, seed, in_dir)
        _, self.x = checks.read_matrix(self.inputs["data"])
        self.meta = checks.read_columns(self.inputs["metadata"])
        self.full = self._oracle(["diet", "time"], [("diet", "time")])
        self._trimmed = {}
        return self.inputs

    def _oracle(self, factors, interactions):
        y = checks.impute_cells(self.x, self.meta, factors)
        return checks.anova_oracle(y, checks.design_blocks(self.meta, factors, interactions))

    def invocations(self, out_dir, seed):
        return [["analyze", self.inputs["data"], self.inputs["metadata"],
                 "--domain", "time", "--pcmr", "--interactions", "diet:time", "--trim",
                 "--permutations", str(PEAKS_PERMUTATIONS),
                 "--seed", str(seed), "--out-dir", out_dir, "--no-timestamp"]]

    def term_artifacts(self, term):
        s = _stem(term)
        return [f"{kind}_{s}.{ext}" for kind in ("scores", "loadings") for ext in ("csv", "svg")]

    def oracles(self, significant):
        factors = [f for f in ("diet", "time") if f in significant]
        inter = [("diet", "time")] if "diet:time" in significant and len(factors) == 2 else []
        key = (tuple(factors), tuple(inter))
        if key not in self._trimmed:
            self._trimmed[key] = self._oracle(factors, inter)
        return {"anova": ("anova.csv", self.full),
                "anova_trimmed": ("anova_trimmed.csv", self._trimmed[key])}


class DriftSimulate:
    name = "drift_simulate"
    artifacts = ("jitter_z.csv", "jitter_z.svg", "summary.txt")

    def prepare(self, in_dir, seed):
        """The program makes its own data; the flags are the input."""
        os.makedirs(in_dir, exist_ok=True)
        path = os.path.join(in_dir, "argv.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.invocations("<out>", seed), fh)
        return {"argv": path}

    def invocations(self, out_dir, seed):
        return [["simulate", "--jitter-grid", DRIFT_GRID, "--trials", str(DRIFT_TRIALS),
                 "--permutations", str(DRIFT_PERMUTATIONS), "--seed", str(seed),
                 "--out-dir", out_dir, "--no-timestamp"]]

    def pin_values(self, out_dir):
        cols = checks.read_columns(os.path.join(out_dir, "jitter_z.csv"))
        z = {}
        for j, t, zt, zf in zip(cols["jitter"], cols["trial"], cols["z_time"], cols["z_freq"]):
            z[f"j{j}.t{t}.time"] = float(zt)
            z[f"j{j}.t{t}.freq"] = float(zf)
        return {"z": z}

    def check(self, out_dir, pinned):
        failures = checks.check_artifacts(out_dir, self.artifacts)
        if failures:
            return {0: failures}
        z = self.pin_values(out_dir)["z"]
        start, step, stop = (int(v) for v in DRIFT_GRID.split(":"))
        expected = {f"j{j}.t{t}.{d}" for j in range(start, stop + 1, step)
                    for t in range(DRIFT_TRIALS) for d in ("time", "freq")}
        failures += [f"missing_row.{k}" for k in sorted(expected - set(z))]
        failures += [f"z_off_lattice.{k}" for k, v in sorted(z.items())
                     if not math.isnan(v) and not checks.z_on_lattice(v, DRIFT_PERMUTATIONS)]
        failures += checks.check_pins(z, (pinned or {}).get("z"), "z")
        failures += checks.check_finite(out_dir)
        return {0: failures}


class TransformRoundtrip:
    name = "transform_roundtrip"

    def prepare(self, in_dir, seed):
        self.inputs = gen.make_inputs(self.name, seed, in_dir)
        self.ids, self.x = checks.read_matrix(self.inputs["data"])
        self.spectrum = np.fft.fft(self.x, axis=1)
        return {"data": self.inputs["data"]}

    def invocations(self, out_dir, seed):
        spectrum = os.path.join(out_dir, "spectrum.csv")
        back = os.path.join(out_dir, "back.csv")
        return [["transform", self.inputs["data"], "--out", spectrum],
                ["transform", spectrum, "--out", back, "--inverse"]]

    def check(self, out_dir, pinned):
        failures = {0: [], 1: []}
        spectrum = os.path.join(out_dir, "spectrum.csv")
        back = os.path.join(out_dir, "back.csv")
        failures[0] += checks.check_artifacts(out_dir, ["spectrum.csv"])
        failures[1] += checks.check_artifacts(out_dir, ["back.csv"])
        if not failures[0]:
            failures[0] += checks.check_finite_file(spectrum)
            ids, values = checks.read_matrix(spectrum)
            got = values[:, 0::2] + 1j * values[:, 1::2]
            if ids != self.ids:
                failures[0].append("spectrum.ids")
            if got.shape != self.spectrum.shape or (
                    np.max(np.abs(got - self.spectrum))
                    > checks.fft_tolerance(self.spectrum, 1)):
                failures[0].append("spectrum.values")
        if not failures[1]:
            failures[1] += checks.check_finite_file(back)
            ids, values = checks.read_matrix(back)
            if ids != self.ids:
                failures[1].append("roundtrip.ids")
            if values.shape != self.x.shape or (
                    np.max(np.abs(values - self.x)) > checks.fft_tolerance(self.x, 2)):
                failures[1].append("roundtrip.values")
        return failures


WORKLOADS = {w.name: w for w in (StudyFreq, DriftSimulate, PeaksPcmr, TransformRoundtrip)}
