import csv
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fftasca
from fftasca import errors, glm
from fftasca import io as dataio
from fftasca.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, run_pipeline
from fftasca.design import MAX_PERMUTATIONS, DesignSpec, encode
from fftasca.glm import pcmr_permutation_test, permutation_test, zeros_to_missing
from fftasca.synth import SynthConfig, generate


@pytest.fixture()
def fixture_files(tmp_path):
    """Strong-effect zero-jitter dataset, 20 samples, written to disk."""
    data = generate(SynthConfig(n_acquisitions=400, n_peaks=3, n_significant=2,
                                replicates_per_level=10, effect_size=10.0,
                                jitter_max=0, seed=8))
    chrom = tmp_path / "chroms.csv"
    meta = tmp_path / "meta.csv"
    dataio.write_chromatograms(chrom, data.sample_ids, data.x_time)
    factor = data.design.factors[0]
    lines = ["sample,group"]
    for sid, lab in zip(data.sample_ids, factor.labels):
        lines.append(f"{sid},{factor.level_names[lab]}")
    meta.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return chrom, meta


@pytest.fixture()
def peak_table(tmp_path):
    """24-sample peak table with zeros: strong ``diet`` effect, null ``time``."""
    rng = np.random.default_rng(3)
    diet = np.repeat([0, 1], 12)
    time = np.tile([0, 1, 2], 8)
    peaks = rng.uniform(3.0, 9.0, size=(24, 6))
    peaks[diet == 1, :3] += 5.0
    peaks[rng.random(peaks.shape) < 0.15] = 0.0
    ids = [f"s{i}" for i in range(24)]
    chrom = tmp_path / "peaks.csv"
    meta = tmp_path / "meta.csv"
    dataio.write_chromatograms(chrom, ids, peaks,
                               axis_labels=[f"peak{j}" for j in range(6)])
    meta.write_text("sample,diet,time\n" + "".join(
        f"{sid},d{d},t{t}\n" for sid, d, t in zip(ids, diet, time)), encoding="utf-8")
    return chrom, meta


def pcmr_inputs(chrom, meta):
    """(data, mask, spec) as ``analyze --pcmr`` builds them."""
    x, spec, _ = dataio.load_dataset(chrom, meta)
    values, mask = zeros_to_missing(x.real)
    return values.astype(np.complex128), mask, spec


def run(*argv):
    return run_pipeline([str(a) for a in argv])


class TestAnalyze:
    def test_freq_mode_finds_the_planted_factor_at_the_floor(
            self, fixture_files, tmp_path, capsys):
        chrom, meta = fixture_files
        out = tmp_path / "out"
        code = run("analyze", chrom, meta, "--domain", "freq", "--center",
                   "--permutations", "1000", "--seed", "42",
                   "--out-dir", out, "--no-timestamp")
        assert code == EXIT_OK
        assert "Pvalue" in capsys.readouterr().out
        table = dataio.read_anova_csv(out / "anova.csv")
        assert table.row("group").p_value == pytest.approx(1 / 1001, abs=1e-12)

    def test_time_mode_matches_freq_mode_p(self, fixture_files, tmp_path):
        chrom, meta = fixture_files
        out_f = tmp_path / "f"
        out_t = tmp_path / "t"
        assert run("analyze", chrom, meta, "--domain", "freq",
                   "--permutations", "500", "--seed", "7",
                   "--out-dir", out_f, "--no-timestamp") == EXIT_OK
        assert run("analyze", chrom, meta, "--domain", "time",
                   "--permutations", "500", "--seed", "7",
                   "--out-dir", out_t, "--no-timestamp") == EXIT_OK
        p_f = dataio.read_anova_csv(out_f / "anova.csv").row("group").p_value
        p_t = dataio.read_anova_csv(out_t / "anova.csv").row("group").p_value
        assert abs(p_f - p_t) <= 1 / 501 + 1e-12

    def test_artifacts_for_significant_terms(self, fixture_files, tmp_path):
        chrom, meta = fixture_files
        out = tmp_path / "out"
        assert run("analyze", chrom, meta, "--domain", "freq",
                   "--permutations", "200", "--seed", "1",
                   "--out-dir", out, "--no-timestamp") == EXIT_OK
        for name in ("anova.csv", "anova.txt", "summary.txt",
                     "scores_group.csv", "scores_group.svg",
                     "loadings_time_group.csv", "loadings_time_group.svg",
                     "effect_time_group.csv", "effect_time_group.svg"):
            assert (out / name).exists(), name

    def test_outputs_deterministic_without_timestamp(self, fixture_files, tmp_path):
        chrom, meta = fixture_files
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run("analyze", chrom, meta, "--domain", "freq",
                       "--permutations", "100", "--seed", "3",
                       "--out-dir", out, "--no-timestamp") == EXIT_OK
            outs.append(out)
        for name in ("anova.csv", "summary.txt", "scores_group.svg",
                     "loadings_time_group.svg"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_mag_domain_runs(self, fixture_files, tmp_path):
        chrom, meta = fixture_files
        out = tmp_path / "out"
        assert run("analyze", chrom, meta, "--domain", "mag",
                   "--permutations", "100", "--seed", "3",
                   "--out-dir", out, "--no-timestamp") == EXIT_OK
        assert (out / "loadings_group.csv").exists()

    def test_pcmr_requires_time_domain(self, fixture_files):
        chrom, meta = fixture_files
        assert run("analyze", chrom, meta, "--pcmr", "--domain", "freq",
                   "--permutations", "20") == EXIT_CONFIG

    def test_pcmr_peak_table_path(self, tmp_path):
        rng = np.random.default_rng(0)
        peaks = rng.uniform(3.0, 9.0, size=(12, 4))
        peaks[2, 1] = 0.0
        peaks[7, 3] = 0.0
        peaks[:6, 0] += 6.0
        ids = [f"s{i}" for i in range(12)]
        chrom = tmp_path / "peaks.csv"
        meta = tmp_path / "meta.csv"
        dataio.write_chromatograms(chrom, ids, peaks,
                                   axis_labels=[f"peak{j}" for j in range(4)])
        meta.write_text(
            "sample,group\n" + "\n".join(
                f"{sid},{'x' if i < 6 else 'y'}" for i, sid in enumerate(ids)
            ) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("analyze", chrom, meta, "--pcmr", "--domain", "time",
                   "--permutations", "200", "--seed", "5",
                   "--out-dir", out, "--no-timestamp") == EXIT_OK
        table = dataio.read_anova_csv(out / "anova.csv")
        assert table.row("group").p_value <= 0.05

    def test_pcmr_trim_refits_the_kept_terms(self, peak_table, tmp_path):
        out = tmp_path / "out"
        assert run("analyze", *peak_table, "--domain", "time", "--pcmr", "--trim",
                   "--permutations", "99", "--seed", "3",
                   "--out-dir", out, "--no-timestamp") == EXIT_OK
        table = dataio.read_anova_csv(out / "anova.csv")
        assert table.row("diet").p_value <= 0.05 < table.row("time").p_value
        data, mask, spec = pcmr_inputs(*peak_table)
        kept = encode(DesignSpec(factors=(spec.factors[spec.factor_index("diet")],)))
        expected = pcmr_permutation_test(data, mask, kept, n_permutations=99, seed=3)
        assert (out / "anova_trimmed.csv").read_text(encoding="utf-8") == expected.to_csv()
        assert (out / "anova_trimmed.txt").read_text(encoding="utf-8") == expected.to_text()

    @pytest.mark.parametrize("extra", [(), ("--pcmr",)])
    def test_trim_refit_reuses_the_first_stream(self, peak_table, tmp_path, stream_draws,
                                                extra):
        out = tmp_path / "out"
        assert run("analyze", *peak_table, "--domain", "time", *extra, "--trim",
                   "--permutations", "99", "--seed", "3",
                   "--out-dir", out, "--no-timestamp") == EXIT_OK
        assert (out / "anova_trimmed.csv").exists()
        assert stream_draws == [(24, 99, 3)] * 2

    def test_trim_drops_an_interaction_without_both_parents(self, tmp_path):
        # a and a:b planted, b null: the refit keeps a alone
        a, b = np.repeat([0, 1], 10), np.tile(np.repeat([0, 1], 5), 2)
        x = (np.random.default_rng(5).normal(size=(20, 8))
             + 8.0 * (a + np.where(a == b, 1.0, -1.0))[:, None])
        ids = [f"s{i}" for i in range(20)]
        chrom, meta, out = tmp_path / "c.csv", tmp_path / "m.csv", tmp_path / "out"
        dataio.write_chromatograms(chrom, ids, x)
        meta.write_text("sample,a,b\n" + "".join(
            f"{s},a{u},b{v}\n" for s, u, v in zip(ids, a, b)), encoding="utf-8")
        assert run("analyze", chrom, meta, "--domain", "time", "--interactions", "a:b",
                   "--trim", "--permutations", "99", "--seed", "2",
                   "--out-dir", out, "--no-timestamp") == EXIT_OK
        table = dataio.read_anova_csv(out / "anova.csv")
        assert max(table.row("a").p_value, table.row("a:b").p_value) <= 0.05
        assert table.row("b").p_value > 0.05
        data, spec, _ = dataio.load_dataset(chrom, meta)
        expected = permutation_test(data, encode(DesignSpec(factors=spec.factors[:1])),
                                    n_permutations=99, seed=2)
        assert (out / "anova_trimmed.csv").read_text(encoding="utf-8") == expected.to_csv()
        # the interaction's samples are labelled by their pair of levels
        legend = (out / "scores_a_x_b.svg").read_text(encoding="utf-8")
        assert all(f">a{u}/b{v}</text>" in legend for u in (0, 1) for v in (0, 1))

    def test_rank_error_leaves_no_partial_out_dir(self, fixture_files, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("analyze", *fixture_files, "--domain", "time", "--permutations", "99",
                   "--components", "3", "--out-dir", out) == EXIT_NUMERIC
        assert "3 components requested but the effect has rank 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("permutations, alpha, warned", [
        (10, 0.05, True), (19, 0.05, False), (999, 0.001, False), (998, 0.001, True)])
    def test_warns_when_alpha_is_below_the_p_floor(self, fixture_files, tmp_path, capsys,
                                                   permutations, alpha, warned):
        out = tmp_path / "out"
        assert run("analyze", *fixture_files, "--domain", "time",
                   "--permutations", permutations, "--alpha", alpha,
                   "--out-dir", out, "--no-timestamp") == EXIT_OK
        err = capsys.readouterr().err
        assert (f"smallest p {permutations} permutations can give" in err) == warned
        assert ("no term can be significant" in err) == warned
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        assert ("significant: (none)" in summary) == warned

    def test_trim_with_nothing_significant_says_so(self, peak_table, tmp_path, capsys):
        out = tmp_path / "out"
        # 20 permutations cannot reach a p below 1/21 > alpha
        assert run("analyze", *peak_table, "--domain", "time", "--pcmr", "--trim",
                   "--permutations", "20", "--alpha", "0.01",
                   "--out-dir", out, "--no-timestamp") == EXIT_OK
        assert "no term passed the threshold" in capsys.readouterr().err
        assert not (out / "anova_trimmed.csv").exists()

    def test_pcmr_center_uses_observed_column_means(self, peak_table, tmp_path):
        out = tmp_path / "out"
        assert run("analyze", *peak_table, "--domain", "time", "--pcmr", "--center",
                   "--permutations", "99", "--seed", "4",
                   "--out-dir", out, "--no-timestamp") == EXIT_OK
        data, mask, spec = pcmr_inputs(*peak_table)
        observed = np.where(mask, 0.0, data)
        means = observed.sum(axis=0) / (~mask).sum(axis=0)
        centred = np.where(mask, data, data - means)
        expected = pcmr_permutation_test(centred, mask, encode(spec),
                                         n_permutations=99, seed=4)
        assert (out / "anova.csv").read_text(encoding="utf-8") == expected.to_csv()

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("analyze", tmp_path / "nope.csv", tmp_path / "meta.csv") \
            == EXIT_DATA

    def test_single_level_factor_is_data_error(self, fixture_files, tmp_path):
        chrom, _ = fixture_files
        meta = tmp_path / "flat.csv"
        ids, _, _ = dataio.read_chromatograms(chrom)
        meta.write_text("sample,group\n" + "\n".join(f"{s},same" for s in ids)
                        + "\n", encoding="utf-8")
        assert run("analyze", chrom, meta, "--permutations", "10") == EXIT_DATA

    def test_unknown_interaction_factor_is_config_error(self, fixture_files):
        chrom, meta = fixture_files
        assert run("analyze", chrom, meta, "--interactions", "group:nope",
                   "--permutations", "10") == EXIT_CONFIG


class TestSimulate:
    def test_writes_table_and_plot(self, tmp_path):
        out = tmp_path / "sim"
        code = run("simulate", "--jitter-grid", "0:30:30", "--trials", "2",
                   "--permutations", "29", "--seed", "4",
                   "--acquisitions", "1200", "--peaks", "4", "--significant", "2",
                   "--effect-size", "6.0", "--out-dir", out, "--no-timestamp")
        assert code == EXIT_OK
        lines = (out / "jitter_z.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "jitter,trial,z_time,z_freq"
        assert len(lines) == 1 + 4  # 2 levels x 2 trials
        assert (out / "jitter_z.svg").read_text(encoding="utf-8").startswith("<svg")

    def test_dataset_out(self, tmp_path):
        out = tmp_path / "sim"
        prefix = tmp_path / "demo"
        assert run("simulate", "--jitter-grid", "0:10:0", "--trials", "1",
                   "--permutations", "19", "--acquisitions", "1200",
                   "--peaks", "4", "--significant", "2",
                   "--dataset-out", prefix, "--out-dir", out,
                   "--no-timestamp") == EXIT_OK
        x, spec, ids = dataio.load_dataset(f"{prefix}_chromatograms.csv",
                                           f"{prefix}_metadata.csv")
        assert x.shape[0] == len(ids) == 10
        assert spec.factors[0].name == "group"

    def test_bad_grid_is_config_error(self, tmp_path):
        assert run("simulate", "--jitter-grid", "50:10:0",
                   "--out-dir", tmp_path) == EXIT_CONFIG
        assert run("simulate", "--jitter-grid", "abc",
                   "--out-dir", tmp_path) == EXIT_CONFIG


class TestTransformAndImpute:
    def test_transform_round_trip(self, fixture_files, tmp_path):
        chrom, _ = fixture_files
        fwd = tmp_path / "spec.csv"
        back = tmp_path / "back.csv"
        assert run("transform", chrom, "--out", fwd) == EXIT_OK
        assert run("transform", fwd, "--inverse", "--out", back) == EXIT_OK
        _, _, original = dataio.read_chromatograms(chrom)
        _, _, recovered = dataio.read_chromatograms(back)
        assert np.max(np.abs(original - recovered)) < 1e-9

    def test_impute_fills_zeros(self, tmp_path, capsys):
        ids = [f"s{i}" for i in range(6)]
        peaks = np.array([[2.0, 1.0], [4.0, 1.0], [0.0, 1.0],
                          [7.0, 2.0], [8.0, 2.0], [9.0, 2.0]])
        chrom = tmp_path / "peaks.csv"
        meta = tmp_path / "meta.csv"
        dataio.write_chromatograms(chrom, ids, peaks)
        meta.write_text("sample,group\n" + "\n".join(
            f"{s},{'a' if i < 3 else 'b'}" for i, s in enumerate(ids)) + "\n",
            encoding="utf-8")
        out = tmp_path / "imputed.csv"
        assert run("impute", chrom, meta, "--out", out) == EXIT_OK
        _, _, values = dataio.read_chromatograms(out)
        assert values[2, 0] == pytest.approx(3.0)
        assert "imputed 1 of 12" in capsys.readouterr().out


class TestBoundaryErrors:
    @pytest.mark.parametrize("flags", [
        ("--permutations", "0"), ("--permutations", "-5"),
        ("--alpha", "7"), ("--alpha", "0"), ("--alpha", "1"), ("--alpha", "nan"),
        ("--components", "0"), ("--components", "-2"),
    ])
    def test_out_of_range_analyze_flag_is_config_error(self, fixture_files, tmp_path,
                                                       capsys, flags):
        chrom, meta = fixture_files
        out = tmp_path / "out"
        assert run("analyze", chrom, meta, *flags, "--out-dir", out) == EXIT_CONFIG
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    def test_zero_permutations_in_simulate_is_config_error(self, tmp_path, capsys):
        assert run("simulate", "--permutations", "0", "--out-dir", tmp_path) == EXIT_CONFIG
        assert "--permutations" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_in_simulate_is_config_error(self, tmp_path, capsys, trials):
        out = tmp_path / "sim"
        assert run("simulate", "--trials", trials, "--jitter-grid", "0:10:0",
                   "--out-dir", out) == EXIT_CONFIG
        assert "--trials" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_negative_seed_is_config_error(self, fixture_files, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = (("analyze", *fixture_files, "--domain", "time", "--permutations", "5",
                 "--seed", "-1") if command == "analyze"
                else ("simulate", "--jitter-grid", "0:10:0", "--trials", "1",
                      "--permutations", "5", "--seed", "-3"))
        assert run(*argv, "--out-dir", out) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_no_residual_dof_is_numeric_error(self, tmp_path, capsys):
        # one replicate per level: two samples, rank 2, a rounding-only residual
        out = tmp_path / "sim"
        assert run("simulate", "--trials", "1", "--jitter-grid", "0:10:0",
                   "--permutations", "5", "--replicates", "1",
                   "--out-dir", out) == EXIT_NUMERIC
        assert "saturated" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, bad", [
        ("analyze", "data"), ("analyze", "metadata"), ("transform", "data")])
    def test_invalid_utf8_is_data_error(self, fixture_files, tmp_path, capsys,
                                        command, bad):
        chrom, meta = fixture_files
        source = chrom if bad == "data" else meta
        raw = source.read_bytes()
        corrupt = tmp_path / f"corrupt_{source.name}"
        corrupt.write_bytes(raw[:len(raw) // 2] + b"\xff" + raw[len(raw) // 2:])
        if command == "transform":
            argv = (corrupt, "--out", tmp_path / "out.csv")
        else:
            argv = (corrupt, meta) if bad == "data" else (chrom, corrupt)
        assert run(command, *argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(corrupt) in err and "UTF-8" in err

    @pytest.mark.parametrize("text", ["\n\n", "\nsample,t0\ns1,1\n"])
    def test_blank_first_line_is_data_error(self, tmp_path, capsys, text):
        chrom = tmp_path / "blank.csv"
        chrom.write_text(text, encoding="utf-8")
        assert run("transform", chrom, "--out", tmp_path / "out.csv") == EXIT_DATA
        assert "line 1 is blank" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [1, 2])
    def test_explicit_component_count_is_used(self, tmp_path, count):
        rng = np.random.default_rng(0)
        labels = [0, 1, 2] * 4
        x = 5.0 * rng.normal(size=(3, 40))[labels] + rng.normal(size=(12, 40))
        ids = [f"s{i}" for i in range(12)]
        chrom, meta, out = tmp_path / "c.csv", tmp_path / "m.csv", tmp_path / "out"
        dataio.write_chromatograms(chrom, ids, x)
        meta.write_text("sample,group\n" + "".join(
            f"{s},g{lab}\n" for s, lab in zip(ids, labels)), encoding="utf-8")
        assert run("analyze", chrom, meta, "--domain", "time", "--permutations", "50",
                   "--components", count, "--out-dir", out, "--no-timestamp") == EXIT_OK
        header = (out / "scores_group.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == ",".join(["sample", *(f"pc{r + 1}" for r in range(count))])

    @pytest.mark.parametrize("command", ["analyze", "transform", "impute"])
    def test_non_finite_input_is_data_error(self, fixture_files, tmp_path, capsys, command):
        ids, _, values = dataio.read_chromatograms(fixture_files[0])
        values[1, 2] = np.nan
        chrom = tmp_path / "nan.csv"
        dataio.write_chromatograms(chrom, ids, values)
        out = ("--out", tmp_path / "out.csv")
        argv = {"analyze": (fixture_files[1],), "transform": out,
                "impute": (fixture_files[1], *out)}[command]
        assert run(command, chrom, *argv) == EXIT_DATA
        assert "line 3, column 4" in capsys.readouterr().err


def _edited(path, tmp, name, edit):
    """Copy of the text file ``path`` under ``tmp`` with ``edit`` applied."""
    out = tmp / name
    out.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return out


def _raw(tmp, name, data):
    """File ``name`` under ``tmp`` holding the bytes ``data``."""
    out = tmp / name
    out.write_bytes(data)
    return out


def _second_line_cell(text, token):
    """``text`` with the second field of its second line replaced by ``token``."""
    lines = text.split("\n")
    cells = lines[1].split(",")
    lines[1] = ",".join([cells[0], token, *cells[2:]])
    return "\n".join(lines)


def _one_level(text):
    """Metadata ``text`` with every sample in the same group."""
    header, *lines = text.strip().split("\n")
    return "\n".join([header, *(line.split(",")[0] + ",same" for line in lines)]) + "\n"


def _renamed(name):
    """Metadata text edit: the factor ``group`` renamed to ``name``."""
    return lambda text: text.replace("sample,group", f"sample,{name}", 1)


def _with_factor(name):
    """Metadata text edit: a second factor ``name`` alternating between two levels."""
    def edit(text):
        header, *lines = text.strip().split("\n")
        return "\n".join([f"{header},{name}",
                          *(f"{line},b{i % 2}" for i, line in enumerate(lines))]) + "\n"
    return edit


def _near_max(path, tmp):
    """The chromatograms of ``path``, 40 columns of one sign near 1e307."""
    ids, _, values = dataio.read_chromatograms(path)
    out = tmp / "huge.csv"
    dataio.write_chromatograms(out, ids, 1e307 * (1.0 + 0.01 * np.abs(values[:, :40])))
    return out


def _failing_svd(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


# One row per error class of the README's exit-code table:
# (id, argv from (chromatograms, metadata, tmp dir), exit code, message text)
EXIT_TABLE = [
    ("unknown flag", lambda c, m, t: ("analyze", c, m, "--no-such-flag"),
     EXIT_CONFIG, "unrecognized arguments"),
    ("bad choice", lambda c, m, t: ("analyze", c, m, "--domain", "wavelet"),
     EXIT_CONFIG, "invalid choice"),
    ("permutations below one", lambda c, m, t: ("analyze", c, m, "--permutations", "0"),
     EXIT_CONFIG, "--permutations"),
    ("permutations above the index range", lambda c, m, t: (
        "analyze", c, m, "--permutations", str(MAX_PERMUTATIONS + 1)),
     EXIT_CONFIG, f"--permutations must be at most {MAX_PERMUTATIONS}"),
    ("simulate permutations above the index range", lambda c, m, t: (
        "simulate", "--permutations", "10000000000000", "--out-dir", t / "s"),
     EXIT_CONFIG, f"--permutations must be at most {MAX_PERMUTATIONS}"),
    ("trials below one", lambda c, m, t: ("simulate", "--trials", "0", "--out-dir", t / "s"),
     EXIT_CONFIG, "--trials"),
    ("components below one", lambda c, m, t: ("analyze", c, m, "--components", "0"),
     EXIT_CONFIG, "--components"),
    ("negative seed", lambda c, m, t: ("analyze", c, m, "--seed", "-1"),
     EXIT_CONFIG, "--seed"),
    ("alpha outside (0, 1)", lambda c, m, t: ("analyze", c, m, "--alpha", "1.5"),
     EXIT_CONFIG, "--alpha"),
    ("invalid generator settings", lambda c, m, t: (
        "simulate", "--peaks", "2", "--significant", "3", "--out-dir", t / "s"),
     EXIT_CONFIG, "n_significant"),
    ("no peaks without a noise sd", lambda c, m, t: (
        "simulate", "--peaks", "0", "--significant", "0", "--out-dir", t / "s"),
     EXIT_CONFIG, "n_peaks = 0 needs noise_sd"),
    ("bad jitter grid", lambda c, m, t: ("simulate", "--jitter-grid", "5", "--out-dir", t),
     EXIT_CONFIG, "--jitter-grid"),
    ("unknown interaction factor", lambda c, m, t: (
        "analyze", c, m, "--interactions", "group:nope", "--permutations", "9"),
     EXIT_CONFIG, "unknown factor"),
    ("pcmr outside the time domain", lambda c, m, t: (
        "analyze", c, m, "--pcmr", "--domain", "freq", "--permutations", "9"),
     EXIT_CONFIG, "--pcmr"),
    ("self interaction", lambda c, m, t: (
        "analyze", c, m, "--interactions", "group:group", "--permutations", "9"),
     EXIT_CONFIG, "'group:group' pairs a factor with itself"),
    ("repeated interaction", lambda c, m, t: (
        "analyze", c, _edited(m, t, "two.csv", _with_factor("batch")),
        "--interactions", "group:batch", "--interactions", "group:batch", "--permutations", "9"),
     EXIT_CONFIG, "'group:batch' repeats a pair"),
    ("reversed interaction", lambda c, m, t: (
        "analyze", c, _edited(m, t, "two.csv", _with_factor("batch")),
        "--interactions", "group:batch", "--interactions", "batch:group", "--permutations", "9"),
     EXIT_CONFIG, "'batch:group' repeats a pair"),
    ("missing file", lambda c, m, t: ("analyze", t / "absent.csv", m),
     EXIT_DATA, "absent.csv"),
    ("parse failure", lambda c, m, t: (
        "analyze", _edited(c, t, "bad.csv", lambda s: _second_line_cell(s, "abc")), m),
     EXIT_DATA, "cannot parse 'abc'"),
    ("invalid UTF-8", lambda c, m, t: (
        "transform", _raw(t, "latin1.csv", b"sample,t0\ns\xff,1\n"), "--out", t / "o.csv"),
     EXIT_DATA, "UTF-8"),
    ("blank header line", lambda c, m, t: (
        "analyze", _edited(c, t, "blank.csv", lambda s: "\n" + s), m),
     EXIT_DATA, "line 1 is blank"),
    ("non-finite value", lambda c, m, t: (
        "analyze", _edited(c, t, "nan.csv", lambda s: _second_line_cell(s, "nan")), m),
     EXIT_DATA, "non-finite"),
    ("id mismatch", lambda c, m, t: (
        "analyze", c, _edited(m, t, "ids.csv", lambda s: s.replace("\n", "\nx", 1))),
     EXIT_DATA, "sample ids disagree"),
    ("ragged rows", lambda c, m, t: (
        "analyze", _edited(c, t, "ragged.csv", lambda s: _second_line_cell(s, "1,2")), m),
     EXIT_DATA, "fields, expected"),
    ("degenerate factor", lambda c, m, t: (
        "analyze", c, _edited(m, t, "flat.csv", _one_level), "--permutations", "9"),
     EXIT_DATA, "single observed level"),
    ("repeated factor name", lambda c, m, t: (
        "analyze", c, _edited(m, t, "twice.csv", _with_factor("group")), "--permutations", "9"),
     EXIT_DATA, "factor name 'group' is repeated"),
    ("empty factor name", lambda c, m, t: (
        "analyze", c, _edited(m, t, "empty.csv", _renamed("")), "--permutations", "9"),
     EXIT_DATA, "factor name '' is empty"),
    ("factor named mean", lambda c, m, t: (
        "analyze", c, _edited(m, t, "mean.csv", _renamed("mean")), "--permutations", "9"),
     EXIT_DATA, "factor name 'mean' is reserved"),
    ("factor named as an ANOVA row", lambda c, m, t: (
        "analyze", c, _edited(m, t, "total.csv", _renamed("Mean")), "--permutations", "9"),
     EXIT_DATA, "factor name 'Mean' is reserved"),
    ("colon in a factor name", lambda c, m, t: (
        "analyze", c, _edited(m, t, "colon.csv", _renamed("a:b")), "--permutations", "19",
        "--domain", "time", "--out-dir", t / "o"),
     EXIT_DATA, "factor name 'a:b' contains ':'"),
    ("slash in a factor name", lambda c, m, t: (
        "analyze", c, _edited(m, t, "slash.csv", _renamed("a/x")), "--permutations", "19",
        "--domain", "time", "--out-dir", t / "o"),
     EXIT_DATA, "factor name 'a/x' contains '/'"),
    ("factor name past 100 UTF-8 bytes", lambda c, m, t: (
        "analyze", c, _edited(m, t, "long.csv", _renamed("é" * 50 + "a")), "--permutations", "19",
        "--domain", "time", "--out-dir", t / "o"),
     EXIT_DATA, "is longer than 100 UTF-8 bytes"),
    ("directory as transform input", lambda c, m, t: ("transform", t, "--out", t / "o.csv"),
     EXIT_DATA, "Is a directory"),
    ("directory as analyze input", lambda c, m, t: ("analyze", c, t, "--permutations", "9"),
     EXIT_DATA, "Is a directory"),
    ("NUL in a factor name", lambda c, m, t: (
        "analyze", c, _edited(m, t, "nul.csv", _renamed("a\0")), "--permutations", "19",
        "--domain", "time", "--out-dir", t / "o"),
     EXIT_DATA, "factor name 'a\\x00' contains '\\x00'"),
    ("empty spectrum rows", lambda c, m, t: (
        "transform", _raw(t, "empty.csv", b"sample\ns0\n"), "--inverse", "--out", t / "o.csv"),
     EXIT_DATA, "zero-length rows"),
    ("saturated model", lambda c, m, t: (
        "simulate", "--trials", "1", "--jitter-grid", "0:10:0", "--permutations", "5",
        "--replicates", "1", "--out-dir", t / "s"),
     EXIT_NUMERIC, "saturated"),
    ("saturated model with a dataset out", lambda c, m, t: (
        "simulate", "--trials", "1", "--jitter-grid", "0:10:0", "--permutations", "5",
        "--replicates", "1", "--dataset-out", t / "d", "--out-dir", t / "s"),
     EXIT_NUMERIC, "saturated"),
    ("residual rounding to zero", lambda c, m, t: (
        "simulate", "--trials", "1", "--jitter-grid", "0:10:0", "--permutations", "5",
        "--acquisitions", "600", "--peaks", "4", "--significant", "2",
        "--effect-size", "1e150", "--out-dir", t / "s"),
     EXIT_NUMERIC, "rounds to zero against the fitted part"),
    ("non-finite effect size", lambda c, m, t: (
        "simulate", "--trials", "1", "--jitter-grid", "0:10:0", "--permutations", "5",
        "--effect-size", "nan", "--out-dir", t / "s"),
     EXIT_CONFIG, "effect_size must be finite"),
    ("non-finite noise sd", lambda c, m, t: (
        "simulate", "--trials", "1", "--jitter-grid", "0:10:0", "--permutations", "5",
        "--noise-sd", "inf", "--out-dir", t / "s"),
     EXIT_CONFIG, "noise_sd must be finite"),
    ("overflowing effect size", lambda c, m, t: (
        "simulate", "--trials", "1", "--jitter-grid", "0:10:0", "--permutations", "5",
        "--acquisitions", "600", "--peaks", "4", "--significant", "2",
        "--effect-size", "1e200", "--out-dir", t / "s"),
     EXIT_NUMERIC, "past the floating-point range"),
    ("overflowing noise sd", lambda c, m, t: (
        "simulate", "--trials", "1", "--jitter-grid", "0:10:0", "--permutations", "5",
        "--acquisitions", "600", "--peaks", "4", "--significant", "2",
        "--noise-sd", "1e200", "--dataset-out", t / "d", "--out-dir", t / "s"),
     EXIT_NUMERIC, "past the floating-point range"),
    ("rank exceeded", lambda c, m, t: (
        "analyze", c, m, "--domain", "time", "--permutations", "99", "--components", "3",
        "--out-dir", t / "o"),
     EXIT_NUMERIC, "has rank 1"),
    ("non-convergence", lambda c, m, t: (
        "analyze", c, m, "--domain", "time", "--permutations", "9"),
     EXIT_NUMERIC, "did not converge"),
    ("overflowing sums of squares", lambda c, m, t: (
        "analyze", _near_max(c, t), m, "--domain", "time", "--permutations", "19",
        "--out-dir", t / "o"),
     EXIT_NUMERIC, "sums of squares overflow"),
    ("underflowing sums of squares", lambda c, m, t: (
        "analyze", _raw(t, "tiny.csv", b"sample,t0,t1\ns0,1e-158,2e-158\ns1,3e-158,1e-158\n"
                        b"s2,2e-158,2e-158\ns3,5e-158,4e-158\ns4,1e-158,3e-158\n"),
        _raw(t, "g.csv", b"sample,g\ns0,a\ns1,a\ns2,b\ns3,b\ns4,b\n"),
        "--domain", "time", "--permutations", "9", "--out-dir", t / "o"),
     EXIT_NUMERIC, "sums of squares underflow"),
    ("overflowing magnitudes", lambda c, m, t: (
        "analyze", _raw(t, "mag.csv", b"sample,t0,t1,t2\ns0,0,0,1.7976931348623157e308\n"
                        b"s1,0,0,0\ns2,1,2,3\ns3,4,5,6\ns4,1,1,1\ns5,2,2,2\n"),
        _raw(t, "g.csv", b"sample,g\ns0,a\ns1,a\ns2,a\ns3,b\ns4,b\ns5,b\n"),
        "--domain", "mag", "--permutations", "9", "--out-dir", t / "o"),
     EXIT_NUMERIC, "matrix contains non-finite entries"),
    ("sums of squares overflowing in percent", lambda c, m, t: (
        "analyze", _raw(t, "big.csv", b"sample,t0,t1,t2\ns0,1.3e153,-1.3e153,1.3e153\n"
                        b"s1,-1.3e153,1.3e153,1.3e153\ns2,1.3e153,1.3e153,-1.3e153\n"
                        b"s3,-1.3e153,-1.3e153,1.3e153\ns4,1.3e153,-1.3e153,-1.3e153\n"
                        b"s5,-1.3e153,1.3e153,-1.3e153\n"),
        _raw(t, "g.csv", b"sample,g\ns0,a\ns1,a\ns2,a\ns3,b\ns4,b\ns5,b\n"),
        "--domain", "time", "--permutations", "9", "--out-dir", t / "o"),
     EXIT_NUMERIC, "sums of squares overflow"),
    ("overflowing spectrum", lambda c, m, t: (
        "transform", _near_max(c, t), "--out", t / "o.csv"),
     EXIT_NUMERIC, "spectrum contains non-finite entries"),
    ("overflowing inverse transform", lambda c, m, t: (
        "transform", _raw(t, "spec.csv", b"sample,k0_re,k0_im,k1_re,k1_im\ns0,1e308,0,1e308,0\n"),
        "--inverse", "--out", t / "o.csv"),
     EXIT_NUMERIC, "inverse transform contains non-finite entries"),
    ("overflowing cell means", lambda c, m, t: (
        "impute", _raw(t, "p.csv", b"sample,t0\ns0,1e308\ns1,1e308\ns2,0\ns3,1\ns4,2\n"),
        _raw(t, "g.csv", b"sample,g\ns0,a\ns1,a\ns2,a\ns3,b\ns4,b\n"), "--out", t / "o.csv"),
     EXIT_NUMERIC, "imputed table contains non-finite entries"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy prints nothing beside the message
@pytest.mark.parametrize("argv, code, message", [row[1:] for row in EXIT_TABLE],
                         ids=[row[0] for row in EXIT_TABLE])
def test_exit_code_table(fixture_files, tmp_path, capsys, monkeypatch, argv, code, message):
    if message == "did not converge":  # no input makes LAPACK fail, so force it
        monkeypatch.setattr(np.linalg, "svd", _failing_svd)
    argv = argv(*fixture_files, tmp_path)
    inputs = sorted(tmp_path.rglob("*"))
    try:
        got = run(*argv)
    except SystemExit as exc:  # argparse rejects the command line itself
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert message in err
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == inputs  # a failed command writes nothing


@pytest.mark.parametrize("permutations", ["22", "23"], ids=["random stream", "enumeration"])
def test_out_of_memory_exits_4(tmp_path, capsys, monkeypatch, permutations):
    # four samples: 22 permutations are drawn, 23 enumerate the 4! - 1 others
    chrom = _raw(tmp_path, "c.csv", b"sample,t0,t1\ns0,1,2\ns1,2,3\ns2,5,1\ns3,7,2\n")
    meta = _raw(tmp_path, "m.csv", b"sample,g\ns0,a\ns1,a\ns2,b\ns3,b\n")

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 46.0 GiB")

    monkeypatch.setattr(glm, "_test_permutations", exhausted)
    inputs = sorted(tmp_path.rglob("*"))
    got = run("analyze", chrom, meta, "--domain", "time", "--permutations", permutations,
              "--out-dir", tmp_path / "o")
    err = capsys.readouterr().err
    assert got == EXIT_NUMERIC
    assert "out of memory: Unable to allocate" in err
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == inputs


def test_every_error_class_has_an_exit_category():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.FftascaError)]
    assert len(classes) > 10
    for cls in set(classes) - {errors.FftascaError}:
        assert issubclass(cls, (errors.ConfigInvalid, errors.DataError, errors.NumericError))


# header names that keep the factor-name rules, and names that break them
FUZZ_NAMES = ("a", "b", "é", "nan", "<&")
FUZZ_BAD_NAMES = ("a:b", "a/x", "c\\d", "mean", "Mean", "Total", "", "x:é")
FUZZ_TOKENS = ("nan", "inf", "-inf", "", "junk", "1e999")


@st.composite
def cli_cases(draw):
    """(factor names, level labels per sample, chromatogram tokens per sample, analyze flags).

    About half the cases break no rule, and half of those give the first
    factor an effect, so that the analysis runs through to its artifacts.
    """
    n = draw(st.integers(4, 12))
    names = draw(st.lists(st.sampled_from(FUZZ_NAMES) | st.text(min_size=1, max_size=3),
                          min_size=1, max_size=3, unique=True))
    level = st.sampled_from(("x", "y", "ö", "<&"))
    labels = [draw(st.lists(level, min_size=len(names), max_size=len(names)))
              for _ in range(n)]
    m = draw(st.integers(1, 6))
    value = (st.floats(allow_nan=False, allow_infinity=False) if draw(st.booleans())
             else st.floats(-1e3, 1e3) | st.just(0.0))
    effect = draw(st.sampled_from((0.0, 1e4)))
    cells = [[repr(v + effect * (labels[i][0] == labels[0][0]))
              for v in draw(st.lists(value, min_size=m, max_size=m))] for i in range(n)]
    fault = draw(st.sampled_from((None, None, None, "name", "label", "cell")))
    if fault == "name":
        names[-1] = draw(st.sampled_from(FUZZ_BAD_NAMES + tuple(names[:-1])))
    elif fault == "label":
        labels[draw(st.integers(0, n - 1))][0] = draw(st.sampled_from(("", "w")))
    elif fault == "cell":
        cells[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = draw(
            st.sampled_from(FUZZ_TOKENS))
    flags = [f"--domain={draw(st.sampled_from(('time', 'freq', 'mag')))}",
             f"--alpha={draw(st.sampled_from((0.05, 0.5)))}"]
    flags += [flag for flag in ("--pcmr", "--center", "--trim") if draw(st.booleans())]
    pairs = [*itertools.permutations(names, 2), (names[0], names[0])]
    flags += [f"--interactions={a}:{b}" for a, b in
              draw(st.lists(st.sampled_from(pairs), max_size=2 * (len(names) > 1)))]
    return names, labels, cells, flags


def _fuzz_case(names, levels, values, *flags):
    """An explicit fuzz case: ``levels[k]`` gives sample i of factor k level
    ``levels[k][i % len(levels[k])]``, and ``values(i, j)`` its j-th value."""
    n, m = 12, 40
    labels = [[lev[i % len(lev)] for lev in levels] for i in range(n)]
    return names, labels, [[repr(values(i, j)) for j in range(m)] for i in range(n)], list(flags)


def _distinct(i, j):
    """Values whose level of a two-level factor, by the parity of i, stands out."""
    return 1.0 + 10.0 * (i % 2) + 0.01 * ((5 * i + j) % 7)


def _non_finite(path):
    """Whether an artifact holds a nan or inf where it holds numbers."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".svg":
        ElementTree.fromstring(text)  # well-formed, whatever the names
        # titles and legends carry term and level names; the rest is numbers and markup
        text = re.sub(r"<title>.*?</title>|data-series=\"[^\"]*\"|<text[^>]*"
                      r"font-size=\"1[125]\"[^>]*>.*?</text>", "", text, flags=re.S)
        return re.search("nan|inf", text, re.I) is not None
    header, *rows = csv.reader(text.splitlines())
    labelled = header[0] in ("sample", "term")  # the first column holds ids or terms
    return not all(math.isfinite(float(cell)) for row in rows
                   for cell in row[labelled:] if cell != "")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cli_cases())
@example(case=_fuzz_case(["a", "a"], ["xy", "pqr"], _distinct))
@example(case=_fuzz_case(["mean", "b"], ["xy", "pqr"], _distinct))
@example(case=_fuzz_case(["a:b", "b"], ["xy", "pqr"], _distinct, "--domain=time"))
@example(case=_fuzz_case(["a/x", "b"], ["xy", "pqr"], _distinct, "--domain=time"))
@example(case=_fuzz_case(["a", "b"], ["xy", "pqr"], _distinct,
                         "--interactions=a:b", "--interactions=a:b"))
@example(case=_fuzz_case(["a", "b"], ["xy", "pqr"], _distinct,
                         "--interactions=a:b", "--interactions=b:a"))
@example(case=_fuzz_case(["a", "b"], ["xy", "pqr"], _distinct, "--interactions=a:a"))
@example(case=_fuzz_case(["a", "b"], ["xy", "pqr"],
                         lambda i, j: 1e307 * (1 + 0.01 * ((7 * i + j) % 11)),
                         "--domain=time"))
def test_cli_fuzz_exits_cleanly(case):
    """Any metadata, chromatograms and analyze flags end in a documented exit
    code, with no traceback, no output on failure and no nan or inf on success."""
    names, labels, cells, flags = case
    ids = [f"s{i}" for i in range(len(cells))]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        chrom, meta = tmp / "c.csv", tmp / "m.csv"
        chrom.write_text("".join(",".join(row) + "\n" for row in
                                 [["sample", *(f"t{j}" for j in range(len(cells[0])))],
                                  *([sid, *row] for sid, row in zip(ids, cells))]),
                         encoding="utf-8")
        with open(meta, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["sample", *names],
                                      *([sid, *row] for sid, row in zip(ids, labels))])
        commands = [
            (tmp / "out", ("analyze", chrom, meta, *flags, "--permutations", "19",
                           "--out-dir", tmp / "out")),
            (tmp / "spec.csv", ("transform", chrom, "--out", tmp / "spec.csv")),
            (tmp / "back.csv", ("transform", tmp / "spec.csv", "--inverse",
                                "--out", tmp / "back.csv")),
            (tmp / "imputed.csv", ("impute", chrom, meta, "--out", tmp / "imputed.csv")),
        ]
        for out, argv in commands:
            if argv[1] == tmp / "spec.csv" and not argv[1].exists():
                continue
            err = StringIO()
            with redirect_stderr(err), redirect_stdout(StringIO()):
                code = run(*argv)
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC), (argv[0], code)
            assert "Traceback" not in err.getvalue()
            written = [out, *out.rglob("*")] if out.exists() else []
            if code != EXIT_OK:
                assert not written, (argv[0], code, err.getvalue())
            for path in written:
                if path.suffix in (".csv", ".svg"):
                    assert not _non_finite(path), (argv[0], path.name)


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(fftasca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    check = "import sys, fftasca.cli; sys.exit(int('scipy' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", check], env=env).returncode == 0


def test_simulate_runs_without_scipy(tmp_path):
    src = str(Path(fftasca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    # a None entry makes every import of scipy fail
    check = ("import sys; sys.modules['scipy'] = None\n"
             "from fftasca.cli import run_pipeline\n"
             "sys.exit(run_pipeline(['simulate', '--jitter-grid', '0:10:10', '--trials', '1',"
             " '--permutations', '19', '--acquisitions', '600', '--peaks', '4',"
             " '--significant', '2', '--out-dir', sys.argv[1]]))")
    assert subprocess.run([sys.executable, "-c", check, str(tmp_path)], env=env).returncode == 0
    assert (tmp_path / "jitter_z.csv").exists()


def test_warnings_are_one_line_without_the_source_path(fixture_files, tmp_path):
    chrom, meta = fixture_files
    header, first, *rest = meta.read_text(encoding="utf-8").splitlines()
    # the first sample joins the last sample's group, which leaves the design unbalanced
    first = f"{first.split(',')[0]},{rest[-1].split(',')[1]}"
    meta.write_text("\n".join([header, first, *rest]) + "\n", encoding="utf-8")
    src = str(Path(fftasca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", "fftasca.cli", "analyze", str(chrom), str(meta),
                           "--permutations", "19"], env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_OK
    assert "cli.py" not in done.stderr
    lines = done.stderr.splitlines()
    assert any("unbalanced" in line for line in lines)
    assert all(line.startswith("warning: ") for line in lines)
