"""Self-tests of the benchmark: the checker catches tampering, the inputs are
deterministic and each child's resources are read on their own.

    python3 -m pytest -q perfbench
"""

import os
import shutil
import statistics
import sys

import pytest

import checks
import gen
import run
import tracing
from workloads import DriftSimulate, PeaksPcmr

SEED = 3


@pytest.fixture(scope="module")
def peaks_unit(tmp_path_factory):
    """One real peaks_pcmr unit: (workload, clean output directory)."""
    work = tmp_path_factory.mktemp("peaks")
    workload = PeaksPcmr()
    workload.prepare(str(work / "in"), SEED)
    out = work / "out"
    out.mkdir()
    for args in workload.invocations(str(out), SEED):
        code, _, _, _ = run.run_child(run.cli_argv(args), str(work / "log"),
                                      run.child_env())
        assert code == 0, (work / "log").read_text()
    return workload, out


def _copy(src, tmp_path):
    dst = tmp_path / "out"
    shutil.copytree(src, dst)
    return dst


def _rewrite(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_untouched_outputs_pass(peaks_unit):
    workload, out = peaks_unit
    pinned = {"anova": workload.pin_values(str(out))["anova"]}
    assert workload.check(str(out), pinned) == {0: []}


def test_tampered_pvalue_is_flagged(peaks_unit, tmp_path):
    workload, out = peaks_unit
    pinned = workload.pin_values(str(out))
    out = _copy(out, tmp_path)
    table = checks.read_anova(str(out / "anova.csv"))
    p = table["diet"]["Pvalue"]
    _rewrite(out / "anova.csv", f"{p:.17g}", "0.0123")
    failures = workload.check(str(out), pinned)[0]
    assert "anova.p_off_lattice.diet" in failures
    assert "anova.pin.diet" in failures


def test_tampered_pvalue_on_the_lattice_still_fails_the_pin(peaks_unit, tmp_path):
    workload, out = peaks_unit
    pinned = workload.pin_values(str(out))
    out = _copy(out, tmp_path)
    p = checks.read_anova(str(out / "anova.csv"))["diet"]["Pvalue"]
    _rewrite(out / "anova.csv", f"{p:.17g}", f"{2 / 1001:.17g}")
    assert workload.check(str(out), pinned)[0] == ["anova.pin.diet"]


def test_tampered_sum_of_squares_fails_the_oracle(peaks_unit, tmp_path):
    workload, out = peaks_unit
    out = _copy(out, tmp_path)
    s = checks.read_anova(str(out / "anova.csv"))["time"]["SumSq"]
    _rewrite(out / "anova.csv", f"{s:.17g}", f"{s * 1.001:.17g}")
    failures = workload.check(str(out), None)[0]
    assert "anova.sumsq.time" in failures


def test_nan_in_an_artifact_is_flagged(peaks_unit, tmp_path):
    workload, out = peaks_unit
    out = _copy(out, tmp_path)
    path = out / "scores_diet.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[1] = "nan"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert workload.check(str(out), None)[0] == ["nonfinite.scores_diet.csv"]


def test_infinity_in_an_svg_is_flagged(peaks_unit, tmp_path):
    workload, out = peaks_unit
    out = _copy(out, tmp_path)
    _rewrite(out / "loadings_time.svg", 'points="', 'points="-inf,')
    assert workload.check(str(out), None)[0] == ["nonfinite.loadings_time.svg"]


def test_missing_artifact_is_flagged(peaks_unit, tmp_path):
    workload, out = peaks_unit
    out = _copy(out, tmp_path)
    os.remove(out / "loadings_diet.svg")
    assert workload.check(str(out), None)[0] == ["missing_artifact.loadings_diet.svg"]


def test_drift_checks_flag_an_infinite_and_an_off_lattice_z(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    rows = ["jitter,trial,z_time,z_freq"]
    normal = statistics.NormalDist()
    for j in range(0, 51, 10):
        rows.append(f"{j},0,{-normal.inv_cdf(3 / 201):.17g},{-normal.inv_cdf(1 / 201):.17g}")
    (out / "jitter_z.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (out / "jitter_z.svg").write_text("<svg></svg>\n", encoding="utf-8")
    (out / "summary.txt").write_text("command: simulate\n", encoding="utf-8")
    workload = DriftSimulate()
    assert workload.check(str(out), None) == {0: []}
    pinned = workload.pin_values(str(out))
    rows[1] = "0,0,-inf,1.5"
    (out / "jitter_z.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    failures = workload.check(str(out), pinned)[0]
    assert "z_off_lattice.j0.t0.freq" in failures
    assert "z.pin.j0.t0.time" in failures
    assert "nonfinite.jitter_z.csv" in failures


@pytest.mark.parametrize("workload", ["study_freq", "peaks_pcmr"])
def test_generator_is_deterministic(workload, tmp_path):
    first = gen.make_inputs(workload, SEED, str(tmp_path / "a"))
    again = gen.make_inputs(workload, SEED, str(tmp_path / "b"))
    other = gen.make_inputs(workload, SEED + 1, str(tmp_path / "c"))
    for key in first:
        assert gen.sha256(first[key]) == gen.sha256(again[key])
    assert gen.sha256(first["data"]) != gen.sha256(other["data"])


def test_each_child_rss_is_read_on_its_own(tmp_path):
    """A child's peak RSS is neither the largest child's so far nor this
    process's, even while this process holds far more memory than it."""
    log = str(tmp_path / "log")
    touch = "b = bytearray(160 * 2**20); b[::4096] = b'x' * len(b[::4096])"
    held = bytearray(320 * 2**20)
    held[::4096] = b"x" * len(held[::4096])
    _, _, _, rss_big = run.run_child([sys.executable, "-c", touch], log, os.environ)
    _, _, _, rss_small = run.run_child([sys.executable, "-c", "pass"], log, os.environ)
    del held
    assert 160 < rss_big < 320
    assert rss_small < 100


def test_importtime_parsing_counts_outermost_imports_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.linalg",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       numpy.fft",
        "import time:       400 |        450 |     scipy",
        "import time:        10 |        760 |   fftasca.synth",
        "import time:        40 |        800 | fftasca",
    ])
    assert run.parse_importtime(text) == {
        "import.fftasca_s": 800e-6, "import.numpy_s": 300e-6, "import.scipy_s": 450e-6}


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.run_pipeline", 0.0, 10.0, -1, 0, None],
        ["glm.permutation_test", 1.0, 9.0, 0, 0, 100],
        ["linalg.ssq", 2.0, 5.0, 1, 0, None],
        ["design.permute_rows", 5.0, 6.0, 1, 0, 100],
    ]
    m, detail = tracing.layer_metrics([{"spans": spans, "warnings": {}}])
    assert detail["root_s"] == 10.0
    assert m["cli.self_s"] == 2.0
    assert m["glm.permutation_test_s"] == 4.0
    assert m["linalg.ssq_s"] == 3.0
    assert m["design.permute_rows_s"] == 1.0
    assert m["glm.us_per_permutation"] == 8.0 / 100 * 1e6
