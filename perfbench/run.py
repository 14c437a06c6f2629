"""Benchmark of the ``fftasca`` command-line program.

Run from the root of a checkout::

    python3 perfbench/run.py --workload study_freq --seed 1 --seconds 15 --trace 0

The run generates the workload's inputs from ``--seed`` (outside the timed
region), then runs the workload's CLI invocations in fresh child processes,
one at a time, for about ``--seconds`` of invocation time and at least two
units, and checks every output.  That is ``--trace 0``, which reports the
end-to-end metrics.  ``--trace 1`` runs one plain unit, one traced unit and
one unit with a single BLAS thread, and reports the per-layer metrics.
The last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``.  The full record, with the
environment and the input hashes, goes to ``.bench_work/results/``.

The program is run from ``src/`` of the checkout; without it the run exits
with code 2 and prints no result.
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import gen
import tracing
from workloads import WORKLOADS, load_pins

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
LAUNCHER = os.path.join(HERE, "launch.py")

MIN_UNITS = 2
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
# a unit is not started when the run would then pass this many seconds,
# so that a run ends well inside the 180 s a run may take
RUN_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 170.0
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


def child_env(extra=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update(extra or {})
    return env


def run_child(argv, log_path, env):
    """Run one child to completion: (exit code, wall s, cpu s, peak RSS MB).

    The child is started by ``launch.py``, which reads its CPU time and
    peak RSS from ``os.wait4`` and times it from spawn to exit.
    """
    proc = subprocess.Popen([sys.executable, "-S", LAUNCHER, log_path, "--", *argv],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise SystemExit(f"launcher failed with exit code {proc.returncode}")
    code, wall, cpu, rss_kib = json.loads(out)
    return code, wall, cpu, rss_kib / 1024.0


def cli_argv(args):
    return [sys.executable, "-m", "fftasca.cli", *args]


class Run:
    """One benchmark run: its directory, pins and failure counts."""

    def __init__(self, workload, seed, run_dir):
        self.workload = workload
        self.seed = seed
        self.dir = run_dir
        self.log = os.path.join(run_dir, "children.log")
        self.pinned = load_pins().get(workload.name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.started = time.perf_counter()
        self._units = 0

    def unit(self, wrap=None, env=None):
        """Run and check one unit; returns its (wall s, cpu s, peak RSS MB)."""
        out = os.path.join(self.dir, f"out{self._units}")
        tag = f"unit{self._units}"
        self._units += 1
        os.makedirs(out)
        wall = cpu = rss = 0.0
        codes = []
        for i, args in enumerate(self.workload.invocations(out, self.seed)):
            argv = wrap(i, args) if wrap else cli_argv(args)
            code, w, c, r = run_child(argv, self.log, env or child_env())
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            codes.append(code)
        self.attempted += len(codes)
        found = self.workload.check(out, self.pinned)
        for i, code in enumerate(codes):
            names = list(found.get(i, []))
            if code != 0:
                names.insert(0, f"exit_code_{code}")
            self.failed += bool(names)
            self.failures += [f"{tag}.inv{i}: {n}" for n in names]
        shutil.rmtree(out, ignore_errors=True)
        return wall, cpu, rss

    def loop(self, seconds):
        """Units for about ``seconds`` of invocation time, at least two.

        Past the second, a unit is started only while the time spent plus
        half the median unit stays within ``seconds``, so a run ends near
        its length instead of one whole unit past it.
        """
        samples = []
        spent = 0.0
        while (len(samples) < MIN_UNITS
               or spent + statistics.median(u[0] for u in samples) / 2 < seconds):
            if samples and (time.perf_counter() - self.started
                            + samples[-1][0] > RUN_LIMIT_S):
                break
            samples.append(self.unit())
            spent += samples[-1][0]
        return samples


def import_check():
    """Warm the bytecode cache and confirm the children import ``src/``."""
    code = ("import sys, fftasca.cli; "
            "sys.stdout.write(fftasca.cli.__file__)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    path = os.path.realpath(out.stdout.strip()) if out.returncode == 0 else ""
    if not path.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"fftasca does not import from {SRC}: {out.stderr.strip()}")


def setup_samples(run, n):
    walls = []
    for _ in range(n):
        code, wall, _, _ = run_child([sys.executable, "-c", "import fftasca.cli"],
                                     run.log, child_env())
        if code != 0:
            raise SystemExit(f"import fftasca.cli failed with exit code {code}")
        walls.append(wall)
    return walls


def parse_importtime(text):
    """Import seconds of fftasca, numpy and scipy from ``-X importtime``.

    Each figure is the cumulative time of the package's outermost imports,
    so it includes what the package pulled in.  fftasca's therefore holds
    numpy's and scipy's; numpy's and scipy's do not overlap, because an
    import nested inside either one counts only for the outer package.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(cumulative), name.strip().split(".", 1)[0]))

    def enclosing(i):
        # importtime prints a module after the modules it imported, one level out
        depth = entries[i][0]
        for k in range(i + 1, len(entries)):
            if entries[k][0] < depth:
                yield entries[k][2]
                depth = entries[k][0]

    def outermost(package, outer):
        return sum(cum for i, (_, cum, top) in enumerate(entries)
                   if top == package and not outer.intersection(enclosing(i))) / 1e6

    return {"import.fftasca_s": outermost("fftasca", {"fftasca"}),
            "import.numpy_s": outermost("numpy", {"numpy", "scipy"}),
            "import.scipy_s": outermost("scipy", {"numpy", "scipy"})}


def importtime_samples(run, n):
    samples = []
    for k in range(n):
        path = os.path.join(run.dir, f"importtime{k}.txt")
        code, _, _, _ = run_child([sys.executable, "-X", "importtime", "-c",
                                   "import fftasca.cli"], path, child_env())
        if code != 0:
            raise SystemExit(f"import fftasca.cli failed with exit code {code}")
        with open(path, encoding="utf-8") as fh:
            samples.append(parse_importtime(fh.read()))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    from importlib.metadata import version

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def end_to_end(run, seconds):
    import_check()
    setup = setup_samples(run, SETUP_SAMPLES)
    units = run.loop(seconds)
    samples = {
        "wall_s": [u[0] for u in units],
        "cpu_s": [u[1] for u in units],
        "setup_s": setup,
        "peak_rss_mb": [u[2] for u in units],
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    return values, samples


def per_layer(run):
    import_check()
    untraced_wall, _, _ = run.unit()

    spans = os.path.join(run.dir, "spans{}.json")
    script = os.path.join(HERE, "tracing.py")

    def traced(i, args):
        return [sys.executable, script, "--spans", spans.format(i),
                "--run-id", str(i), "--", *args]

    traced_wall, _, _ = run.unit(wrap=traced)
    traces = []
    for i in range(len(run.workload.invocations("", run.seed))):
        with open(spans.format(i), encoding="utf-8") as fh:
            traces.append(json.load(fh))
    layers, detail = tracing.layer_metrics(traces)

    ref_wall, ref_cpu, _ = run.unit(env=child_env(SINGLE_THREAD_ENV))
    values = dict(layers)
    values.update(importtime_samples(run, IMPORTTIME_SAMPLES))
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.unaccounted_s"] = traced_wall - detail["root_s"]
    values["ref.single_thread_wall_s"] = ref_wall
    values["ref.single_thread_cpu_s"] = ref_cpu
    samples = {"untraced_wall_s": untraced_wall,
               "self_s_by_layer": detail["self_s_by_layer"]}
    return values, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so that the children
    # are killed and waited for and the run directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "fftasca", "cli.py")):
        sys.stderr.write(f"no program to measure: {SRC}/fftasca/cli.py is missing\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    workload = WORKLOADS[args.workload]()
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        run = Run(workload, args.seed, run_dir)
        inputs = workload.prepare(os.path.join(run_dir, "in"), args.seed)
        hashes = {k: gen.sha256(p) for k, p in sorted(inputs.items())}
        if args.trace:
            values, samples = per_layer(run)
        else:
            values, samples = end_to_end(run, args.seconds)
        if run.failures:
            with open(run.log, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write("".join(fh.readlines()[-20:]))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = [name for name in wanted if name not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "inputs_sha256": hashes,
        "pinned": run.pinned is not None, "failures": run.failures,
        "failed_frac": run.failed / run.attempted,
        "values": values, "samples": samples,
        "quartiles": {k: _quartiles(v) for k, v in samples.items()
                      if isinstance(v, list) and v},
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for failure in run.failures:
        print(f"FAILED {failure}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("inputs_sha256 " + json.dumps(hashes, sort_keys=True))
    print(f"{'failed_frac':34s} {record['failed_frac']:<14.6g} fraction "
          f"({run.failed} of {run.attempted} invocations)")
    for name in wanted:
        note = ""
        if name in samples and isinstance(samples[name], list):
            q = record["quartiles"][name]
            note = f"(median of {len(samples[name])}; quartiles {q[0]:.4g} .. {q[2]:.4g})"
        print(f"{name:34s} {values[name]:<14.6g} {units[name]:8s} {note}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
