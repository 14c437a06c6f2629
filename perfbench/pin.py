"""Record the p-values and drift z-values of this commit in ``pins.json``.

    python3 perfbench/pin.py --seeds 0-31

For each workload with p-values or z-values and each seed, this runs one
unit of the workload as the benchmark does and stores what it reported.
Benchmark runs then require those values exactly for a pinned seed.  Pins
are recorded once, at the commit that defined the benchmark; a change that
means to move p-values (a new permutation stream, say) re-records them and
says so.
"""

import argparse
import json
import os
import shutil
import sys

from run import WORK, child_env, cli_argv, run_child
from workloads import PINS_PATH, WORKLOADS


def record(workload, seed, work):
    shutil.rmtree(work, ignore_errors=True)
    out = os.path.join(work, "out")
    os.makedirs(out)
    workload.prepare(os.path.join(work, "in"), seed)
    for args in workload.invocations(out, seed):
        code, _, _, _ = run_child(cli_argv(args), os.path.join(work, "log"), child_env())
        if code != 0:
            raise SystemExit(f"{workload.name} seed {seed}: exit code {code}")
    failures = [f for names in workload.check(out, None).values() for f in names]
    values = workload.pin_values(out)
    shutil.rmtree(work, ignore_errors=True)
    return values, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--workloads", default="study_freq,drift_simulate,peaks_pcmr")
    args = parser.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    with open(PINS_PATH, encoding="utf-8") as fh:
        pins = json.load(fh)
    work = os.path.join(WORK, f"pin-{os.getpid()}")
    for name in args.workloads.split(","):
        workload = WORKLOADS[name]()
        for seed in range(first, last + 1):
            values, failures = record(workload, seed, work)
            pins.setdefault(name, {})[str(seed)] = values
            print(f"{name} seed {seed}: {failures or 'ok'}", flush=True)
            with open(PINS_PATH, "w", encoding="utf-8") as fh:
                json.dump(pins, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
