"""Summarise the run records in ``.bench_work/results`` into ``baseline.json``.

    python3 perfbench/baseline.py

For each workload: the median and quartiles over runs of every end-to-end
metric (``--trace 0`` records) and the per-layer metrics of the traced
runs (median over them), with the environment of the first record.
"""

import glob
import json
import os
import statistics
import sys

from run import HERE, WORK


def main():
    records = []
    for path in sorted(glob.glob(os.path.join(WORK, "results", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit(f"no run records in {WORK}/results")
    out = {"environment": records[0]["environment"], "workloads": {}}
    for name in sorted({r["workload"] for r in records}):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = [r for r in records if r["workload"] == name and r["trace"] == trace]
            if not runs:
                continue
            summary = {"runs": len(runs), "seeds": sorted(r["seed"] for r in runs),
                       "failed_runs": sum(1 for r in runs if r["failures"])}
            for metric in runs[0]["values"]:
                values = [r["values"][metric] for r in runs]
                q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                summary[metric] = {"median": statistics.median(values),
                                   "q1": q[0], "q3": q[-1]}
            entry[key] = summary
        out["workloads"][name] = entry
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
