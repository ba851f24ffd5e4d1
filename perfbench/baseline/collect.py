"""Record a baseline: sets of runs per workload plus one traced run each.

    python3 perfbench/baseline/collect.py OUT.json [--sets 101,201] [--runs 10] [--seconds 10]

Run it from the repository root on a quiet machine, with nothing else
running.  Each set is `--runs` runs per workload with consecutive seeds
from its start seed, one at a time, workload after workload in the
order of BENCHMARK.json; then one traced run per workload with the
first seed.  For every
end-to-end metric the output holds all values, their median, first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, and a Markdown table of the medians and spreads is
printed, then one of the traced run's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def summarize(results: list[dict], infos: list[dict]) -> dict:
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "passes": [i["passes"] for i in infos],
        "op_samples": [i["op_samples"] for i in infos],
        "yardstick_s": [i["yardstick_s"] for i in infos],
        "raw_run_s": [i["raw_run_s"] for i in infos],
        "end_to_end": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out")
    p.add_argument("--sets", default="101,201", help="start seed of each set")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=10)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    starts = [int(s) for s in args.sets.split(",")]
    out = {"command": "python3 perfbench/run.py --workload W --seed S --seconds %d --trace 0|1" % args.seconds,
           "sets": starts, "runs": args.runs, "workloads": {}}
    for w in workloads:
        out["workloads"][w] = {"sets": []}
    for start in starts:
        for w in workloads:
            entry = out["workloads"][w]
            infos, results = [], []
            for seed in range(start, start + args.runs):
                info, result = run(w, seed, args.seconds, 0)
                infos.append(info)
                results.append(result)
                print(w, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}), flush=True)
            entry["sets"].append(summarize(results, infos))
            entry["settings"] = {k: infos[0][k] for k in ("python", "numpy", "blas", "blas_threads", "nproc", "git_sha")}
            with open(args.out, "w") as fh:
                json.dump(out, fh, indent=1)
    for w in workloads:
        entry = out["workloads"][w]
        info, traced = run(w, starts[0], args.seconds, 1)
        entry["traced_seed"] = starts[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)

    names = list(out["workloads"][workloads[0]]["sets"][0]["end_to_end"])
    print("| metric | " + " | ".join(workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    for name in names:
        cells = []
        for w in workloads:
            sets = out["workloads"][w]["sets"]
            cells.append(" / ".join(f"{s['end_to_end'][name]['median']:.4g} ({100 * s['end_to_end'][name]['spread']:.1f}%)"
                                    for s in sets))
        print(f"| `{name}` | " + " | ".join(cells) + " |")
    print()
    print("| metric | " + " | ".join(workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    for name in out["workloads"][workloads[0]]["per_layer"]:
        print(f"| `{name}` | " + " | ".join(f"{out['workloads'][w]['per_layer'][name]:.4g}" for w in workloads) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
