"""Run every workload on several seeds and write a citable report.

    python3 perfbench/baseline.py LABEL [--seeds 1-10]

For each workload: one untraced run per seed, then one traced run on the
first seed.  Writes ``perfbench/reports/BENCH_<LABEL>.json`` with, per
end-to-end metric, every value, the median, the quartiles and the spread
(distance between the quartiles over the median, which is what the
benchmark's bounds are checked against), plus the per-layer metrics of the
traced run and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BENCH_DIR, OUT_DIR, ROOT, environment, load_spec  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(spec, workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(OUT_DIR, f"report-{workload}-trace{trace}-seed{seed}.json")
    with open(path, encoding="utf-8") as fh:
        return result, json.load(fh)["detail"]


def _stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--seeds", default="1-10", type=_seeds)
    args = parser.parse_args()
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"label": args.label, "run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "environment": environment(None), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            result, detail = _run(spec, workload, seed, 0)
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": result["metrics"],
                         "detail": detail})
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        metrics = {}
        for name in bounds:
            stats = _stats([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            stats["bound"] = bounds[name]
            metrics[name] = stats
            print(f"  {name}: median {stats['median']:.4f} spread {stats['spread']:.3f}"
                  f" (bound {bounds[name]})", flush=True)
        traced, traced_detail = _run(spec, workload, args.seeds[0], 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        report["workloads"][workload] = {
            "end_to_end": metrics,
            "attempted": attempted,
            "failed": failed,
            "failed_ratio": failed / attempted,
            "runs": runs,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_units": {k: v["unit"] for k, v in traced["metrics"].items()},
            "traced_detail": traced_detail,
        }
    os.makedirs(os.path.join(BENCH_DIR, "reports"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "reports", f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("wrote", os.path.relpath(path, ROOT))


if __name__ == "__main__":
    main()
