"""posetalg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {decide,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of a traced run, with the
traced-versus-untraced overhead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it, and ``.bench_out/report-*.json``, hold the
full report with the environment it ran in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import decide  # noqa: E402
import verify  # noqa: E402
from layers import layer_metrics  # noqa: E402

WORKLOADS = ("decide", "verify")
CLI_PROBES = {
    "cli.floor_ms": "pass",
    "cli.numpy_import_ms": "import numpy",
    "cli.click_import_ms": "import click",
    "cli.import_ms": "import posetalg",
}
CLI_PROBE_REPEATS = 5


def cli_probes():
    """Median milliseconds of ``python -c <code>`` for each start-up probe."""
    out = {}
    for name, code in CLI_PROBES.items():
        walls = []
        for _ in range(CLI_PROBE_REPEATS):
            wall, proc = common.run_child(["-c", code])
            if proc.returncode != 0:
                raise RuntimeError(f"probe {code!r} failed: {proc.stderr.strip()}")
            walls.append(wall * 1000)
        out[name] = statistics.median(walls)
    return out


# -- traced runs -----------------------------------------------------------------------


def traced_decide(program, seed, seconds):
    """Alternate untraced and traced passes; each traced pass re-runs the set-up too."""
    from tracer import Tracer

    queries, oracles = decide.setup(program, seed)
    _, reference, failures = decide.run_pass(program, queries, oracles)
    attempted = len(queries)
    tracer = Tracer()
    plain, traced = [], []
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < seconds:
        lats, _, fail = decide.run_pass(program, queries, reference=reference)
        plain.append(sum(x for x in lats if x is not None))
        tracer.install(program)
        decide.setup(program, seed)
        lats, _, fail2 = decide.run_pass(program, queries, reference=reference, tracer=tracer)
        tracer.uninstall()
        traced.append(sum(x for x in lats if x is not None))
        failures += fail + fail2
        attempted += 2 * len(queries)
    # query spans carry their query index as request id; set-up spans carry -1
    covered = sum(sec for _, sec in tracer.summary(requests_only=True)["spans"].values())
    summary = tracer.summary()
    tracer.write(os.path.join(common.OUT_DIR, f"spans-decide-{seed}.bin"))
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    return attempted, failures, summary, len(traced), overhead, covered / sum(traced), {}


TRACED = {"decide": traced_decide, "verify": verify.run_traced}
UNTRACED = {"decide": decide.run, "verify": verify.run}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        program = common.import_program()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = common.environment(args.seed)
    if args.trace:
        attempted, failed, summary, units, overhead, coverage, detail = TRACED[args.workload](
            program, args.seed, args.seconds
        )
        if summary is None:
            print("error: traced run produced no trace", file=sys.stderr)
            return 1
        metrics = layer_metrics(
            summary, units, cli_probes(), overhead, coverage, list(program.suites.SUITES)
        )
        detail.update(units=units, spans=summary["spans"], counts=summary["counts"])
    else:
        attempted, failed, metrics, detail = UNTRACED[args.workload](
            program, args.seed, args.seconds
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "failed_ratio": failed / attempted,
        "detail": detail,
        "result": result,
    }
    os.makedirs(common.OUT_DIR, exist_ok=True)
    path = os.path.join(
        common.OUT_DIR, f"report-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({k: v for k, v in report.items() if k not in ("result", "detail")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
