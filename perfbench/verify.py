"""``verify`` workload: every certification suite, one fresh interpreter per rotation.

A rotation is one child interpreter that imports posetalg, builds the
exhaustive corpus the suites share, and runs ``suites.run_suite(NAME,
SuiteConfig())`` for each of posetalg's suites in order, as ``pal verify``
runs them at its defaults.  A fresh interpreter matters: the
``corpus.all_posets`` cache and each corpus poset's trace cache live as long
as the process, and every ``pal verify`` user pays to fill them.  The set-up
of a rotation is its start-up, the package import and the corpus; the
operations are the suites' certification records, each timed by its suite
(``elapsed_ms``), because a whole suite takes seconds and the host's speed
changes within that.  Rotations run one at a time until the time is up;
a record's latency is the median of its repetitions, each scaled by the
speed marks taken before and after its suite (``common.scales``).  Every rotation must pass all its
cases and report the cases and records of the first.

The suites' inputs are fixed, so the seed changes nothing here: between
``SuiteConfig`` seeds single suites cost up to half again as much (hom-laws
1.5 to 2.2 s), and the order of the suites moves work between records
through the shared caches.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from common import BENCH_DIR, OUT_DIR, end_to_end, run_child, scales
from layers import merge

CHILD = os.path.join(BENCH_DIR, "child.py")


def run_rotation(trace_prefix=None):
    """One rotation in a fresh interpreter; returns (set-up seconds, child report or None)."""
    args = [CHILD]
    if trace_prefix:
        args.append(trace_prefix)
    spawn = time.perf_counter()
    _, proc = run_child(args)
    if proc.returncode != 0:
        return None, None
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, None
    return out["ready"] - spawn, out


def _failures(out, first):
    """Failed suites of one rotation; ``first`` holds each suite's first report."""
    failed = 0
    for name, rep in out["suites"].items():
        ref = first.setdefault(name, rep)
        ok = (
            rep["cases"] > 0
            and rep["failures"] == 0
            and rep["failing_records"] == 0
            and rep["cases"] == ref["cases"]
            and len(rep["records_ms"]) == len(ref["records_ms"])
        )
        failed += not ok
    return failed


def run(program, seed, seconds):
    names = list(program.suites.SUITES)
    raw, scaled = {}, {}  # (suite, index) -> seconds of each repetition
    setups, raw_setups, rss, first = [], [], [], {}
    failures = attempted = rotations = 0
    t_start = time.perf_counter()
    while rotations == 0 or time.perf_counter() - t_start < seconds:
        setup_s, out = run_rotation()
        rotations += 1
        attempted += len(names)
        if out is None or set(out["suites"]) != set(names):
            failures += len(names)
            continue
        failures += _failures(out, first)
        factors = scales(out["marks"])
        raw_setups.append(setup_s)
        setups.append(setup_s * factors[0])
        rss.append(out["rss_mb"])
        for name, factor in zip(out["suites"], factors[1:]):
            for i, ms in enumerate(out["suites"][name]["records_ms"]):
                raw.setdefault((name, i), []).append(ms / 1000)
                scaled.setdefault((name, i), []).append(ms / 1000 * factor)
    if not setups:
        raise RuntimeError("no rotation completed")
    # One sample per certification record: the median of its scaled
    # repetitions.  Records the suites do not time (elapsed 0) are left out.
    timed = [key for key, xs in raw.items() if max(xs) > 0]
    samples = [statistics.median(scaled[key]) for key in timed]
    raw_samples = [statistics.median(raw[key]) for key in timed]
    metrics, detail = end_to_end(setups, samples, raw_setups, raw_samples, max(rss))
    detail.update(
        rotations=rotations,
        setups_s=raw_setups,
        cases={name: rep["cases"] for name, rep in first.items()},
    )
    return attempted, failures, metrics, detail


def run_traced(program, seed, seconds):
    """Alternate untraced and traced rotations until the time is up.

    Returns (attempted, failed, summary, rotations, overhead, coverage, detail);
    the summary sums the traced rotations.  Overhead compares the median
    corpus-and-suites wall time inside the children, which the tracer spans.
    """
    names = list(program.suites.SUITES)
    plain, traced, summaries = [], [], []
    first = {}
    failures = attempted = rotations = 0
    t_start = time.perf_counter()
    while rotations == 0 or time.perf_counter() - t_start < seconds:
        prefix = os.path.join(OUT_DIR, "verify", f"spans-{seed}-{rotations}")
        if os.path.exists(prefix + ".json"):
            os.remove(prefix + ".json")
        for trace in (None, prefix):
            _, out = run_rotation(trace)
            attempted += len(names)
            if out is None or set(out["suites"]) != set(names):
                failures += len(names)
                continue
            failures += _failures(out, first)
            if trace is None:
                plain.append(out["wall_s"])
            elif os.path.exists(prefix + ".json"):
                with open(prefix + ".json", encoding="utf-8") as fh:
                    summaries.append(json.load(fh))
                traced.append(out["wall_s"])
        rotations += 1
    if not plain or not summaries:
        return attempted, failures, None, rotations, 0.0, 0.0, {}
    summary = merge(summaries)
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    covered = sum(sec for _, sec in summary["spans"].values())
    coverage = covered / sum(s["wall_s"] for s in summaries)
    return attempted, failures, summary, len(summaries), overhead, coverage, {}
