"""Child interpreter for the ``verify`` workload: one rotation through every suite.

    python perfbench/child.py [TRACE_PREFIX]

Imports posetalg, builds the exhaustive corpus the suites share, then runs
``suites.run_suite(NAME, SuiteConfig())`` for every suite in
``suites.SUITES`` order, as ``pal verify`` does at its defaults.  Prints one JSON line: the
``time.perf_counter()`` reading once the corpus is built (the clock is
system-wide, so the parent can subtract its spawn time), each suite's wall
time, cases, failures and failing records, the ``elapsed_ms`` of each of
its records (one certification case each), peak memory, and the speed marks
(``common.speed_mark``): one at start-up, one once the corpus is built and
one after each suite.  With a
TRACE_PREFIX the tracer is installed before the corpus is built and no
marks are taken; the tracer's summary is written to TRACE_PREFIX.json and
its spans to TRACE_PREFIX.spans.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import import_program, peak_rss_mb, speed_mark  # noqa: E402


def rotation(prefix=None):
    marks = None if prefix else [speed_mark()]
    program = import_program()
    suites, corpus = program.suites, program.corpus
    config = suites.SuiteConfig()
    tracer = None
    if prefix:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(program)
    t0 = time.perf_counter()
    corpus.corpus_posets(config.max_size)
    ready = time.perf_counter()
    if marks is not None:
        marks.append(speed_mark())
    out = {}
    for name in list(suites.SUITES):
        t1 = time.perf_counter()
        report = suites.run_suite(name, config)
        out[name] = {
            "wall_s": time.perf_counter() - t1,
            "cases": report["cases"],
            "failures": report["failures"],
            "failing_records": sum(1 for rec in report["results"] if rec["verdict"] != "pass"),
            "records_ms": [rec["elapsed_ms"] for rec in report["results"]],
        }
        if marks is not None:
            marks.append(speed_mark())
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
        summary["wall_s"] = wall
        os.makedirs(os.path.dirname(os.path.abspath(prefix)), exist_ok=True)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        tracer.write(prefix + ".spans")
    print(json.dumps({
        "ready": ready,
        "wall_s": wall,
        "suites": out,
        "rss_mb": peak_rss_mb(),
        "marks": marks or [],
    }))


if __name__ == "__main__":
    rotation(sys.argv[1] if len(sys.argv) > 1 else None)
