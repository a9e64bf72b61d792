"""Smoke check of the benchmark at reduced size (about a minute).

    python3 perfbench/smoke.py

Runs every workload untraced and traced with fewer queries and calls and a
short measuring window, and asserts that each run prints exactly the result
keys, every metric ``BENCHMARK.json`` declares with its unit, and no failed
operation.  It also checks that the benchmark refuses to run, without
printing a result, in a directory that holds only the benchmark.  It lives
outside ``tests/`` so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import decide  # noqa: E402
import run  # noqa: E402

def _result(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                         "--trace", str(trace)])
    assert code == 0, f"{workload} trace={trace} exited {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _check(spec, workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared, set(got) ^ set(declared)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, f"{workload}: {name} is {m['value']}"
    print(f"ok {workload} trace={trace}: attempted {result['attempted']}", flush=True)


def _check_refuses_without_program():
    """In a directory with only BENCHMARK.json and the benchmark, exit nonzero, print no result."""
    with tempfile.TemporaryDirectory(dir=common.ROOT, prefix=".bench_out-bare-") as bare:
        shutil.copy(common.SPEC_PATH, bare)
        shutil.copytree(common.BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0, proc.returncode
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok refuses to run without the program", flush=True)


def main():
    spec = common.load_spec()
    decide.QUERIES = 200
    run.CLI_PROBE_REPEATS = 1
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            _check(spec, workload, trace)
    _check_refuses_without_program()


if __name__ == "__main__":
    main()
