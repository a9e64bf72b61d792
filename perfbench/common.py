"""Shared helpers: locating the program, percentiles, memory, environment."""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec():
    """``BENCHMARK.json``: the workloads and every metric's name, unit and direction."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class MissingProgram(Exception):
    """The checkout has no posetalg sources to measure."""


def import_program():
    """Import posetalg from ``src/`` of the checkout, and nowhere else."""
    init = os.path.join(SRC, "posetalg", "__init__.py")
    if not os.path.isfile(init):
        raise MissingProgram(f"no posetalg sources at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import posetalg

    if os.path.dirname(os.path.abspath(posetalg.__file__)) != os.path.dirname(init):
        raise MissingProgram(f"posetalg imported from {posetalg.__file__}, not {SRC}")
    return posetalg


def child_env():
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(args, timeout=170):
    """Run a child interpreter to completion; returns (seconds, CompletedProcess)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return time.perf_counter() - t0, proc


def tail_percentile(values, min_beyond=10):
    """Highest percentile with at least ``min_beyond`` samples above it.

    Returns (value, percentile, n).  With fewer than ``min_beyond + 1``
    samples no such percentile exists and the maximum is returned, with the
    percentile reported as 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= min_beyond:
        return xs[-1], 100.0, n
    k = n - 1 - min_beyond  # index of the value with min_beyond samples above it
    return xs[k], round(100.0 * (k + 1) / n, 3), n


# -- host speed -------------------------------------------------------------------------
#
# On a shared host the speed of the same code swings by half over seconds
# and drifts by a quarter over minutes, in spells longer than a run.  The
# workloads' interpreter loops and a fixed pure-Python loop slow down
# together, so every run times that loop at marks between its operations (a
# mark is the fastest of MARK_REPEATS runs of the loop) and scales each
# operation's latency by REFERENCE_S over the mean of the marks just before
# and after it.  A latency then reads as on a host where the loop takes
# REFERENCE_S, and an operation's sample is the median of its scaled
# repetitions; set-ups are scaled and reduced alike.  On a two-vCPU Xeon
# guest, over groups of four verify rotations, this kept p50, throughput and
# tail within 4-8% of each other, where the fastest unscaled repetition
# moved by 7-38%.

REFERENCE_S = 0.0005
MARK_REPEATS = 3
_REFERENCE_RNG = random.Random(5)
_REFERENCE_MASKS = tuple(_REFERENCE_RNG.getrandbits(64) for _ in range(48))


def reference_loop():
    """Fixed work, independent of the program: dict updates, big-int bit operations,
    a set and a sort."""
    counts = {}
    for i in range(1500):
        counts[i & 511] = counts.get(i & 511, 0) + i
    seen = set()
    masks = _REFERENCE_MASKS
    for a in masks:
        for b in masks[:16]:
            seen.add(((a & b) | (a ^ (b >> 3))) & 0xFFFFF)
    return len(counts) + sum(x.bit_count() for x in sorted(seen))


def speed_mark():
    """The reference loop's fastest time of MARK_REPEATS runs, in seconds."""
    perf = time.perf_counter
    best = float("inf")
    for _ in range(MARK_REPEATS):
        t0 = perf()
        reference_loop()
        best = min(best, perf() - t0)
    return best


def scales(marks):
    """Scale factor for the operations between each pair of consecutive marks."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(marks, marks[1:])]


def end_to_end(setups, samples, raw_setups, raw_samples, peak_mb):
    """End-to-end metrics from scaled set-up times and one scaled latency
    sample per distinct operation, in seconds; ``setup_s`` is the median set-up.

    Returns (metrics, detail); the detail holds the same figures from the
    unscaled times and the tail's percentile and sample count.
    """

    def timings(setups, xs):
        tail, pct, n = tail_percentile(xs)
        return {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(xs) / sum(xs),
            "p50_ms": statistics.median(xs) * 1000,
            "tail_ms": tail * 1000,
        }, pct, n

    scaled, pct, n = timings(setups, samples)
    units = {"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    detail = {
        "unscaled": timings(raw_setups, raw_samples)[0],
        "tail_percentile": pct,
        "tail_samples": n,
    }
    return metrics, detail


def peak_rss_mb():
    """Peak resident set size of this process in MB (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "click": _version("click"),
        "git_sha": _git_sha(),
        "seed": seed,
    }
