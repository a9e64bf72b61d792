"""The per-layer metrics: how a trace summary yields those ``BENCHMARK.json`` declares.

Every traced run reports all of them, each per unit of work of its workload
(one pass over the query set for ``decide``, one rotation: the corpus and every
suite for ``verify``).  A layer the workload bypasses reads
zero, which is the prediction for an optimisation of that layer.
"""

from __future__ import annotations

from common import load_spec
from tracer import COMBINE_BUCKETS, MODULES

BUCKETS = [label for _, label in COMBINE_BUCKETS]
SPAN_LAYERS = MODULES + ("suites",)

# span names whose calls and self time feed a metric of another name
SELF_TIME = {
    "poset.upsets_of.self_s": "poset.Poset.upsets_of",
    "algebra.equals.self_s": "algebra.equals",
    "algebra.support_reduce.self_s": "algebra.support_reduce",
    "exprs.parse.self_s": "exprs.parse",
    "exprs.to_elem.self_s": "exprs.to_elem",
    "stone.StoneSpace.self_s": "stone.StoneSpace",
    "stone.check_binary_subbase.self_s": "stone.check_binary_subbase",
    "stone.denote_elem.self_s": "stone.denote_elem",
    "lattice.max_antichain.self_s": "lattice.max_antichain",
    "lattice.enumerate_l.self_s": "lattice.enumerate_l",
    "lattice.lattice_closure.self_s": "lattice.lattice_closure",
    "morphisms.Hom.apply.self_s": "morphisms.Hom.apply",
    "morphisms.Hom.apply_via_atoms.self_s": "morphisms.Hom.apply_via_atoms",
    "wqo.classify_array.self_s": "wqo.classify_array",
    "corpus.all_posets.self_s": "corpus.all_posets",
}
CALLS = {
    "poset.upsets_of.calls": "poset.Poset.upsets_of",
    "algebra.support_reduce.calls": "algebra.support_reduce",
    "algebra.canonical_key.calls": "algebra.canonical_key",
}


def layer_metrics(summary, units, cli_ms, overhead, coverage, suite_names):
    """Per-layer metric values from a trace summary covering ``units`` units of work.

    ``summary`` is ``Tracer.summary()`` (or a sum of several); ``cli_ms`` maps
    the four ``cli.*`` probe names to milliseconds; ``suite_names`` are the
    keys of posetalg's ``suites.SUITES``.  Returns {name: (value, unit)} for
    every per-layer metric of ``BENCHMARK.json``.
    """
    spans, counts = summary["spans"], summary["counts"]

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0))[1]

    def count(name):
        return counts.get(name, 0)

    values = {}
    upsets = calls("poset.Poset.upsets_of")
    values["poset.upsets_of.repeat_ratio"] = (
        count("poset.upsets_of.repeats") / upsets if upsets else 0.0
    )
    values["poset.upsets_of.sets_made"] = count("poset.upsets_of.sets_made") / units
    for b in BUCKETS:
        values[f"algebra.combine.calls.{b}"] = calls(f"algebra.combine.{b}") / units
        values[f"algebra.combine.self_s.{b}"] = self_s(f"algebra.combine.{b}") / units
    values["algebra.combine.traces_out"] = count("algebra.combine.traces_out") / units
    values["algebra.support_reduce.bits_dropped"] = (
        count("algebra.support_reduce.bits_dropped") / units
    )
    antichains = calls("lattice.max_antichain")
    values["lattice.max_antichain.exact_ratio"] = (
        count("lattice.max_antichain.exact") / antichains if antichains else 0.0
    )
    values["lattice.pi_leq_masks.calls"] = count("lattice.pi_leq_masks") / units
    for metric, span in SELF_TIME.items():
        values[metric] = self_s(span) / units
    for metric, span in CALLS.items():
        values[metric] = calls(span) / units
    for name in suite_names:
        values[f"suites.{name}.s"] = summary["suites"].get(f"suites.{name}", 0.0) / units
    values.update(cli_ms)
    for mod in SPAN_LAYERS:
        prefix = mod + "."
        values[f"layer.{mod}.self_s"] = (
            sum(sec for name, (_, sec) in spans.items() if name.startswith(prefix)) / units
        )
    values["trace.overhead_ratio"] = overhead
    values["trace.coverage"] = coverage
    values["trace.spans"] = summary["span_count"] / units
    return {m["name"]: (values[m["name"]], m["unit"]) for m in load_spec()["per_layer"]}


def merge(summaries):
    """Sum several trace summaries (e.g. one per traced child)."""
    out = {"spans": {}, "counts": {}, "suites": {}, "span_count": 0}
    for s in summaries:
        for name, (c, sec) in s["spans"].items():
            row = out["spans"].setdefault(name, [0, 0.0])
            row[0] += c
            row[1] += sec
        for name, c in s["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + c
        for name, sec in s["suites"].items():
            out["suites"][name] = out["suites"].get(name, 0.0) + sec
        out["span_count"] += s["span_count"]
    return out
