"""Per-layer tracing by wrapping posetalg's public functions from outside.

Nothing under ``src/`` changes: ``Tracer.install`` replaces module and class
attributes with timing wrappers and ``Tracer.uninstall`` puts the originals
back.  Each wrapped call records a span (id, parent id, request id, name,
start, end); a span's self time is its duration minus the time its child
spans cover.  Spans are kept in flat arrays in memory and written out once,
at the end.  Functions called once per trace or per pair get
count-only probes, because a span there would cost more than the call.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import time
from array import array
from collections import defaultdict

MODULES = ("poset", "algebra", "exprs", "stone", "lattice", "morphisms", "wqo", "corpus")

# (module, class, method) wrapped as spans in addition to module functions
METHODS = (
    ("poset", "Poset", "upsets_of"),
    ("stone", "StoneSpace", "__init__"),
    ("morphisms", "Hom", "apply"),
    ("morphisms", "Hom", "apply_via_atoms"),
    ("morphisms", "Hom", "atom_image"),
    ("morphisms", "EMap", "apply"),
)

# tiny functions called per trace, per pair or per bit: counted, not timed
COUNT_ONLY = {
    "poset.popcount",
    "algebra.zero",
    "algebra.one",
    "algebra.complement",
    "algebra.is_zero",
    "algebra.is_one",
    "algebra.is_zero_syntactic",
    "algebra.product_elem",
    "algebra.from_clopen",
    "stone.elem_from_clopen",
    "lattice.pi_leq_masks",
    "lattice.canonical_sigma",
}

FLUSH_EVERY = 1 << 16

COMBINE_BUCKETS = ((256, "small"), (4096, "mid"), (float("inf"), "large"))

def _combine_label(result):
    """Span name of a meet or join, by the number of traces it produced."""
    traces = len(result.traces)
    return "algebra.combine." + next(label for limit, label in COMBINE_BUCKETS if traces <= limit)


def _popcount(mask):
    return bin(mask).count("1")


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.enabled = True
        self.request = -1
        self.names = []
        self._name_ids = {}
        self._stack = []  # ids of the open spans
        self._ids = itertools.count()
        # finished spans: recent ones as tuples, older ones packed in arrays
        self._buf = []
        self._ints = array("q")  # id, parent, request, name
        self._times = array("d")  # start, end
        self._counters = {}  # count-only probes
        self.counts = defaultdict(int)
        self._undo = []
        self._upsets_seen = set()

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span_wrapper(self, name, fn, label=None, on_result=None):
        tracer = self
        perf = time.perf_counter
        stack = self._stack
        buf = self._buf
        record = buf.append
        ids = self._ids
        base_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            nid = base_id
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                if label is not None:
                    nid = tracer._name_id(label(result))
            finally:
                t1 = perf()
                stack.pop()
                record((sid, parent, tracer.request, nid, t0, t1))
                if len(buf) >= FLUSH_EVERY:
                    tracer._flush()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _flush(self):
        chain = itertools.chain.from_iterable
        self._ints.extend(chain(row[:4] for row in self._buf))
        self._times.extend(chain(row[4:] for row in self._buf))
        self._buf.clear()

    def _count_wrapper(self, name, fn):
        cell = self._counters.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def columns(self):
        """Spans as columns: id, parent, request, name, start, end, self_s.

        Self time is the span's duration minus the durations of the spans
        whose parent it is.
        """
        self._flush()
        sid, parent, req, name = (self._ints[k::4] for k in range(4))
        start, end = self._times[0::2], self._times[1::2]
        child = defaultdict(float)
        for p, t0, t1 in zip(parent, start, end):
            if p >= 0:
                child[p] += t1 - t0
        self_s = array("d", (t1 - t0 - child.get(i, 0.0) for i, t0, t1 in zip(sid, start, end)))
        return sid, parent, req, name, start, end, self_s

    # -- hooks for derived counters ------------------------------------------------

    def _on_upsets(self, args, result):
        # keyed by the order itself: ids of freed posets get reused
        poset, support = args[0], args[1]
        key = (poset.up, support & poset.full)
        if key in self._upsets_seen:
            self.counts["poset.upsets_of.repeats"] += 1
        else:
            self._upsets_seen.add(key)
            self.counts["poset.upsets_of.sets_made"] += len(result)

    def _on_combine(self, args, result):
        self.counts["algebra.combine.traces_out"] += len(result.traces)

    def _on_support_reduce(self, args, result):
        self.counts["algebra.support_reduce.bits_dropped"] += _popcount(
            args[0].support
        ) - _popcount(result.support)

    def _on_max_antichain(self, args, result):
        self.counts["lattice.max_antichain.exact"] += bool(result[1])

    # -- install / uninstall ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def install(self, program):
        """Wrap the public functions of every module, plus the listed methods."""
        special = {
            "algebra.meet": {"label": _combine_label, "on_result": self._on_combine},
            "algebra.join": {"label": _combine_label, "on_result": self._on_combine},
            "algebra.support_reduce": {"on_result": self._on_support_reduce},
            "lattice.max_antichain": {"on_result": self._on_max_antichain},
            "poset.Poset.upsets_of": {"on_result": self._on_upsets},
        }
        for modname in MODULES:
            mod = getattr(program, modname)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue  # imported from another module
                if inspect.isgeneratorfunction(fn):
                    continue  # a span would end before the work starts
                name = f"{modname}.{attr}"
                if name in COUNT_ONLY:
                    self._patch(mod, attr, self._count_wrapper(name, fn))
                else:
                    self._patch(mod, attr, self._span_wrapper(name, fn, **special.get(name, {})))
        for modname, clsname, meth in METHODS:
            cls = getattr(getattr(program, modname), clsname)
            name = f"{modname}.{clsname}" if meth == "__init__" else f"{modname}.{clsname}.{meth}"
            wrapped = self._span_wrapper(name, cls.__dict__[meth], **special.get(name, {}))
            self._patch(cls, meth, wrapped)
        suites = program.suites
        for suite, fn in list(suites.SUITES.items()):
            suites.SUITES[suite] = self._span_wrapper(f"suites.{suite}", fn)
            self._undo.append((suites.SUITES, suite, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # for workloads: checks and input building stay out of the spans

    def pause(self):
        self.enabled = False

    def resume(self):
        self.enabled = True

    def new_pass(self):
        """Forget which (poset, support) pairs were seen: the pool is rebuilt."""
        self._upsets_seen.clear()

    # -- output ------------------------------------------------------------------------

    def summary(self, requests_only=False):
        """JSON-ready aggregate: per span name [calls, self seconds], the
        inclusive seconds of each suite, the counters and the span count.

        ``requests_only`` keeps only spans with a request id (the workload's
        measured operations) in the span totals.
        """
        totals = defaultdict(lambda: [0, 0.0])
        suites = defaultdict(float)
        names = self.names
        _, _, req, name, start, end, self_s = self.columns()
        for nid, r, t0, t1, sec in zip(name, req, start, end, self_s):
            label = names[nid]
            if label.startswith("suites."):
                suites[label] += t1 - t0
            if requests_only and r < 0:
                continue
            row = totals[label]
            row[0] += 1
            row[1] += sec
        counts = dict(self.counts)
        counts.update({label: cell[0] for label, cell in self._counters.items()})
        return {
            "spans": dict(totals),
            "suites": dict(suites),
            "counts": counts,
            "span_count": len(name),
        }

    def write(self, path):
        """Write every span: a JSON header line, then packed columns.

        The header names the columns; each follows as raw native-endian
        int64 (id, parent, request, name) or float64 (start, end) values.
        """
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        sid, parent, req, name, start, end, _ = self.columns()
        header = {
            "names": self.names,
            "spans": len(sid),
            "columns": [["id", "q"], ["parent", "q"], ["request", "q"], ["name", "q"],
                        ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (sid, parent, req, name, start, end):
                col.tofile(fh)
