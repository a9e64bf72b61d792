"""Finite-depth analytics for well/better quasi-order notions.

Barriers are approximated by uniform fronts: all k-subsets of an initial
interval of the naturals, with s preceding t when s minus its minimum is an
initial segment of t.  Labelings of a front into a poset are classified as
bad (no related pair ascends) or perfect (every related pair ascends).
"""

from __future__ import annotations

from itertools import combinations

from .errors import BadArity, UnknownElement
from .poset import rado_prefix


class Front:
    """All k-subsets of {0..horizon-1} as sorted tuples."""

    __slots__ = ("k", "horizon", "blocks")

    def __init__(self, k, horizon):
        if k < 1 or k > horizon:
            raise BadArity(f"need 1 <= k <= horizon, got k={k}, horizon={horizon}")
        self.k = k
        self.horizon = horizon
        self.blocks = [tuple(c) for c in combinations(range(horizon), k)]

    def precedes(self, s, t):
        """s precedes t: s minus min(s) is an initial segment of t.

        For arity 1 this is oriented by magnitude: {i} precedes {j} iff i < j.
        """
        if self.k == 1:
            return s[0] < t[0]
        return s[1:] == t[: self.k - 1]

    def related_pairs(self):
        for s in self.blocks:
            for t in self.blocks:
                if self.precedes(s, t):
                    yield s, t


class ArrayLabeling:
    """A labeling of a front's blocks by poset elements."""

    __slots__ = ("front", "poset", "label")

    def __init__(self, fr, poset, label):
        missing = [b for b in fr.blocks if b not in label]
        if missing:
            raise UnknownElement(f"labeling misses block {missing[0]}")
        self.front = fr
        self.poset = poset
        self.label = {b: poset.id(v) for b, v in label.items()}


def rado_identity_labeling(horizon):
    """The standard witness: blocks {i,j} of the pair front labeled by the
    matching element (i,j) of the Rado prefix."""
    poset = rado_prefix(horizon)
    fr = Front(2, horizon)
    label = {(i, j): f"({i},{j})" for i, j in fr.blocks}
    return ArrayLabeling(fr, poset, label)


def classify_array(arr):
    """Verdict 'bad' / 'perfect' / 'mixed' with witnessing pairs.

    bad: no preceding pair ascends; perfect: all do; mixed carries one
    witness of each kind.
    """
    if not isinstance(arr, ArrayLabeling):
        raise TypeError(f"expected an ArrayLabeling, got {type(arr).__name__}")
    poset = arr.poset
    good_witness = None
    bad_witness = None
    for s, t in arr.front.related_pairs():
        if poset.up[arr.label[s]] >> arr.label[t] & 1:
            good_witness = good_witness or (s, t)
        else:
            bad_witness = bad_witness or (s, t)
        if good_witness and bad_witness:
            break
    if good_witness is None and bad_witness is None:
        # no related pairs at all: every condition holds vacuously
        return {"verdict": "perfect", "witnesses": {}}
    if good_witness is None:
        return {"verdict": "bad", "witnesses": {"bad": bad_witness}}
    if bad_witness is None:
        return {"verdict": "perfect", "witnesses": {"good": good_witness}}
    return {
        "verdict": "mixed",
        "witnesses": {"good": good_witness, "bad": bad_witness},
    }
