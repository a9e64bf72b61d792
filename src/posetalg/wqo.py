"""Finite-depth analytics for well/better quasi-order notions.

Barriers are approximated by uniform fronts: all k-subsets of an initial
interval of the naturals, with s preceding t when s minus its minimum is an
initial segment of t.  Labelings of a front into a poset are classified as
bad (no related pair ascends) or perfect (every related pair ascends).
"""

from __future__ import annotations

from itertools import combinations

from .errors import BadArity, ParseError, UnknownElement
from .poset import _is_name, build_poset, parse_json_dict, rado_prefix


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


def _int_field(data, key):
    value = data.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{key!r} must be an integer, got {value!r}")
    return value


def labeling_from_json(data):
    """Ingest {"k":…, "N":…, "labels": {"0,1": "(0,1)", …}} or the shorthand
    {"generator": "rado-identity", "N": …}.

    The labels name elements of the Rado prefix on N, or of an optional
    ``"poset"`` object in the shape of ``poset.parse_json_dict``.  A label is
    read as a name, as ``build_poset`` reads the elements, so the label 1 is
    the element '1'.  A malformed poset, a ``"labels"`` value that is not an
    object, a key that is not comma-separated integers or a label that is not
    a string or integer raises ParseError, as do a document that is not an
    object and a missing or non-integer ``"k"`` or ``"N"``.  Fewer labels than
    the front has blocks raise UnknownElement before any block is listed."""
    if not isinstance(data, dict):
        raise ParseError("a labeling must be a JSON object")
    if data.get("generator") == "rado-identity":
        return rado_identity_labeling(_int_field(data, "N"))
    horizon = _int_field(data, "N")
    k = _int_field(data, "k")
    labels = data.get("labels")
    if not isinstance(labels, dict):
        raise ParseError("'labels' must be an object of block -> element name")
    # C(N, k) by its running products, stopped once it passes the label count
    blocks = int(1 <= k <= horizon)
    for i in range(min(k, horizon - k)):
        if blocks > len(labels):
            break
        blocks = blocks * (horizon - i) // (i + 1)
    if blocks > len(labels):
        raise UnknownElement(f"fewer labels than the C({horizon}, {k}) blocks of the front")
    poset = build_poset(*parse_json_dict(data["poset"])) if "poset" in data else rado_prefix(horizon)
    fr = Front(k, horizon)
    label = {}
    for key, value in labels.items():
        try:
            block = tuple(int(x) for x in key.split(","))
        except ValueError:
            raise ParseError(f"label key {key!r} is not comma-separated integers") from None
        if not _is_name(value):
            raise ParseError(f"label {value!r} is not a string or integer name")
        label[block] = str(value)
    return ArrayLabeling(fr, poset, label)
