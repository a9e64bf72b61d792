"""Finite posets as bitmask relation matrices, plus the standard constructions.

Elements are dense ids 0..n-1 with unique display names.  Subsets of a poset
are plain Python ints used as bitmasks; ``up[i]`` is the bitmask row
``{j : i <= j}`` of the reflexive-transitive closure.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

from .errors import (
    CycleError,
    DuplicateName,
    EnumerationOverflow,
    NotAnOrder,
    ParseError,
    SizeLimit,
    UnknownElement,
)

DEFAULT_MAX_ELEMENTS = 128
DEFAULT_MAX_SEGMENTS = 1 << 20


def iter_bits(mask):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask):
    return mask.bit_count()


def _split_columns(up, down, support, memo):
    """(count, cols) of ``Poset.columns``, memoised on the sub-support.

    With h the top id of U, the sorted up-sets of U are those of U - down(h)
    followed by those of U - up(h), each joined with U & up(h).  ``memo``
    starts as ``{0: (1, {})}``: the empty support has the empty up-set.
    """
    h = support.bit_length() - 1
    sub = support & ~down[h]
    lo_count, lo = memo.get(sub) or _split_columns(up, down, sub, memo)
    sub = support & ~up[h]
    hi_count, hi = memo.get(sub) or _split_columns(up, down, sub, memo)
    # below or beside h: the column of U - up(h) above that of U - down(h)
    cols = {p: lo.get(p, 0) | col << lo_count for p, col in hi.items()}
    # h and above: in every up-set of the second block
    ones = ((1 << hi_count) - 1) << lo_count
    cols[h] = ones
    for p in iter_bits(up[h] & support & ~(1 << h)):
        cols[p] = lo[p] | ones
    got = memo[support] = (lo_count + hi_count, cols)
    return got


class Poset:
    """Immutable finite poset.

    ``up[i]`` and ``down[i]`` are reflexive up-set / down-set rows.  All
    derived structure is cached; instances are safe to share between threads.
    """

    __slots__ = (
        "names", "up", "down", "full", "_ids", "_topo", "_upset_cache", "_column_cache"
    )

    def __init__(self, names, up_rows):
        n = len(names)
        self.names = tuple(names)
        self.up = tuple(up_rows)
        self.full = (1 << n) - 1
        down = [0] * n
        for i in range(n):
            row = self.up[i]
            if not row >> i & 1:
                raise NotAnOrder(f"relation not reflexive at {self.names[i]!r}")
            for j in iter_bits(row):
                if self.up[j] | row != row:
                    raise NotAnOrder(
                        f"relation not transitive at {self.names[i]!r} <= {self.names[j]!r}"
                    )
                if i != j and self.up[j] >> i & 1:
                    raise CycleError(self.names[i], self.names[j])
                down[j] |= 1 << i
        self.down = tuple(down)
        self._ids = {name: i for i, name in enumerate(self.names)}
        if len(self._ids) != n:
            raise DuplicateName("duplicate element names")
        # linear extension: strictly smaller down-sets come first
        self._topo = sorted(range(n), key=lambda i: (popcount(self.down[i]), i))
        self._upset_cache = {}
        self._column_cache = {}

    @property
    def n(self):
        return len(self.names)

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return f"Poset({list(self.names)!r}, pairs={len(self.cover_pairs())})"

    # -- element resolution ------------------------------------------------

    def id(self, p):
        """Resolve a name or id to an element id."""
        if isinstance(p, int) and not isinstance(p, bool):
            if 0 <= p < self.n:
                return p
            raise UnknownElement(f"element id {p} out of range")
        try:
            return self._ids[p]
        except KeyError:
            raise UnknownElement(f"unknown element {p!r}") from None

    def mask(self, elems):
        """Bitmask of an iterable of names/ids."""
        m = 0
        for p in elems:
            m |= 1 << self.id(p)
        return m

    def names_of(self, mask):
        return [self.names[i] for i in iter_bits(mask)]

    # -- order queries -----------------------------------------------------

    def leq(self, p, q):
        return bool(self.up[self.id(p)] >> self.id(q) & 1)

    def incomparable(self, p, q):
        i, j = self.id(p), self.id(q)
        return not (self.up[i] >> j & 1) and not (self.up[j] >> i & 1)

    def upset(self, elems):
        """Final segment generated by a set of elements (mask or iterable)."""
        m = elems if isinstance(elems, int) else self.mask(elems)
        out = 0
        for i in iter_bits(m):
            out |= self.up[i]
        return out

    def minimals(self, sub=None):
        """Minimal members of a subset (default: of the whole poset)."""
        m = self.full if sub is None else (sub if isinstance(sub, int) else self.mask(sub))
        out = 0
        for i in iter_bits(m):
            if self.down[i] & m == 1 << i:
                out |= 1 << i
        return out

    def maximals(self, sub=None):
        m = self.full if sub is None else (sub if isinstance(sub, int) else self.mask(sub))
        out = 0
        for i in iter_bits(m):
            if self.up[i] & m == 1 << i:
                out |= 1 << i
        return out

    def is_antichain(self, mask):
        for i in iter_bits(mask):
            if self.up[i] & mask != 1 << i:
                return False
        return True

    def is_up_closed(self, mask):
        return self.upset(mask) == mask

    def linear_extension(self):
        return list(self._topo)

    # -- segment enumeration -------------------------------------------------

    def upsets_of(self, support, max_count=DEFAULT_MAX_SEGMENTS):
        """All up-closed subsets of the subposet induced on ``support``.

        Returned sorted ascending as bitmasks over P; cached per support.
        Elements are added maximal-first so partial families stay up-closed.
        """
        support &= self.full
        cached = self._upset_cache.get(support)
        if cached is not None:
            return cached
        order = [i for i in self._topo if support >> i & 1]
        sets = [0]
        scope = 0
        for e in reversed(order):
            need = self.up[e] & scope
            bit = 1 << e
            sets.extend([u | bit for u in sets if u & need == need])
            scope |= bit
            if len(sets) > max_count:
                raise EnumerationOverflow(
                    f"more than {max_count} up-sets on {popcount(support)} elements"
                )
        sets.sort()
        result = tuple(sets)
        self._upset_cache[support] = result
        return result

    def columns(self, support):
        """(count, cols): the up-sets of ``support`` as bit columns.

        ``count`` is ``len(upsets_of(support))`` and, for each element p of
        the support, bit k of ``cols[p]`` is set iff p is in the k-th up-set
        of ``upsets_of(support)``.  No up-set is listed; callers that need a
        size check call ``upsets_of`` first.  Cached per support.
        """
        support &= self.full
        cached = self._column_cache.get(support)
        if cached is None:
            memo = {0: (1, {})}
            cached = memo.get(support) or _split_columns(self.up, self.down, support, memo)
            self._column_cache[support] = cached
        return cached

    def final_segment_masks(self, max_count=DEFAULT_MAX_SEGMENTS):
        return self.upsets_of(self.full, max_count)

    def initial_segments(self, max_count=DEFAULT_MAX_SEGMENTS):
        """All down-closed subsets, sorted by (size, mask)."""
        full = self.full
        segs = [full ^ u for u in self.upsets_of(full, max_count)]
        segs.sort(key=lambda m: (popcount(m), m))
        return segs

    # -- Hasse / export ------------------------------------------------------

    def cover_pairs(self):
        """Transitive reduction as a list of (lower_id, upper_id)."""
        out = []
        for i in range(self.n):
            strict = self.up[i] ^ (1 << i)
            for j in iter_bits(strict):
                between = self.up[i] & self.down[j] & ~(1 << i) & ~(1 << j)
                if not between:
                    out.append((i, j))
        return out

    def to_dot(self, name="poset"):
        lines = [f'digraph "{name}" {{', "  rankdir=BT;"]
        for label in self.names:
            lines.append(f'  "{label}";')
        for i, j in self.cover_pairs():
            lines.append(f'  "{self.names[i]}" -> "{self.names[j]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self, name="poset"):
        return {
            "name": name,
            "elements": list(self.names),
            "le": [[self.names[i], self.names[j]] for i, j in self.cover_pairs()],
        }

    def dual(self):
        return Poset(self.names, self.down)

    def induced(self, support):
        """Subposet on a mask; returns (Q, list mapping Q-ids to P-ids)."""
        ids = list(iter_bits(support & self.full))
        pos = {p: k for k, p in enumerate(ids)}
        rows = []
        for p in ids:
            row = 0
            for q in iter_bits(self.up[p] & support):
                row |= 1 << pos[q]
            rows.append(row)
        return Poset([self.names[p] for p in ids], rows), ids


# -- construction ------------------------------------------------------------


def _close_and_check(names, pairs):
    n = len(names)
    ids = {}
    for i, name in enumerate(names):
        if name in ids:
            raise DuplicateName(f"duplicate element name {name!r}")
        ids[name] = i
    rows = [1 << i for i in range(n)]
    for a, b in pairs:
        try:
            rows[ids[a]] |= 1 << ids[b]
        except KeyError as exc:
            raise UnknownElement(f"unknown element {exc.args[0]!r} in relation") from None
    # Warshall on bitmask rows
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rk
    for i in range(n):
        for j in iter_bits(rows[i] & ~(1 << i)):
            if rows[j] >> i & 1:
                raise CycleError(names[i], names[j])
    return Poset(names, rows)


def build_poset(names, relations):
    """Poset from Hasse-style input: closes the pairs transitively.

    Names are made strings here, so the JSON name 1 is the element '1'; an
    int given to ``Poset.id`` stays an id.
    """
    return _close_and_check(
        [str(name) for name in names], [(str(a), str(b)) for a, b in relations]
    )


def _is_name(p):
    return isinstance(p, (str, int)) and not isinstance(p, bool)


def parse_json_dict(data):
    """(elements, pairs) of ``{"elements": [...], "le": [[a, b], ...]}``.

    Names must be strings or integers; any other shape raises ParseError.
    """
    try:
        elements, le = data["elements"], data["le"]
    except (KeyError, TypeError):
        raise ParseError("a poset needs 'elements' and 'le' keys") from None
    if not (
        isinstance(elements, list)
        and all(map(_is_name, elements))
        and isinstance(le, list)
        and all(isinstance(p, list) and len(p) == 2 and all(map(_is_name, p)) for p in le)
    ):
        raise ParseError(
            "'elements' must be a list of string or integer names"
            " and each 'le' entry a pair of them"
        )
    return elements, [tuple(p) for p in le]


def from_json_dict(data):
    return build_poset(*parse_json_dict(data))


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def chain(n):
    names = [str(i) for i in range(n)]
    return build_poset(names, [(str(i), str(i + 1)) for i in range(n - 1)])


def antichain(n):
    return build_poset([str(i) for i in range(n)], [])


def lex_sum(index, parts, max_elements=DEFAULT_MAX_ELEMENTS):
    """Lexicographic sum: parts glued along the index poset.

    (xi, p) <= (zeta, q) iff xi < zeta in the index, or xi = zeta and p <= q
    in that part.  Parts may be empty.
    """
    if len(parts) != index.n:
        raise SizeLimit("lex_sum needs one part per index element")
    total = sum(part.n for part in parts)
    if total > max_elements:
        raise SizeLimit(f"lex_sum would have {total} > {max_elements} elements")
    names = []
    offsets = []
    for xi, part in enumerate(parts):
        offsets.append(len(names))
        names.extend(f"{index.names[xi]}.{s}" for s in part.names)
    rows = [0] * total
    for xi, part in enumerate(parts):
        off = offsets[xi]
        for p in range(part.n):
            row = 0
            for q in iter_bits(part.up[p]):
                row |= 1 << (off + q)
            for zeta in iter_bits(index.up[xi] & ~(1 << xi)):
                zoff = offsets[zeta]
                row |= ((1 << parts[zeta].n) - 1) << zoff
            rows[off + p] = row
    return Poset(names, rows)


def disjoint_sum(parts, max_elements=DEFAULT_MAX_ELEMENTS):
    return lex_sum(antichain(len(parts)), parts, max_elements)


def product(p, q, max_elements=DEFAULT_MAX_ELEMENTS):
    """Coordinatewise product order; returns (poset, dict (pid,qid) -> id)."""
    total = p.n * q.n
    if total > max_elements:
        raise SizeLimit(f"product would have {total} > {max_elements} elements")
    names = []
    index = {}
    for a in range(p.n):
        for b in range(q.n):
            index[(a, b)] = len(names)
            names.append(f"({p.names[a]},{q.names[b]})")
    rows = [0] * total
    for (a, b), i in index.items():
        row = 0
        for a2 in iter_bits(p.up[a]):
            for b2 in iter_bits(q.up[b]):
                row |= 1 << index[(a2, b2)]
        rows[i] = row
    return Poset(names, rows), index


def rado_prefix(n, max_elements=DEFAULT_MAX_ELEMENTS):
    """Finite prefix of Rado's poset: pairs (i,j), 0 <= i < j <= n.

    (i,j) <= (k,l) iff (i = k and j <= l) or j < k.
    """
    count = n * (n + 1) // 2 if n > 0 else 0
    if count > max_elements:
        raise SizeLimit(f"rado_prefix({n}) has {count} > {max_elements} elements")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n + 1)]
    names = [f"({i},{j})" for i, j in pairs]
    rows = []
    for i, j in pairs:
        row = 0
        for idx, (k, l) in enumerate(pairs):
            if (i == k and j <= l) or j < k:
                row |= 1 << idx
        rows.append(row)
    return Poset(names, rows)


def random_poset(n, density, seed, max_elements=DEFAULT_MAX_ELEMENTS):
    """Seeded random poset: up-edges i->j (i<j) kept with the given density."""
    if n > max_elements:
        raise SizeLimit(f"random poset of {n} > {max_elements} elements")
    rng = random.Random(seed)
    names = [str(i) for i in range(n)]
    pairs = [
        (str(i), str(j))
        for i, j in combinations(range(n), 2)
        if rng.random() < density
    ]
    return build_poset(names, pairs)


def linear_augmentation(p, seed=0):
    """Seeded topological linearization.

    Returns (chain C over the same names, mapping list P-id -> C-id).
    """
    rng = random.Random(seed)
    remaining = p.full
    order = []
    while remaining:
        mins = list(iter_bits(p.minimals(remaining)))
        pick = mins[rng.randrange(len(mins))] if len(mins) > 1 else mins[0]
        order.append(pick)
        remaining &= ~(1 << pick)
    names = [p.names[i] for i in order]
    c = build_poset(names, [(names[k], names[k + 1]) for k in range(len(names) - 1)])
    mapping = [0] * p.n
    for pos, i in enumerate(order):
        mapping[i] = pos
    return c, mapping


def construct(kind, *args, **kwargs):
    """Dispatcher over the standard constructions by name; returns a Poset."""
    table = {
        "chain": chain,
        "antichain": antichain,
        "dual": lambda q: q.dual(),
        "disjoint_sum": disjoint_sum,
        "lex_sum": lex_sum,
        "product": lambda p, q, **kw: product(p, q, **kw)[0],
        "rado_prefix": rado_prefix,
        "random_poset": random_poset,
    }
    try:
        fn = table[kind]
    except KeyError:
        raise UnknownElement(f"unknown construction kind {kind!r}") from None
    return fn(*args, **kwargs)
