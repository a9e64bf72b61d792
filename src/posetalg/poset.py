"""Finite posets as bitmask relation matrices, plus the standard constructions.

Elements are dense ids 0..n-1 with unique display names.  Subsets of a poset
are plain Python ints used as bitmasks; ``up[i]`` is the bitmask row
``{j : i <= j}`` of the reflexive-transitive closure.
"""

from __future__ import annotations

import random
from itertools import accumulate, combinations, repeat

from .errors import (
    BadArity,
    CycleError,
    DuplicateName,
    EnumerationOverflow,
    NotAnOrder,
    ParseError,
    SizeLimit,
    UnknownElement,
)

# the fixed size caps: elements of a constructed poset, up-sets per support
MAX_ELEMENTS = 128
MAX_SEGMENTS = 1 << 20
# column bits a poset keeps for the sub-supports that its splits solve, beside
# the entries of the supports that callers asked for; a column is charged its
# up-sets plus one 64-bit word
_MEMO_BITS = 1 << 23


# the set bits of each byte by doubling: the tuples so far, then each with j added
_BYTE_BITS = [()]
for _j in range(8):
    _BYTE_BITS += [bits + (_j,) for bits in _BYTE_BITS]


def _bits(mask):
    """The set bit positions of mask in increasing order: a stored tuple for
    a mask below 256, else a list; a negative mask raises UnknownElement.
    Private, as perfbench's tracer times every public function as a span."""
    if not mask >> 8:  # also false for a negative mask, which shifts to -1
        return _BYTE_BITS[mask]
    if mask < 0:
        raise UnknownElement(f"negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def popcount(mask):
    return mask.bit_count()


# the byte-table kernel is private, as perfbench's tracer times every public
# function of a module as a span, which costs more than one lookup
def _byte_tables(rows):
    """The tables that ``_gather`` reads to OR ``rows`` over a mask.

    Table k lists, for each byte b, the OR of ``rows[8k + j]`` over the set
    bits j of b (the "four Russians" tables of Arlazarov, Dinic, Kronrod and
    Faradzev), each built by doubling: the entries so far, then each of them
    ORed with the next row.  Past ``MAX_ELEMENTS`` rows the tables would take
    32 times the rows' memory, so the rows themselves stand in, as a tuple,
    and ``_gather`` ORs them one set bit at a time.
    """
    if len(rows) > MAX_ELEMENTS:
        return tuple(rows)
    tables = []
    for start in range(0, len(rows) or 1, 8):
        tab = [0]
        for row in rows[start:start + 8]:
            tab += [x | row for x in tab]
        tables.append(tab)
    return tables


def _gather(tables, mask):
    """OR of the rows of ``_byte_tables`` at the set bits of ``mask``, one
    lookup per byte of it; the mask must have no bit past the last row and
    none below 0."""
    if tables.__class__ is tuple:
        out = 0
        for i in _bits(mask):
            out |= tables[i]
        return out
    if mask < 256:
        return tables[0][mask]
    out = 0
    for tab in tables:
        if not mask:
            break
        out |= tab[mask & 255]
        mask >>= 8
    return out


# rows that transpose packs into one int and formats as one binary string, so
# its temporaries stay about this many times ``width`` (rounded up to whole
# bytes) characters however many rows there are
_TRANSPOSE_BLOCK = 4096


def transpose(rows, width):
    """Columns of a bit matrix: bit i of out[j] is set iff bit j of rows[i]
    is, for j < width.  A negative row raises UnknownElement, a negative
    width BadArity.

    Each block of rows is packed by C-level calls alone: every row goes to
    ``stride`` bits (``width`` rounded up to whole bytes) little-endian, the
    bytes are read as one int with row i at bit ``i * stride``, and that int
    is formatted as one binary string, most significant bit first.  Column j
    is then the stride slice from ``stride - 1 - j``, last row first.  A
    block with a row at or past ``1 << width`` is masked to ``width`` first.
    """
    if width < 0:
        raise BadArity(f"negative width {width}")
    out = [0] * width
    keep = (1 << width) - 1
    size = (width + 7) >> 3
    stride = size << 3
    for start in range(0, len(rows), _TRANSPOSE_BLOCK):
        block = rows[start:start + _TRANSPOSE_BLOCK]
        if min(block) < 0:
            raise UnknownElement(f"negative row {min(block)}")
        if max(block) > keep:
            block = [row & keep for row in block]
        # length and byte order are positional, as Python 3.10 requires both
        packed = b"".join(map(int.to_bytes, block, repeat(size), repeat("little")))
        text = format(int.from_bytes(packed, "little"), f"0{stride * len(block)}b")
        for j in range(width):
            out[j] |= int(text[stride - 1 - j::stride], 2) << start
    return out


def _split(poset, support):
    """(count, cols): the up-sets of ``support`` as bit columns, where bit k
    of ``cols[p]`` is set iff p is in the k-th of the ``count`` up-sets.

    With h the top id of U, an up-set of U either misses h, and then all of
    down(h), or holds h, and then all of U & up(h).  So the up-sets of U are
    those of U - down(h), then those of U - up(h) each joined with U & up(h):
    ascending with no sort, as h is the top bit of U.  The columns follow
    that order, so the k-th up-set is the k-th in ascending order.

    Two loops, not recursion, so a tall poset does not exhaust the stack:
    the first finds the sub-supports the split reaches and counts the splits
    that read each; the second solves them in ascending order (a sub-support
    is a proper subset, so a smaller int) and drops each once its last
    reader is done.  More than ``MAX_SEGMENTS`` up-sets on any sub-support,
    and so on ``support``, raise EnumerationOverflow before its columns are
    built.

    Splits share their sub-supports: the first loop stops at a sub-support
    whose entry is cached, and the second keeps the columns it solves in
    the cache while the kept entries' bits (up-sets plus a 64-bit word,
    times elements) fit in the poset's ``_MEMO_BITS``; past that budget a
    solved sub-support is dropped.  ``support`` itself is cached by
    ``Poset._entry``, outside the budget.
    """
    up, down, cache = poset.up, poset.down, poset._cache
    # the empty support has the empty up-set; {p} has that and {p}
    memo = {0: (1, {})}
    users = {}
    splits = []
    stack = [support] if support else []
    while stack:
        s = stack.pop()
        h = s.bit_length() - 1
        lo_sub = s & ~down[h]
        hi_sub = s & ~up[h]
        splits.append((s, h, lo_sub, hi_sub))
        for sub in (lo_sub, hi_sub):
            if sub not in users:
                if sub & (sub - 1):
                    entry = cache.get(sub)
                    if entry is None:
                        stack.append(sub)
                    else:
                        memo[sub] = (entry[0], entry[2])
                elif sub:
                    memo[sub] = (2, {sub.bit_length() - 1: 2})
            users[sub] = users.get(sub, 0) + 1
    splits.sort()
    for s, h, lo_sub, hi_sub in splits:
        left = users[lo_sub] = users[lo_sub] - 1
        lo_count, lo_cols = memo[lo_sub] if left else memo.pop(lo_sub)
        left = users[hi_sub] = users[hi_sub] - 1
        hi_count, hi_cols = memo[hi_sub] if left else memo.pop(hi_sub)
        count = lo_count + hi_count
        if count > MAX_SEGMENTS:
            raise EnumerationOverflow(
                f"more than {MAX_SEGMENTS} up-sets on {popcount(support)} elements"
            )
        # below or beside h: the column of U - up(h) above that of U - down(h)
        cols = {p: lo_cols.get(p, 0) | col << lo_count for p, col in hi_cols.items()}
        # h and above: in every up-set of the second block
        ones = ((1 << hi_count) - 1) << lo_count
        cols[h] = ones
        top = s & up[h]
        for p in _bits(top ^ 1 << h):
            cols[p] = lo_cols[p] | ones
        memo[s] = (count, cols)
        if s != support:
            bits = (count + 64) * len(cols)
            if poset._memo_bits + bits > _MEMO_BITS:
                poset._memo_refused += 1
            else:
                poset._memo_bits += bits
                poset._memo_entries += 1
                cache[s] = [count, None, cols]
    return memo[support]


class Poset:
    """Immutable finite poset.

    ``up[i]`` and ``down[i]`` are reflexive up-set / down-set rows.  All
    derived structure is cached; instances are safe to share between threads.
    """

    __slots__ = (
        "names", "up", "down", "full", "_ids", "_cache", "_tables",
        "_memo_entries", "_memo_bits", "_memo_refused",
    )

    def __init__(self, names, up_rows):
        n = len(names)
        self.names = tuple(names)
        self.up = tuple(up_rows)
        self.full = (1 << n) - 1
        if len(self.up) != n:
            raise NotAnOrder(f"{len(self.up)} rows for {n} elements")
        down = [0] * n
        for i in range(n):
            row = self.up[i]
            if row >> n:
                raise NotAnOrder(f"row of {self.names[i]!r} has bits outside the {n} elements")
            if not row >> i & 1:
                raise NotAnOrder(f"relation not reflexive at {self.names[i]!r}")
            for j in _bits(row):
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
        self._cache = {}
        # the byte tables of ``up``, built by the first ``upset`` (threads
        # that race there build equal tables)
        self._tables = None
        # sub-support column entries kept under _MEMO_BITS, their bits, and
        # the ones dropped because they did not fit (unlocked: threads that
        # build columns at once can miscount, never mis-enumerate)
        self._memo_entries = self._memo_bits = self._memo_refused = 0

    @property
    def n(self):
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
        """Bitmask of an iterable of names/ids; a str is one name, not an
        iterable of them, so it raises TypeError."""
        if isinstance(elems, str):
            raise TypeError(f"expected an iterable of names or ids, got the str {elems!r}")
        m = 0
        for p in elems:
            m |= 1 << self.id(p)
        return m

    def names_of(self, mask):
        """Names of the ids in ``mask``; UnknownElement if it has a bit past
        the last element or is negative (which shifts to -1)."""
        if mask >> self.n:
            raise UnknownElement(f"mask {mask:#x} has bits outside the {self.n} elements")
        return [self.names[i] for i in _bits(mask)]

    # -- order queries -----------------------------------------------------

    def leq(self, p, q):
        return bool(self.up[self.id(p)] >> self.id(q) & 1)

    def incomparable(self, p, q):
        i, j = self.id(p), self.id(q)
        return not (self.up[i] >> j & 1) and not (self.up[j] >> i & 1)

    def upset(self, mask):
        """Final segment generated by a mask of elements: the OR of its up
        rows, one lookup per byte of the mask in the poset's byte tables."""
        # the mask checks behind one test, and a one-byte lookup, inline: hot
        if not isinstance(mask, int) or mask & ~self.full:
            self._check_support(_check_mask(mask))
        tables = self._tables
        if tables is None:
            tables = self._tables = _byte_tables(self.up)
        if mask < 256 and tables.__class__ is list:
            return tables[0][mask]
        return _gather(tables, mask)

    def minimals(self, sub=None):
        """Minimal members of a mask (default: of the whole poset)."""
        m = self.full if sub is None else self._check_support(_check_mask(sub))
        out = 0
        for i in _bits(m):
            if self.down[i] & m == 1 << i:
                out |= 1 << i
        return out

    def maximals(self, sub=None):
        m = self.full if sub is None else self._check_support(_check_mask(sub))
        out = 0
        for i in _bits(m):
            if self.up[i] & m == 1 << i:
                out |= 1 << i
        return out

    def linear_extension(self):
        """Element ids ordered so that strictly smaller down-sets come first."""
        return sorted(range(self.n), key=lambda i: (popcount(self.down[i]), i))

    # -- segment enumeration -------------------------------------------------

    def _entry(self, support):
        """The cache entry [count, traces, cols] of ``support``, built by
        ``_split`` if missing: ``traces`` stays None until ``upsets_of``
        derives it from the columns.

        An entry holds the supports that callers asked for, plus the
        sub-supports that splits kept under ``_MEMO_BITS``.  An overflow
        never caches the support that overflowed, so every entry was built
        under the one cap ``MAX_SEGMENTS``.  A support with a bit outside the
        poset, negative ones included, raises UnknownElement.
        """
        entry = self._cache.get(support)
        if entry is None:
            count, cols = _split(self, self._check_support(support))
            entry = self._cache[support] = [count, None, cols]
        return entry

    def _check_support(self, support):
        """``support``; UnknownElement if it has a bit outside the poset."""
        if support & ~self.full:
            raise UnknownElement(f"mask {support:#x} has bits outside the {self.n} elements")
        return support

    def upsets_of(self, support):
        """All up-closed subsets of the subposet induced on ``support``.

        A tuple of bitmasks over P, sorted ascending: the support's columns,
        transposed once and kept in its cache entry beside them.  More than
        ``MAX_SEGMENTS`` up-sets raise EnumerationOverflow before any column
        or list over the cap is built, and leave nothing in the cache.
        """
        entry = self._entry(support)
        if entry[1] is None:
            cols = entry[2]
            entry[1] = tuple(transpose([cols.get(p, 0) for p in range(self.n)], entry[0]))
        return entry[1]

    def columns(self, support):
        """(count, cols): the up-sets of ``support`` as bit columns.

        ``count`` is ``len(upsets_of(support))`` and, for each element p of
        the support, bit k of ``cols[p]`` is set iff p is in the k-th up-set
        of ``upsets_of(support)``, which is derived from them.  Both come
        from ``_split`` and sit in the support's cache entry.  The cap
        ``MAX_SEGMENTS`` applies; callers with a support cap of their own
        check it first.  Sub-supports that the build solves stay cached for
        later builds while they fit in the poset's budget ``_MEMO_BITS``; the
        entry of ``support`` is cached whatever its size.
        """
        entry = self._entry(support)
        return entry[0], entry[2]

    def initial_segments(self):
        """All down-closed subsets, sorted by (size, mask)."""
        full = self.full
        segs = [full ^ u for u in self.upsets_of(full)]
        segs.sort(key=lambda m: (popcount(m), m))
        return segs

    # -- Hasse / export ------------------------------------------------------

    def cover_pairs(self):
        """Transitive reduction as a list of (lower_id, upper_id)."""
        out = []
        for i in range(self.n):
            strict = self.up[i] ^ (1 << i)
            for j in _bits(strict):
                between = self.up[i] & self.down[j] & ~(1 << i) & ~(1 << j)
                if not between:
                    out.append((i, j))
        return out

    def to_dot(self, name="poset"):
        ids = [_dot_id(label) for label in self.names]
        lines = [f"digraph {_dot_id(name)} {{", "  rankdir=BT;"]
        lines += [f"  {label};" for label in ids]
        lines += [f"  {ids[i]} -> {ids[j]};" for i, j in self.cover_pairs()]
        lines.append("}")
        return "\n".join(lines) + "\n"

    def induced(self, support):
        """Subposet on a mask; returns (Q, list mapping Q-ids to P-ids)."""
        ids = list(_bits(self._check_support(support)))
        pos = {p: k for k, p in enumerate(ids)}
        rows = []
        for p in ids:
            row = 0
            for q in _bits(self.up[p] & support):
                row |= 1 << pos[q]
            rows.append(row)
        return Poset([self.names[p] for p in ids], rows), ids


def _check_mask(mask):
    """``mask``; TypeError if it is no int (a list of names, even empty)."""
    if not isinstance(mask, int):
        raise TypeError(f"expected a bitmask, got {type(mask).__name__}")
    return mask


def _dot_id(text):
    """``text`` as a quoted DOT ID, with its backslashes and quotes escaped."""
    return '"%s"' % str(text).replace("\\", "\\\\").replace('"', '\\"')


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
    # Poset() reports a cycle
    return Poset(names, transitive_closure(rows))


def transitive_closure(rows):
    """``rows``, closed transitively in place by Warshall's loop."""
    n = len(rows)
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rk
    return rows


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


def chain(n):
    """The chain 0 < 1 < ... < n-1; empty for n <= 0, as ``range(n)`` is."""
    return Poset([str(i) for i in range(n)], [(1 << n) - (1 << i) for i in range(n)])


def antichain(n):
    """n pairwise incomparable elements; empty for n <= 0, as ``range(n)`` is."""
    return Poset([str(i) for i in range(n)], [1 << i for i in range(n)])


def lex_sum(index, parts):
    """Lexicographic sum: parts glued along the index poset.

    (xi, p) <= (zeta, q) iff xi < zeta in the index, or xi = zeta and p <= q
    in that part.  Parts may be empty.  Raises BadArity unless there is one
    part per index element.
    """
    if len(parts) != index.n:
        raise BadArity(f"lex_sum needs one part per index element, got {len(parts)} for {index.n}")
    ends = list(accumulate((part.n for part in parts), initial=0))
    if ends[-1] > MAX_ELEMENTS:
        raise SizeLimit(f"lex_sum would have {ends[-1]} > {MAX_ELEMENTS} elements")
    names = [f"{index.names[xi]}.{s}" for xi, part in enumerate(parts) for s in part.names]
    rows = []
    for xi, part in enumerate(parts):
        # the elements of every part strictly above xi in the index
        above = 0
        for zeta in _bits(index.up[xi] & ~(1 << xi)):
            above |= (1 << ends[zeta + 1]) - (1 << ends[zeta])
        rows.extend(row << ends[xi] | above for row in part.up)
    return Poset(names, rows)


def product(p, q):
    """Coordinatewise product order; returns (poset, dict (pid,qid) -> id)."""
    total = p.n * q.n
    if total > MAX_ELEMENTS:
        raise SizeLimit(f"product would have {total} > {MAX_ELEMENTS} elements")
    names = [f"({pa},{qb})" for pa in p.names for qb in q.names]
    index = {(a, b): a * q.n + b for a in range(p.n) for b in range(q.n)}
    # row (a, b) is the OR of q.up[b] << a2 * q.n over the a2 in p.up[a]: the
    # product of q.up[b] with the spread of p.up[a] (bit a2 at a2 * q.n), as
    # copies q.n bits apart never carry into each other
    spreads = [sum(1 << a2 * q.n for a2 in _bits(row)) for row in p.up]
    rows = [spread * row for spread in spreads for row in q.up]
    return Poset(names, rows), index


def rado_prefix(n):
    """Finite prefix of Rado's poset: pairs (i,j), 0 <= i < j <= n.

    (i,j) <= (k,l) iff (i = k and j <= l) or j < k; empty for n <= 0.
    """
    count = n * (n + 1) // 2 if n > 0 else 0
    if count > MAX_ELEMENTS:
        raise SizeLimit(f"rado_prefix({n}) has {count} > {MAX_ELEMENTS} elements")
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


def random_poset(n, density, seed):
    """Seeded random poset: up-edges i->j (i<j) kept with the given density;
    empty for n <= 0, as ``range(n)`` is."""
    if n > MAX_ELEMENTS:
        raise SizeLimit(f"random poset of {n} > {MAX_ELEMENTS} elements")
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
        mins = _bits(p.minimals(remaining))
        pick = mins[rng.randrange(len(mins))] if len(mins) > 1 else mins[0]
        order.append(pick)
        remaining &= ~(1 << pick)
    c = Poset([p.names[i] for i in order], [(1 << p.n) - (1 << k) for k in range(p.n)])
    mapping = [0] * p.n
    for pos, i in enumerate(order):
        mapping[i] = pos
    return c, mapping
