"""Elements of the free Boolean algebra over a poset, with decidable equality.

An element is stored as a finite support S plus a truth table over the
realizable traces of S: the up-closed subsets of the subposet on S.  Any
final segment R of the poset restricted to S is up-closed in S, and every
up-closed T <= S is realized by the final segment generated by T, so the
table determines the element exactly.  The table is an int whose bit k is
the truth at ``traces[k]`` (the sorted up-sets of S).

An element on S keeps S's one cache entry as ``entry`` (laid out at
``Poset._entry``), shared by every element on S.  ``count`` is the number of
traces and ``cols[p]`` the bitmask of the traces that hold p: the one form
that ``Poset._split`` builds.  The kernel ops read only count and columns;
``traces``, the sorted list that ``Poset.upsets_of`` derives from the
columns into the same entry, serves ``eval_trace``, ``support_reduce`` and
``to_dnf``.

Elements built from generators evaluate on columns.  The table of x_p is the
column of p, and a Boolean term over generators is evaluated in one pass on
the columns of its union support: ``&``/``|`` of columns and ``^`` with the
all-ones table.  ``elementary_product``, ``gen``, ``join_products`` and
``exprs.to_elem`` build their elements this way.

Binary operations lift both operands onto the union support U and then take
``&``/``|`` or compare the tables; an operand already on U is used as it is.
The lift is a Shannon expansion on the columns of U.  The traces of S split
on its top id h as ``Poset._split`` orders them: first those missing h,
then those holding h, a contiguous block whose size is read off the
element's own column of h.  The lift of the table is then
``(ucols[h] & lift(hi)) | (~ucols[h] & lift(lo))``, memoised on (sub-support,
slice) up to a fixed number of bits, and a constant slice lifts to 0 or the
all-ones table.  Each distinct slice costs a few ops on tables as wide as
U's, so a lift is cheap when the element's table has structure (few
distinct slices, as for a term) and quadratic in the worst case (a random
table on 19 elements lifted onto 20 takes seconds).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import reduce
from operator import and_, or_

from .errors import EnumerationOverflow, PosetMismatch, UnknownElement
from .poset import _bits, popcount

SUPPORT_CAP = 20
# bits of lifted tables (32 MB) one lift may keep in its memo; past it, slices
# are recomputed rather than stored, so an operand whose table has no
# structure (a random one) costs time, not memory
_LIFT_MEMO_BITS = 1 << 28


def _check_cap(support):
    if popcount(support) > SUPPORT_CAP:
        raise EnumerationOverflow(
            f"support of {popcount(support)} elements exceeds cap {SUPPORT_CAP}"
        )


class AlgebraElem:
    """Immutable value: a support mask and a truth table over its traces.

    The support's cache entry is read if the poset has one, else its columns
    are built under ``SUPPORT_CAP``: an element sits above the cap only on a
    support already enumerated, as ``stone.elem_from_clopen`` enumerates the
    full one.
    A truth table that is negative or has a bit at or past the support's
    trace count raises UnknownElement.
    """

    __slots__ = ("poset", "support", "truth", "entry", "_ckey")

    def __init__(self, poset, support, truth):
        entry = poset._cache.get(support)
        if entry is None:
            _check_cap(support)
            entry = poset._entry(support)
        # one shift: a negative table shifts to -1
        if truth >> entry[0]:
            raise UnknownElement(
                f"truth table {truth:#x} is negative or has bits past its {entry[0]} traces")
        self.poset = poset
        self.support = support
        self.truth = truth
        self.entry = entry
        self._ckey = None

    @property
    def count(self):
        return self.entry[0]

    @property
    def traces(self):
        return self.entry[1] or self.poset.upsets_of(self.support)

    def eval_trace(self, trace):
        """Truth at a trace (an up-closed subset of the support)."""
        traces = self.traces
        k = bisect_left(traces, trace)
        if k == len(traces) or traces[k] != trace:
            raise UnknownElement(f"not a realizable trace: {trace:b}")
        return bool(self.truth >> k & 1)

    def eval_segment(self, segment):
        """Truth at a final segment of the poset (depends on R & support only)."""
        return self.eval_trace(segment & self.support)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElem):
            return NotImplemented
        if self.poset is not other.poset:
            return False
        return equals(self, other)

    def __hash__(self):
        return hash((id(self.poset), canonical_key(self)))

    def __repr__(self):
        return f"AlgebraElem(support={self.poset.names_of(self.support)}, truth={self.truth:#x})"

    def __str__(self):
        return dnf_str(to_dnf(self), self.poset)


def _check_same_poset(e1, e2):
    if e1.poset is not e2.poset:
        raise PosetMismatch("elements live over different posets")


def zero(poset):
    return AlgebraElem(poset, 0, 0)


def one(poset):
    return AlgebraElem(poset, 0, 1)


def gen(poset, p):
    """Generator x_p: true exactly on final segments containing p."""
    return elementary_product(poset, 1 << poset.id(p), 0)


def _columns(poset, support):
    """(cols, full): the size-checked ``Poset.columns`` and all-ones table of a support."""
    _check_cap(support)
    count, cols = poset.columns(support)
    return cols, (1 << count) - 1


def _product_truth(cols, full, pos, neg=0):
    """Table of x_pos & -x_neg from the columns of a support holding both."""
    truth = full
    for p in _bits(pos):
        truth &= cols[p]
    for q in _bits(neg):
        truth &= ~cols[q]
    return truth


def _union(e1, e2):
    """(support, count, cols) of the union support of e1 and e2.

    The cap is checked on the union first.  An operand already on the union
    gives its entry; otherwise the union's columns are fetched once."""
    _check_same_poset(e1, e2)
    support = e1.support | e2.support
    _check_cap(support)
    on_union = e1 if e1.support == support else e2 if e2.support == support else None
    if on_union is None:
        count, cols = e1.poset.columns(support)
        return support, count, cols
    entry = on_union.entry
    return support, entry[0], entry[2]


def _lift(e, support, ucols, full):
    """e's truth table over the up-sets of ``support`` >= e.support, whose
    columns are ``ucols`` and all-ones table ``full``."""
    if e.support == support:
        return e.truth
    limit = _LIFT_MEMO_BITS // full.bit_length()
    ctx = (e.entry[2], ucols, e.poset.up, e.poset.down, full, {}, limit)
    return _shannon(e.support, e.truth, e.entry[0], 0, ctx)


def _shannon(s, part, width, offset, ctx):
    """Lift of ``part``, the ``width`` bits of e's table from bit ``offset``
    that are the up-sets of the sub-support ``s``, each joined with one fixed
    set of elements outside s.  ``ctx`` is (e's columns, the union's columns, the
    poset's up and down rows, the union's all-ones table, the memo and the
    number of entries it may hold)."""
    if not part:
        return 0
    ecols, ucols, up, down, full, memo, limit = ctx
    if part == (1 << width) - 1:
        return full
    h = s.bit_length() - 1
    col = ucols[h]
    if width == 2:
        # s is {h}: its up-sets are {} and {h}
        return col if part == 2 else col ^ full
    key = (s, part)
    got = memo.get(key)
    if got is None:
        hi_width = (ecols[h] >> offset & (1 << width) - 1).bit_count()
        lo_width = width - hi_width
        lo = _shannon(s & ~down[h], part & (1 << lo_width) - 1, lo_width, offset, ctx)
        hi = _shannon(s & ~up[h], part >> lo_width, hi_width, offset + lo_width, ctx)
        got = col & hi | lo & ~col
        if len(memo) < limit:
            memo[key] = got
    return got


def _combine(e1, e2, op):
    support, count, cols = _union(e1, e2)
    full = (1 << count) - 1
    truth = op(_lift(e1, support, cols, full), _lift(e2, support, cols, full))
    return AlgebraElem(e1.poset, support, truth)


def meet(e1, e2):
    return _combine(e1, e2, and_)


def join(e1, e2):
    return _combine(e1, e2, or_)


def complement(e):
    full = (1 << e.entry[0]) - 1
    return AlgebraElem(e.poset, e.support, e.truth ^ full)


def is_zero(e):
    return e.truth == 0


def is_one(e):
    return e.truth == (1 << e.count) - 1


def equals(e1, e2):
    _check_same_poset(e1, e2)
    if e1.support == e2.support:
        return e1.truth == e2.truth
    support, count, cols = _union(e1, e2)
    full = (1 << count) - 1
    return _lift(e1, support, cols, full) == _lift(e2, support, cols, full)


def leq(e1, e2):
    """e1 <= e2 in the Boolean order: e1 & ~e2 = 0, tested on the lifted
    tables without building that element."""
    _check_same_poset(e1, e2)
    if e1.support == e2.support:
        return not e1.truth & ~e2.truth
    support, count, cols = _union(e1, e2)
    full = (1 << count) - 1
    return not _lift(e1, support, cols, full) & ~_lift(e2, support, cols, full)


class ElementaryProduct(namedtuple("ElementaryProduct", "pos neg")):
    """(prod of x_p, p in pos) & (prod of -x_q, q in neg), as support masks."""

    __slots__ = ()

    def render(self, poset):
        bits = []
        if self.pos:
            bits.append("x{%s}" % ",".join(sorted(poset.names_of(self.pos))))
        if self.neg:
            bits.append("-x{%s}" % ",".join(sorted(poset.names_of(self.neg))))
        return "*".join(bits) if bits else "1"


def is_zero_syntactic(poset, sigma, tau):
    """Order-only zero test for the elementary product of masks sigma and
    tau: some p in sigma lies below some q in tau.  A mask with a bit outside
    the poset, a negative one included, raises UnknownElement."""
    if tau & ~poset.full:
        raise UnknownElement(f"mask {tau:#x} has bits outside the {poset.n} elements")
    return bool(poset.upset(sigma) & tau)


def elementary_product(poset, sigma, tau):
    """x_sigma & -x_tau for masks sigma and tau."""
    support = sigma | tau
    cols, full = _columns(poset, support)
    return AlgebraElem(poset, support, _product_truth(cols, full, sigma, tau))


def product_elem(poset, sigma):
    """x_sigma: the meet of generators over sigma (1 when sigma is empty)."""
    return elementary_product(poset, sigma, 0)


def join_products(poset, sigmas):
    """The join of the products x_sigma over masks ``sigmas`` (0 when empty),
    evaluated in one pass on the columns of their union support: each
    term's columns ANDed, the terms ORed."""
    sigmas = list(sigmas)
    support = reduce(or_, sigmas, 0)
    cols, full = _columns(poset, support)
    truth = 0
    for s in sigmas:
        term = full
        for p in _bits(s):
            term &= cols[p]
        truth |= term
    return AlgebraElem(poset, support, truth)


def _reduced(e):
    """(support, truth) of e on its minimal support, with no element built.

    Element s can go iff every trace t containing s whose t - s is also a
    trace has the bit of t - s; each remaining up-set u then takes the bit
    at u, or at u | s when u alone is not a trace.  Removal is tried in
    ascending element-id order.  An element that cannot go stays needed on
    every smaller support, so this one pass is already the fixpoint.
    """
    support = e.support
    # each trace to its truth as '0' or '1'; a sentinel bit above the table
    # fixes the width of the binary string
    bit_at = dict(zip(e.traces, bin(e.truth | 1 << e.count)[:2:-1]))
    for s in _bits(e.support):
        bit = 1 << s
        if any(bit_at.get(t ^ bit, b) != b for t, b in bit_at.items() if t & bit):
            continue
        # the bits of t and t - s agree wherever both are traces
        bit_at = {t & ~bit: b for t, b in bit_at.items()}
        support ^= bit
    if support == e.support:
        return support, e.truth
    # the keys left are the up-sets of the smaller support
    return support, int("".join([bit_at[t] for t in sorted(bit_at, reverse=True)]), 2)


def support_reduce(e):
    """The canonical minimal-support form of e: ``_reduced(e)`` as an element."""
    return AlgebraElem(e.poset, *_reduced(e))


def canonical_key(e):
    """Hashable key identifying e up to equality: ``_reduced(e)``.  It builds
    no entry for the minimal support, so that support's size is not capped."""
    if e._ckey is None:
        e._ckey = _reduced(e)
    return e._ckey


def to_dnf(e):
    """Disjoint elementary products over the reduced support, joining to e."""
    r = support_reduce(e)
    out = []
    for k, t in enumerate(r.traces):
        if r.truth >> k & 1:
            out.append(ElementaryProduct(pos=t, neg=r.support & ~t))
    return out


def dnf_str(products, poset):
    if not products:
        return "0"
    return " + ".join(pr.render(poset) for pr in products)

