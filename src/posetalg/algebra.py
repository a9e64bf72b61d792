"""Elements of the free Boolean algebra over a poset, with decidable equality.

An element is stored as a finite support S plus a truth table over the
realizable traces of S: the up-closed subsets of the subposet on S.  Any
final segment R of the poset restricted to S is up-closed in S, and every
up-closed T <= S is realized by the final segment generated by T, so the
table determines the element exactly.  The table is an int whose bit k is
the truth at ``traces[k]`` (the sorted up-sets of S).

Binary operations run on one lift-and-gather kernel.  To bring an element
onto a larger support U, ``_lift`` maps each of its own traces to its bit
(read off the table as a '0'/'1' string), gathers that bit at ``t & S`` for
every trace t of U in one pass, and packs the result back into an int.
``meet``/``join`` are then ``&``/``|`` of lifted tables and ``equals``
compares them; an operand already on U is used as it is.

Elements built from generators skip the kernel.  ``Poset.columns(S)`` gives,
for each p in S, the bitmask of the traces of S that hold p; it comes from
the same split enumerator and the same cache entry as the traces themselves
(``Poset.upsets_of``).  The table of x_p is then that column, and a Boolean
term over generators is evaluated in one pass on the columns of its union
support: ``&``/``|`` of columns and ``^`` with the all-ones table.
``elementary_product``, ``gen``, ``join_products`` and ``exprs.to_elem``
build their elements this way.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .errors import EnumerationOverflow, PosetMismatch, UnknownElement
from .poset import iter_bits, popcount

DEFAULT_SUPPORT_CAP = 20


def _traces(poset, support):
    if popcount(support) > DEFAULT_SUPPORT_CAP:
        raise EnumerationOverflow(
            f"support of {popcount(support)} elements exceeds cap {DEFAULT_SUPPORT_CAP}"
        )
    return poset.upsets_of(support)


class AlgebraElem:
    """Immutable value; build via gen/zero/one and the Boolean operations."""

    __slots__ = ("poset", "support", "traces", "truth", "_ckey")

    def __init__(self, poset, support, truth, traces=None):
        self.poset = poset
        self.support = support
        self.traces = _traces(poset, support) if traces is None else traces
        self.truth = truth
        self._ckey = None

    def eval_trace(self, trace):
        """Truth at a trace (an up-closed subset of the support)."""
        k = bisect_left(self.traces, trace)
        if k == len(self.traces) or self.traces[k] != trace:
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
    """(traces, cols, full) of a support: its up-sets, size-checked, then
    ``Poset.columns`` and the all-ones table over those up-sets."""
    traces = _traces(poset, support)
    count, cols = poset.columns(support)
    return traces, cols, (1 << count) - 1


def _product_truth(cols, full, pos, neg=0):
    """Table of x_pos & -x_neg from the columns of a support holding both."""
    truth = full
    for p in iter_bits(pos):
        truth &= cols[p]
    for q in iter_bits(neg):
        truth &= ~cols[q]
    return truth


def _bits(e):
    """Map each trace of e to its truth as '0' or '1'."""
    # a sentinel bit above the table fixes the width of the binary string
    return dict(zip(e.traces, bin(e.truth | 1 << len(e.traces))[:2:-1]))


def _lift(e, traces, support):
    """e's truth table over ``traces``, the up-sets of ``support`` >= e.support."""
    if e.support == support:
        return e.truth
    bit_at, sub = _bits(e), e.support
    return int("".join([bit_at[t & sub] for t in reversed(traces)]), 2)


def _combine(e1, e2, op):
    _check_same_poset(e1, e2)
    support = e1.support | e2.support
    traces = _traces(e1.poset, support)
    truth = op(_lift(e1, traces, support), _lift(e2, traces, support))
    return AlgebraElem(e1.poset, support, truth, traces)


def meet(e1, e2):
    return _combine(e1, e2, and_)


def join(e1, e2):
    return _combine(e1, e2, or_)


def complement(e):
    full = (1 << len(e.traces)) - 1
    return AlgebraElem(e.poset, e.support, e.truth ^ full, e.traces)


def is_zero(e):
    return e.truth == 0


def is_one(e):
    return e.truth == (1 << len(e.traces)) - 1


def equals(e1, e2):
    _check_same_poset(e1, e2)
    if e1.support == e2.support:
        return e1.truth == e2.truth
    support = e1.support | e2.support
    traces = _traces(e1.poset, support)
    return _lift(e1, traces, support) == _lift(e2, traces, support)


def leq(e1, e2):
    """e1 <= e2 in the Boolean order: e1 & ~e2 = 0."""
    return is_zero(meet(e1, complement(e2)))


@dataclass(frozen=True)
class ElementaryProduct:
    """(prod of x_p, p in pos) & (prod of -x_q, q in neg), as support masks."""

    pos: int
    neg: int

    def render(self, poset):
        bits = []
        if self.pos:
            bits.append("x{%s}" % ",".join(sorted(poset.names_of(self.pos))))
        if self.neg:
            bits.append("-x{%s}" % ",".join(sorted(poset.names_of(self.neg))))
        return "*".join(bits) if bits else "1"


def is_zero_syntactic(poset, sigma, tau):
    """Order-only zero test for an elementary product: some p in sigma lies
    below some q in tau."""
    s = sigma if isinstance(sigma, int) else poset.mask(sigma)
    t = tau if isinstance(tau, int) else poset.mask(tau)
    return bool(poset.upset(s) & t)


def elementary_product(poset, sigma, tau):
    s = sigma if isinstance(sigma, int) else poset.mask(sigma)
    t = tau if isinstance(tau, int) else poset.mask(tau)
    support = s | t
    traces, cols, full = _columns(poset, support)
    return AlgebraElem(poset, support, _product_truth(cols, full, s, t), traces)


def product_elem(poset, sigma):
    """x_sigma: the meet of generators over sigma (1 when sigma is empty)."""
    return elementary_product(poset, sigma, 0)


def join_products(poset, sigmas):
    """The join of the products x_sigma over masks ``sigmas`` (0 when empty),
    evaluated in one pass on the columns of their union support."""
    sigmas = list(sigmas)
    support = reduce(or_, sigmas, 0)
    traces, cols, full = _columns(poset, support)
    truth = 0
    for s in sigmas:
        truth |= _product_truth(cols, full, s)
    return AlgebraElem(poset, support, truth, traces)


def support_reduce(e):
    """Drop support elements the truth table does not depend on.

    Element s can go iff every trace t containing s whose t - s is also a
    trace has the bit of t - s; each remaining up-set u then takes the bit
    at u, or at u | s when u alone is not a trace.  Removal is tried in
    ascending element-id order.  An element that cannot go stays needed on
    every smaller support, so this one pass is already the fixpoint: the
    canonical minimal-support form of e.
    """
    support = e.support
    bit_at = _bits(e)
    for s in iter_bits(e.support):
        bit = 1 << s
        if any(bit_at.get(t ^ bit, b) != b for t, b in bit_at.items() if t & bit):
            continue
        # the bits of t and t - s agree wherever both are traces
        bit_at = {t & ~bit: b for t, b in bit_at.items()}
        support ^= bit
    if support == e.support:
        return AlgebraElem(e.poset, support, e.truth, e.traces)
    traces = _traces(e.poset, support)
    truth = int("".join([bit_at[t] for t in reversed(traces)]), 2)
    return AlgebraElem(e.poset, support, truth, traces)


def canonical_key(e):
    """Hashable key identifying e up to equality (minimal support + table)."""
    if e._ckey is None:
        r = support_reduce(e)
        e._ckey = (r.support, r.truth)
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


def from_clopen(poset, segments, mask):
    """Element with full support from a set of final segments.

    ``segments`` must be the sorted tuple of all final segment masks of the
    poset; ``mask`` selects which of them the element is true at.
    """
    return AlgebraElem(poset, poset.full, mask, segments)
