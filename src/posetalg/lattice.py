"""The meet-semilattice of generator products and the lattice it generates.

A product term is its sigma mask, an antichain standing for the meet of the
generators over sigma, as ``enumerate_pi`` lists them; the empty term is the
unit.  A lattice element is a set of pairwise incomparable terms standing for
their join, as ``enumerate_l`` lists them; the empty set is zero.  Term order
is the pointwise rule ``every q in tau has some p in sigma below it``,
equivalent to inclusion of generated final segments; the lattice order
reduces to it because products are join-prime (a fact the test suites verify
against the Stone oracle rather than trusting axiomatically).
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from operator import or_

from . import algebra
from .errors import BadArity, ClosureOverflow, EnumerationOverflow, PosetMismatch, UnknownElement
from .poset import _bits, _byte_tables, _gather, popcount, transpose

# the fixed size caps: antichains one enumeration lists, elements one closure holds
ANTICHAIN_CAP = 1 << 20
LATTICE_CLOSURE_CAP = 1 << 14


# -- product terms -------------------------------------------------------------


def pi_leq_masks(poset, s, t):
    """x_s <= x_t: every q in t has some p in s with p <= q, that is, t lies
    in the final segment that s generates.  A mask with a bit outside the
    poset, a negative one included, raises UnknownElement."""
    if t & ~poset.full:
        raise UnknownElement(f"mask {t:#x} has bits outside the {poset.n} elements")
    return not t & ~poset.upset(s)


def _term_str(poset, sigma):
    if not sigma:
        return "1"
    return "x{%s}" % ",".join(sorted(poset.names_of(sigma)))


# -- lattice elements ----------------------------------------------------------


class LatticeElem:
    """Join of pairwise incomparable product terms; zero when empty.

    ``terms`` must be a canonical antichain of sigma masks, as ``enumerate_l``
    lists them: each sigma is its own ``poset.minimals`` and no two terms
    satisfy ``pi_leq_masks``.  Nothing here prunes or canonicalizes them.
    """

    __slots__ = ("poset", "terms")

    def __init__(self, poset, terms):
        self.poset = poset
        self.terms = frozenset(terms)

    def __eq__(self, other):
        if not isinstance(other, LatticeElem):
            return NotImplemented
        return self.poset is other.poset and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.poset), self.terms))

    def __repr__(self):
        return f"LatticeElem({[sorted(self.poset.names_of(s)) for s in sorted(self.terms)]})"

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(_term_str(self.poset, s) for s in sorted(self.terms))

    def to_elem(self):
        return algebra.join_products(self.poset, self.terms)


def l_leq(a, b):
    """a <= b: every term of a sits below some term of b (join-primeness).
    An operand that is not a LatticeElem raises TypeError."""
    if not (isinstance(a, LatticeElem) and isinstance(b, LatticeElem)):
        bad = b if isinstance(a, LatticeElem) else a
        raise TypeError(f"expected a LatticeElem, got {type(bad).__name__}")
    if a.poset is not b.poset:
        raise PosetMismatch("lattice elements over different posets")
    return all(
        any(pi_leq_masks(a.poset, s, t) for t in b.terms) for s in a.terms
    )


# -- enumeration ---------------------------------------------------------------


def _antichains(comp, items, empty):
    """Every antichain of the indices 0..n-1, where comp[i] holds the
    indices comparable to i, as the union of its items: ``empty`` ORed with
    items[i] for each of its indices i.  The empty antichain comes first,
    then the walk's depth-first order.  Items ``1 << i`` from 0 give each
    antichain's mask; one-term frozensets from an empty one give the set of
    its terms.  More than ``ANTICHAIN_CAP`` antichains raise
    EnumerationOverflow."""
    cap = ANTICHAIN_CAP
    out = [empty]
    stack = [(0, 0, empty)]  # (next candidate, chosen mask, union of its items)
    while stack:
        start, chosen, total = stack.pop()
        for i in range(start, len(comp)):
            if comp[i] & chosen:
                continue
            value = total | items[i]
            out.append(value)
            if len(out) > cap:
                raise EnumerationOverflow(f"more than {cap} antichains")
            stack.append((i + 1, chosen | 1 << i, value))
    return out


def enumerate_pi(poset, include_unit=True):
    """All canonical product terms, as sigma masks sorted by (size, mask).

    ``include_unit`` admits the empty product (the unit).
    """
    comp = [up | down for up, down in zip(poset.up, poset.down)]
    masks = _antichains(comp, [1 << i for i in range(poset.n)], 0)
    if not include_unit:
        masks = masks[1:]
    masks.sort(key=lambda m: (popcount(m), m))
    return masks


def enumerate_l(poset, include_unit=True):
    """All canonical lattice elements: joins over nonempty antichains of terms.

    The empty join (zero) is representable but not enumerated, matching the
    reading of the lattice as generated from the products by binary joins.
    Each element's term set is built on the antichain walk, as the union of
    its parent's with one more term, and is the set the element keeps.
    """
    pis = enumerate_pi(poset, include_unit=include_unit)
    less = _strict_less_rows(term_segments(poset, pis))
    comp = [a | b for a, b in zip(less, transpose(less, len(less)))]
    return [
        LatticeElem(poset, terms)
        for terms in _antichains(comp, [frozenset((s,)) for s in pis], frozenset())[1:]
    ]


# -- closure under meet and join -------------------------------------------------


def lattice_closure(poset, gens):
    """Least set of algebra elements containing gens closed under meet, join.

    Elements are deduplicated by their canonical minimal-support form; more
    than ``LATTICE_CLOSURE_CAP`` of them raise ClosureOverflow.
    """
    for e in gens:
        if not isinstance(e, algebra.AlgebraElem):
            raise TypeError(f"expected an AlgebraElem generator, got {type(e).__name__}")
        if e.poset is not poset:
            raise PosetMismatch("generator over a different poset")
    closed = {}
    for e in gens:
        closed.setdefault(algebra.canonical_key(e), e)
    frontier = deque(closed.values())
    while frontier:
        a = frontier.popleft()
        for b in list(closed.values()):
            for c in (algebra.meet(a, b), algebra.join(a, b)):
                key = algebra.canonical_key(c)
                if key not in closed:
                    if len(closed) >= LATTICE_CLOSURE_CAP:
                        raise ClosureOverflow(f"lattice closure exceeded {LATTICE_CLOSURE_CAP}")
                    closed[key] = c
                    frontier.append(c)
    return list(closed.values())


# -- order isomorphism with the initial segments ---------------------------------


def term_segments(poset, sigmas):
    """Initial segment of each product term: P minus the final segment that
    sigma generates.  x_s <= x_t iff the segment of s is inside that of t."""
    return [poset.full ^ poset.upset(s) for s in sigmas]


def is_iso_IS_to_Pi(poset):
    """Check that ``term_segments`` is an order isomorphism from the product
    terms onto the initial segments.

    The segments must be initial, distinct and all of them.  Then every pair
    of terms is decided by rows: ``_subset_rows(pis, ups)`` gives, for each
    tau, the sigmas whose up-set holds tau (the pointwise rule), and
    ``_subset_rows(ups, ups)`` the sigmas whose segment lies in tau's.  Their
    XOR holds the pairs on which the two orders disagree; the witness is the
    first in sigma-major order: the lowest sigma, then its lowest tau.

    Returns None when it is, else a dict describing the first failure.
    """
    pis = enumerate_pi(poset, include_unit=True)
    segs = term_segments(poset, pis)
    segments = set(poset.initial_segments())
    seen = set()
    for s, seg in zip(pis, segs):
        if seg not in segments:
            return {"reason": "image not an initial segment", "sigma": s}
        if seg in seen:
            return {"reason": "not injective", "sigma": s}
        seen.add(seg)
    if len(seen) != len(segments):
        return {
            "reason": "not surjective",
            "products": len(seen),
            "segments": len(segments),
        }
    ups = [poset.full ^ seg for seg in segs]
    diffs = [a ^ b for a, b in zip(_subset_rows(pis, ups), _subset_rows(ups, ups))]
    bad = reduce(or_, diffs, 0)
    if not bad:
        return None
    s = (bad & -bad).bit_length() - 1
    t = next(t for t, row in enumerate(diffs) if row >> s & 1)
    return {"reason": "order mismatch", "sigma": pis[s], "tau": pis[t]}


# -- antichain mining ------------------------------------------------------------
#
# Every order mined here is given as one bitmask per item, with item a below
# item b iff masks[a] is a subset of masks[b]: product terms by their initial
# segments (``term_segments``), poset elements by their down-sets.


def _subset_rows(queries, masks):
    """Yield for each query the row of every j with the query a subset of masks[j].

    The columns of the masks (column k holds the items j having bit k) are one
    ``transpose``, and a row is the AND of the columns of its query's bits:
    the complement of the OR of their complements, which ``_gather`` reads
    from the byte tables of the complemented columns.  A bit past every mask
    has an empty column.  Rows come one at a time, so a caller that only
    scans them never holds the whole matrix.
    """
    width = max(masks, default=0).bit_length()
    everything = (1 << len(masks)) - 1
    tables = _byte_tables([everything ^ col for col in transpose(masks, width)])
    for q in queries:
        yield 0 if q >> width else everything ^ _gather(tables, q)


def _strict_less_rows(masks):
    """Row a holds every item b with masks[a] a proper subset of masks[b]:
    the subset rows less the items whose mask equals masks[a]."""
    same = {}
    for i, m in enumerate(masks):
        same[m] = same.get(m, 0) | 1 << i
    return [row ^ same[m] for row, m in zip(_subset_rows(masks, masks), masks)]


def _hopcroft_karp(rows):
    """Maximum matching of the bipartite graph joining left u to right v iff
    bit v of rows[u] is set, with an iterative augmenting search.

    Returns (left, right): the vertices that alternating paths from the
    unmatched left vertices reach once no augmenting path is left, as masks.
    """
    n = len(rows)
    match_l = [-1] * n
    match_r = [-1] * n
    while True:
        # layered search from the unmatched left vertices; allowed[d] holds
        # the right vertices a path may take from layer d: those matched to
        # layer d + 1, or from the last layer the unmatched ones
        dist = [-1] * n
        layer = [u for u in range(n) if match_l[u] == -1]
        for u in layer:
            dist[u] = 0
        reached_l = sum(1 << u for u in layer)
        reached_r = 0
        allowed = []
        free_r = 0
        while layer and not free_r:
            nxt = []
            step = 0
            for u in layer:
                new = rows[u] & ~reached_r
                reached_r |= new
                for v in _bits(new):
                    w = match_r[v]
                    if w == -1:
                        free_r |= 1 << v
                    else:
                        dist[w] = len(allowed) + 1
                        reached_l |= 1 << w
                        step |= 1 << v
                        nxt.append(w)
            allowed.append(step)
            layer = nxt
        if not free_r:
            return reached_l, reached_r
        allowed[-1] = free_r  # shortest augmenting paths end on the last layer
        used = 0  # right vertices tried in this phase
        for root in range(n):
            if match_l[root] != -1:
                continue
            path = [root]  # left vertices of the alternating path
            via = []  # right vertex taken out of each of them
            while path:
                u = path[-1]
                cand = rows[u] & allowed[dist[u]] & ~used
                if not cand:
                    path.pop()
                    if via:
                        via.pop()
                    continue
                low = cand & -cand
                used |= low
                v = low.bit_length() - 1
                via.append(v)
                w = match_r[v]
                if w == -1:
                    for a, b in zip(path, via):
                        match_l[a] = b
                        match_r[b] = a
                    break
                path.append(w)


def max_antichain(items, masks):
    """Maximum antichain of the items ordered by inclusion of their masks.

    Exact at any size: Dilworth's theorem through a Hopcroft-Karp matching of
    the strict order and Koenig's vertex cover.  Returns (members, True); the
    flag records that the width is certified.  Raises BadArity unless there
    is one mask per item.
    """
    if len(items) != len(masks):
        raise BadArity(f"{len(items)} items with {len(masks)} masks")
    if not items:
        return [], True
    left, right = _hopcroft_karp(_strict_less_rows(masks))
    # Koenig: the cover is the unreached left plus the reached right vertices
    return [items[i] for i in _bits(left & ~right)], True
