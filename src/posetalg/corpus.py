"""Built-in poset corpus for the verification suites.

Exhaustive non-isomorphic posets for small sizes (every poset is isomorphic
to one whose order is a suborder of the numeric order, so enumerating closed
up-edge sets and deduplicating by a canonical relabeling covers them all),
plus named fixtures.  The suites add seeded random posets for larger sizes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from .poset import Poset, build_poset, transitive_closure


def _relabel_tables(n):
    """One entry per permutation perm of range(n): (inverse, table).

    ``table[row]`` is the row mask with bit j moved to bit perm[j]; it is built
    by doubling, one element at a time, so a relabeled row costs one lookup.
    Row k of the relabeled matrix is ``table[rows[inverse[k]]]``.
    """
    out = []
    for perm in permutations(range(n)):
        table = [0]
        for j in range(n):
            bit = 1 << perm[j]
            table += [t | bit for t in table]
        inverse = sorted(range(n), key=perm.__getitem__)
        out.append((inverse, table))
    return out


@lru_cache(maxsize=None)
def all_posets(n):
    """All posets on n elements up to isomorphism (names '0'..'n-1').

    Scans every set of up-edges i -> j (i < j) in mask order and keeps the
    first closure met of each isomorphism class, as its minimal relabeled
    relation matrix.  Each class is canonicalised once: its first closure's
    n! relabelings all go into ``seen``, so any later closure of the class
    is found there by one lookup.
    """
    if n == 0:
        return (build_poset([], []),)
    pairs = list(combinations(range(n), 2))
    tables = _relabel_tables(n)
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                rows[i] |= 1 << j
        if tuple(transitive_closure(rows)) in seen:
            continue
        relabelings = {tuple([table[rows[i]] for i in inverse]) for inverse, table in tables}
        seen |= relabelings
        out.append(Poset([str(i) for i in range(n)], list(min(relabelings))))
    return tuple(out)


def corpus_posets(largest):
    """The exhaustive corpus: every poset with 1..largest elements."""
    out = []
    for n in range(1, largest + 1):
        out.extend(all_posets(n))
    return out


def with_top(poset):
    """Adjoin a new maximum element, named 'top'."""
    top = 1 << poset.n
    return Poset([*poset.names, "top"], [row | top for row in poset.up] + [top])


def directed_corpus(largest):
    """Every directed poset with 1..largest elements up to isomorphism.

    A finite directed poset has a maximum, so these are exactly the posets
    one size down with a fresh top adjoined.
    """
    out = []
    for n in range(1, largest + 1):
        for q in all_posets(n - 1):
            out.append(with_top(q))
    return out


def v3():
    """The three-element fence a < c > b."""
    return build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])

