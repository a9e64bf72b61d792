"""Built-in poset corpus for the verification suites.

Exhaustive non-isomorphic posets for small sizes (every poset is isomorphic
to one whose order is a suborder of the numeric order, so enumerating closed
up-edge sets and deduplicating by a canonical relabeling covers them all),
plus named fixtures.  The suites add seeded random posets for larger sizes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from .poset import Poset, build_poset


def _canon(rows, n):
    """Minimal relabeled relation matrix, as a tuple of row masks."""
    best = None
    for perm in permutations(range(n)):
        out = [0] * n
        for i in range(n):
            row = 0
            src = rows[i]
            for j in range(n):
                if src >> j & 1:
                    row |= 1 << perm[j]
            out[perm[i]] = row
        key = tuple(out)
        if best is None or key < best:
            best = key
    return best


@lru_cache(maxsize=None)
def all_posets(n):
    """All posets on n elements up to isomorphism (names '0'..'n-1')."""
    if n == 0:
        return (build_poset([], []),)
    pairs = list(combinations(range(n), 2))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                rows[i] |= 1 << j
        for k in range(n):
            rk = rows[k]
            for i in range(n):
                if rows[i] >> k & 1:
                    rows[i] |= rk
        key = _canon(rows, n)
        if key not in seen:
            seen.add(key)
            out.append(Poset([str(i) for i in range(n)], list(key)))
    return tuple(out)


def corpus_posets(max_size):
    """The exhaustive corpus: every poset with 1..max_size elements."""
    out = []
    for n in range(1, max_size + 1):
        out.extend(all_posets(n))
    return out


def with_top(poset, top_name="top"):
    """Adjoin a new maximum element."""
    names = list(poset.names) + [top_name]
    pairs = [(poset.names[i], poset.names[j]) for i, j in poset.cover_pairs()]
    pairs.extend((name, top_name) for name in poset.names)
    return build_poset(names, pairs)


def directed_corpus(max_size):
    """Every directed poset with 1..max_size elements up to isomorphism.

    A finite directed poset has a maximum, so these are exactly the posets
    one size down with a fresh top adjoined.
    """
    out = []
    for n in range(1, max_size + 1):
        for q in all_posets(n - 1):
            out.append(with_top(q))
    return out


def v3():
    """The three-element fence a < c > b."""
    return build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])

