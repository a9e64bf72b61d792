"""Shared fixtures and independent brute-force oracles.

The oracles here recompute everything by scanning subsets directly, without
touching the library's enumeration or decision paths, so tests compare two
genuinely different routes.
"""

import pytest

from posetalg import algebra, corpus


@pytest.fixture
def v3():
    return corpus.v3()


def brute_up_closed(p, mask):
    for i in range(p.n):
        if mask >> i & 1 and p.up[i] & ~mask:
            return False
    return True


def brute_down_closed(p, mask):
    for i in range(p.n):
        if mask >> i & 1 and p.down[i] & ~mask:
            return False
    return True


def brute_final_segments(p):
    """All up-closed subsets by scanning the full power set."""
    return [m for m in range(1 << p.n) if brute_up_closed(p, m)]


def brute_initial_segments(p):
    return [m for m in range(1 << p.n) if brute_down_closed(p, m)]


def every_element(p):
    """Every element of the algebra over p in every representation: each
    support with each truth table over its traces, which are counted by
    scanning the subsets of the support for the up-closed ones."""
    for support in range(1 << p.n):
        count = sum(
            1 for m in range(1 << p.n)
            if not m & ~support
            and all(p.up[i] & support & ~m == 0 for i in range(p.n) if m >> i & 1)
        )
        for truth in range(1 << count):
            yield algebra.AlgebraElem(p, support, truth)


def brute_denote(p, node):
    """Set of final segments satisfying an expression, by direct evaluation."""

    def holds(node, seg):
        kind = node[0]
        if kind == "var":
            return bool(seg >> p.id(node[1]) & 1)
        if kind == "const":
            return node[1]
        if kind == "not":
            return not holds(node[1], seg)
        if kind == "and":
            return holds(node[1], seg) and holds(node[2], seg)
        if kind == "or":
            return holds(node[1], seg) or holds(node[2], seg)
        raise AssertionError(node)

    return frozenset(seg for seg in brute_final_segments(p) if holds(node, seg))


def brute_max_antichain_size(items, leq_fn):
    """Largest pairwise-incomparable subset, by scanning all subsets."""
    n = len(items)
    assert n <= 16
    best = 0
    for mask in range(1 << n):
        chosen = [items[i] for i in range(n) if mask >> i & 1]
        ok = True
        for i in range(len(chosen)):
            for j in range(len(chosen)):
                if i != j and leq_fn(chosen[i], chosen[j]):
                    ok = False
        if ok:
            best = max(best, len(chosen))
    return best


def subalgebra_closure(space, gens):
    """Least set of clopens of ``space`` containing gens, 0 and 1, closed
    under &, | and complement, by fixpoint iteration: the reference for
    ``stone.generates``."""
    full = space.full
    closed = {0, full}
    closed.update(m & full for m in gens)
    frontier = list(closed)
    while frontier:
        new = []
        current = list(closed)
        for a in frontier:
            for m in [full ^ a] + [op for b in current for op in (a & b, a | b)]:
                if m not in closed:
                    closed.add(m)
                    new.append(m)
        frontier = new
    return closed
