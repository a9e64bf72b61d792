import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_max_antichain_size
from posetalg import algebra, corpus, lattice, stone
from posetalg.errors import BadArity, ClosureOverflow, PosetMismatch
from posetalg.poset import (
    Poset,
    _bits,
    antichain,
    chain,
    popcount,
    rado_prefix,
    random_poset,
)


def term_str_set(poset, masks):
    return {lattice._term_str(poset, m) for m in masks}


def listed_by_denotation(p):
    """The Stone oracle's clopen of every element ``enumerate_l`` lists, and
    of zero, mapped to that element."""
    space = stone.StoneSpace(p)
    elems = lattice.enumerate_l(p) + [lattice.LatticeElem(p, [])]
    return space, {stone.denote_elem(space, e.to_elem()): e for e in elems}


def product_clopen(space, p, names):
    return stone.denote_elem(space, algebra.product_elem(p, p.mask(names)))


# -- product terms -----------------------------------------------------------------


def test_product_term_canonicalizes(v3):
    # a product term is its sigma mask: a <= c, so x{a,c} is x{a}, and the
    # canonical mask that enumerate_pi lists is its minimals
    ac, a = v3.mask(["a", "c"]), v3.mask(["a"])
    assert v3.minimals(ac) == a
    pis = lattice.enumerate_pi(v3)
    assert a in pis and ac not in pis
    assert lattice.pi_leq_masks(v3, ac, a) and lattice.pi_leq_masks(v3, a, ac)


def test_pi_leq_examples(v3):
    a, b, c = (v3.mask([x]) for x in "abc")
    assert lattice.pi_leq_masks(v3, a | b, c)
    assert not lattice.pi_leq_masks(v3, a, b) and not lattice.pi_leq_masks(v3, b, a)
    assert lattice.pi_leq_masks(v3, a, c) and not lattice.pi_leq_masks(v3, c, a)
    assert lattice.pi_leq_masks(v3, c, 0) and not lattice.pi_leq_masks(v3, 0, c)


def test_pi_leq_three_way_agreement():
    for p in corpus.corpus_posets(4):
        space = stone.StoneSpace(p)
        for s in range(1 << p.n):
            for t in range(1 << p.n):
                pointwise = lattice.pi_leq_masks(p, s, t)
                segments = p.upset(s) | p.upset(t) == p.upset(s)
                ds = stone.denote_elem(space, algebra.product_elem(p, s))
                dt = stone.denote_elem(space, algebra.product_elem(p, t))
                assert pointwise == segments == (ds & ~dt == 0)


# -- lattice elements ---------------------------------------------------------------


def test_l_join_keeps_incomparable(v3):
    space, listed = listed_by_denotation(v3)
    dj = product_clopen(space, v3, ["a"]) | product_clopen(space, v3, ["b"])
    assert term_str_set(v3, listed[dj].terms) == {"x{a}", "x{b}"}
    for s in lattice.enumerate_pi(v3):
        assert stone.denote_elem(space, algebra.product_elem(v3, s)) != dj


def test_l_join_prunes_dominated(v3):
    space, listed = listed_by_denotation(v3)
    dj = product_clopen(space, v3, ["a"]) | product_clopen(space, v3, ["c"])
    assert term_str_set(v3, listed[dj].terms) == {"x{c}"}


def test_l_meet_distributes(v3):
    space, listed = listed_by_denotation(v3)
    dab = product_clopen(space, v3, ["a"]) | product_clopen(space, v3, ["b"])
    dm = dab & product_clopen(space, v3, ["c"])
    assert term_str_set(v3, listed[dm].terms) == {"x{a}", "x{b}"}


def test_to_elem_matches_join_of_product_elems():
    checked = 0
    for p in corpus.corpus_posets(4):
        for e in lattice.enumerate_l(p) + [lattice.LatticeElem(p, [])]:
            got = e.to_elem()
            want = functools.reduce(
                algebra.join,
                [algebra.product_elem(p, s) for s in e.terms],
                algebra.zero(p),
            )
            assert (got.support, got.truth, got.traces) == (want.support, want.truth, want.traces)
            checked += 1
    assert checked == 487  # lattice elements plus one zero per poset, n = 1..4


def test_l_leq_example(v3):
    ab = lattice.LatticeElem(v3, [v3.mask(["a"]), v3.mask(["b"])])
    c = lattice.LatticeElem(v3, [v3.mask(["c"])])
    assert lattice.l_leq(ab, c)
    assert not lattice.l_leq(c, ab)
    assert lattice.l_leq(lattice.LatticeElem(v3, []), ab)
    assert lattice.l_leq(c, lattice.LatticeElem(v3, [0]))


def test_lattice_str(v3):
    e = lattice.LatticeElem(v3, [v3.mask(["a"]), v3.mask(["b"])])
    assert str(e) == "x{a} + x{b}"
    assert str(lattice.LatticeElem(v3, [])) == "0"
    assert str(lattice.LatticeElem(v3, [0])) == "1"
    assert sorted(v3.names_of(s) for s in e.terms) == [["a"], ["b"]]


def test_poset_mismatch_guard(v3):
    other = chain(2)
    with pytest.raises(PosetMismatch):
        lattice.l_leq(lattice.LatticeElem(v3, [v3.mask(["a"])]), lattice.LatticeElem(other, [1]))


POOL = [corpus.v3(), chain(3), antichain(3), random_poset(4, 0.4, seed=2)]


@functools.lru_cache(maxsize=None)
def pool_listed(idx):
    return listed_by_denotation(POOL[idx])


def two_lelems():
    def pair(i):
        elems = st.sampled_from(list(pool_listed(i)[1].values()))
        return st.tuples(st.just(i), elems, elems)

    return st.sampled_from(range(len(POOL))).flatmap(pair)


@settings(max_examples=120, deadline=None)
@given(two_lelems())
def test_absorption_and_oracle_laws(case):
    idx, a, b = case
    space, listed = pool_listed(idx)
    da = stone.denote_elem(space, a.to_elem())
    db = stone.denote_elem(space, b.to_elem())
    # the listed elements are closed under the oracle's join and meet
    join, meet = listed[da | db], listed[da & db]
    assert lattice.l_leq(a, join) and lattice.l_leq(b, join)
    assert lattice.l_leq(meet, a) and lattice.l_leq(meet, b)
    # absorption: a <= b iff a v b = b iff a ^ b = a, and l_leq agrees with the oracle
    assert lattice.l_leq(a, b) == (join == b) == (meet == a) == (da & ~db == 0)


@settings(max_examples=120, deadline=None)
@given(two_lelems())
def test_canonical_uniqueness(case):
    idx, a, b = case
    p = POOL[idx]
    space = pool_listed(idx)[0]
    same = stone.denote_elem(space, a.to_elem()) == stone.denote_elem(space, b.to_elem())
    assert (a.terms == b.terms) == same
    # the precondition of LatticeElem: a canonical antichain of sigma masks
    for s in a.terms:
        assert p.minimals(s) == s
        assert not any(t != s and lattice.pi_leq_masks(p, s, t) for t in a.terms)


# -- enumeration ------------------------------------------------------------------------


def test_enumerate_pi_v3(v3):
    pis = lattice.enumerate_pi(v3)
    assert term_str_set(v3, pis) == {"1", "x{a}", "x{b}", "x{c}", "x{a,b}"}
    strict = lattice.enumerate_pi(v3, include_unit=False)
    assert term_str_set(v3, strict) == {"x{a}", "x{b}", "x{c}", "x{a,b}"}
    assert pis == sorted(pis, key=lambda m: (popcount(m), m))
    assert all(v3.minimals(s) == s for s in pis)


def test_enumerate_l_v3(v3):
    elems = lattice.enumerate_l(v3)
    assert {str(e) for e in elems} == {
        "1", "x{a}", "x{b}", "x{c}", "x{a,b}", "x{a} + x{b}",
    }


def test_enumerate_l_chain():
    c = chain(3)
    assert {str(e) for e in lattice.enumerate_l(c)} == {"1", "x{0}", "x{1}", "x{2}"}


def _reference_antichains(comp):
    """Every antichain mask of the items, listed as the depth-first walk
    pushes it: the empty one, the singletons, then each last pushed first."""
    out = [0]
    stack = [(0, 0)]
    while stack:
        start, chosen = stack.pop()
        for i in range(start, len(comp)):
            if not comp[i] & chosen:
                out.append(chosen | 1 << i)
                stack.append((i + 1, chosen | 1 << i))
    return out


def _reference_enumerate_l(p, include_unit):
    """The term sets of the lattice elements, in listing order, by decoding
    each antichain mask of the terms, comparability read from pi_leq_masks."""
    pis = lattice.enumerate_pi(p, include_unit=include_unit)
    comp = [
        sum(1 << j for j, t in enumerate(pis)
            if lattice.pi_leq_masks(p, s, t) or lattice.pi_leq_masks(p, t, s))
        for s in pis
    ]
    return [frozenset(pis[i] for i in _bits(m)) for m in _reference_antichains(comp)[1:]]


@pytest.mark.parametrize("include_unit", [True, False])
def test_enumerate_l_matches_the_mask_decoding_list(include_unit):
    # past rado_prefix(3) the lattice has more than ANTICHAIN_CAP elements
    posets = list(corpus.corpus_posets(5)) + [rado_prefix(3), antichain(5)]
    for p in posets:
        got = [e.terms for e in lattice.enumerate_l(p, include_unit=include_unit)]
        assert got == _reference_enumerate_l(p, include_unit)


def test_enumeration_counts_antichain5():
    # free distributive lattice on five fully incomparable generators
    a5 = antichain(5)
    assert len(lattice.enumerate_pi(a5)) == 32
    assert len(lattice.enumerate_l(a5)) == 7580


def test_elements_distinct_under_oracle():
    for p in corpus.corpus_posets(4):
        space = stone.StoneSpace(p)
        dens = [stone.denote_elem(space, e.to_elem()) for e in lattice.enumerate_l(p)]
        assert len(dens) == len(set(dens))


# -- closure ------------------------------------------------------------------------------


def test_lattice_closure_v3(v3):
    ga, gb = algebra.gen(v3, "a"), algebra.gen(v3, "b")
    closed = lattice.lattice_closure(v3, [ga, gb])
    assert len(closed) == 4
    keys = {algebra.canonical_key(e) for e in closed}
    expect = {
        algebra.canonical_key(x)
        for x in (ga, gb, algebra.meet(ga, gb), algebra.join(ga, gb))
    }
    assert keys == expect


def test_lattice_closure_singleton(v3):
    e = algebra.gen(v3, "a")
    assert len(lattice.lattice_closure(v3, [e])) == 1


def test_lattice_closure_overflow_at_the_cap(monkeypatch):
    a3 = antichain(3)
    gens = [algebra.gen(a3, i) for i in range(3)]
    assert len(lattice.lattice_closure(a3, gens)) == 18  # free distributive on 3
    monkeypatch.setattr(lattice, "LATTICE_CLOSURE_CAP", 10)
    with pytest.raises(ClosureOverflow):
        lattice.lattice_closure(a3, gens)


def test_lattice_closure_chain_collapses():
    c = chain(3)
    gens = [algebra.gen(c, i) for i in range(3)]
    closed = lattice.lattice_closure(c, gens)
    assert {algebra.canonical_key(e) for e in closed} == {
        algebra.canonical_key(g) for g in gens
    }


# -- segment isomorphism --------------------------------------------------------------------


def test_is_iso_examples(v3):
    assert lattice.is_iso_IS_to_Pi(v3) is None
    assert len(lattice.enumerate_pi(v3)) == len(v3.initial_segments()) == 5
    for n in (1, 2, 5):
        c = chain(n)
        assert lattice.is_iso_IS_to_Pi(c) is None
        assert len(lattice.enumerate_pi(c)) == n + 1
    assert lattice.is_iso_IS_to_Pi(rado_prefix(3)) is None


def _reference_order_mismatch(p):
    """The first (sigma, tau), sigma-major, on which pi_leq_masks and the
    inclusion of term segments disagree, by a double loop; None if none."""
    pis = lattice.enumerate_pi(p, include_unit=True)
    seg = dict(zip(pis, lattice.term_segments(p, pis)))
    for s in pis:
        for t in pis:
            if lattice.pi_leq_masks(p, s, t) != (seg[s] | seg[t] == seg[t]):
                return {"reason": "order mismatch", "sigma": s, "tau": t}
    return None


def test_is_iso_holds_on_the_corpus_and_rado_prefixes():
    for p in list(corpus.corpus_posets(5)) + [rado_prefix(n) for n in (3, 4, 5)]:
        assert lattice.is_iso_IS_to_Pi(p) is None
        assert _reference_order_mismatch(p) is None


def test_is_iso_order_witness_matches_the_double_loop(monkeypatch):
    # fresh copies, so that no corpus poset keeps anything built under the fault
    posets = [Poset(p.names, p.up) for p in corpus.corpus_posets(4) if p.n > 1]
    posets += [rado_prefix(3), rado_prefix(4)]
    swap = {}  # poset id -> {sigma: the sigma whose up-set it is given}
    real = Poset.upset
    monkeypatch.setattr(Poset, "upset", lambda self, mask: real(self, swap.get(id(self), {}).get(mask, mask)))
    mismatches = 0
    for p in posets:
        pis = lattice.enumerate_pi(p, include_unit=True)
        for a, b in ((1, 2), (0, len(pis) - 1), (2, len(pis) - 2)):
            s, t = pis[a], pis[b]
            swap[id(p)] = {s: t, t: s}
            expected = _reference_order_mismatch(p)
            assert lattice.is_iso_IS_to_Pi(p) == expected, (p.up, s, t)
            mismatches += expected is not None
        swap.pop(id(p))
    assert mismatches > 0


# -- antichain mining ---------------------------------------------------------------------------


def _leq_strict_rows(items, leq_fn):
    """Reference strict-order rows by a double loop over leq_fn."""
    rows = [0] * len(items)
    for i, a in enumerate(items):
        for j, b in enumerate(items):
            if i != j and leq_fn(a, b) and not leq_fn(b, a):
                rows[i] |= 1 << j
    return rows


def test_strict_less_rows_match_pi_leq():
    posets = [p for p in corpus.corpus_posets(5)] + [rado_prefix(4), rado_prefix(5)]
    for p in posets:
        pis = lattice.enumerate_pi(p)
        expected = _leq_strict_rows(pis, lambda s, t: lattice.pi_leq_masks(p, s, t))
        assert lattice._strict_less_rows(lattice.term_segments(p, pis)) == expected


def _subset_rows_by_bits(queries, masks):
    """The subset rows as they were built: a column dict filled one mask bit
    at a time, and a missing column read as empty."""
    everything = (1 << len(masks)) - 1
    cols = {}
    for j, m in enumerate(masks):
        for k in _bits(m):
            cols[k] = cols.get(k, 0) | 1 << j
    out = []
    for q in queries:
        row = everything
        for k in _bits(q):
            row &= cols.get(k, 0)
        out.append(row)
    return out


def test_subset_rows_match_the_bit_loop():
    rng = random.Random(20)
    for count in (0, 1, 5, 70):
        for width in (0, 1, 9, 80):
            masks = [rng.getrandbits(width) for _ in range(count)]
            top = max(masks, default=0).bit_length()
            # the masks themselves, random queries, and queries with a bit
            # past every mask, alone or beside bits inside
            queries = masks + [rng.getrandbits(width) for _ in range(20)]
            queries += [0, 1 << top, 1 << (top + 5), (1 << top) | 1, rng.getrandbits(top + 8)]
            got = list(lattice._subset_rows(queries, masks))
            assert got == _subset_rows_by_bits(queries, masks), (count, width)
    # no masks: the empty query is a subset of all of none, any other of none
    assert list(lattice._subset_rows([0, 1, 6], [])) == [0, 0, 0]
    assert list(lattice._subset_rows([0, 2], [0, 0])) == [0b11, 0]


def test_strict_less_rows_equal_masks_not_below():
    assert lattice._strict_less_rows([0b01, 0b11, 0b01, 0b11]) == [0b1010, 0, 0b1010, 0]


def test_max_antichain_pi_v3(v3):
    pis = lattice.enumerate_pi(v3)
    members, exact = lattice.max_antichain(pis, lattice.term_segments(v3, pis))
    assert exact and term_str_set(v3, members) == {"x{a}", "x{b}"}


def test_max_antichain_chain_pi():
    c = chain(4)
    pis = lattice.enumerate_pi(c, include_unit=False)
    members, exact = lattice.max_antichain(pis, lattice.term_segments(c, pis))
    assert exact and len(members) == 1


def test_max_antichain_needs_one_mask_per_item():
    with pytest.raises(BadArity):
        lattice.max_antichain([1, 2, 3], [1])


def test_max_antichain_rado_products():
    p = rado_prefix(5)
    pis = lattice.enumerate_pi(p, include_unit=False)
    members, exact = lattice.max_antichain(pis, lattice.term_segments(p, pis))
    assert exact and len(members) >= 4


def test_max_antichain_rado6_products_exact():
    p = rado_prefix(6)
    pis = lattice.enumerate_pi(p, include_unit=False)
    members, exact = lattice.max_antichain(pis, lattice.term_segments(p, pis))
    assert exact and len(members) == 148
    for s in members:
        for t in members:
            assert s == t or not lattice.pi_leq_masks(p, s, t)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 7), st.floats(0.0, 1.0), st.integers(0, 999))
def test_exact_antichain_matches_brute_force(n, density, seed):
    p = random_poset(n, density, seed)
    items = list(range(n))
    members, exact = lattice.max_antichain(items, p.down)
    assert exact
    assert len(members) == brute_max_antichain_size(items, p.leq)
    for x in members:
        for y in members:
            assert x == y or p.incomparable(x, y)


def test_max_antichain_deep_augmenting_paths():
    # zigzag a_i < b_i, a_i < b_{i+1}; ids a_0..a_k, then b_k..b_0
    k = 1500
    names = [f"a{i}" for i in range(k + 1)] + [f"b{j}" for j in range(k, -1, -1)]

    def b(j):
        return 2 * k + 1 - j

    up = [1 << i | 1 << b(i) | (1 << b(i + 1) if i < k else 0) for i in range(k + 1)]
    up += [1 << i for i in range(k + 1, 2 * k + 2)]
    p = Poset(names, up)
    members, exact = lattice.max_antichain(list(range(p.n)), p.down)
    assert exact and len(members) == k + 1
    chosen = sum(1 << i for i in members)
    assert p.minimals(chosen) == chosen


def test_from_algebra_elem(v3):
    # the closure of the generators under meet and join is what enumerate_l
    # lists without the unit, for every poset of the corpus up to 3 elements
    for p in corpus.corpus_posets(3):
        gens = [algebra.gen(p, x) for x in p.names]
        closed = {algebra.canonical_key(e) for e in lattice.lattice_closure(p, gens)}
        listed = lattice.enumerate_l(p, include_unit=False)
        assert closed == {algebra.canonical_key(e.to_elem()) for e in listed}
    listed = {
        algebra.canonical_key(e.to_elem()): str(e)
        for e in lattice.enumerate_l(v3, include_unit=False)
    }
    e = algebra.join(algebra.gen(v3, "a"), algebra.gen(v3, "b"))
    assert listed[algebra.canonical_key(e)] == "x{a} + x{b}"
    not_lattice = algebra.complement(algebra.gen(v3, "c"))
    assert algebra.canonical_key(not_lattice) not in listed
