import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_max_antichain_size
from posetalg import algebra, corpus, lattice, stone
from posetalg.errors import ClosureOverflow, PosetMismatch
from posetalg.poset import Poset, antichain, chain, rado_prefix, random_poset


def term_str_set(poset, masks):
    return {lattice._term_str(poset, m) for m in masks}


# -- product terms -----------------------------------------------------------------


def test_product_term_canonicalizes(v3):
    t = lattice.product_term(v3, v3.mask(["a", "c"]))
    assert sorted(v3.names_of(t.sigma)) == ["a"]


def test_pi_leq_examples(v3):
    ab = lattice.product_term(v3, v3.mask(["a", "b"]))
    c = lattice.product_term(v3, v3.mask(["c"]))
    a = lattice.product_term(v3, v3.mask(["a"]))
    b = lattice.product_term(v3, v3.mask(["b"]))
    assert lattice.pi_leq(ab, c)
    assert not lattice.pi_leq(a, b) and not lattice.pi_leq(b, a)


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
    a = lattice.l_elem(v3, [v3.mask(["a"])])
    b = lattice.l_elem(v3, [v3.mask(["b"])])
    j = lattice.l_join(a, b)
    assert term_str_set(v3, j.terms) == {"x{a}", "x{b}"}
    space = stone.StoneSpace(v3)
    dj = stone.denote_elem(space, j.to_elem())
    for s in lattice.enumerate_pi(v3):
        assert stone.denote_elem(space, algebra.product_elem(v3, s)) != dj


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


def test_l_join_prunes_dominated(v3):
    a = lattice.l_elem(v3, [v3.mask(["a"])])
    c = lattice.l_elem(v3, [v3.mask(["c"])])
    assert term_str_set(v3, lattice.l_join(a, c).terms) == {"x{c}"}


def test_l_leq_example(v3):
    ab = lattice.l_elem(v3, [v3.mask(["a"]), v3.mask(["b"])])
    c = lattice.l_elem(v3, [v3.mask(["c"])])
    assert lattice.l_leq(ab, c)
    assert not lattice.l_leq(c, ab)


def test_l_meet_distributes(v3):
    ab = lattice.l_elem(v3, [v3.mask(["a"]), v3.mask(["b"])])
    c = lattice.l_elem(v3, [v3.mask(["c"])])
    m = lattice.l_meet(ab, c)
    assert term_str_set(v3, m.terms) == {"x{a}", "x{b}"}


def test_lattice_str(v3):
    e = lattice.l_elem(v3, [v3.mask(["a"]), v3.mask(["b"])])
    assert str(e) == "x{a} + x{b}"
    assert str(lattice.l_elem(v3, [])) == "0"
    assert str(lattice.l_elem(v3, [0])) == "1"
    assert sorted(v3.names_of(s) for s in e.terms) == [["a"], ["b"]]


def test_poset_mismatch_guard(v3):
    other = chain(2)
    with pytest.raises(PosetMismatch):
        lattice.l_join(lattice.l_elem(v3, [v3.mask(["a"])]), lattice.l_elem(other, [1]))


POOL = [corpus.v3(), chain(3), antichain(3), random_poset(4, 0.4, seed=2)]


def lelem_strategy(idx):
    p = POOL[idx]
    sigmas = st.integers(0, p.full)
    return st.lists(sigmas, max_size=3).map(lambda ms: lattice.LatticeElem(p, ms))


def two_lelems():
    return st.sampled_from(range(len(POOL))).flatmap(
        lambda i: st.tuples(st.just(i), lelem_strategy(i), lelem_strategy(i))
    )


@settings(max_examples=120, deadline=None)
@given(two_lelems())
def test_absorption_and_oracle_laws(case):
    idx, a, b = case
    p = POOL[idx]
    assert lattice.l_meet(a, lattice.l_join(a, b)) == a
    assert lattice.l_join(a, lattice.l_meet(a, b)) == a
    # operations agree with the algebra semantics
    space = stone.StoneSpace(p)
    da = stone.denote_elem(space, a.to_elem())
    db = stone.denote_elem(space, b.to_elem())
    assert stone.denote_elem(space, lattice.l_join(a, b).to_elem()) == da | db
    assert stone.denote_elem(space, lattice.l_meet(a, b).to_elem()) == da & db
    assert lattice.l_leq(a, b) == (da & ~db == 0)


@settings(max_examples=120, deadline=None)
@given(two_lelems())
def test_canonical_uniqueness(case):
    idx, a, b = case
    p = POOL[idx]
    space = stone.StoneSpace(p)
    same = stone.denote_elem(space, a.to_elem()) == stone.denote_elem(space, b.to_elem())
    assert (a.terms == b.terms) == same


# -- enumeration ------------------------------------------------------------------------


def test_enumerate_pi_v3(v3):
    pis = lattice.enumerate_pi(v3)
    assert term_str_set(v3, pis) == {"1", "x{a}", "x{b}", "x{c}", "x{a,b}"}
    strict = lattice.enumerate_pi(v3, include_unit=False)
    assert term_str_set(v3, strict) == {"x{a}", "x{b}", "x{c}", "x{a,b}"}
    terms = [lattice.product_term(v3, m) for m in pis]
    assert {str(t) for t in terms} == term_str_set(v3, pis)
    assert all(v3.minimals(t.sigma) == t.sigma for t in terms)


def test_enumerate_l_v3(v3):
    elems = lattice.enumerate_l(v3)
    assert {str(e) for e in elems} == {
        "1", "x{a}", "x{b}", "x{c}", "x{a,b}", "x{a} + x{b}",
    }


def test_enumerate_l_chain():
    c = chain(3)
    assert {str(e) for e in lattice.enumerate_l(c)} == {"1", "x{0}", "x{1}", "x{2}"}


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
    e = algebra.join(algebra.gen(v3, "a"), algebra.gen(v3, "b"))
    le = lattice.from_algebra_elem(e)
    assert le is not None and str(le) == "x{a} + x{b}"
    not_lattice = algebra.complement(algebra.gen(v3, "c"))
    assert lattice.from_algebra_elem(not_lattice) is None
