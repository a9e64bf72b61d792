import functools
import gc
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_denote, brute_final_segments
from posetalg import algebra, corpus, exprs, lattice, stone
from posetalg.errors import EnumerationOverflow, ParseError, PosetMismatch, UnknownElement
from posetalg.poset import (
    Poset,
    _bits,
    antichain,
    chain,
    popcount,
    product,
    rado_prefix,
    random_poset,
)

POSET_POOL = [
    corpus.v3(),
    chain(3),
    antichain(3),
    random_poset(4, 0.4, seed=5),
    random_poset(5, 0.3, seed=9),
]


def expr_strategy(poset, depth=3):
    atoms = st.sampled_from(
        [("var", name) for name in poset.names] + [("const", True), ("const", False)]
    )
    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            st.tuples(st.just("not"), kids),
            st.tuples(st.just("and"), kids, kids),
            st.tuples(st.just("or"), kids, kids),
        ),
        max_leaves=8,
    )


def any_poset_expr():
    return st.sampled_from(range(len(POSET_POOL))).flatmap(
        lambda i: st.tuples(st.just(i), expr_strategy(POSET_POOL[i]))
    )


def any_poset_two_exprs():
    return st.sampled_from(range(len(POSET_POOL))).flatmap(
        lambda i: st.tuples(st.just(i), expr_strategy(POSET_POOL[i]), expr_strategy(POSET_POOL[i]))
    )


def any_poset_three_exprs():
    return st.sampled_from(range(len(POSET_POOL))).flatmap(
        lambda i: st.tuples(
            st.just(i),
            expr_strategy(POSET_POOL[i]),
            expr_strategy(POSET_POOL[i]),
            expr_strategy(POSET_POOL[i]),
        )
    )


# -- constants and generators ---------------------------------------------------


def test_gen_denotation_frozen(v3):
    # x_a holds exactly at the final segments {a,c} and {a,b,c}
    segs = {s for s in brute_final_segments(v3) if algebra.gen(v3, "a").eval_segment(s)}
    assert segs == {v3.mask(["a", "c"]), v3.mask(["a", "b", "c"])}


def test_zero_one(v3):
    assert all(not algebra.zero(v3).eval_segment(s) for s in brute_final_segments(v3))
    assert all(algebra.one(v3).eval_segment(s) for s in brute_final_segments(v3))
    assert algebra.is_zero(algebra.zero(v3))
    assert algebra.is_one(algebra.one(v3))


def test_gen_unknown(v3):
    with pytest.raises(UnknownElement):
        algebra.gen(v3, "zzz")


def test_meet_truth_table(v3):
    e = algebra.meet(algebra.gen(v3, "a"), algebra.gen(v3, "b"))
    assert e.support == v3.mask(["a", "b"])
    true_traces = [t for k, t in enumerate(e.traces) if e.truth >> k & 1]
    assert true_traces == [v3.mask(["a", "b"])]


def test_complement_one_is_zero(v3):
    assert algebra.equals(algebra.complement(algebra.one(v3)), algebra.zero(v3))


def test_equals_forced_by_order(v3):
    assert algebra.equals(
        algebra.meet(algebra.gen(v3, "a"), algebra.gen(v3, "c")), algebra.gen(v3, "a")
    )


def test_leq_zero_bottom(v3):
    z = algebra.zero(v3)
    for name in v3.names:
        assert algebra.leq(z, algebra.gen(v3, name))


def test_is_zero_with_witness(v3):
    e = algebra.meet(algebra.gen(v3, "a"), algebra.complement(algebra.gen(v3, "b")))
    assert not algebra.is_zero(e)
    assert e.eval_segment(v3.mask(["a", "c"]))  # witnessing final segment


def test_poset_mismatch():
    with pytest.raises(PosetMismatch):
        algebra.meet(algebra.gen(chain(2), 0), algebra.gen(chain(2), 0))


def test_support_cap():
    wide = antichain(22)
    with pytest.raises(EnumerationOverflow):
        functools.reduce(algebra.meet, [algebra.gen(wide, i) for i in range(22)])


@pytest.mark.parametrize("op", [algebra.meet, algebra.join, algebra.equals, algebra.leq])
def test_support_cap_with_an_operand_on_the_union(op):
    # the full-support operand already sits on the 25-element union
    tall = chain(25)
    space = stone.StoneSpace(tall)
    big = stone.elem_from_clopen(space, space.full >> 1)
    with pytest.raises(EnumerationOverflow):
        op(big, algebra.gen(tall, 0))


# -- the column lift against the Stone oracle and a pointwise lift -----------------


def _operand(p, space, support, rng):
    """A join of random elementary products on exactly ``support``, and its clopen
    built from ``stone.v_set`` alone."""
    if not support:
        return (algebra.one(p), space.full) if rng.random() < 0.5 else (algebra.zero(p), 0)
    v = {i: stone.v_set(space, i) for i in _bits(support)}
    elem, clopen = None, 0
    for _ in range(3):
        pos = rng.getrandbits(p.n) & support
        term = algebra.elementary_product(p, pos, support & ~pos)
        elem = term if elem is None else algebra.join(elem, term)
        d = space.full
        for i in _bits(support):
            d &= v[i] if pos >> i & 1 else space.full ^ v[i]
        clopen |= d
    return elem, clopen


LIFT_SHAPES = [
    ("nested", random_poset(6, 0.4, seed=3), 0b001111, 0b000110),
    ("disjoint", random_poset(6, 0.4, seed=3), 0b000111, 0b111000),
    ("overlapping", random_poset(6, 0.4, seed=3), 0b001111, 0b111100),
    ("constant", random_poset(6, 0.4, seed=3), 0, 0b010101),
    ("same", random_poset(6, 0.4, seed=3), 0b101010, 0b101010),
    ("wide", antichain(12), 0b000000111111, 0b111111000000),
]


@pytest.mark.parametrize("name,p,s1,s2", LIFT_SHAPES, ids=[s[0] for s in LIFT_SHAPES])
def test_lift_matches_stone_oracle(name, p, s1, s2):
    space = stone.StoneSpace(p)
    rng = random.Random(name)
    for _ in range(2 if name == "wide" else 6):
        a, da = _operand(p, space, s1, rng)
        b, db = _operand(p, space, s2, rng)
        # b padded with a zero on a's support: a different support, same clopen
        pad = algebra.join(b, algebra.meet(algebra.zero(p), a))
        for (x, dx), (y, dy) in [((a, da), (b, db)), ((pad, db), (b, db)), ((a, da), (pad, db))]:
            assert stone.denote_elem(space, algebra.meet(x, y)) == dx & dy
            assert stone.denote_elem(space, algebra.join(x, y)) == dx | dy
            assert algebra.equals(x, y) == (dx == dy)
            assert algebra.leq(x, y) == (dx & ~dy == 0)
            assert algebra.leq(algebra.meet(x, y), x)


def _pointwise(e, p, union):
    """e's table over the up-sets of ``union``, one trace at a time."""
    return sum(e.eval_trace(t & e.support) << k for k, t in enumerate(p.upsets_of(union)))


def _check_ops_against_pointwise(p, e, f, rng):
    union = e.support | f.support
    count = len(p.upsets_of(union))
    le, lf = _pointwise(e, p, union), _pointwise(f, p, union)
    for got, want in [(algebra.meet(e, f), le & lf), (algebra.join(e, f), le | lf)]:
        assert (got.support, got.count, got.truth) == (union, count, want)
    assert algebra.equals(e, f) == (le == lf)
    # e restated on the union is equal to e; with one trace flipped it is not
    same = algebra.AlgebraElem(p, union, le)
    assert algebra.equals(e, same) and algebra.equals(same, e)
    other = algebra.AlgebraElem(p, union, le ^ 1 << rng.randrange(count))
    assert not algebra.equals(e, other) and not algebra.equals(other, e)


def test_ops_match_pointwise_lift_on_corpus():
    rng = random.Random(10)
    pairs = 0
    for p in corpus.corpus_posets(4):
        for s in range(1 << p.n):
            for t in range(1 << p.n):
                # one operand built on columns, one from its trace list
                e = algebra.AlgebraElem(p, s, rng.getrandbits(p.columns(s)[0]))
                traces = p.upsets_of(t)
                f = algebra.AlgebraElem(p, t, rng.getrandbits(len(traces)))
                _check_ops_against_pointwise(p, e, f, rng)
                pairs += 1
    assert pairs == 1 * 4 + 2 * 16 + 5 * 64 + 16 * 256  # posets times support pairs, n = 1..4


@pytest.mark.parametrize(
    "p",
    [rado_prefix(4), product(chain(2), chain(3))[0], random_poset(7, 0.3, seed=1)],
    ids=["rado4", "chain2xchain3", "random7"],
)
def test_ops_match_pointwise_lift_on_sampled_supports(p):
    # a lift that reads a slice's block size at the wrong offset passes the
    # n <= 4 corpus; it first goes wrong on five elements
    rng = random.Random(p.n)
    for _ in range(40):
        s, t = rng.getrandbits(p.n), rng.getrandbits(p.n)
        e = algebra.AlgebraElem(p, s, rng.getrandbits(p.columns(s)[0]))
        f = algebra.AlgebraElem(p, t, rng.getrandbits(p.columns(t)[0]))
        _check_ops_against_pointwise(p, e, f, rng)


@pytest.mark.parametrize("memo_bits", [None, 0], ids=["memo", "no-memo"])
def test_ops_match_pointwise_lift_on_antichain12(monkeypatch, memo_bits):
    if memo_bits is not None:
        # past the memo's budget every slice is recomputed
        monkeypatch.setattr(algebra, "_LIFT_MEMO_BITS", memo_bits)
    p = antichain(12)
    rng = random.Random(12)
    s, t = 0b000011111111, 0b111111110000
    e = algebra.AlgebraElem(p, s, rng.getrandbits(1 << 8))
    f = algebra.AlgebraElem(p, t, rng.getrandbits(1 << 8))
    _check_ops_against_pointwise(p, e, f, rng)
    _check_ops_against_pointwise(p, e, algebra.AlgebraElem(p, s | t, rng.getrandbits(1 << 12)), rng)


def _conjunction(p, ids):
    return exprs.to_elem(p, exprs.parse(" & ".join(f"x({i})" for i in ids)))


def test_decide_path_lists_no_up_sets(monkeypatch):
    def no_listing(self, support):
        raise AssertionError("upsets_of called on the decide path")

    monkeypatch.setattr(Poset, "upsets_of", no_listing)
    p = antichain(15)
    a = _conjunction(p, range(14))
    b = _conjunction(p, range(13))
    c = _conjunction(p, range(1, 14))
    assert (popcount(a.support), popcount(b.support), popcount(c.support)) == (14, 13, 13)
    assert not algebra.equals(a, b)
    assert algebra.leq(a, b)
    assert algebra.equals(algebra.meet(b, c), a)
    assert algebra.equals(algebra.join(b, a), b)
    assert algebra.meet(b, c).support == a.support


# -- elementary products ----------------------------------------------------------


def test_syntactic_zero_examples(v3):
    assert algebra.is_zero_syntactic(v3, v3.mask(["a", "b"]), v3.mask(["c"]))
    assert not algebra.is_zero_syntactic(v3, v3.mask(["a"]), v3.mask(["b"]))
    assert not algebra.is_zero_syntactic(v3, 0, 0)
    assert algebra.is_one(algebra.elementary_product(v3, 0, 0))


def test_elementary_product_denotation(v3):
    e = algebra.elementary_product(v3, v3.mask(["a"]), v3.mask(["b"]))
    segs = {s for s in brute_final_segments(v3) if e.eval_segment(s)}
    assert segs == {v3.mask(["a", "c"])}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(POSET_POOL))), st.integers(0, 63), st.integers(0, 63))
def test_syntactic_zero_matches_semantics(idx, sraw, traw):
    p = POSET_POOL[idx]
    s, t = sraw & p.full, traw & p.full
    e = algebra.elementary_product(p, s, t)
    assert algebra.is_zero_syntactic(p, s, t) == algebra.is_zero(e)


# -- Boolean laws ------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(any_poset_three_exprs())
def test_boolean_laws(case):
    idx, xa, xb, xc = case
    p = POSET_POOL[idx]
    a, b, c = (exprs.to_elem(p, n) for n in (xa, xb, xc))
    assert algebra.equals(
        algebra.meet(a, algebra.meet(b, c)), algebra.meet(algebra.meet(a, b), c)
    )
    assert algebra.equals(
        algebra.meet(a, algebra.join(b, c)),
        algebra.join(algebra.meet(a, b), algebra.meet(a, c)),
    )
    assert algebra.equals(
        algebra.complement(algebra.meet(a, b)),
        algebra.join(algebra.complement(a), algebra.complement(b)),
    )
    assert algebra.equals(algebra.complement(algebra.complement(a)), a)
    assert algebra.is_one(algebra.join(a, algebra.complement(a)))
    assert algebra.is_zero(algebra.meet(a, algebra.complement(a)))


@settings(max_examples=100, deadline=None)
@given(any_poset_two_exprs())
def test_leq_is_meet_order(case):
    idx, xa, xb = case
    p = POSET_POOL[idx]
    a, b = exprs.to_elem(p, xa), exprs.to_elem(p, xb)
    assert algebra.leq(a, b) == algebra.equals(algebra.meet(a, b), a)


def test_leq_matches_meet_with_complement(monkeypatch):
    """``leq`` against the zero test of a & -b on seeded pairs over the
    corpus posets, most of them on different supports, without building an
    element; operands over different posets raise PosetMismatch."""
    rng = random.Random(26)
    pairs = []
    for p in corpus.corpus_posets(4):
        for _ in range(12):
            s, t = rng.getrandbits(p.n), rng.getrandbits(p.n)
            a = algebra.AlgebraElem(p, s, rng.getrandbits(p.columns(s)[0]))
            b = algebra.AlgebraElem(p, t, rng.getrandbits(p.columns(t)[0]))
            pairs += [(a, b), (a, algebra.join(a, b)), (algebra.meet(a, b), b)]
    assert sum(a.support != b.support for a, b in pairs) > len(pairs) // 2
    want = [algebra.is_zero(algebra.meet(a, algebra.complement(b))) for a, b in pairs]
    assert True in want and False in want
    built = []
    real = algebra.AlgebraElem.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(algebra.AlgebraElem, "__init__", counted)
    assert [algebra.leq(a, b) for a, b in pairs] == want
    assert built == []
    with pytest.raises(PosetMismatch):
        algebra.leq(algebra.gen(chain(2), 0), algebra.gen(chain(2), 0))


def test_order_embedding():
    for p in corpus.corpus_posets(4):
        gens = [algebra.gen(p, i) for i in range(p.n)]
        for i in range(p.n):
            for j in range(p.n):
                assert algebra.leq(gens[i], gens[j]) == p.leq(i, j)
                assert algebra.equals(gens[i], gens[j]) == (i == j)


# -- evaluation semantics ------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(any_poset_expr())
def test_eval_matches_brute_denotation(case):
    idx, node = case
    p = POSET_POOL[idx]
    e = exprs.to_elem(p, node)
    expected = brute_denote(p, node)
    for seg in brute_final_segments(p):
        assert e.eval_segment(seg) == (seg in expected)


@settings(max_examples=80, deadline=None)
@given(any_poset_two_exprs())
def test_equals_iff_same_denotation(case):
    idx, xa, xb = case
    p = POSET_POOL[idx]
    a, b = exprs.to_elem(p, xa), exprs.to_elem(p, xb)
    assert algebra.equals(a, b) == (brute_denote(p, xa) == brute_denote(p, xb))


# -- DNF ------------------------------------------------------------------------------


def test_dnf_examples(v3):
    assert algebra.to_dnf(algebra.gen(v3, "a")) == [
        algebra.ElementaryProduct(pos=v3.mask(["a"]), neg=0)
    ]
    assert algebra.to_dnf(algebra.zero(v3)) == []
    comp = algebra.complement(algebra.gen(v3, "c"))
    assert algebra.to_dnf(comp) == [algebra.ElementaryProduct(pos=0, neg=v3.mask(["c"]))]
    assert str(comp) == "-x{c}"


def test_elementary_product_is_an_immutable_value(v3):
    a = algebra.ElementaryProduct(pos=0b01, neg=0b10)
    b = algebra.ElementaryProduct(0b01, 0b10)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != algebra.ElementaryProduct(pos=0b10, neg=0b01)
    assert (a.pos, a.neg) == (0b01, 0b10)
    assert repr(a) == "ElementaryProduct(pos=1, neg=2)"
    with pytest.raises(AttributeError):
        a.pos = 0
    assert a.render(v3) == "x{a}*-x{b}"
    assert algebra.ElementaryProduct(0, 0).render(v3) == "1"


@settings(max_examples=80, deadline=None)
@given(any_poset_expr())
def test_dnf_round_trip(case):
    idx, node = case
    p = POSET_POOL[idx]
    e = exprs.to_elem(p, node)
    products = algebra.to_dnf(e)
    terms = [algebra.elementary_product(p, pr.pos, pr.neg) for pr in products]
    assert algebra.equals(functools.reduce(algebra.join, terms, algebra.zero(p)), e)
    for pr in products:
        assert not algebra.is_zero_syntactic(p, pr.pos, pr.neg)


# -- support reduction ------------------------------------------------------------------


def test_support_reduce_examples(v3):
    e = algebra.meet(algebra.gen(v3, "a"), algebra.gen(v3, "c"))
    r = algebra.support_reduce(e)
    assert r.support == v3.mask(["a"])
    assert algebra.equals(e, r)

    unit = algebra.AlgebraElem(v3, v3.mask(["a"]), (1 << 2) - 1)
    assert algebra.support_reduce(unit).support == 0

    g = algebra.gen(v3, "a")
    assert algebra.support_reduce(g).support == g.support


@settings(max_examples=100, deadline=None)
@given(any_poset_expr())
def test_support_reduce_preserves_and_shrinks(case):
    idx, node = case
    p = POSET_POOL[idx]
    e = exprs.to_elem(p, node)
    r = algebra.support_reduce(e)
    assert algebra.equals(e, r)
    assert r.support & ~e.support == 0
    assert popcount(r.support) <= popcount(e.support)


@settings(max_examples=100, deadline=None)
@given(any_poset_two_exprs())
def test_canonical_key_decides_equality(case):
    idx, xa, xb = case
    p = POSET_POOL[idx]
    a, b = exprs.to_elem(p, xa), exprs.to_elem(p, xb)
    assert (algebra.canonical_key(a) == algebra.canonical_key(b)) == algebra.equals(a, b)


def _oracle_reductions(p, points, clopen):
    """Supports left by greedy removal in every order, each removal checked on the
    Stone space: f drops i when it depends on R only through R & (S - i)."""

    def factors(sub):
        seen = {}
        return all(
            seen.setdefault(seg & sub, clopen >> k & 1) == clopen >> k & 1
            for k, seg in enumerate(points)
        )

    out = set()
    for order in permutations(range(p.n)):
        support, changed = p.full, True
        while changed:
            changed = False
            for i in order:
                if support >> i & 1 and factors(support & ~(1 << i)):
                    support &= ~(1 << i)
                    changed = True
        out.add(support)
    return out


def test_support_reduce_does_not_depend_on_removal_order():
    rng = random.Random(2007)
    for p in corpus.corpus_posets(4):
        points = p.upsets_of(p.full)
        for _ in range(12):
            # a random table that depends on R only through R & dep
            dep = rng.getrandbits(p.n) if rng.random() < 0.7 else p.full
            g = {}
            clopen = sum(
                g.setdefault(seg & dep, rng.getrandbits(1)) << k for k, seg in enumerate(points)
            )
            (support,) = _oracle_reductions(p, points, clopen)
            # the table on the minimal support, read off the oracle at upset(u)
            truth = sum(
                (clopen >> points.index(p.upset(u)) & 1) << k
                for k, u in enumerate(p.upsets_of(support))
            )
            e = algebra.AlgebraElem(p, p.full, clopen)
            r = algebra.support_reduce(e)
            assert (r.support, r.truth) == (support, truth)
            assert algebra.canonical_key(e) == (support, truth)
            # the same element stored on every larger support reduces to the same key
            extra = p.full & ~support
            for more in range(extra + 1):
                if more & ~extra:
                    continue
                wider = support | more
                traces = p.upsets_of(wider)
                table = sum(
                    (clopen >> points.index(p.upset(u)) & 1) << k for k, u in enumerate(traces)
                )
                key = algebra.canonical_key(algebra.AlgebraElem(p, wider, table))
                assert key == (support, truth)


# -- the expression grammar ----------------------------------------------------------------


def test_parse_precedence(v3):
    node = exprs.parse("!x(a) & x(b) | x(c)")
    assert node[0] == "or"
    assert node[1][0] == "and"
    assert node[1][1][0] == "not"


def test_parse_constants_and_parens(v3):
    assert exprs.parse("0") == ("const", False)
    assert exprs.parse("(x(a) | 1)") == ("or", ("var", "a"), ("const", True))


def test_parse_nested_paren_names():
    node = exprs.parse("x((0,1)) & x((1,2))")
    assert node == ("and", ("var", "(0,1)"), ("var", "(1,2)"))


def test_parse_errors():
    for bad in ("", "x(a", "x(a) &", "x(a) x(b)", "y(a)", ")("):
        with pytest.raises(ParseError):
            exprs.parse(bad)


@pytest.mark.parametrize(
    "text", ["(" * 3000 + "x(a)" + ")" * 3000, "!" * 3000 + "x(a)"], ids=["parens", "nots"]
)
def test_parse_deep_nesting_is_parse_error(text):
    with pytest.raises(ParseError):
        exprs.parse(text)


@pytest.mark.parametrize("node", [
    ("var",), (), ("const",), ("not",), ("and", ("var", "a")), ("or", ("const", True)),
    ("var", "a", "b"), ["var", "a"], ("and", ("var", "a"), 5), "x(a)", None,
], ids=["var-short", "empty", "const-short", "not-short", "and-short", "or-short",
        "var-long", "list", "int-operand", "str", "none"])
def test_to_elem_rejects_malformed_nodes(v3, node):
    with pytest.raises(ParseError):
        exprs.to_elem(v3, node)


def test_to_elem_deep_tree_is_parse_error(v3):
    node = ("var", "a")
    for _ in range(3000):
        node = ("not", node)
    with pytest.raises(ParseError):
        exprs.to_elem(v3, node)
    # a left-deep chain parses without recursion, then is too deep to evaluate
    with pytest.raises(ParseError):
        exprs.to_elem(v3, exprs.parse(" & ".join(["x(a)"] * 3000)))


def _fold(p, node):
    """The element of a tree built one operation at a time."""
    kind = node[0]
    if kind == "var":
        return algebra.gen(p, node[1])
    if kind == "const":
        return algebra.one(p) if node[1] else algebra.zero(p)
    if kind == "not":
        return algebra.complement(_fold(p, node[1]))
    combine = algebra.meet if kind == "and" else algebra.join
    return combine(_fold(p, node[1]), _fold(p, node[2]))


@settings(max_examples=150, deadline=None)
@given(any_poset_expr())
def test_to_elem_matches_pairwise_fold(case):
    idx, node = case
    p = POSET_POOL[idx]
    got, want = exprs.to_elem(p, node), _fold(p, node)
    assert (got.support, got.truth, got.traces) == (want.support, want.truth, want.traces)


def test_to_elem_support_cap():
    wide = antichain(21)
    node = exprs.parse(" | ".join(f"x({i})" for i in range(21)))
    with pytest.raises(EnumerationOverflow):
        exprs.to_elem(wide, node)


def test_to_elem_unknown_name_reported_before_cap():
    # every name is resolved before the union support is enumerated
    wide = antichain(22)
    node = exprs.parse(" & ".join(f"x({i})" for i in range(22)) + " & x(zzz)")
    with pytest.raises(UnknownElement):
        exprs.to_elem(wide, node)


@pytest.mark.parametrize("kind", ["not", "and", "or"])
def test_to_elem_deep_right_tree_is_parse_error(v3, kind):
    node = ("var", "a")
    for _ in range(3000):
        node = ("not", node) if kind == "not" else (kind, ("var", "b"), node)
    with pytest.raises(ParseError):
        exprs.to_elem(v3, node)


def test_building_elements_leaves_no_garbage_cycle():
    gc.collect()
    gc.disable()
    try:
        p = random_poset(6, 0.3, seed=4)
        exprs.to_elem(p, exprs.parse("x(0) & !x(1) | (x(2) | !(x(3) & x(5)))"))
        algebra.elementary_product(p, 0b000101, 0b110000)
        for e in lattice.enumerate_l(p)[:50]:
            e.to_elem()
        del p, e
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "truth", [1 << 9, 1 << 2, -1, -4], ids=["wide", "at-count", "minus-one", "negative"]
)
def test_truth_tables_past_the_traces_raise(v3, truth):
    """The support {a} has 2 traces, so its table has 2 bits; a wider or a
    negative one once made an element whose complement was 0x203."""
    assert algebra.AlgebraElem(v3, 1, 0b11).count == 2
    with pytest.raises(UnknownElement):
        algebra.AlgebraElem(v3, 1, truth)
