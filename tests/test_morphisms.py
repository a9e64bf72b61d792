import itertools
import json
import operator
import random
import sys

import pytest

from conftest import every_element, subalgebra_closure
from posetalg import algebra, corpus, lattice, morphisms, stone, suites
from posetalg.errors import (
    BadArity,
    NotAnEmbedding,
    NotCofinal,
    NotDirected,
    NotOrderPreserving,
    PosetMismatch,
    PremiseFailed,
    UnknownElement,
)
from posetalg.poset import _bits, antichain, chain, lex_sum, linear_augmentation


def all_elems(poset):
    space = stone.StoneSpace(poset)
    return space, [stone.elem_from_clopen(space, m) for m in range(1 << len(space.points))]


def in_product_lattice(e):
    """Is e's clopen the union of the product clopens below it?  The emap
    suite reads membership in L(P) the same way."""
    space = stone.StoneSpace(e.poset)
    den = stone.denote_elem(space, e)
    cover = 0
    for s in lattice.enumerate_pi(e.poset):
        product_den = stone.denote_elem(space, algebra.product_elem(e.poset, s))
        if product_den & ~den == 0:
            cover |= product_den
    return cover == den


# -- extension of generator assignments ----------------------------------------------


def test_identity_extension_fixes_everything(v3):
    gens = [algebra.gen(v3, p) for p in range(v3.n)]
    hom = morphisms.extend_hom(v3, algebra.one(v3), gens)
    _, elems = all_elems(v3)
    assert len(elems) == 32
    for e in elems:
        assert algebra.equals(hom.apply(e), e)


def test_collapse_to_one():
    c2 = chain(2)
    hom = morphisms.extend_hom(c2, algebra.one(c2), [algebra.one(c2), algebra.one(c2)])
    assert algebra.is_zero(hom.apply(algebra.complement(algebra.gen(c2, 0))))


def test_not_order_preserving_rejected(v3):
    c2 = chain(2)
    images = [algebra.gen(c2, 1), algebra.gen(c2, 1), algebra.gen(c2, 0)]  # a, b, c
    with pytest.raises(NotOrderPreserving) as err:
        morphisms.extend_hom(v3, algebra.one(c2), images)
    assert err.value.witness in ((("a"), ("c")), (("b"), ("c")))


@pytest.mark.parametrize("source, images", [
    (chain(2), [1]),  # too few, with an order check that reads the missing one
    (antichain(2), [1]),  # too few, with no order check at all
    (antichain(1), [1, 2, 3]),  # too many
], ids=["too-few-chain2", "too-few-antichain2", "too-many-antichain1"])
def test_extend_hom_needs_one_image_per_element(source, images):
    with pytest.raises(BadArity):
        morphisms.extend_hom(source, 3, images)


@pytest.mark.parametrize("unit, images", [
    (3, [8]),  # a bit past the unit, which used to map x_0 to 0
    (3, [-1]),  # negative, which used to map x_0 to 3
    (0b101, [0b010]),  # a bit inside the unit's width but outside the unit
], ids=["past-the-unit", "negative", "hole-in-the-unit"])
def test_extend_hom_rejects_int_images_outside_the_unit(unit, images):
    with pytest.raises(UnknownElement):
        morphisms.extend_hom(antichain(1), unit, images)


def test_extend_hom_below_an_element_unit_compares_meets_with_the_unit(v3):
    """Into the part below u = x_a * x_b, both x_a and x_b meet u in u, so
    sending 0 <= 1 of a 2-chain to them preserves order there and extends;
    an assignment whose meets with u are out of order still raises."""
    xa, xb, xc = (algebra.gen(v3, p) for p in "abc")
    u = algebra.meet(xa, xb)
    c2 = chain(2)
    hom = morphisms.extend_hom(c2, u, [xa, xb])
    for p in range(2):
        assert algebra.equals(hom.apply(algebra.gen(c2, p)), u)
    assert algebra.is_zero(hom.apply(algebra.complement(algebra.gen(c2, 0))))
    with pytest.raises(NotOrderPreserving):
        morphisms.extend_hom(c2, xc, [xc, xa])


def test_extend_hom_rejects_an_image_off_the_units_poset(v3):
    for images in ([3], [algebra.gen(chain(1), 0)]):  # an int, an element of another poset
        with pytest.raises(PosetMismatch):
            morphisms.extend_hom(antichain(1), algebra.one(v3), images)


def test_hom_laws_exhaustive_small(v3):
    c2 = chain(2)
    hom = morphisms.extend_hom(
        v3, algebra.one(c2),
        [algebra.gen(c2, 0), algebra.gen(c2, 0), algebra.gen(c2, 1)],  # a, b, c
    )
    space, elems = all_elems(v3)
    for e in elems:
        assert algebra.equals(hom.apply(e), hom.apply_via_atoms(e))
    for p in range(v3.n):
        assert algebra.equals(hom.apply(algebra.gen(v3, p)), hom.gen_image[p])
    sample = elems[:: max(1, len(elems) // 8)]
    for e1 in sample:
        for e2 in sample:
            assert algebra.equals(
                hom.apply(algebra.meet(e1, e2)),
                algebra.meet(hom.apply(e1), hom.apply(e2)),
            )
            assert algebra.equals(
                hom.apply(algebra.join(e1, e2)),
                algebra.join(hom.apply(e1), hom.apply(e2)),
            )
    for e in sample:
        assert algebra.equals(
            hom.apply(algebra.complement(e)), algebra.complement(hom.apply(e))
        )


def test_atom_images_partition_target(v3):
    c2 = chain(2)
    hom = morphisms.extend_hom(
        v3, algebra.one(c2),
        [algebra.gen(c2, 0), algebra.gen(c2, 1), algebra.one(c2)],  # a, b, c
    )
    atoms = hom.atom_image()
    union = algebra.zero(c2)
    for i, a in enumerate(atoms):
        union = algebra.join(union, a)
        for b in atoms[i + 1:]:
            assert algebra.is_zero(algebra.meet(a, b))
    assert algebra.is_one(union)


def test_apply_on_partial_supports():
    """Elements on random sub-supports take the same image on their own
    support, on their reduced support and through the atoms."""
    rng = random.Random(7)
    tgt_poset = corpus.v3()
    tgt_space = stone.StoneSpace(tgt_poset)
    for source in corpus.corpus_posets(4):
        masks = suites._random_monotone_assignment(rng, source, tgt_space)
        homs = [
            (morphisms.extend_hom(source, tgt_space.full, masks), operator.eq),
            (morphisms.extend_hom(source, algebra.one(tgt_poset),
                                  [stone.elem_from_clopen(tgt_space, m) for m in masks]),
             algebra.equals),
        ]
        for _ in range(8):
            support = rng.randrange(1 << source.n)
            traces = source.upsets_of(support)
            e = algebra.AlgebraElem(source, support, rng.randrange(1 << len(traces)))
            reduced = algebra.support_reduce(e)
            for hom, same in homs:
                image = hom.apply(e)
                assert same(image, hom.apply(reduced)), (source, support, e.truth)
                assert same(image, hom.apply_via_atoms(e)), (source, support, e.truth)


def _join_loop(hom, e):
    """``Hom.apply`` as it was: the join, in the target, of the images of
    x_t * -x_{S-t} at e's true traces, each the unit met with the images or
    their complements, on the target's own values: ints below an int unit,
    elements through ``algebra.meet``/``join``/``complement`` otherwise."""
    unit = hom.unit
    if isinstance(unit, int):
        meet, join, complement, out = operator.and_, operator.or_, unit.__xor__, 0
    else:
        meet, join, complement = algebra.meet, algebra.join, algebra.complement
        out = algebra.zero(unit.poset)
    for k, t in enumerate(e.traces):
        if e.truth >> k & 1:
            term = unit
            for p in _bits(e.support):
                img = hom.gen_image[p]
                term = meet(term, img if t >> p & 1 else complement(img))
            out = join(out, term)
    return out


def test_hom_apply_matches_the_join_loop():
    """Into clopen masks and into a poset algebra, with images on minimal
    supports (so a poset target's images are lifted onto their union), every
    element of the corpus posets with n <= 3 maps as the join loop maps it:
    equal values and equal clopens.  Into a poset algebra, the image of an
    element on S sits on the union of the supports of the images of S."""
    rng = random.Random(5)
    for tgt_poset in (corpus.v3(), antichain(2)):
        tgt_space = stone.StoneSpace(tgt_poset)
        for source in corpus.corpus_posets(3):
            masks = suites._random_monotone_assignment(rng, source, tgt_space)
            elems = [algebra.support_reduce(stone.elem_from_clopen(tgt_space, m)) for m in masks]
            to_masks = morphisms.extend_hom(source, tgt_space.full, masks)
            to_elems = morphisms.extend_hom(source, algebra.one(tgt_poset), elems)
            for e in every_element(source):
                assert to_masks.apply(e) == _join_loop(to_masks, e)
                got, want = to_elems.apply(e), _join_loop(to_elems, e)
                union = 0
                for p in _bits(e.support):
                    union |= elems[p].support
                assert algebra.equals(got, want) and got.support == union
                assert stone.denote_elem(tgt_space, got) == stone.denote_elem(tgt_space, want)


@pytest.mark.parametrize("suite, failures, first", [
    pytest.param("hom-laws", 194, {
        "suite": "hom-laws", "poset": "triple0", "params": {"src": 1, "tgt": 1},
        "verdict": "fail", "witness": {"reason": "route mismatch", "elem": 1},
    }, id="hom-laws"),
    pytest.param("relativize", 86, {
        "suite": "relativize", "poset": "n2#1", "params": {"qs": 2},
        "verdict": "fail", "witness": {"q": "0", "reason": "route mismatch", "y": 1},
    }, id="relativize"),
    pytest.param("emap", 16, {
        "suite": "emap", "poset": "chain1xchain1", "params": {"cases": 7},
        "verdict": "fail", "witness": {"prop": 2, "a": "1", "elem": 1},
    }, id="emap"),
])
def test_corrupt_image_table_fails_suite_records(monkeypatch, suite, failures, first):
    """The suites' second routes do not read the image tables, so a broken
    table shows up as failing records: these counts and first witnesses pin
    where each case ends early."""
    build = morphisms._image_table

    def corrupt(unit, images, support, traces):
        # each term meets only the images at its trace, never a complement
        return [build(unit, images, t, [t])[0] for t in traces]

    monkeypatch.setattr(morphisms, "_image_table", corrupt)
    report = suites.run_suite(suite, suites.SuiteConfig())
    counterexample = dict(report["firstCounterexample"])
    counterexample.pop("elapsed_ms")
    assert report["failures"] == failures
    assert json.dumps(counterexample) == json.dumps(first)


# -- subposet embeddings ------------------------------------------------------------------


def test_embedding_antichain_into_v3(v3):
    q = antichain(2)
    hom = morphisms.subposet_embedding(q, v3, [v3.id("a"), v3.id("b")])
    space, elems = all_elems(q)
    assert len(elems) == 16
    images = [algebra.canonical_key(hom.apply(e)) for e in elems]
    assert len(set(images)) == 16


def test_embedding_identity(v3):
    hom = morphisms.subposet_embedding(v3, v3, list(range(3)))
    _, elems = all_elems(v3)
    for e in elems:
        assert algebra.equals(hom.apply(e), e)


def test_embedding_comparable_pair(v3):
    q = chain(2)
    hom = morphisms.subposet_embedding(q, v3, [v3.id("a"), v3.id("c")])
    _, elems = all_elems(q)
    images = [algebra.canonical_key(hom.apply(e)) for e in elems]
    assert len(set(images)) == len(elems)
    product = algebra.meet(algebra.gen(q, 0), algebra.gen(q, 1))
    assert algebra.equals(hom.apply(product), algebra.gen(v3, "a"))


def test_embedding_maps_lattice_into_lattice(v3):
    q = antichain(2)
    hom = morphisms.subposet_embedding(q, v3, [v3.id("a"), v3.id("b")])
    for le in lattice.enumerate_l(q):
        assert in_product_lattice(hom.apply(le.to_elem()))
    assert not in_product_lattice(algebra.complement(algebra.gen(v3, "c")))


def test_not_an_embedding(v3):
    with pytest.raises(NotAnEmbedding):
        morphisms.subposet_embedding(antichain(2), v3, [v3.id("a"), v3.id("c")])
    with pytest.raises(NotAnEmbedding):
        morphisms.subposet_embedding(antichain(2), v3, [v3.id("a"), v3.id("a")])
    with pytest.raises(BadArity):
        morphisms.subposet_embedding(antichain(2), v3, [v3.id("a"), v3.id("b"), v3.id("b")])
    # ids past either end are unknown, not wrapped
    for bad in (3, -1):
        with pytest.raises(UnknownElement):
            morphisms.subposet_embedding(antichain(1), v3, [bad])


# -- relativization ---------------------------------------------------------------------------


def test_relativize_v3_at_top(v3):
    rel, ids = morphisms.relativize(v3, "c")
    assert sorted(rel.source.names) == ["a", "b"]
    assert [v3.names[i] for i in ids] == list(rel.source.names)
    space = stone.StoneSpace(v3)
    vq = stone.denote_elem(space, rel.unit)
    assert vq == stone.v_set(space, "c")
    sub_space, sub_elems = all_elems(rel.source)
    assert len(sub_elems) == 16
    images = {stone.denote_elem(space, rel.apply(y)) for y in sub_elems}
    assert len(images) == 16
    assert all(m & ~vq == 0 for m in images)
    assert stone.denote_elem(space, rel.apply(algebra.one(rel.source))) == vq


def test_relativize_antichain_min():
    a2 = antichain(2)
    rel, _ = morphisms.relativize(a2, "0")
    assert rel.source.names == ("1",)
    _, sub_elems = all_elems(rel.source)
    space = stone.StoneSpace(a2)
    images = {stone.denote_elem(space, rel.apply(y)) for y in sub_elems}
    assert len(images) == 4


def test_relativize_chain_sends_generator():
    c2 = chain(2)
    rel, _ = morphisms.relativize(c2, 1)
    assert rel.source.names == ("0",)
    y = algebra.gen(rel.source, "0")
    expected = algebra.meet(algebra.gen(c2, 0), algebra.gen(c2, 1))
    assert algebra.equals(rel.apply(y), expected)


def test_relativize_respects_relative_operations(v3):
    rel, _ = morphisms.relativize(v3, "c")
    _, sub_elems = all_elems(rel.source)
    sample = sub_elems[::3]
    for y1 in sample:
        for y2 in sample:
            assert algebra.equals(
                rel.apply(algebra.meet(y1, y2)),
                algebra.meet(rel.apply(y1), rel.apply(y2)),
            )
            assert algebra.equals(
                rel.apply(algebra.join(y1, y2)),
                algebra.join(rel.apply(y1), rel.apply(y2)),
            )
    for y in sample:
        # relative complement: the unit of the image algebra is x_q
        assert algebra.equals(
            rel.apply(algebra.complement(y)),
            algebra.meet(rel.unit, algebra.complement(rel.apply(y))),
        )


def test_relativize_checks_no_order(monkeypatch):
    """``induced`` makes the inclusion an order embedding, so relativizing
    runs no ``extend_hom`` order check and decides no ``leq``: with both
    refused, every relativization of the corpus posets with n <= 3 sends each
    generator to its own generator, under the unit x_q."""

    def refuse(*args):
        raise AssertionError("relativize checked the order of its generator images")

    monkeypatch.setattr(morphisms, "extend_hom", refuse)
    monkeypatch.setattr(algebra, "leq", refuse)
    for p in corpus.corpus_posets(3):
        for q in range(p.n):
            rel, ids = morphisms.relativize(p, q)
            assert algebra.canonical_key(rel.unit) == algebra.canonical_key(algebra.gen(p, q))
            assert [algebra.canonical_key(g) for g in rel.gen_image] == [
                algebra.canonical_key(algebra.gen(p, i)) for i in ids]


def test_relativize_applies_without_a_meet(monkeypatch):
    """A relativization is a hom whose unit is x_q, so applying it meets
    nothing: with ``algebra.meet`` refused, every element of every
    relativization of the corpus posets with n <= 3 maps, by denotation, as
    the embedding's image met with x_q (the reference, computed first)."""
    cases = []
    for p in corpus.corpus_posets(3):
        space = stone.StoneSpace(p)
        for q in range(p.n):
            rel, ids = morphisms.relativize(p, q)
            embedding = morphisms.subposet_embedding(rel.source, p, ids)
            elems = list(every_element(rel.source))
            want = [stone.denote_elem(space, algebra.meet(embedding.apply(y), rel.unit))
                    for y in elems]
            cases.append((space, rel, elems, want))
    assert len(cases) == 20

    def refuse(*args):
        raise AssertionError("a relativization met its result with x_q")

    monkeypatch.setattr(algebra, "meet", refuse)
    for space, rel, elems, want in cases:
        assert [stone.denote_elem(space, rel.apply(y)) for y in elems] == want
        assert [stone.denote_elem(space, rel.apply_via_atoms(y)) for y in elems] == want


# -- chain epimorphism ----------------------------------------------------------------------


def test_chain_epimorphism_surjective(v3):
    aug = linear_augmentation(v3, seed=0)
    hom = morphisms.chain_epimorphism(v3, aug)
    c = aug[0]
    space_c = stone.StoneSpace(c)
    images = {
        stone.denote_elem(space_c, hom.apply(e))
        for e in all_elems(v3)[1]
    }
    assert len(images) == 1 << len(space_c.points)  # onto all 16 elements


def test_chain_epimorphism_identity_on_chain():
    c4 = chain(4)
    aug = linear_augmentation(c4, seed=9)
    hom = morphisms.chain_epimorphism(c4, aug)
    for p in range(4):
        assert algebra.equals(hom.apply(algebra.gen(c4, p)), algebra.gen(aug[0], p))


@pytest.mark.parametrize("augmentation, error", [
    ((chain(2), [0, 1]), BadArity),  # one chain id short
    ((chain(3), [0, 1, 3]), UnknownElement),  # an id past the chain
], ids=["short-mapping", "id-past-the-chain"])
def test_chain_epimorphism_checks_its_mapping(v3, monkeypatch, augmentation, error):
    def no_gen(poset, p):
        raise AssertionError("a generator was built before the mapping was checked")

    monkeypatch.setattr(algebra, "gen", no_gen)
    with pytest.raises(error):
        morphisms.chain_epimorphism(v3, augmentation)


def test_chain_epimorphism_collapses_meet_and_join():
    # joins of comparable generators collapse upward, meets downward:
    # h(x_a + x_b) is the generator of the later chain element and
    # h(x_a * x_b) the earlier one (checked against the denotations)
    a2 = antichain(2)
    aug = linear_augmentation(a2, seed=3)
    c, mapping = aug
    hom = morphisms.chain_epimorphism(a2, aug)
    join = algebra.join(algebra.gen(a2, 0), algebra.gen(a2, 1))
    meet = algebra.meet(algebra.gen(a2, 0), algebra.gen(a2, 1))
    assert algebra.equals(hom.apply(join), algebra.gen(c, 1))
    assert algebra.equals(hom.apply(meet), algebra.gen(c, 0))
    space = stone.StoneSpace(c)
    assert stone.denote_elem(space, hom.apply(join)) == stone.denote_elem(
        space, algebra.join(algebra.gen(c, 0), algebra.gen(c, 1))
    )


# -- the product map ----------------------------------------------------------------------------


def test_e_map_generator_equation():
    for left, right in ((chain(1), chain(1)), (chain(2), antichain(2))):
        em = morphisms.EMap(left, right)
        for p in range(left.n):
            for q in range(right.n):
                got = em.apply(algebra.gen(left, p), algebra.gen(right, q))
                assert algebra.equals(got, em.pair_gen(p, q))


def test_e_map_join_in_first_argument():
    a2, c1 = antichain(2), chain(1)
    em = morphisms.EMap(a2, c1)
    a = algebra.join(algebra.gen(a2, 0), algebra.gen(a2, 1))
    got = em.apply(a, algebra.gen(c1, 0))
    want = algebra.join(em.pair_gen(0, 0), em.pair_gen(1, 0))
    assert algebra.equals(got, want)


def test_e_map_monotone_small(v3):
    c2 = chain(2)
    em = morphisms.EMap(c2, v3)
    lp = lattice.enumerate_l(c2)
    lq = lattice.enumerate_l(v3)
    for b in lq:
        be = b.to_elem()
        for a1 in lp:
            for a2 in lp:
                if lattice.l_leq(a1, a2):
                    assert algebra.leq(
                        em.apply(a1.to_elem(), be), em.apply(a2.to_elem(), be)
                    )


def test_e_map_size_cap():
    from posetalg.errors import SizeLimit

    with pytest.raises(SizeLimit):
        morphisms.EMap(chain(12), chain(11))  # 132 > MAX_ELEMENTS


def test_e_map_accepts_lattice_elems():
    a2 = antichain(2)
    em = morphisms.EMap(a2, a2)
    le = lattice.LatticeElem(a2, [a2.mask(["0"]), a2.mask(["1"])]).to_elem()
    assert in_product_lattice(em.apply(le, le))


# -- product generation ---------------------------------------------------------------------------


def test_product_generation_true():
    left, right = chain(2), antichain(2)
    assert morphisms.product_generation_check(
        left, right, lattice.enumerate_pi(left), lattice.enumerate_pi(right)
    )


def test_product_generation_premise():
    c2 = chain(2)
    with pytest.raises(PremiseFailed):
        morphisms.product_generation_check(c2, c2, [0], [0])  # the unit alone


# -- lexicographic layering --------------------------------------------------------------------------


def test_lex_layering_examples():
    assert morphisms.lex_layering_check(chain(2), [antichain(2), antichain(2)]) is None
    assert morphisms.lex_layering_check(chain(2), [chain(1), chain(1)]) is None
    assert morphisms.lex_layering_check(antichain(2), [chain(2), chain(2)]) is None


def test_lex_layering_strictness_on_blocks(v3):
    # lower-block product strictly below upper-block product inside the sum
    total = lex_sum(chain(2), [antichain(2), antichain(2)])
    low = algebra.join(
        algebra.gen(total, "0.0"), algebra.gen(total, "0.1")
    )
    high = algebra.meet(
        algebra.gen(total, "1.0"), algebra.gen(total, "1.1")
    )
    assert algebra.leq(low, high) and not algebra.equals(low, high)


def test_lex_layering_shifts_canonical_antichains():
    # lex_layering_check shifts each part's strict lattice into the sum as is;
    # inside one part the sum's order is the part's, so every shifted sigma
    # stays minimal and the shifted terms stay pairwise incomparable
    small = [p for n in range(4) for p in corpus.all_posets(n)]
    strict = {id(p): lattice.enumerate_l(p, include_unit=False) for p in small}
    checked = 0
    for index in small:
        for parts in itertools.product(small, repeat=index.n):
            total = lex_sum(index, parts)
            off = 0
            for part in parts:
                for le in strict[id(part)]:
                    terms = [sigma << off for sigma in le.terms]
                    for s in terms:
                        assert total.minimals(s) == s
                        assert not any(
                            s != t and lattice.pi_leq_masks(total, s, t) for t in terms
                        )
                    checked += 1
                off += part.n
    assert checked == 57592  # lattice elements of every part of every sum


# -- block decomposition -----------------------------------------------------------------------------


def test_h_construction_v3(v3):
    res = morphisms.h_construction(v3, ["c"])
    assert res.generates and res.layering
    assert len(res.elems) == 5  # zero plus the four block members
    space = stone.StoneSpace(v3)
    closure = subalgebra_closure(
        space, [stone.denote_elem(space, e) for e in res.elems]
    )
    assert len(closure) == 32


def test_h_construction_chain():
    c3 = chain(3)
    res = morphisms.h_construction(c3, ["0", "1", "2"])
    assert res.generates and res.layering


def test_h_construction_errors():
    with pytest.raises(NotDirected):
        morphisms.h_construction(antichain(2), ["0"])
    c3 = chain(3)
    with pytest.raises(NotCofinal):
        morphisms.h_construction(c3, ["0"])
    with pytest.raises(NotCofinal):
        morphisms.h_construction(c3, ["2", "1"])


def test_maximal_chains_to_top(v3):
    chains = morphisms.maximal_chains_to_top(v3)
    named = {tuple(v3.names[i] for i in ch) for ch in chains}
    assert named == {("a", "c"), ("b", "c")}
    assert morphisms.maximal_chains_to_top(chain(3)) == [[0, 1, 2]]
    with pytest.raises(NotDirected):
        morphisms.maximal_chains_to_top(antichain(2))


def test_is_directed_matches_pairwise_definition():
    for poset in corpus.corpus_posets(5) + corpus.directed_corpus(6):
        pairwise = all(
            poset.up[i] & poset.up[j] for i in range(poset.n) for j in range(poset.n)
        )
        assert morphisms.is_directed(poset) == pairwise
    assert any(not morphisms.is_directed(p) for p in corpus.corpus_posets(5))
    assert all(morphisms.is_directed(p) for p in corpus.directed_corpus(6))


def test_maximal_chains_to_top_match_a_walk_by_betweenness():
    def reference(poset):
        chains = []

        def walk(path):
            head = path[0]
            steps = [
                b for b in range(poset.n)
                if b != head and poset.leq(b, head)
                and not any(c not in (b, head) and poset.leq(b, c) and poset.leq(c, head)
                            for c in range(poset.n))
            ]
            for b in steps:
                walk([b] + path)
            if not steps:
                chains.append(path)

        walk([poset.maximals().bit_length() - 1])
        return chains

    for poset in corpus.directed_corpus(6):
        assert morphisms.maximal_chains_to_top(poset) == reference(poset)


def test_maximal_chains_to_top_chain_taller_than_recursion_limit():
    n = 1100
    assert n > sys.getrecursionlimit()
    assert morphisms.maximal_chains_to_top(chain(n)) == [list(range(n))]


def test_h_construction_directed_sample():
    for poset in corpus.directed_corpus(4):
        for chain_ids in morphisms.maximal_chains_to_top(poset):
            res = morphisms.h_construction(poset, chain_ids)
            assert res.generates and res.layering
