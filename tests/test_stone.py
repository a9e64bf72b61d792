import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import brute_denote, brute_final_segments, every_element, subalgebra_closure
from posetalg import algebra, corpus, exprs, morphisms, stone, suites
from posetalg.errors import CountMismatch, UnknownElement
from posetalg.poset import (
    Poset,
    _bits,
    antichain,
    chain,
    popcount,
    rado_prefix,
    random_poset,
)

from test_algebra import POSET_POOL, any_poset_expr, any_poset_two_exprs


def test_space_counts(v3):
    assert len(stone.StoneSpace(chain(3)).points) == 4
    assert len(stone.StoneSpace(antichain(4)).points) == 16
    space = stone.StoneSpace(v3)
    segs = [sorted(v3.names_of(m)) for m in space.points]
    assert segs == [[], ["c"], ["a", "c"], ["b", "c"], ["a", "b", "c"]]


def test_space_matches_brute_force():
    for p in corpus.corpus_posets(4):
        assert sorted(stone.StoneSpace(p).points) == sorted(brute_final_segments(p))


def test_v_set_frozen(v3):
    space = stone.StoneSpace(v3)
    vc = stone.v_set(space, "c")
    segs = {space.points[k] for k in _bits(vc)}
    assert segs == {
        v3.mask(["c"]),
        v3.mask(["a", "c"]),
        v3.mask(["b", "c"]),
        v3.mask(["a", "b", "c"]),
    }


def _point_scan(space, i):
    """V_i by one pass over the points: the reference for ``v_set``."""
    mask = 0
    for k, seg in enumerate(space.points):
        if seg >> i & 1:
            mask |= 1 << k
    return mask


def test_v_set_matches_point_scan():
    # antichain(13) has 8,192 points, more than one transpose block
    posets = corpus.corpus_posets(5) + [
        rado_prefix(6), random_poset(20, 0.1, 101), antichain(13),
    ]
    for p in posets:
        space = stone.StoneSpace(p)
        for i, name in enumerate(p.names):
            assert stone.v_set(space, name) == stone.v_set(space, i) == _point_scan(space, i)
        with pytest.raises(UnknownElement):
            stone.v_set(space, "no such element")
        with pytest.raises(UnknownElement):
            stone.v_set(space, p.n)


def test_oracle_never_reads_the_algebra_columns(monkeypatch):
    """The generator clopens come from the point list alone, one transpose
    per space, so a fault in ``Poset.columns`` cannot reach the oracle."""
    def no_columns(self, support):
        raise AssertionError("the oracle read Poset.columns")

    transposes = []
    real = stone.transpose

    def counted(rows, width):
        transposes.append(width)
        return real(rows, width)

    monkeypatch.setattr(Poset, "columns", no_columns)
    monkeypatch.setattr(stone, "transpose", counted)
    p = random_poset(7, 0.3, 5)
    space = stone.StoneSpace(p)
    a, b = p.names[0], p.names[1]
    node = ("or", ("and", ("var", a), ("not", ("var", b))), ("const", True))
    assert stone.denote_expr(space, node) == space.full
    node = ("and", ("var", a), ("not", ("var", b)))
    assert stone.denote_expr(space, node) == _point_scan(space, 0) & ~_point_scan(space, 1)
    for i in range(p.n):
        assert stone.v_set(space, i) == _point_scan(space, i)
    assert transposes == [p.n]
    assert stone.check_binary_subbase(p) is None
    assert transposes == [p.n, p.n]


def _point_loop(space, e):
    """The clopen of e point by point, through the algebra's own trace list:
    the loop that ``denote_elem`` replaced."""
    mask = 0
    for k, seg in enumerate(space.points):
        if e.eval_segment(seg):
            mask |= 1 << k
    return mask


def test_oracle_never_reads_the_algebra_traces(monkeypatch):
    """Once a space and a hom's atoms are built, ``denote_elem`` and the
    hom's atom route read the space's own points only, and no suite
    evaluates an element at a trace.
    Checked on every element of the corpus posets with n <= 3 and on seeded
    elements on sub-supports of random posets with 5-7 elements, against the
    old point loop."""
    cases = [(stone.StoneSpace(p), list(every_element(p))) for p in corpus.corpus_posets(3)]
    rng = random.Random(11)
    for n in (5, 6, 7):
        for _ in range(4):
            p = random_poset(n, rng.choice((0.2, 0.35, 0.5)), rng.randrange(1 << 30))
            elems = []
            for _ in range(40):
                support = rng.randrange(1 << n)
                count = algebra.AlgebraElem(p, support, 0).count
                elems.append(algebra.AlgebraElem(p, support, rng.getrandbits(count)))
            cases.append((stone.StoneSpace(p), elems))
    expected = [[_point_loop(space, e) for e in elems] for space, elems in cases]
    # the identity of each algebra, into its own clopens and into itself
    homs = []
    for space, _ in cases:
        p = space.poset
        clopens = [stone.v_set(space, i) for i in range(p.n)]
        gens = [algebra.gen(p, i) for i in range(p.n)]
        pair = (morphisms.extend_hom(p, space.full, clopens),
                morphisms.extend_hom(p, algebra.one(p), gens))
        for hom in pair:
            hom.atom_image()  # builds the hom's space and lifts its images
        homs.append(pair)

    def refuse(*args):
        raise AssertionError("the oracle read the algebra's enumeration")

    monkeypatch.setattr(Poset, "upsets_of", refuse)
    monkeypatch.setattr(Poset, "columns", refuse)
    monkeypatch.setattr(algebra.AlgebraElem, "eval_trace", refuse)
    for (space, elems), want, (to_clopens, to_self) in zip(cases, expected, homs):
        assert [stone.denote_elem(space, e) for e in elems] == want
        assert [to_clopens.apply_via_atoms(e) for e in elems] == want
        images = [to_self.apply_via_atoms(e) for e in elems]
        assert all(img.support == space.poset.full for img in images)
        assert [img.truth for img in images] == want

    # chain-lattice's transfer and every other suite, with only the trace
    # evaluation refused
    monkeypatch.undo()
    monkeypatch.setattr(algebra.AlgebraElem, "eval_trace", refuse)
    report = suites.run_suite("all", suites.SuiteConfig(max_size=3, samples=40, horizon=4))
    assert report["cases"] and report["failures"] == 0


def test_denote_elem_checks_the_trace_count(v3, monkeypatch):
    """An element whose count is not the number of point blocks of its
    support raises CountMismatch, on a sub-support and on the full one."""
    space = stone.StoneSpace(v3)
    monkeypatch.setattr(algebra.AlgebraElem, "count", property(lambda e: e.entry[0] + 1))
    with pytest.raises(CountMismatch) as err:
        stone.denote_elem(space, algebra.gen(v3, "a"))
    assert err.value.witness == {"support": ["a"], "count": 3, "blocks": 2}
    with pytest.raises(CountMismatch) as err:
        stone.denote_elem(space, stone.elem_from_clopen(space, 1))
    assert err.value.witness == {"support": ["a", "b", "c"], "count": 6, "blocks": 5}


@pytest.mark.parametrize("clopen", [0b11, -1], ids=["past-the-atoms", "negative"])
def test_denote_and_map_rejects_bits_past_the_atoms(clopen):
    with pytest.raises(UnknownElement):
        stone.denote_and_map([1], clopen)


def test_signature_blocks_match_per_point_signatures():
    """Same blocks in the same order (by lowest point) as grouping each point
    by its tuple of generator bits."""
    rng = random.Random(3)
    for count, k in ((0, 2), (1, 1), (9, 0), (40, 3), (300, 5)):
        gens = [rng.getrandbits(count) for _ in range(k)]
        by_sig = {}
        for point in range(count):
            sig = tuple(g >> point & 1 for g in gens)
            by_sig[sig] = by_sig.get(sig, 0) | 1 << point
        assert stone.signature_blocks(count, gens) == list(by_sig.values())


def test_v_set_is_order_embedding():
    for p in corpus.corpus_posets(4):
        space = stone.StoneSpace(p)
        vs = [stone.v_set(space, i) for i in range(p.n)]
        for i in range(p.n):
            for j in range(p.n):
                assert (vs[i] & ~vs[j] == 0) == p.leq(i, j)


def test_denote_meet_example(v3):
    space = stone.StoneSpace(v3)
    e = algebra.meet(algebra.gen(v3, "a"), algebra.gen(v3, "b"))
    den = stone.denote_elem(space, e)
    assert {space.points[k] for k in _bits(den)} == {v3.mask(["a", "b", "c"])}


@settings(max_examples=80, deadline=None)
@given(any_poset_expr())
def test_denote_expr_vs_elem_and_brute(case):
    idx, node = case
    p = POSET_POOL[idx]
    space = stone.StoneSpace(p)
    mask_expr = stone.denote_expr(space, node)
    mask_elem = stone.denote_elem(space, exprs.to_elem(p, node))
    assert mask_expr == mask_elem
    expected = brute_denote(p, node)
    assert {space.points[k] for k in _bits(mask_expr)} == set(expected)


@settings(max_examples=80, deadline=None)
@given(any_poset_two_exprs())
def test_agreement_with_symbolic_decisions(case):
    idx, xa, xb = case
    p = POSET_POOL[idx]
    space = stone.StoneSpace(p)
    a, b = exprs.to_elem(p, xa), exprs.to_elem(p, xb)
    da, db = stone.denote_expr(space, xa), stone.denote_expr(space, xb)
    assert algebra.equals(a, b) == (da == db)
    assert algebra.is_zero(a) == (da == 0)
    assert algebra.leq(a, b) == (da & ~db == 0)


# -- subalgebra closure -----------------------------------------------------------


def test_closure_sizes(v3):
    space = stone.StoneSpace(v3)
    va, vb, vc = (stone.v_set(space, x) for x in "abc")
    assert len(subalgebra_closure(space, [va])) == 4
    closure = subalgebra_closure(space, [va, vb, vc])
    assert len(closure) == 32
    assert stone.generates(space, [va, vb, vc])
    assert subalgebra_closure(space, []) == {0, space.full}


def test_closure_power_of_two_idempotent_monotone():
    for p in corpus.corpus_posets(3):
        space = stone.StoneSpace(p)
        gens = [stone.v_set(space, i) for i in range(p.n)]
        for k in range(len(gens) + 1):
            closure = subalgebra_closure(space, gens[:k])
            assert popcount(len(closure)) == 1  # a power of two
            assert subalgebra_closure(space, sorted(closure)) == closure
            if k:
                smaller = subalgebra_closure(space, gens[: k - 1])
                assert smaller <= closure


def test_closure_matches_signature_count():
    # materializing the fixpoint is quadratic, so compare the two routes
    # where the closure stays small; larger spaces are covered by generates()
    for p in corpus.corpus_posets(4):
        space = stone.StoneSpace(p)
        if len(space.points) > 10:
            continue
        gens = [stone.v_set(space, i) for i in range(p.n)]
        closure = subalgebra_closure(space, gens)
        blocks = stone.signature_blocks(len(space.points), gens)
        assert len(closure) == 1 << len(blocks)
        assert stone.generates(space, gens) == (len(closure) == 1 << len(space.points))


def test_generators_generate():
    for p in corpus.corpus_posets(4):
        space = stone.StoneSpace(p)
        assert stone.generates(space, [stone.v_set(space, i) for i in range(p.n)])


# -- binary subbase ----------------------------------------------------------------


def test_binary_subbase_examples(v3):
    space = stone.StoneSpace(v3)
    va = stone.v_set(space, "a")
    vb = stone.v_set(space, "b")
    vc = stone.v_set(space, "c")
    sub = [va, vb, space.full ^ vc]
    inter = space.full
    for m in sub:
        inter &= m
    assert inter == 0 and va & (space.full ^ vc) == 0
    assert stone.check_binary_subbase(v3) is None
    assert stone.check_binary_subbase(antichain(2)) is None
    assert stone.check_binary_subbase(chain(2)) is None


def _subbase_family(p):
    """(sets, full): the family {V_p} u {-V_p} that check_binary_subbase scans."""
    space = stone.StoneSpace(p)
    family = [stone.v_set(space, i) for i in range(p.n)]
    return family + [space.full ^ m for m in family], space.full


def test_binary_subbase_sampled_path():
    p = corpus.corpus_posets(5)[-1]
    assert stone._scan_subfamilies(*_subbase_family(p), 500, 3, False) is None
    assert stone.check_binary_subbase(p, seed=3) is None  # SAMPLES draws at n = 5


def test_binary_subbase_brute_force_small():
    # independent scan: every empty-intersection subfamily has an empty pair
    for p in corpus.corpus_posets(3):
        space = stone.StoneSpace(p)
        family = [stone.v_set(space, i) for i in range(p.n)]
        family += [space.full ^ m for m in family]
        m = len(family)
        for sub in range(1, 1 << m):
            members = [family[k] for k in _bits(sub)]
            inter = space.full
            for x in members:
                inter &= x
            if inter == 0:
                assert any(
                    x & y == 0 for i, x in enumerate(members) for y in members[i + 1:]
                )


def _reference_scan(sets, full, samples, seed, exhaustive):
    """The subfamily scan as it was before the table: every candidate checked
    from scratch, pairs by ``combinations``."""
    m = len(sets)

    def violates(ids):
        inter = full
        for k in ids:
            inter &= sets[k]
        if inter:
            return False
        return all(sets[a] & sets[b] for a, b in combinations(ids, 2))

    if exhaustive:
        candidates = range(1, 1 << m)
    else:
        rng = random.Random(seed)
        candidates = (rng.randrange(1, 1 << m) for _ in range(samples))
    for sub in candidates:
        if violates(list(_bits(sub))):
            return sub
    return None


def test_scan_subfamilies_matches_reference_scan():
    rng = random.Random(7)
    # every pair of {0,1}, {1,2}, {0,2} meets, the triple does not
    families = [([0b011, 0b110, 0b101], 0b111)]
    for _ in range(150):
        universe = rng.randint(1, 6)
        full = (1 << universe) - 1
        m = rng.randint(1, 7)
        families.append(([rng.randint(0, full) for _ in range(m)], full))
    violating = 0
    for sets, full in families:
        size = (1 << len(sets)) - 1
        lowest = _reference_scan(sets, full, 0, 0, True)
        assert stone._scan_subfamilies(sets, full, 0, 0, True) == lowest
        violating += lowest is not None
        # the table path from 2**m - 1 draws up, the per-draw path below it
        for samples in (1, size - 1, size, 3 * size):
            for seed in range(4):
                expected = _reference_scan(sets, full, samples, seed, False)
                got = stone._scan_subfamilies(sets, full, samples, seed, False)
                assert got == expected, (sets, full, samples, seed)
    assert stone._scan_subfamilies([0b011, 0b110, 0b101], 0b111, 0, 0, True) == 0b111
    assert 20 < violating < len(families) - 20


def test_binary_subbase_draws_nothing_when_no_subfamily_violates(v3, monkeypatch):
    class NoDraws(random.Random):
        def randrange(self, *args):
            raise AssertionError("drew a subfamily")

    monkeypatch.setattr(stone.random, "Random", NoDraws)
    # v3 has 2 * 3 members: 63 non-empty subfamilies, none violating
    sets, full = _subbase_family(v3)
    assert stone._scan_subfamilies(sets, full, 63, 0, False) is None
    assert stone._scan_subfamilies(sets, full, 10000, 0, False) is None
    with pytest.raises(AssertionError, match="drew"):
        stone._scan_subfamilies(sets, full, 62, 0, False)


# -- interval algebra ---------------------------------------------------------------


def test_interval_algebra_chains():
    for n in range(1, 7):
        assert morphisms.interval_algebra_check(chain(n))


def test_interval_algebra_rejects_non_chains(v3):
    from posetalg.errors import PosetMismatch

    with pytest.raises(PosetMismatch):
        morphisms.interval_algebra_check(v3)
    with pytest.raises(PosetMismatch):
        morphisms.interval_algebra_check(chain(0))


def test_interval_algebra_sizes():
    # the ray algebra of an n-chain is the full power set: 2**n elements,
    # matching the algebra of the (n-1)-chain, whose n points give 2**n clopens
    for n in (1, 3, 5):
        rays = [((1 << n) - 1) & ~((1 << a) - 1) for a in range(n)]
        assert len(stone.signature_blocks(n, rays)) == n
        assert len(stone.StoneSpace(chain(n - 1)).points) == n
        assert morphisms.interval_algebra_check(chain(n))


def test_atom_partition_fault():
    assert stone.atom_partition_fault([0b001, 0b110], 0b111) is None
    assert stone.atom_partition_fault([0b011, 0b110], 0b111) == "not injective"
    assert stone.atom_partition_fault([0b001, 0, 0b110], 0b111) == "not injective"
    assert stone.atom_partition_fault([0b001, 0b010], 0b111) == "unit mismatch"


def test_clopen_json(v3):
    space = stone.StoneSpace(v3)
    clopen = stone.v_set(space, "a")
    out = sorted(sorted(v3.names_of(space.points[k])) for k in _bits(clopen))
    assert out == [["a", "b", "c"], ["a", "c"]]
