import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_final_segments, brute_initial_segments
from posetalg import algebra, corpus, lattice, morphisms
from posetalg.errors import (
    BadArity,
    CycleError,
    DuplicateName,
    NotAnOrder,
    ParseError,
    SizeLimit,
    UnknownElement,
)
from posetalg.poset import (
    _TRANSPOSE_BLOCK,
    MAX_ELEMENTS,
    Poset,
    _bits,
    _byte_tables,
    _gather,
    antichain,
    build_poset,
    chain,
    lex_sum,
    linear_augmentation,
    parse_json_dict,
    product,
    rado_prefix,
    random_poset,
    transpose,
)


def test_build_v3(v3):
    assert v3.leq("a", "c") and v3.leq("b", "c")
    assert v3.incomparable("a", "b")
    assert not v3.incomparable("a", "c")


def test_cycle_rejected():
    with pytest.raises(CycleError) as err:
        build_poset(["0", "1"], [("0", "1"), ("1", "0")])
    assert set(err.value.witness) == {"0", "1"}


def test_poset_rows_validated_by_raising():
    # typed errors, not asserts, so the checks hold under python -O as well
    with pytest.raises(CycleError) as err:
        Poset(["a", "b"], [0b11, 0b11])
    assert set(err.value.witness) == {"a", "b"}
    with pytest.raises(NotAnOrder, match="reflexive"):
        Poset(["a", "b"], [0b01, 0b00])
    with pytest.raises(NotAnOrder, match="transitive"):
        Poset(["a", "b", "c"], [0b011, 0b110, 0b100])


@pytest.mark.parametrize(
    "names, rows",
    [(["a"], [1, 2]), (["a", "b"], [1]), (["a"], [0b11]), (["a"], [-1]), (["a", "b"], [0b111, 0b10])],
    ids=["extra-row", "missing-row", "bit-past-the-names", "negative-row", "high-bit-on-a-valid-row"],
)
def test_poset_rows_must_match_the_names(names, rows):
    with pytest.raises(NotAnOrder):
        Poset(names, rows)


# masks with a bit outside v3's three elements, which were once cut to the
# poset's bits, or read past them
OUT_OF_RANGE = {
    "upsets_of": lambda p: p.upsets_of(0b1000),
    "upsets_of-negative": lambda p: p.upsets_of(-1),
    "columns": lambda p: p.columns(0b1011),
    "AlgebraElem": lambda p: algebra.AlgebraElem(p, 0b1001, 1),
    "product_elem": lambda p: algebra.product_elem(p, 0b1000),
    "induced": lambda p: p.induced(0b1100),
    "upset": lambda p: p.upset(1 << 3),
    "upset-negative": lambda p: p.upset(-1),
    "minimals": lambda p: p.minimals(1 << 5),
    "maximals-negative": lambda p: p.maximals(-2),
    "is_zero_syntactic": lambda p: algebra.is_zero_syntactic(p, 1 << 4, 1),
    "is_zero_syntactic-tau": lambda p: algebra.is_zero_syntactic(p, 1, 0b1000),
    "is_zero_syntactic-negative-tau": lambda p: algebra.is_zero_syntactic(p, 1, -1),
    "pi_leq_masks-s": lambda p: lattice.pi_leq_masks(p, 1 << 4, 1),
    "pi_leq_masks-t": lambda p: lattice.pi_leq_masks(p, 1, 1 << 4),
    "pi_leq_masks-negative-t": lambda p: lattice.pi_leq_masks(p, 1, -1),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_masks_outside_the_poset_raise(v3, name):
    with pytest.raises(UnknownElement):
        OUT_OF_RANGE[name](v3)
    assert all(support & ~v3.full == 0 for support in v3._cache)


def test_transitivity_inferred():
    p = build_poset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    assert p.leq("0", "2")


def test_duplicate_name():
    with pytest.raises(DuplicateName):
        build_poset(["a", "a"], [])


def test_unknown_element(v3):
    with pytest.raises(UnknownElement):
        v3.leq("a", "z")
    with pytest.raises(UnknownElement):
        v3.id(17)


def test_upset_downset_minimals(v3):
    assert sorted(v3.names_of(v3.upset(v3.mask(["a"])))) == ["a", "c"]
    assert sorted(v3.names_of(v3.minimals(v3.mask(["a", "c"])))) == ["a"]
    assert v3.upset(0) == 0
    assert sorted(v3.names_of(v3.down[v3.id("c")])) == ["a", "b", "c"]


def test_initial_segments_examples(v3):
    assert len(chain(2).initial_segments()) == 3
    segs = [sorted(v3.names_of(m)) for m in v3.initial_segments()]
    assert segs == [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]]
    assert len(antichain(3).initial_segments()) == 8


def test_chain_and_antichain():
    c = chain(3)
    assert c.leq(0, 2) and not c.leq(2, 0)
    assert not c.incomparable("0", "2")
    a = antichain(3)
    assert a.incomparable(0, 2)


def test_dual_involution():
    for p in corpus.corpus_posets(4):
        dual = Poset(p.names, p.down)
        d = Poset(dual.names, dual.down)
        assert d.up == p.up and d.names == p.names


def test_dual_swaps_segments():
    for p in corpus.corpus_posets(4):
        dual = Poset(p.names, p.down)
        assert len(p.initial_segments()) == len(dual.final_segment_masks())


def test_upset_matches_minimals():
    for p in corpus.corpus_posets(4):
        for s in range(1 << p.n):
            mins = p.minimals(s)
            assert p.minimals(mins) == mins
            assert p.upset(s) == p.upset(mins)


def test_segment_enumeration_against_brute_force():
    for p in corpus.corpus_posets(4):
        assert sorted(p.final_segment_masks()) == sorted(brute_final_segments(p))
        assert sorted(p.initial_segments()) == sorted(brute_initial_segments(p))


RADO3_PAIRS = [(i, j) for i in range(3) for j in range(i + 1, 4)]


def rado_rule(a, b):
    (i, j), (k, l) = a, b
    return (i == k and j <= l) or j < k


def test_rado_prefix_against_rule_table():
    p = rado_prefix(3)
    assert p.n == len(RADO3_PAIRS) == 6
    for a in RADO3_PAIRS:
        for b in RADO3_PAIRS:
            assert p.leq(f"({a[0]},{a[1]})", f"({b[0]},{b[1]})") == rado_rule(a, b)
    assert p.leq("(0,1)", "(2,3)")
    assert p.incomparable("(0,3)", "(1,3)")


def test_rado_prefix_is_transitive_reflexive_antisymmetric():
    p = rado_prefix(5)
    for i in range(p.n):
        assert p.up[i] >> i & 1
        for j in _bits(p.up[i]):
            assert p.up[i] | p.up[j] == p.up[i]  # transitivity
            if i != j:
                assert not p.up[j] >> i & 1  # antisymmetry


def test_lex_sum_bottom_below_top():
    s = lex_sum(chain(2), [antichain(2), antichain(2)])
    assert s.n == 4
    for bottom in ("0.0", "0.1"):
        for top in ("1.0", "1.1"):
            assert s.leq(bottom, top)
    assert s.incomparable("0.0", "0.1")
    assert s.incomparable("1.0", "1.1")


def test_lex_sum_empty_parts_allowed():
    s = lex_sum(chain(3), [chain(1), antichain(0), chain(1)])
    assert s.n == 2
    assert s.leq("0.0", "2.0")


def test_lex_sum_needs_one_part_per_index_element():
    # an arity mistake, not a size cap
    with pytest.raises(BadArity):
        lex_sum(chain(2), [chain(1)])


def test_disjoint_sum():
    s = lex_sum(antichain(2), [chain(2), chain(2)])
    assert s.leq("0.0", "0.1") and s.leq("1.0", "1.1")
    assert s.incomparable("0.1", "1.0")


def test_product_order():
    p, index = product(chain(2), chain(2))
    assert p.n == 4
    assert p.leq(index[(0, 0)], index[(1, 1)])
    assert p.incomparable(index[(0, 1)], index[(1, 0)])


def _product_by_pairs(p, q):
    """The coordinatewise product as it was built one related pair at a time:
    (names, rows, index)."""
    names, index = [], {}
    for a in range(p.n):
        for b in range(q.n):
            index[(a, b)] = len(names)
            names.append(f"({p.names[a]},{q.names[b]})")
    rows = [0] * len(names)
    for (a, b), i in index.items():
        for a2 in _bits(p.up[a]):
            for b2 in _bits(q.up[b]):
                rows[i] |= 1 << index[(a2, b2)]
    return names, rows, index


def _lex_sum_by_bits(index, parts):
    """The lexicographic sum's (names, rows) as it was built one bit at a time."""
    names, offsets = [], []
    for xi, part in enumerate(parts):
        offsets.append(len(names))
        names.extend(f"{index.names[xi]}.{s}" for s in part.names)
    rows = [0] * len(names)
    for xi, part in enumerate(parts):
        off = offsets[xi]
        for p in range(part.n):
            row = 0
            for q in _bits(part.up[p]):
                row |= 1 << (off + q)
            for zeta in _bits(index.up[xi] & ~(1 << xi)):
                row |= ((1 << parts[zeta].n) - 1) << offsets[zeta]
            rows[off + p] = row
    return names, rows


SMALL_POSETS = [antichain(0)] + corpus.corpus_posets(3)


def test_product_rows_match_the_pair_loop():
    for p in SMALL_POSETS:
        for q in SMALL_POSETS:
            got, index = product(p, q)
            names, rows, expected_index = _product_by_pairs(p, q)
            assert (got.names, got.up) == (tuple(names), tuple(rows))
            assert index == expected_index
            assert all(i == a * q.n + b for (a, b), i in index.items())


def test_lex_sum_rows_match_the_bit_loop():
    checked = 0
    for index in SMALL_POSETS:
        for parts in itertools.product(SMALL_POSETS, repeat=index.n):
            got = lex_sum(index, list(parts))
            names, rows = _lex_sum_by_bits(index, parts)
            assert (got.names, got.up) == (tuple(names), tuple(rows))
            checked += 1
    assert checked == 1 + 9 + 2 * 9**2 + 5 * 9**3


@pytest.mark.parametrize("poset, text", [("chain3", "12"), ("v3", "ab"), ("v3", "a"), ("v3", "")])
def test_mask_rejects_a_string(poset, text):
    # a str is one name, not a list of one-character names
    with pytest.raises(TypeError):
        {"chain3": chain(3), "v3": corpus.v3()}[poset].mask(text)


def test_size_limit():
    with pytest.raises(SizeLimit):
        rado_prefix(20)
    with pytest.raises(SizeLimit):
        product(chain(20), chain(20))


def _factors(n):
    """(a, b) with a * b == n: 128 = 8 * 16 and 129 = 3 * 43."""
    a = 8 if n % 8 == 0 else 3
    return a, n // a


# name -> builder of a poset with n elements
AT_SIZE = {
    "product": lambda n: product(*map(chain, _factors(n)))[0],
    "lex_sum": lambda n: lex_sum(chain(2), [antichain(n // 2), antichain(n - n // 2)]),
    "disjoint_sum": lambda n: lex_sum(antichain(2), [chain(n - 1), chain(1)]),
    "random_poset": lambda n: random_poset(n, 0.05, seed=1),
    "EMap": lambda n: morphisms.EMap(*map(chain, _factors(n))).prod,
}


@pytest.mark.parametrize("name", sorted(AT_SIZE))
def test_element_cap_boundary(name):
    build = AT_SIZE[name]
    assert build(MAX_ELEMENTS).n == MAX_ELEMENTS
    with pytest.raises(SizeLimit):
        build(MAX_ELEMENTS + 1)


def test_rado_prefix_and_lex_layering_at_the_element_cap(monkeypatch):
    assert rado_prefix(15).n == 120
    with pytest.raises(SizeLimit):
        rado_prefix(16)  # 136 elements
    # over the cap, lex_layering_check raises before it lists any lattice
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated past the element cap")

    monkeypatch.setattr(lattice, "enumerate_l", no_enumeration)
    with pytest.raises(SizeLimit):
        morphisms.lex_layering_check(chain(2), [antichain(64), antichain(65)])


def test_enumeration_caps(monkeypatch):
    from posetalg.errors import EnumerationOverflow

    with pytest.raises(EnumerationOverflow):
        antichain(21).initial_segments()  # 2**21 down-sets, past MAX_SEGMENTS

    comp = [1 << i for i in range(12)]  # 12 items, each comparable only to itself
    assert len(lattice._antichains(comp, comp, 0)) == 4096
    monkeypatch.setattr(lattice, "ANTICHAIN_CAP", 50)
    with pytest.raises(EnumerationOverflow):
        lattice._antichains(comp, comp, 0)


def test_linear_augmentation_extends_order():
    for p in corpus.corpus_posets(4):
        c, mapping = linear_augmentation(p, seed=7)
        assert sorted(c.names) == sorted(p.names)
        for i in range(p.n):
            for j in range(p.n):
                if p.leq(i, j):
                    assert mapping[i] <= mapping[j]


def test_linear_augmentation_examples(v3):
    c, mapping = linear_augmentation(v3, seed=0)
    assert mapping[v3.id("c")] == 2  # the top goes last
    ident = chain(4)
    c2, mapping2 = linear_augmentation(ident, seed=5)
    assert mapping2 == [0, 1, 2, 3]
    assert c2.names == ident.names


def test_linear_augmentation_deterministic():
    a2 = antichain(2)
    runs = {tuple(linear_augmentation(a2, seed=s)[1]) for s in (3, 3, 3)}
    assert len(runs) == 1


def test_random_poset_seeded():
    p1 = random_poset(8, 0.4, seed=11)
    p2 = random_poset(8, 0.4, seed=11)
    assert p1.up == p2.up


def test_json_round_trip(v3):
    covers = [[v3.names[i], v3.names[j]] for i, j in v3.cover_pairs()]
    data = {"elements": list(v3.names), "le": covers}
    again = build_poset(*parse_json_dict(json.loads(json.dumps(data))))
    assert again.names == v3.names and again.up == v3.up


def test_dot_export_is_reduction(v3):
    dot = v3.to_dot("v3")
    assert dot.count("->") == 2
    assert '"a" -> "c";' in dot and '"b" -> "c";' in dot


def test_cover_pairs_transitive_reduction():
    c = chain(4)
    assert c.cover_pairs() == [(0, 1), (1, 2), (2, 3)]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.floats(0.0, 1.0), st.integers(0, 999))
def test_random_posets_satisfy_axioms(n, density, seed):
    p = random_poset(n, density, seed)
    for i in range(p.n):
        assert p.up[i] >> i & 1
        for j in _bits(p.up[i]):
            assert p.up[i] | p.up[j] == p.up[i]
            assert i == j or not (p.up[j] >> i & 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.floats(0.0, 1.0), st.integers(0, 999), st.integers(0, 99))
def test_linear_augmentation_property(n, density, seed, aug_seed):
    p = random_poset(n, density, seed)
    c, mapping = linear_augmentation(p, aug_seed)
    assert sorted(mapping) == list(range(n))
    for i in range(n):
        for j in range(n):
            if p.leq(i, j) and i != j:
                assert mapping[i] < mapping[j]


def test_induced_subposet(v3):
    sub, ids = v3.induced(v3.mask(["a", "c"]))
    assert sub.names == ("a", "c")
    assert sub.leq("a", "c")
    assert [v3.names[i] for i in ids] == ["a", "c"]


def test_numeric_names_become_strings():
    p = build_poset([1, 0], [(1, 0)])
    assert p.names == ("1", "0")
    assert p.leq("1", "0") and not p.leq("0", "1")
    # an int given to Poset.id is an id, not a name
    assert p.id("1") == 0 and p.id(1) == 1
    assert build_poset(*parse_json_dict({"elements": [1, 0], "le": [[1, 0]]})).leq("1", "0")


def test_names_colliding_as_strings_rejected():
    with pytest.raises(DuplicateName):
        build_poset([1, "1"], [])


@pytest.mark.parametrize(
    "data",
    [
        ["a", "b"],
        {"elements": ["a", "b"]},
        {"elements": "ab", "le": []},
        {"elements": ["a", "b"], "le": [["a"]]},
        {"elements": [True], "le": []},
        {"elements": ["a"], "le": {"a": "a"}},
    ],
)
def test_from_json_dict_malformed_is_parse_error(data):
    with pytest.raises(ParseError):
        parse_json_dict(data)


def test_upsets_of_chain_taller_than_recursion_limit():
    """The split runs in loops, so a chain of 1500 enumerates in either id
    order: rising ids (h on top, the list grows on the up(h) side) and
    falling ids (h at the bottom, it grows on the down(h) side)."""
    n = 1500
    full = (1 << n) - 1
    names = [str(i) for i in range(n)]
    rising = Poset(names, [full & ~((1 << i) - 1) for i in range(n)])
    assert rising.final_segment_masks() == tuple(
        sorted(full & ~((1 << k) - 1) for k in range(n + 1))
    )
    falling = Poset(names, [(1 << (i + 1)) - 1 for i in range(n)])
    assert falling.final_segment_masks() == tuple((1 << k) - 1 for k in range(n + 1))
    count, cols = falling.columns(falling.full)
    assert count == n + 1
    assert all(cols[p] == ((1 << (n + 1)) - 1) & ~((1 << (p + 1)) - 1) for p in range(n))


def test_transpose_matches_definition():
    """Against the double loop, on row counts either side of a block; bits
    at or above ``width`` are ignored, and a second transpose gives the
    rows back."""
    rng = random.Random(17)
    for width in (0, 1, 7, 64, 130):
        for count in (0, 1, _TRANSPOSE_BLOCK - 1, _TRANSPOSE_BLOCK, _TRANSPOSE_BLOCK + 1):
            rows = [rng.getrandbits(width + 3) for _ in range(count)]
            expected = [0] * width
            for i, row in enumerate(rows):
                for j in range(width):
                    if row >> j & 1:
                        expected[j] |= 1 << i
            cols = transpose(rows, width)
            assert cols == expected, (width, count)
            assert transpose(cols, count) == [row & ((1 << width) - 1) for row in rows]



@pytest.mark.parametrize("width", [0, 8, 9, 16, 17, 63, 65, 200])
def test_transpose_matches_the_double_loop_at_byte_edges(width):
    """Rows packed to whole bytes: at and either side of a byte edge, on a
    tuple of rows (as ``StoneSpace.points`` is) over two blocks, with rows
    that fit the width and rows with bits past it."""
    rng = random.Random(width)
    for extra in (0, 9):
        rows = tuple(rng.getrandbits(width + extra) for _ in range(_TRANSPOSE_BLOCK + 3))
        expected = [sum(1 << i for i, row in enumerate(rows) if row >> j & 1) for j in range(width)]
        assert transpose(rows, width) == expected, (width, extra)


def test_sizes_at_or_below_zero_give_the_empty_poset():
    """n <= 0 is the empty poset, as range(n) is empty, for each sized
    constructor."""
    for build in (chain, antichain, rado_prefix, lambda n: random_poset(n, 0.5, seed=1)):
        for n in (0, -1, -3):
            p = build(n)
            assert (p.n, p.full, p.up) == (0, 0, ())


def _bit_loop(mask):
    """The set bits of mask, one lowest bit at a time: the generator that
    ``_bits`` replaced."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_bits_matches_the_bit_loop():
    """Every mask below 2**16, so the stored tuples and the list path on both
    sides of one byte, seeded masks of 20, 130 and 1500 bits, and negative
    masks, which raise rather than loop forever."""
    for m in range(1 << 16):
        assert list(_bits(m)) == list(_bit_loop(m)), m
    assert all(_bits(m).__class__ is tuple for m in range(256))
    rng = random.Random(24)
    for width in (20, 130, 1500):
        for _ in range(20):
            m = rng.getrandbits(width)
            assert list(_bits(m)) == list(_bit_loop(m)), (width, m)
        assert _bits(1 << width - 1) == [width - 1]
    for m in (-1, -2, -256, -(1 << 40)):
        with pytest.raises(UnknownElement):
            _bits(m)


def test_upset_matches_gather_across_one_byte():
    """The inline lookup of a one-byte mask and the ``_gather`` path past it
    give the OR of the up rows, on posets within MAX_ELEMENTS and past it."""
    rng = random.Random(25)
    for p in (random_poset(6, 0.4, seed=1), random_poset(9, 0.3, seed=2),
              random_poset(20, 0.2, seed=3), chain(MAX_ELEMENTS + 2)):
        tables = _byte_tables(p.up)
        masks = {0, p.full, p.full & 255, p.full & 511} | {rng.getrandbits(p.n) for _ in range(50)}
        assert any(m < 256 for m in masks) and any(m >= 256 for m in masks) == (p.n > 8)
        for m in masks:
            assert p.upset(m) == _gather(tables, m), (p.n, m)


def test_gather_matches_the_bit_loop():
    """Against the OR of the rows at the set bits, for row counts on both
    sides of MAX_ELEMENTS: masks 0 and full, masks at byte boundaries and
    seeded masks past one byte."""
    rng = random.Random(23)
    for count in range(MAX_ELEMENTS + 3):
        rows = [rng.getrandbits(count + 5) for _ in range(count)]
        full = (1 << count) - 1
        masks = {0, full} | {rng.getrandbits(count) for _ in range(8)}
        for k in range(0, count, 8):
            masks |= {1 << k, full & 0xFF << k, full & (1 << k) - 1, full >> k}
        tables = _byte_tables(rows)
        for m in masks:
            want = 0
            for j in range(count):
                if m >> j & 1:
                    want |= rows[j]
            assert _gather(tables, m) == want, (count, m)
        assert any(m >= 256 for m in masks) == (count > 8)


def test_upset_on_a_tall_chain_keeps_no_table():
    """Past MAX_ELEMENTS the tables would cost 32 times the rows: ``upset``
    ORs the rows themselves, and a poset within the cap reads its tables."""
    tall = chain(1500)
    assert tall.upset(1 << 700) == tall.up[700]
    assert tall.upset(1 << 1499 | 1 << 3) == tall.up[3]
    assert tall._tables is tall.up
    assert _byte_tables([1] * (MAX_ELEMENTS + 1)) == (1,) * (MAX_ELEMENTS + 1)
    short = chain(MAX_ELEMENTS)
    assert short.upset(1 << 100) == short.up[100]
    assert [len(tab) for tab in short._tables] == [256] * (MAX_ELEMENTS // 8)
