"""The exhaustive corpus, the up-set enumerator and its bit columns against brute force."""

import hashlib
import random
from itertools import combinations, permutations

import pytest

from posetalg import corpus
from posetalg import poset as poset_module
from posetalg.errors import EnumerationOverflow
from posetalg.poset import (
    _MEMO_BITS,
    MAX_SEGMENTS,
    Poset,
    _bits,
    antichain,
    chain,
    lex_sum,
    product,
    rado_prefix,
    random_poset,
)


def reference_canon(rows, n):
    """Minimal relabeled relation matrix, one bit test per entry and perm."""
    best = None
    for perm in permutations(range(n)):
        out = [0] * n
        for i in range(n):
            row = 0
            for j in range(n):
                if rows[i] >> j & 1:
                    row |= 1 << perm[j]
            out[perm[i]] = row
        key = tuple(out)
        if best is None or key < best:
            best = key
    return best


def reference_posets(n):
    """(names, rows) of every poset on n elements up to isomorphism, in the
    order of the first up-edge mask that closes to each class."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                rows[i] |= 1 << j
        for k in range(n):
            for i in range(n):
                if rows[i] >> k & 1:
                    rows[i] |= rows[k]
        key = reference_canon(rows, n)
        if key not in seen:
            seen.add(key)
            out.append((tuple(str(i) for i in range(n)), key))
    return out


@pytest.mark.parametrize("n", range(6))
def test_all_posets_match_reference(n):
    got = [(p.names, p.up) for p in corpus.all_posets(n)]
    assert got == reference_posets(n)
    assert len(got) == [1, 1, 2, 5, 16, 63][n]


# sha256 of repr([(names, up), ...]) for all_posets(6): reference_posets would
# take minutes there, so the output is pinned instead
ALL_POSETS_6_SHA256 = "46dbea3cac3e78962be8c2b5d7f0bae8122b1106a86286d4c27f2fd7b791f543"


def test_all_posets_6_is_unchanged():
    got = [(p.names, p.up) for p in corpus.all_posets(6)]
    assert len(got) == 318  # OEIS A000112
    assert hashlib.sha256(repr(got).encode()).hexdigest() == ALL_POSETS_6_SHA256


def power_set_upsets(p, support):
    """The up-sets of ``support`` as bitmasks over p, sorted: every subset of
    the induced subposet kept when it is up-closed there."""
    sub, ids = p.induced(support)
    return tuple(
        sorted(
            sum(1 << ids[k] for k in range(sub.n) if m >> k & 1)
            for m in range(1 << sub.n)
            if sub.upset(m) == m
        )
    )


def test_upsets_of_matches_power_set_filter_to_n5_and_sampled_supports():
    checked = 0
    for p in corpus.corpus_posets(5):
        for support in range(1 << p.n):
            assert p.upsets_of(support) == power_set_upsets(p, support)
            checked += 1
    assert checked == 1 * 2 + 2 * 4 + 5 * 8 + 16 * 16 + 63 * 32  # posets times supports, n = 1..5
    rng = random.Random(5)
    sampled = [rado_prefix(5), antichain(12), product(chain(4), chain(5))[0]]
    for p in sampled + [random_poset(20, 0.1, 101)]:
        for _ in range(30):
            support = sum(1 << i for i in rng.sample(range(p.n), rng.randint(0, min(12, p.n))))
            assert p.upsets_of(support) == power_set_upsets(p, support)
    wide = antichain(12)
    assert len(wide.upsets_of(wide.full)) == 4096


def test_segment_cap_holds_cold_and_warm():
    """2**21 up-sets overflow the one cap on every route, on a cold poset and
    again once a sub-support is listed and cached; the full support is never
    cached."""
    p = antichain(21)
    assert 1 << p.n > MAX_SEGMENTS
    routes = [
        lambda: p.upsets_of(p.full),
        lambda: p.columns(p.full),
        p.initial_segments,
    ]
    for warm in (False, True):
        if warm:
            sub = 0b111  # also a sub-support that the split of p.full reaches
            assert len(p.upsets_of(sub)) == p.columns(sub)[0] == 8
            assert sub in p._cache
        for route in routes:
            with pytest.raises(EnumerationOverflow):
                route()
            assert p.full not in p._cache


def assert_columns_match_traces(p, support):
    count, cols = p.columns(support)
    traces = p.upsets_of(support)
    assert count == len(traces)
    assert sorted(cols) == list(_bits(support))
    for q, col in cols.items():
        assert col == sum(1 << k for k, t in enumerate(traces) if t >> q & 1)


def test_columns_match_trace_membership_on_corpus():
    checked = 0
    for p in corpus.corpus_posets(5):
        for support in range(1 << p.n):
            assert_columns_match_traces(p, support)
            checked += 1
    assert checked == 1 * 2 + 2 * 4 + 5 * 8 + 16 * 16 + 63 * 32  # posets times supports, n = 1..5


@pytest.mark.parametrize(
    "p",
    [rado_prefix(5), antichain(12), product(chain(4), chain(5))[0], random_poset(20, 0.1, 101)],
    ids=["rado5", "antichain12", "chain4xchain5", "random20"],
)
def test_columns_match_trace_membership_on_sampled_supports(p):
    rng = random.Random(p.n)
    for support in [0, p.full] + [rng.getrandbits(p.n) for _ in range(30)]:
        assert_columns_match_traces(p, support)


def fresh(p):
    """A copy of p with an empty cache."""
    return Poset(p.names, p.up)


def test_columns_same_cold_or_warm_in_any_build_order():
    """Column builds that stop at sub-supports kept by earlier builds give
    what a build on an empty cache gives, whatever order the supports come in."""
    rng = random.Random(12)
    for p in corpus.corpus_posets(5):
        warm = fresh(p)
        supports = list(range(1 << p.n))
        rng.shuffle(supports)
        for support in supports:
            assert warm.columns(support) == fresh(p).columns(support)
    p = random_poset(20, 0.1, 101)
    warm = fresh(p)
    for _ in range(40):
        support = sum(1 << i for i in rng.sample(range(p.n), rng.randint(2, p.n)))
        assert warm.columns(support) == fresh(p).columns(support)
        assert warm.upsets_of(support) == fresh(p).upsets_of(support)
    assert warm._memo_entries > 0
    assert warm._memo_bits <= _MEMO_BITS


def test_split_memo_stays_within_its_budget_on_a_tall_chain():
    """The falling 1500-chain reaches 1500 nested sub-supports whose columns
    total far more than the budget: the split keeps the ones that fit and
    drops the rest, and its columns are still right."""
    n = 1500
    falling = Poset([str(i) for i in range(n)], [(1 << (i + 1)) - 1 for i in range(n)])
    count, cols = falling.columns(falling.full)
    assert count == n + 1
    assert all(cols[p] == ((1 << (n + 1)) - 1) & ~((1 << (p + 1)) - 1) for p in range(n))
    assert 0 < falling._memo_bits <= _MEMO_BITS
    assert falling._memo_entries > 0 and falling._memo_refused > 0
    assert falling._memo_entries + falling._memo_refused == n - 2  # sub-supports of 2..n-1 elements
    assert len(falling._cache) == falling._memo_entries + 1


def test_overflowing_split_keeps_only_entries_under_the_cap():
    """Below a top element, 21 incomparable elements overflow at a proper
    sub-support: the split keeps the columns it solved before, each within
    MAX_SEGMENTS, and neither the overflowing sub-support nor the full one."""
    p = lex_sum(chain(2), [antichain(21), antichain(1)])
    below = p.full ^ 1 << 21
    with pytest.raises(EnumerationOverflow):
        p.columns(p.full)
    assert p._memo_entries > 0
    assert below not in p._cache and p.full not in p._cache
    for support, (count, traces, cols) in p._cache.items():
        assert count <= MAX_SEGMENTS and count == 1 << support.bit_count()
        assert traces is None and sorted(cols) == list(_bits(support))
    with pytest.raises(EnumerationOverflow):
        p.columns(p.full)
    assert below not in p._cache and p.full not in p._cache


def _reference_split(poset, support):
    """The split before its counters moved into locals, kept as the
    reference for what the split caches and counts."""
    up, down, cache = poset.up, poset.down, poset._cache
    memo = {0: (1, {})}
    users = {}
    splits = []
    stack = [support] if support else []
    while stack:
        s = stack.pop()
        h = s.bit_length() - 1
        lo_sub = s & ~down[h]
        hi_sub = s & ~up[h]
        splits.append((s, h, lo_sub, hi_sub))
        for sub in (lo_sub, hi_sub):
            if sub not in users:
                if sub & (sub - 1):
                    entry = cache.get(sub)
                    if entry is None:
                        stack.append(sub)
                    else:
                        memo[sub] = (entry[0], entry[2])
                elif sub:
                    memo[sub] = (2, {sub.bit_length() - 1: 2})
            users[sub] = users.get(sub, 0) + 1
    splits.sort()
    for s, h, lo_sub, hi_sub in splits:
        left = users[lo_sub] = users[lo_sub] - 1
        lo_count, lo_cols = memo[lo_sub] if left else memo.pop(lo_sub)
        left = users[hi_sub] = users[hi_sub] - 1
        hi_count, hi_cols = memo[hi_sub] if left else memo.pop(hi_sub)
        count = lo_count + hi_count
        if count > MAX_SEGMENTS:
            raise EnumerationOverflow(
                f"more than {MAX_SEGMENTS} up-sets on {support.bit_count()} elements"
            )
        cols = {p: lo_cols.get(p, 0) | col << lo_count for p, col in hi_cols.items()}
        ones = ((1 << hi_count) - 1) << lo_count
        cols[h] = ones
        top = s & up[h]
        for p in _bits(top ^ 1 << h):
            cols[p] = lo_cols[p] | ones
        memo[s] = (count, cols)
        if s != support:
            bits = (count + 64) * len(cols)
            if poset._memo_bits + bits > poset_module._MEMO_BITS:
                poset._memo_refused += 1
            else:
                poset._memo_bits += bits
                poset._memo_entries += 1
                cache[s] = [count, None, cols]
    return memo[support]


def _reference_columns(poset, support):
    """``Poset.columns`` on the reference split."""
    entry = poset._cache.get(support)
    if entry is None:
        count, cols = _reference_split(poset, support)
        entry = poset._cache[support] = [count, None, cols]
    return entry[0], entry[2]


def _same_state(got, want):
    assert got._cache == want._cache
    assert (got._memo_entries, got._memo_bits, got._memo_refused) == (
        want._memo_entries, want._memo_bits, want._memo_refused)


@pytest.mark.parametrize("budget", [_MEMO_BITS, 1 << 12], ids=["default-budget", "small-budget"])
def test_split_caches_and_counts_as_the_reference_split(monkeypatch, budget):
    """After every build, the split has cached the same entries and counted
    the same kept entries, bits and refusals as the reference, with a budget
    that keeps everything and one that refuses; on an overflow the counters
    it wrote back on the raise are checked too."""
    monkeypatch.setattr(poset_module, "_MEMO_BITS", budget)
    rng = random.Random(31)
    refused = 0
    grid = product(chain(4), chain(5))[0]
    # the grid with its ids reversed, so the top id of a support is minimal in
    # it and the split places elements above h, where the others place none
    falling = Poset(grid.names[::-1], [int(f"{row:020b}"[::-1], 2) for row in grid.up[::-1]])
    for p in [random_poset(20, 0.1, 101), rado_prefix(6), grid, falling]:
        got, want = fresh(p), fresh(p)
        for _ in range(60):
            support = sum(1 << i for i in rng.sample(range(p.n), rng.randint(0, p.n)))
            assert got.columns(support) == _reference_columns(want, support)
            _same_state(got, want)
        refused += got._memo_refused
    assert (refused > 0) == (budget < _MEMO_BITS)
    p = lex_sum(chain(2), [antichain(21), antichain(1)])
    got, want = fresh(p), fresh(p)
    for _ in range(2):
        with pytest.raises(EnumerationOverflow):
            got.columns(p.full)
        with pytest.raises(EnumerationOverflow):
            _reference_columns(want, p.full)
        _same_state(got, want)
        assert got._memo_entries > 0
