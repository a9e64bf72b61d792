import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_max_antichain_size
from posetalg import lattice, wqo
from posetalg.errors import BadArity, ParseError, SizeLimit, UnknownElement
from posetalg.poset import antichain, build_poset, chain, rado_prefix, random_poset


def test_front_blocks():
    fr = wqo.Front(2, 4)
    assert fr.blocks == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    with pytest.raises(BadArity):
        wqo.Front(0, 4)
    with pytest.raises(BadArity):
        wqo.Front(5, 4)


def test_precedes_rule():
    fr = wqo.Front(2, 4)
    assert fr.precedes((0, 1), (1, 2))
    assert not fr.precedes((0, 1), (2, 3))
    assert not fr.precedes((0, 1), (0, 1))


def test_precedes_arity_one_is_positional():
    fr = wqo.Front(1, 4)
    assert fr.precedes((1,), (3,))
    assert not fr.precedes((3,), (1,))


def test_precedes_irreflexive_nonempty_successors():
    for k in (2, 3):
        fr = wqo.Front(k, 6)
        for s in fr.blocks:
            assert not fr.precedes(s, s)
            if max(s) < fr.horizon - 1:
                assert any(fr.precedes(s, t) for t in fr.blocks)


def test_classify_constant_is_perfect():
    fr = wqo.Front(2, 5)
    p = chain(1)
    arr = wqo.ArrayLabeling(fr, p, {b: "0" for b in fr.blocks})
    assert wqo.classify_array(arr)["verdict"] == "perfect"


def test_classify_min_into_chain_is_perfect():
    fr = wqo.Front(2, 6)
    p = chain(6)
    arr = wqo.ArrayLabeling(fr, p, {b: str(min(b)) for b in fr.blocks})
    out = wqo.classify_array(arr)
    assert out["verdict"] == "perfect"


def test_classify_mixed_has_witnesses():
    fr = wqo.Front(1, 4)
    p = chain(4)
    arr = wqo.ArrayLabeling(fr, p, {(0,): "1", (1,): "0", (2,): "2", (3,): "3"})
    out = wqo.classify_array(arr)
    assert out["verdict"] == "mixed"
    s, t = out["witnesses"]["bad"]
    assert not p.leq(arr.label[s], arr.label[t])
    s, t = out["witnesses"]["good"]
    assert p.leq(arr.label[s], arr.label[t])


@pytest.mark.parametrize("n", range(3, 13))
def test_rado_identity_is_bad(n):
    out = wqo.classify_array(wqo.rado_identity_labeling(n))
    assert out["verdict"] == "bad"


def test_labeling_requires_total_map():
    fr = wqo.Front(2, 4)
    with pytest.raises(UnknownElement):
        wqo.ArrayLabeling(fr, chain(1), {(0, 1): "0"})


def test_front_one_consistent_with_bad_pairs():
    p = rado_prefix(4)
    seq = ["(0,1)", "(0,2)", "(1,2)", "(0,4)"]
    fr = wqo.Front(1, len(seq))
    arr = wqo.ArrayLabeling(fr, p, {(i,): seq[i] for i in range(len(seq))})
    bad = {
        (i, j)
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if not p.leq(seq[i], seq[j])
    }
    out = wqo.classify_array(arr)
    all_pairs = {(s[0], t[0]) for s, t in fr.related_pairs()}
    if out["verdict"] == "bad":
        assert bad == all_pairs
    elif out["verdict"] == "perfect":
        assert not bad


def test_labeling_from_json_shorthand():
    arr = wqo.labeling_from_json({"generator": "rado-identity", "N": 5})
    assert arr.front.k == 2 and arr.front.horizon == 5
    assert wqo.classify_array(arr)["verdict"] == "bad"


def test_labeling_from_json_explicit():
    data = {
        "k": 2,
        "N": 3,
        "labels": {"0,1": "(0,1)", "0,2": "(0,2)", "1,2": "(1,2)"},
    }
    arr = wqo.labeling_from_json(data)
    assert arr.label[(0, 1)] == arr.poset.id("(0,1)")


def test_labeling_from_json_with_poset():
    data = {
        "k": 1,
        "N": 2,
        "poset": {"elements": ["a", "b"], "le": [["a", "b"]]},
        "labels": {"0": "a", "1": "b"},
    }
    arr = wqo.labeling_from_json(data)
    assert arr.poset.names == ("a", "b") and arr.poset.leq("a", "b")
    assert arr.label == {(0,): 0, (1,): 1}
    assert wqo.classify_array(arr)["verdict"] == "perfect"


@pytest.mark.parametrize("poset", [["a", "b"], {"elements": ["a", "b"]}, "ab"])
def test_labeling_from_json_malformed_poset(poset):
    data = {"k": 1, "N": 2, "poset": poset, "labels": {"0": "a", "1": "b"}}
    with pytest.raises(ParseError):
        wqo.labeling_from_json(data)


def test_labeling_from_json_numeric_labels_are_names():
    data = {
        "k": 1,
        "N": 2,
        "poset": {"elements": [1, 0], "le": []},
        "labels": {"0": 1, "1": "0"},
    }
    arr = wqo.labeling_from_json(data)
    assert arr.poset.names == ("1", "0")
    assert arr.label == {(0,): arr.poset.id("1"), (1,): arr.poset.id("0")} == {(0,): 0, (1,): 1}


@pytest.mark.parametrize(
    "labels",
    [["a", "b"], "a,b", None, {"0": "a", "x": "b"}, {"0": "a", "": "b"}, {"0": "a", "1": ["b"]},
     {"0": "a", "1": True}],
)
def test_labeling_from_json_malformed_labels(labels):
    data = {"k": 1, "N": 2, "poset": {"elements": ["a", "b"], "le": []}, "labels": labels}
    with pytest.raises(ParseError):
        wqo.labeling_from_json(data)


@pytest.mark.parametrize(
    "data",
    [
        {"N": 2, "labels": {}},
        {"k": 1, "labels": {}},
        {"k": "x", "N": 2, "labels": {}},
        {"k": 1, "N": "2", "labels": {}},
        {"k": 1.0, "N": 2, "labels": {}},
        {"k": True, "N": 2, "labels": {}},
        {"k": 1, "N": None, "labels": {}},
        {"generator": "rado-identity"},
        {"generator": "rado-identity", "N": "x"},
        {"generator": "rado-identity", "N": 4.5},
        ["k", 1, "N", 2],
        "rado-identity",
        None,
    ],
)
def test_labeling_from_json_malformed_document(data):
    with pytest.raises(ParseError):
        wqo.labeling_from_json(data)


@pytest.mark.parametrize(
    "data, error",
    [
        ({"generator": "rado-identity", "N": 1000}, SizeLimit),
        ({"k": 2, "N": 1000, "labels": {"0,1": "(0,1)"}}, UnknownElement),
        ({"k": 3, "N": 10 ** 9, "labels": {}}, UnknownElement),
        ({"k": 3, "N": 3, "labels": {}}, UnknownElement),
    ],
    ids=["rado-identity", "too-few-labels", "huge-front", "one-block"],
)
def test_labeling_from_json_checks_size_before_listing_blocks(monkeypatch, data, error):
    def no_front(*args):
        raise AssertionError("the front was listed before the size check")

    monkeypatch.setattr(wqo, "Front", no_front)
    with pytest.raises(error):
        wqo.labeling_from_json(data)


def test_rado_prefix_checks_size_before_listing_pairs():
    with pytest.raises(SizeLimit, match="20100"):
        rado_prefix(200)
    assert rado_prefix(-3).n == rado_prefix(0).n == 0


def width(p):
    """Exact maximum antichain size of the poset, by ``lattice.max_antichain``."""
    return len(lattice.max_antichain(list(range(p.n)), p.down)[0])


def test_probe_examples():
    assert width(antichain(4)) == 4
    assert width(chain(4)) == 1
    assert width(rado_prefix(5)) == 5


def test_narrowness_probe_is_exact_past_400_elements():
    # comb: chain c_0 < ... < c_250 with a tooth d_j above c_{j-1}
    names = [f"c{i}" for i in range(251)] + [f"d{j}" for j in range(1, 251)]
    pairs = [(f"c{i}", f"c{i + 1}") for i in range(250)]
    pairs += [(f"c{j - 1}", f"d{j}") for j in range(1, 251)]
    p = build_poset(names, pairs)
    members, _exact = lattice.max_antichain(list(range(p.n)), p.down)
    assert len(members) == 251
    for a in members:
        for b in members:
            assert a == b or p.incomparable(a, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10), st.floats(0.0, 1.0), st.integers(0, 999))
def test_probes_match_brute_force(n, density, seed):
    p = random_poset(n, density, seed)
    assert width(p) == brute_max_antichain_size(list(range(n)), p.leq)


def test_probes_match_brute_force_at_twelve():
    p = random_poset(12, 0.3, seed=4)
    assert width(p) == brute_max_antichain_size(list(range(12)), p.leq)
