import json
import re

import pytest
from click.testing import CliRunner

from posetalg import algebra, exprs
from posetalg.cli import main
from posetalg.poset import Poset, build_poset


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def v3_file(tmp_path):
    path = tmp_path / "v3.json"
    path.write_text(
        json.dumps(
            {"name": "v3", "elements": ["a", "b", "c"], "le": [["a", "c"], ["b", "c"]]}
        )
    )
    return str(path)


@pytest.fixture
def cyclic_file(tmp_path):
    path = tmp_path / "cyc.json"
    path.write_text(
        json.dumps({"name": "cyc", "elements": ["a", "b"], "le": [["a", "b"], ["b", "a"]]})
    )
    return str(path)


def test_poset_check_ok(runner, v3_file):
    result = runner.invoke(main, ["poset", "check", v3_file])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"elements": 3, "relationPairs": 2}


def test_poset_check_cycle(runner, cyclic_file):
    result = runner.invoke(main, ["poset", "check", cyclic_file])
    assert result.exit_code == 1
    out = json.loads(result.output)
    assert out["error"] == "cycle" and set(out["witness"]) == {"a", "b"}


def test_poset_check_parse_error(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["poset", "check", str(bad)])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"] == "parse"


@pytest.mark.parametrize(
    "data",
    [
        {"elements": ["a", "b", "c"], "le": [["a", "b", "c"]]},
        {"elements": ["a", "b"], "le": ["ab"]},
        {"elements": "ab", "le": []},
        {"elements": [["a"], "b"], "le": []},
        {"elements": ["a", "b"], "le": [[["a"], "b"]]},
    ],
)
def test_poset_check_malformed_shape_is_parse_error(runner, tmp_path, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["poset", "check", str(bad)])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"] == "parse"


@pytest.mark.parametrize(
    "raw",
    [b"\xff\xfe{\x00}\x00", b'{"elements": ["\xe9"], "le": []}', b"[" * 100000],
    ids=["utf16-bom", "latin1-name", "deep-json"],
)
def test_poset_check_undecodable_file_is_parse_error(runner, tmp_path, raw):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    for args in (["poset", "check", str(bad)], ["alg", "eq", "-p", str(bad), "1", "1"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert json.loads(result.output)["error"] == "parse"


def test_poset_show(runner, v3_file):
    result = runner.invoke(main, ["poset", "show", v3_file])
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out["minimals"] == ["a", "b"] and out["maximals"] == ["c"]
    assert out["finalSegments"] == 5


def test_poset_show_counts_final_segments_without_listing_them(runner, v3_file, monkeypatch):
    def no_listing(self, support):
        raise AssertionError("upsets_of called by poset show")

    monkeypatch.setattr(Poset, "upsets_of", no_listing)
    result = runner.invoke(main, ["poset", "show", v3_file])
    assert result.exit_code == 0, result.exc_info
    assert json.loads(result.output)["finalSegments"] == 5


def test_poset_export_dot(runner, v3_file, tmp_path):
    result = runner.invoke(main, ["poset", "export-dot", v3_file])
    assert result.exit_code == 0
    assert result.output.count("->") == 2
    out = tmp_path / "g.dot"
    result = runner.invoke(main, ["poset", "export-dot", v3_file, "--out", str(out)])
    assert result.exit_code == 0
    assert out.read_text().count("->") == 2


# a quoted DOT ID: any character but a quote or backslash, or an escaped pair
DOT_ID = r'"(?:[^"\\]|\\.)*"'


def _dot_name(quoted):
    return re.sub(r"\\(.)", r"\1", quoted[1:-1])


def test_export_dot_escapes_quotes_and_backslashes(runner, tmp_path):
    names = ['a"b', "c\\", 'd\\"e']
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"name": 'g"x', "elements": names,
                                "le": [['a"b', "c\\"], ["c\\", 'd\\"e']]}))
    result = runner.invoke(main, ["poset", "export-dot", str(path)])
    assert result.exit_code == 0
    header, rankdir, *body, close = result.output.splitlines()
    head = re.fullmatch(f"digraph ({DOT_ID}) {{", header)
    assert head and _dot_name(head.group(1)) == 'g"x'
    assert (rankdir, close) == ("  rankdir=BT;", "}")
    nodes = [re.fullmatch(f"  ({DOT_ID});", line) for line in body[:3]]
    assert all(nodes), body
    assert [_dot_name(m.group(1)) for m in nodes] == names
    edges = [re.fullmatch(f"  ({DOT_ID}) -> ({DOT_ID});", line) for line in body[3:]]
    assert all(edges), body
    assert [(_dot_name(m.group(1)), _dot_name(m.group(2))) for m in edges] == [
        ('a"b', "c\\"), ("c\\", 'd\\"e')
    ]


def test_alg_eq_true(runner, v3_file):
    result = runner.invoke(main, ["alg", "eq", "-p", v3_file, "x(a) & x(c)", "x(a)"])
    assert result.exit_code == 0
    assert json.loads(result.output)["verdict"] is True


def test_alg_eq_false(runner, v3_file):
    result = runner.invoke(main, ["alg", "eq", "-p", v3_file, "x(a)", "x(b)"])
    assert result.exit_code == 0
    assert json.loads(result.output)["verdict"] is False


def test_alg_eq_oracle_agreement(runner, v3_file):
    result = runner.invoke(
        main, ["alg", "eq", "-p", v3_file, "--oracle", "!(x(a) | x(b))", "!x(a) & !x(b)"]
    )
    out = json.loads(result.output)
    assert out == {"verdict": True, "oracle": True, "agreement": True}


def test_alg_leq(runner, v3_file):
    result = runner.invoke(main, ["alg", "leq", "-p", v3_file, "x(a)", "x(c)"])
    assert json.loads(result.output)["verdict"] is True
    result = runner.invoke(main, ["alg", "leq", "-p", v3_file, "--oracle", "x(c)", "x(a)"])
    out = json.loads(result.output)
    assert out["verdict"] is False and out["agreement"] is True


def test_alg_dnf(runner, v3_file):
    result = runner.invoke(main, ["alg", "dnf", "-p", v3_file, "!x(c)"])
    out = json.loads(result.output)
    assert out["dnf"] == "-x{c}"
    assert out["products"] == [{"pos": [], "neg": ["c"]}]


def test_alg_normalize(runner, v3_file):
    result = runner.invoke(main, ["alg", "normalize", "-p", v3_file, "x(a) & x(c)"])
    out = json.loads(result.output)
    assert out["support"] == ["a"] and out["normalForm"] == "x{a}"
    result = runner.invoke(main, ["alg", "normalize", "-p", v3_file, "x(a) & !x(a)"])
    assert json.loads(result.output)["isZero"] is True


def test_alg_parse_error_exit_2(runner, v3_file):
    result = runner.invoke(main, ["alg", "eq", "-p", v3_file, "x(a) &", "x(a)"])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"] == "parse"


@pytest.mark.parametrize(
    "text",
    ["(" * 3000 + "x(a)" + ")" * 3000, "!" * 3000 + "x(a)", " & ".join(["x(a)"] * 3000)],
    ids=["parens", "nots", "meets"],
)
def test_alg_deep_nesting_exit_2(runner, v3_file, text):
    for args in ([text, "x(a)"], ["--oracle", "x(a)", text]):
        result = runner.invoke(main, ["alg", "eq", "-p", v3_file, *args])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"] == "parse"


def test_alg_numeric_names_resolve(runner, tmp_path):
    path = tmp_path / "numeric.json"
    path.write_text(json.dumps({"elements": [1, 0], "le": [[1, 0]]}))
    result = runner.invoke(main, ["alg", "eq", "-p", str(path), "x(1) & x(0)", "x(1)", "--oracle"])
    assert result.exit_code == 0, result.output
    out = json.loads(result.output)
    assert out["agreement"] is True
    p = build_poset(["1", "0"], [("1", "0")])
    e1, e2 = (exprs.to_elem(p, exprs.parse(t)) for t in ("x(1) & x(0)", "x(1)"))
    assert out["verdict"] == algebra.equals(e1, e2)
    result = runner.invoke(main, ["poset", "show", str(path)])
    assert json.loads(result.output)["covers"] == [["1", "0"]]


def test_alg_unknown_element_exit_2(runner, v3_file):
    result = runner.invoke(main, ["alg", "eq", "-p", v3_file, "x(zzz)", "x(a)"])
    assert result.exit_code == 2


def test_verify_interval_algebra(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main, ["verify", "--suite", "interval-algebra", "--out", str(out)]
    )
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "interval-algebra"
    assert report["failures"] == 0 and report["cases"] == 6
    for record in report["results"]:
        assert {"suite", "poset", "params", "verdict", "elapsed_ms"} <= set(record)


def test_verify_rado_aggregate(runner):
    result = runner.invoke(
        main, ["verify", "--suite", "rado", "--horizon", "8"]
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["badArray"] is True
    assert report["antichainSize"] >= 5


def test_verify_rado_horizon_2_is_vacuously_bad(runner):
    # front(2,2) has one block and no related pairs: no pair ascends
    result = runner.invoke(
        main, ["verify", "--suite", "rado", "--horizon", "2", "--max-size", "1"]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["failures"] == 0 and report["badArray"] is True
    (record,) = [r for r in report["results"] if r["poset"] == "front(2,2)"]
    assert record["verdict"] == "pass" and record["params"] == {"relatedPairs": 0}


def test_verify_fact24_beyond_exhaustive_corpus(runner):
    result = runner.invoke(
        main, ["verify", "--suite", "fact24", "--max-size", "6", "--seed", "42"]
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["failures"] == 0 and report["cases"] > 46544 + 1000


def test_verify_unknown_suite_usage_error(runner):
    result = runner.invoke(main, ["verify", "--suite", "nonsense"])
    assert result.exit_code == 2


def test_verify_human_mode(runner):
    result = runner.invoke(main, ["verify", "--suite", "interval-algebra", "--human"])
    assert result.exit_code == 0
    assert "\n  " in result.output  # indented JSON


@pytest.mark.parametrize(
    "args, error",
    [
        (["--suite", "rado", "--horizon", "16"], "SizeLimit"),
        (["--suite", "is-pi-iso", "--max-size", "129"], "SizeLimit"),
        (["--suite", "rado", "--out", "/nonexistent-dir/report.json"], "FileNotFoundError"),
    ],
    ids=["horizon-too-large", "max-size-too-large", "unwritable-out"],
)
def test_verify_typed_error_exit_2(runner, args, error):
    result = runner.invoke(main, ["verify", *args])
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == 2
    out = json.loads(result.stdout)
    assert out["error"] == error and out["detail"]


@pytest.mark.parametrize(
    "option, value",
    [("--horizon", "1"), ("--max-size", "-3"), ("--max-size", "0"), ("--samples", "-1")],
)
def test_verify_out_of_range_option_is_usage_error(runner, option, value):
    result = runner.invoke(main, ["verify", "--suite", "rado", option, value])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"Invalid value for '{option}'" in result.stderr


def test_export_dot_unwritable_out_exit_2(runner, v3_file):
    result = runner.invoke(main, ["poset", "export-dot", v3_file, "--out", "/nonexistent-dir/g.dot"])
    assert result.exit_code == 2
    assert json.loads(result.stdout)["error"] == "FileNotFoundError"


@pytest.fixture
def antichain21_file(tmp_path):
    path = tmp_path / "antichain21.json"
    path.write_text(json.dumps({"elements": [str(i) for i in range(21)], "le": []}))
    return str(path)


def test_poset_show_segment_overflow_exit_2(runner, antichain21_file):
    result = runner.invoke(main, ["poset", "show", antichain21_file])
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == 2
    out = json.loads(result.stdout)
    assert out["error"] == "EnumerationOverflow" and out["detail"]


def test_poset_show_segment_overflow_honours_human(runner, antichain21_file):
    result = runner.invoke(main, ["poset", "show", antichain21_file, "--human"])
    assert result.exit_code == 2
    assert result.stdout.startswith("{\n")
    assert json.loads(result.stdout)["error"] == "EnumerationOverflow"


def test_poset_show_chain_taller_than_recursion_limit(runner, tmp_path):
    n = 1100
    path = tmp_path / "chain.json"
    pairs = [[str(i + 1), str(i)] for i in range(n - 1)]
    path.write_text(json.dumps({"elements": [str(i) for i in range(n)], "le": pairs}))
    result = runner.invoke(main, ["poset", "show", str(path)])
    assert result.exit_code == 0, result.exc_info
    assert json.loads(result.stdout)["finalSegments"] == n + 1


@pytest.mark.parametrize("command", ["eq", "leq"])
def test_alg_oracle_segment_overflow_exit_2(runner, antichain21_file, command):
    result = runner.invoke(
        main, ["alg", command, "-p", antichain21_file, "--oracle", "x(0)", "x(0) | x(1)"]
    )
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == 2
    out = json.loads(result.stdout)
    assert out["error"] == "EnumerationOverflow" and out["detail"]
