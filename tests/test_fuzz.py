"""Fuzz the CLI's input paths in-process: every input gives exit 0, 1 or 2 with
JSON on stdout, and no exception other than SystemExit escapes.  Covers
``pal poset check`` and the four ``pal alg`` commands (eq, leq, normalize,
dnf), which share the poset loader and the checked evaluator, and the
integer options of ``pal verify``."""

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posetalg.cli import main

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
names = st.sampled_from(["a", "b", "c", "0", "1", "(0,1)", "x(a)", "é", ""]) | st.integers(-2, 9)
name_or_any = names | json_values
valid_poset_docs = st.lists(names, min_size=1, max_size=6, unique=True).flatmap(
    lambda elements: st.fixed_dictionaries(
        {
            "elements": st.just(elements),
            "le": st.lists(st.lists(st.sampled_from(elements), min_size=2, max_size=2),
                           max_size=5),
        }
    )
)
poset_docs = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {
            "elements": st.lists(name_or_any, max_size=7),
            "le": st.lists(st.lists(name_or_any, min_size=1, max_size=3), max_size=8),
        },
        optional={"name": json_values},
    ),
    valid_poset_docs,
)
poset_files = st.one_of(
    poset_docs.map(lambda doc: json.dumps(doc).encode()),
    st.binary(max_size=40),
)
alg_poset_files = valid_poset_docs.map(lambda doc: json.dumps(doc).encode()) | poset_files
terms = st.recursive(
    st.sampled_from(["x(a)", "x(b)", "x(c)", "x(0)", "x(1)", "0", "1"]),
    lambda inner: inner.map("!{}".format)
    | st.tuples(inner, st.sampled_from("&|"), inner).map("({0[0]} {0[1]} {0[2]})".format),
    max_leaves=8,
)
expr_text = st.one_of(
    terms,
    st.text(alphabet="!&|()01x abc", max_size=30),
    st.lists(
        st.sampled_from(["x(a)", "x(b)", "x(c)", "x(0)", "x(zz)", "!", "&", "|", "(", ")", "0", "1"]),
        max_size=20,
    ).map(" ".join),
)


@pytest.fixture(scope="module")
def poset_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "poset.json"


def _invoke(args, usage_errors=False):
    """Run the CLI; with ``usage_errors``, click's own rejection of an option
    (exit 2, a message on stderr, nothing on stdout) is allowed as well."""
    result = CliRunner().invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.exc_info)
    assert result.exit_code in (0, 1, 2), (args, result.output)
    if usage_errors and result.exit_code == 2 and not result.stdout:
        assert "Invalid value" in result.stderr, (args, result.stderr)
    else:
        json.loads(result.stdout)
    return result


@FUZZ
@given(raw=poset_files)
def test_fuzz_poset_check(poset_path, raw):
    poset_path.write_bytes(raw)
    _invoke(["poset", "check", str(poset_path)])


@FUZZ
@given(
    raw=alg_poset_files,
    left=terms | expr_text,
    right=terms | expr_text,
    oracle=st.booleans(),
)
def test_fuzz_alg_eq(poset_path, raw, left, right, oracle):
    poset_path.write_bytes(raw)
    _invoke(["alg", "eq", "-p", str(poset_path), *(["--oracle"] if oracle else []),
             "--", left, right])


@FUZZ
@given(
    raw=alg_poset_files,
    left=terms | expr_text,
    right=terms | expr_text,
    oracle=st.booleans(),
)
def test_fuzz_alg_leq(poset_path, raw, left, right, oracle):
    poset_path.write_bytes(raw)
    _invoke(["alg", "leq", "-p", str(poset_path), *(["--oracle"] if oracle else []),
             "--", left, right])


@pytest.mark.parametrize("command", ["normalize", "dnf"])
@FUZZ
@given(
    raw=alg_poset_files,
    expr=terms | expr_text,
)
def test_fuzz_alg_one_expression(poset_path, command, raw, expr):
    poset_path.write_bytes(raw)
    _invoke(["alg", command, "-p", str(poset_path), "--", expr])


@settings(FUZZ, max_examples=30)
@given(
    suite=st.sampled_from(["rado", "is-pi-iso"]),
    horizon=st.integers(-3, 20),
    max_size=st.integers(-3, 5),
)
def test_fuzz_verify_options(suite, horizon, max_size):
    result = _invoke(["verify", "--suite", suite, "--horizon", str(horizon),
                      "--max-size", str(max_size)], usage_errors=True)
    if horizon < 2 or max_size < 1:
        assert result.exit_code == 2 and not result.stdout
    elif suite == "is-pi-iso" or 2 <= horizon <= 15:
        assert result.exit_code == 0, result.output
