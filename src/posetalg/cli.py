"""Command-line surface: poset ingestion, term evaluation, suite execution.

JSON-first output with a --human pretty mode.  Exit codes: 0 pass,
1 verified failure/counterexample, 2 usage or parse error.
"""

from __future__ import annotations

import json
import operator
import sys

import click

from . import algebra, exprs, poset as poset_mod, stone, suites
from .errors import CycleError, ParseError, PosetAlgError


def _emit(data, human, out=None):
    text = json.dumps(data, indent=2 if human else None, sort_keys=human)
    if out:
        _write(out, text + "\n")
    click.echo(text)


def _fail(payload, code, human=False):
    _emit(payload, human)
    sys.exit(code)


def _error(exc):
    name = "parse" if isinstance(exc, ParseError) else type(exc).__name__
    return {"error": name, "detail": str(exc)}


def _checked(fn, *args, human=False):
    """``fn(*args)``, or exit 2 with the type of the PosetAlgError it raised."""
    try:
        return fn(*args)
    except PosetAlgError as exc:
        _fail(_error(exc), 2, human)


def _write(path, text):
    """Write an output file; one that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(_error(exc), 2)


def _load_poset(path, human=False, cycle_witness=False):
    """(built Poset, raw JSON object) of a poset file, or exit: 2 with a
    parse error for a file that is not a readable poset object, 1 with the
    error type for one that is no order (``cycle_witness`` reports a cycle by
    its pair of names instead)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        elements, pairs = poset_mod.parse_json_dict(data)
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError, ParseError) as exc:
        _fail({"error": "parse", "detail": str(exc)}, 2)
    try:
        return poset_mod.build_poset(elements, pairs), data
    except PosetAlgError as exc:
        if cycle_witness and isinstance(exc, CycleError):
            _fail({"error": "cycle", "witness": list(exc.witness)}, 1, human)
        _fail(_error(exc), 1, human)


_poset_file = click.argument("file", type=click.Path(exists=True, dir_okay=False))
_json_flag = click.option("--json/--human", "as_json", default=True,
                          help="machine or pretty output (JSON is the default)")


@click.group()
def main():
    """Exact symbolic computation in free Boolean algebras over finite posets."""


# -- poset commands ------------------------------------------------------------


@main.group("poset")
def poset_group():
    """Validate, inspect and export poset files."""


@poset_group.command("check")
@_poset_file
@_json_flag
def poset_check(file, as_json):
    """Validate the order axioms of a poset file."""
    _p, data = _load_poset(file, not as_json, cycle_witness=True)
    _emit({"elements": len(data["elements"]), "relationPairs": len(data["le"])}, not as_json)


@poset_group.command("show")
@_poset_file
@_json_flag
def poset_show(file, as_json):
    """Summarize a poset: covers, extremal elements, segment count."""
    p, data = _load_poset(file, not as_json)
    _emit(
        {
            "name": data.get("name", "poset"),
            "elements": list(p.names),
            "covers": [[p.names[i], p.names[j]] for i, j in p.cover_pairs()],
            "minimals": sorted(p.names_of(p.minimals())),
            "maximals": sorted(p.names_of(p.maximals())),
            "finalSegments": _checked(p.columns, p.full, human=not as_json)[0],
        },
        not as_json,
    )


@poset_group.command("export-dot")
@_poset_file
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def poset_export_dot(file, out):
    """Write the transitive reduction as a DOT digraph."""
    p, data = _load_poset(file)
    dot = p.to_dot(data.get("name", "poset"))
    if out:
        _write(out, dot)
    else:
        click.echo(dot, nl=False)


# -- algebra commands -----------------------------------------------------------


_poset_option = click.option("--poset", "-p", "poset_file", required=True,
                             type=click.Path(exists=True, dir_okay=False))


@main.group("alg")
def alg_group():
    """Decide equality and order of term expressions over a poset."""


def _comparison(name, decide, holds, doc):
    """An ``alg`` command deciding ``decide(left, right)``; ``--oracle`` adds
    ``holds`` of the two clopen denotations."""

    @alg_group.command(name, help=doc)
    @_poset_option
    @click.option("--oracle", is_flag=True, help="cross-check against segment semantics")
    @_json_flag
    @click.argument("left")
    @click.argument("right")
    def command(poset_file, oracle, as_json, left, right):
        p, _data = _load_poset(poset_file)
        nodes = [_checked(exprs.parse, text) for text in (left, right)]
        verdict = decide(*(_checked(exprs.to_elem, p, n) for n in nodes))
        report = {"verdict": verdict}
        if oracle:
            space = _checked(stone.StoneSpace, p)
            oracle_verdict = holds(*(stone.denote_expr(space, n) for n in nodes))
            report["oracle"] = oracle_verdict
            report["agreement"] = verdict == oracle_verdict
        _emit(report, not as_json)

    return command


alg_eq = _comparison("eq", algebra.equals, operator.eq,
                     "Decide whether two expressions denote the same element.")
alg_leq = _comparison("leq", algebra.leq, lambda d1, d2: d1 & ~d2 == 0,
                      "Decide whether the first expression lies below the second.")


@alg_group.command("normalize")
@_poset_option
@_json_flag
@click.argument("expr")
def alg_normalize(poset_file, as_json, expr):
    """Print the canonical minimal-support form of an expression."""
    p, _data = _load_poset(poset_file)
    node = _checked(exprs.parse, expr)
    e = algebra.support_reduce(_checked(exprs.to_elem, p, node))
    _emit(
        {
            "support": sorted(p.names_of(e.support)),
            "normalForm": str(e),
            "isZero": algebra.is_zero(e),
            "isOne": algebra.is_one(e),
        },
        not as_json,
    )


@alg_group.command("dnf")
@_poset_option
@_json_flag
@click.argument("expr")
def alg_dnf(poset_file, as_json, expr):
    """Print a disjunctive normal form of an expression."""
    p, _data = _load_poset(poset_file)
    node = _checked(exprs.parse, expr)
    products = algebra.to_dnf(_checked(exprs.to_elem, p, node))
    _emit(
        {
            "dnf": algebra.dnf_str(products, p),
            "products": [
                {"pos": sorted(p.names_of(pr.pos)), "neg": sorted(p.names_of(pr.neg))}
                for pr in products
            ],
        },
        not as_json,
    )


# -- verification suites -----------------------------------------------------------


@main.command("verify")
@click.option("--suite", required=True,
              type=click.Choice(sorted(suites.SUITES) + ["all"]))
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--samples", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--max-size", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--horizon", type=click.IntRange(min=2), default=12, show_default=True)
@click.option("--strict-lattice", type=bool, default=False, show_default=True,
              help="exclude the empty product from lattice enumerations")
@_json_flag
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def verify(suite, seed, samples, max_size, horizon, strict_lattice, as_json, out):
    """Run a verification suite over the built-in corpus."""
    config = suites.SuiteConfig(
        max_size=max_size,
        samples=samples,
        seed=seed,
        horizon=horizon,
        strict=strict_lattice,
    )
    report = _checked(suites.run_suite, suite, config)
    _emit(report, not as_json, out)
    sys.exit(1 if report["failures"] else 0)


if __name__ == "__main__":
    main()
