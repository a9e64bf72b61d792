"""Command-line surface: poset ingestion, term evaluation, suite execution.

JSON-first output with a --human pretty mode.  Exit codes: 0 pass,
1 verified failure/counterexample, 2 usage or parse error.
"""

from __future__ import annotations

import json
import sys

import click

from . import algebra, exprs, poset as poset_mod, stone, suites
from .errors import CycleError, ParseError, PosetAlgError


def _emit(data, human, out=None):
    text = json.dumps(data, indent=2 if human else None, sort_keys=human)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    click.echo(text)


def _load_poset(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        elements, pairs = poset_mod.parse_json_dict(data)
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError, ParseError) as exc:
        click.echo(json.dumps({"error": "parse", "detail": str(exc)}))
        sys.exit(2)
    return data, elements, pairs


@click.group()
def main():
    """Exact symbolic computation in free Boolean algebras over finite posets."""


# -- poset commands ------------------------------------------------------------


@main.group("poset")
def poset_group():
    """Validate, inspect and export poset files."""


@poset_group.command("check")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json/--human", "as_json", default=True,
              help="machine or pretty output (JSON is the default)")
def poset_check(file, as_json):
    """Validate the order axioms of a poset file."""
    _data, elements, pairs = _load_poset(file)
    try:
        poset_mod.build_poset(elements, pairs)
    except CycleError as exc:
        _emit({"error": "cycle", "witness": list(exc.witness)}, not as_json)
        sys.exit(1)
    except PosetAlgError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)}, not as_json)
        sys.exit(1)
    _emit({"elements": len(elements), "relationPairs": len(pairs)}, not as_json)


@poset_group.command("show")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json/--human", "as_json", default=True)
def poset_show(file, as_json):
    """Summarize a poset: covers, extremal elements, segment count."""
    data, elements, pairs = _load_poset(file)
    try:
        p = poset_mod.build_poset(elements, pairs)
    except PosetAlgError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)}, not as_json)
        sys.exit(1)
    _emit(
        {
            "name": data.get("name", "poset"),
            "elements": list(p.names),
            "covers": [[p.names[i], p.names[j]] for i, j in p.cover_pairs()],
            "minimals": sorted(p.names_of(p.minimals())),
            "maximals": sorted(p.names_of(p.maximals())),
            "finalSegments": len(p.final_segment_masks()),
        },
        not as_json,
    )


@poset_group.command("export-dot")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def poset_export_dot(file, out):
    """Write the transitive reduction as a DOT digraph."""
    data, elements, pairs = _load_poset(file)
    try:
        p = poset_mod.build_poset(elements, pairs)
    except PosetAlgError as exc:
        click.echo(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        sys.exit(1)
    dot = p.to_dot(data.get("name", "poset"))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        click.echo(dot, nl=False)


# -- algebra commands -----------------------------------------------------------


def _parse_exprs(texts):
    try:
        return [exprs.parse(t) for t in texts]
    except ParseError as exc:
        click.echo(json.dumps({"error": "parse", "detail": str(exc)}))
        sys.exit(2)


def _poset_for_alg(path):
    _data, elements, pairs = _load_poset(path)
    try:
        return poset_mod.build_poset(elements, pairs)
    except PosetAlgError as exc:
        click.echo(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        sys.exit(1)


def _eval_checked(p, node):
    try:
        return exprs.to_elem(p, node)
    except ParseError as exc:
        click.echo(json.dumps({"error": "parse", "detail": str(exc)}))
        sys.exit(2)
    except PosetAlgError as exc:
        click.echo(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        sys.exit(2)


@main.group("alg")
def alg_group():
    """Decide equality and order of term expressions over a poset."""


@alg_group.command("eq")
@click.option("--poset", "-p", "poset_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--oracle", is_flag=True, help="cross-check against segment semantics")
@click.option("--json/--human", "as_json", default=True)
@click.argument("left")
@click.argument("right")
def alg_eq(poset_file, oracle, as_json, left, right):
    """Decide whether two expressions denote the same element."""
    p = _poset_for_alg(poset_file)
    nodes = _parse_exprs([left, right])
    e1, e2 = (_eval_checked(p, n) for n in nodes)
    verdict = algebra.equals(e1, e2)
    report = {"verdict": verdict}
    if oracle:
        space = stone.StoneSpace(p)
        oracle_verdict = stone.denote_expr(space, nodes[0]) == stone.denote_expr(space, nodes[1])
        report["oracle"] = oracle_verdict
        report["agreement"] = verdict == oracle_verdict
    _emit(report, not as_json)


@alg_group.command("leq")
@click.option("--poset", "-p", "poset_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--oracle", is_flag=True)
@click.option("--json/--human", "as_json", default=True)
@click.argument("left")
@click.argument("right")
def alg_leq(poset_file, oracle, as_json, left, right):
    """Decide whether the first expression lies below the second."""
    p = _poset_for_alg(poset_file)
    nodes = _parse_exprs([left, right])
    e1, e2 = (_eval_checked(p, n) for n in nodes)
    verdict = algebra.leq(e1, e2)
    report = {"verdict": verdict}
    if oracle:
        space = stone.StoneSpace(p)
        d1, d2 = (stone.denote_expr(space, n) for n in nodes)
        oracle_verdict = d1 & ~d2 == 0
        report["oracle"] = oracle_verdict
        report["agreement"] = verdict == oracle_verdict
    _emit(report, not as_json)


@alg_group.command("normalize")
@click.option("--poset", "-p", "poset_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--json/--human", "as_json", default=True)
@click.argument("expr")
def alg_normalize(poset_file, as_json, expr):
    """Print the canonical minimal-support form of an expression."""
    p = _poset_for_alg(poset_file)
    node = _parse_exprs([expr])[0]
    e = algebra.support_reduce(_eval_checked(p, node))
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
@click.option("--poset", "-p", "poset_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--json/--human", "as_json", default=True)
@click.argument("expr")
def alg_dnf(poset_file, as_json, expr):
    """Print a disjunctive normal form of an expression."""
    p = _poset_for_alg(poset_file)
    node = _parse_exprs([expr])[0]
    e = _eval_checked(p, node)
    products = algebra.to_dnf(e)
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
@click.option("--samples", type=int, default=1000, show_default=True)
@click.option("--max-size", type=int, default=5, show_default=True)
@click.option("--horizon", type=int, default=12, show_default=True)
@click.option("--strict-lattice", type=bool, default=False, show_default=True,
              help="exclude the empty product from lattice enumerations")
@click.option("--json/--human", "as_json", default=True)
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
    report = suites.run_suite(suite, config)
    _emit(report, not as_json, out)
    sys.exit(1 if report["failures"] else 0)


if __name__ == "__main__":
    main()
