"""Size caps are module constants, never per-call parameters, library calls
take ids and masks, not names, and every public definition has a caller in
the package."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import click
import pytest

import posetalg
from posetalg import algebra, corpus, exprs, lattice, morphisms, poset, stone, wqo
from posetalg.errors import BadArity, ParseError, UnknownElement

CAP_PARAMETERS = {
    "max_elements", "max_count", "max_size", "max_term_size", "cap", "exhaustive_limit",
    "samples",
}
# SuiteConfig.max_size and .samples carry the CLI's --max-size and --samples
ALLOWED = {("suites", "SuiteConfig", "max_size"), ("suites", "SuiteConfig", "samples")}


def _public_callables():
    for info in pkgutil.iter_modules(posetalg.__path__):
        module = importlib.import_module(f"posetalg.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                yield info.name, name, obj
                for attr, member in vars(obj).items():
                    if callable(member) and not attr.startswith("_"):
                        yield info.name, f"{name}.{attr}", member
            elif callable(obj):
                yield info.name, name, obj


def test_no_public_function_takes_a_cap_parameter():
    found, walked = [], set()
    for module, name, fn in _public_callables():
        walked.add(module)
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):
            continue
        found += [
            f"{module}.{name}({param})"
            for param in params
            if param in CAP_PARAMETERS and (module, name, param) not in ALLOWED
        ]
    assert found == []
    assert {"poset", "algebra", "lattice", "morphisms", "stone", "corpus", "suites"} <= walked


NAME_LISTS = {
    "Poset.upset": lambda p: p.upset(["a"]),
    "Poset.minimals": lambda p: p.minimals(["a", "c"]),
    "Poset.maximals": lambda p: p.maximals(["a", "c"]),
    "algebra.is_zero_syntactic": lambda p: algebra.is_zero_syntactic(p, ["a"], ["c"]),
    "algebra.elementary_product": lambda p: algebra.elementary_product(p, ["a"], ["c"]),
    "morphisms.subposet_embedding": lambda p: morphisms.subposet_embedding(p, p, ["a", "b", "c"]),
    # an empty list of names is no more a mask than a full one
    "Poset.upset([])": lambda p: p.upset([]),
    "Poset.minimals([])": lambda p: p.minimals([]),
    "Poset.maximals([])": lambda p: p.maximals([]),
    "algebra.is_zero_syntactic([])": lambda p: algebra.is_zero_syntactic(p, [], 0b100),
}


@pytest.mark.parametrize("name", sorted(NAME_LISTS))
def test_mask_functions_reject_name_lists(name):
    # names are resolved by Poset.id and Poset.mask, never inside these calls
    with pytest.raises(TypeError):
        NAME_LISTS[name](corpus.v3())



def _nested_not(depth):
    node = ("var", "a")
    for _ in range(depth):
        node = ("not", node)
    return node


# a bad input at a public entry, once read as something else or failing with
# a bare IndexError or AttributeError, and the typed error it raises now
BAD_INPUTS = {
    "transpose-negative-row": (UnknownElement, lambda p: poset.transpose([-1], 3)),
    "max_antichain-negative-mask": (UnknownElement, lambda p: lattice.max_antichain([1], [-1])),
    "names_of-past-the-poset": (UnknownElement, lambda p: p.names_of(1 << 5)),
    "atom_partition_fault-negative": (UnknownElement, lambda p: stone.atom_partition_fault([-1], -1)),
    "denote_expr-var-without-name": (ParseError, lambda p: stone.denote_expr(stone.StoneSpace(p), ("var",))),
    "denote_expr-not-without-operand": (ParseError, lambda p: stone.denote_expr(stone.StoneSpace(p), ("not",))),
    "denote_expr-and-with-one-operand": (
        ParseError, lambda p: stone.denote_expr(stone.StoneSpace(p), ("and", ("var", "a")))),
    "denote_expr-empty-node": (ParseError, lambda p: stone.denote_expr(stone.StoneSpace(p), ())),
    "denote_expr-list-node": (ParseError, lambda p: stone.denote_expr(stone.StoneSpace(p), ["var", "a"])),
    "denote_expr-too-deep": (ParseError, lambda p: stone.denote_expr(stone.StoneSpace(p), _nested_not(5000))),
    "lattice_closure-int": (TypeError, lambda p: lattice.lattice_closure(p, [32])),
    "EMap.row_hom-int": (TypeError, lambda p: morphisms.EMap(p, p).row_hom(9)),
    "classify_array-None": (TypeError, lambda p: wqo.classify_array(None)),
    "transpose-negative-width": (BadArity, lambda p: poset.transpose([1], -1)),
    "l_leq-int": (TypeError, lambda p: lattice.l_leq(lattice.enumerate_l(p)[0], 5)),
    # a term's names are resolved as Poset.id resolves them: a bool or a
    # float is no id, and a list no name
    "to_elem-var-bool": (UnknownElement, lambda p: exprs.to_elem(p, ("var", True))),
    "to_elem-var-float": (UnknownElement, lambda p: exprs.to_elem(p, ("var", 1.5))),
    "to_elem-var-list": (TypeError, lambda p: exprs.to_elem(p, ("var", [1]))),
    "to_elem-var-unknown-name": (UnknownElement, lambda p: exprs.to_elem(p, ("var", "zzz"))),
    "to_elem-var-id-out-of-range": (UnknownElement, lambda p: exprs.to_elem(p, ("var", 3))),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_inputs_raise_typed_errors(name):
    error, call = BAD_INPUTS[name]
    with pytest.raises(error):
        call(corpus.v3())


def _unreferenced_public_definitions(src):
    """Public module-level functions and classes of the package under ``src``
    whose name no line of ``src`` reads outside their own definition."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defined, read = [], set()
    for module, tree in trees.items():
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    defined.append((module, owner))
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            read |= names - {owner}
    found = []
    for module, name in defined:
        obj = getattr(importlib.import_module(f"posetalg.{module}"), name)
        if name not in read and not isinstance(obj, click.Command):
            found.append(f"{module}.{name}")
    return found


def test_every_public_definition_has_a_caller_in_the_package():
    # a function only tests reach is surface to keep working for no caller;
    # the pal commands are reached through click, not by name
    assert _unreferenced_public_definitions(pathlib.Path(posetalg.__file__).parent) == []


def test_readme_example_runs():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
