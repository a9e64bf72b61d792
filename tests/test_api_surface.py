"""Size caps are module constants, never per-call parameters, and library
calls take ids and masks, not names."""

import importlib
import inspect
import pkgutil

import pytest

import posetalg
from posetalg import algebra, corpus, lattice, morphisms

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
    "lattice.canonical_sigma": lambda p: lattice.canonical_sigma(p, ["a", "c"]),
    "algebra.is_zero_syntactic": lambda p: algebra.is_zero_syntactic(p, ["a"], ["c"]),
    "algebra.elementary_product": lambda p: algebra.elementary_product(p, ["a"], ["c"]),
    "morphisms.subposet_embedding": lambda p: morphisms.subposet_embedding(p, p, ["a", "b", "c"]),
    # an empty list of names is no more a mask than a full one
    "Poset.upset([])": lambda p: p.upset([]),
    "Poset.minimals([])": lambda p: p.minimals([]),
    "Poset.maximals([])": lambda p: p.maximals([]),
    "lattice.canonical_sigma([])": lambda p: lattice.canonical_sigma(p, []),
    "algebra.is_zero_syntactic([])": lambda p: algebra.is_zero_syntactic(p, [], 0b100),
}


@pytest.mark.parametrize("name", sorted(NAME_LISTS))
def test_mask_functions_reject_name_lists(name):
    # names are resolved by Poset.id and Poset.mask, never inside these calls
    with pytest.raises(TypeError):
        NAME_LISTS[name](corpus.v3())
