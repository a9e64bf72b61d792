"""Size caps are module constants, never per-call parameters."""

import importlib
import inspect
import pkgutil

import posetalg

CAP_PARAMETERS = {
    "max_elements", "max_count", "max_size", "max_term_size", "cap", "exhaustive_limit",
}
# SuiteConfig.max_size carries the CLI's --max-size option
ALLOWED = {("suites", "SuiteConfig", "max_size")}


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
