import copy
import os
import subprocess
import sys

import pytest

from posetalg import lattice, stone, suites
from posetalg.poset import build_poset


def strip_elapsed(report):
    out = copy.deepcopy(report)
    out.pop("elapsedMs", None)
    for record in out.get("results", []):
        record.pop("elapsed_ms", None)
    for sub in out.get("suites", []):
        sub.pop("elapsedMs", None)
        for record in sub.get("results", []):
            record.pop("elapsed_ms", None)
    return out


@pytest.mark.parametrize("name", ["rado", "pi-order", "lex-layering"])
def test_reports_deterministic(name):
    config = suites.SuiteConfig(max_size=4, samples=100, seed=7, horizon=6)
    first = suites.run_suite(name, config)
    second = suites.run_suite(name, config)
    assert strip_elapsed(first) == strip_elapsed(second)


def test_seed_changes_random_corpus():
    a = suites.run_suite("fact24", suites.SuiteConfig(max_size=3, samples=40, seed=1))
    b = suites.run_suite("fact24", suites.SuiteConfig(max_size=3, samples=40, seed=2))
    assert a["failures"] == b["failures"] == 0
    assert a["cases"] == b["cases"]


def test_record_schema():
    report = suites.run_suite("is-pi-iso", suites.SuiteConfig(max_size=3))
    assert report["cases"] >= 8
    for record in report["results"]:
        assert record["suite"] == "is-pi-iso"
        assert record["verdict"] in ("pass", "fail")
        assert "params" in record and "poset" in record and "elapsed_ms" in record


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        suites.run_suite("nope")


def test_failures_carry_witnesses():
    rec = suites._Recorder("demo")
    rec.add("p1", {"k": 1}, True)
    rec.add("p2", {"k": 2}, False, witness={"sigma": ["a"]}, cases=5)
    assert rec.failures == 1 and rec.cases == 6
    failed = [r for r in rec.results if r["verdict"] == "fail"]
    assert failed[0]["witness"] == {"sigma": ["a"]}


def test_corpus_scaling_beyond_five():
    config = suites.SuiteConfig(max_size=6, samples=40, seed=42, random_per_size=3)
    posets = suites._corpus_for(config)
    sizes = sorted({p.n for _, p in posets})
    assert sizes == [1, 2, 3, 4, 5, 6]
    assert sum(1 for _, p in posets if p.n == 6) == 3


def brute_first_mismatch(elems, pis, dens):
    """Row-major first (a, b) where l_leq and denotation inclusion differ."""
    def den(e):
        out = 0
        for s in e.terms:
            out |= dens[pis.index(s)]
        return out

    for a in elems:
        for b in elems:
            sym = lattice.l_leq(a, b)
            orc = den(a) & ~den(b) == 0
            if sym != orc:
                return {"a": str(a), "b": str(b), "l_leq": sym, "oracle": orc}
    return None


def test_l_leq_vs_oracle_reports_row_major_first_witness():
    p = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    space = stone.StoneSpace(p)
    pis = lattice.enumerate_pi(p, include_unit=True)
    dens = [suites._product_denotation(space, s) for s in pis]
    assert suites._l_leq_vs_oracle(p, space, pis, dens, True)["witness"] is None
    elems = lattice.enumerate_l(p, include_unit=True)
    found = 0
    for k in range(len(pis)):
        for point in range(len(space.points)):
            bad = list(dens)
            bad[k] ^= 1 << point
            expected = brute_first_mismatch(elems, pis, bad)
            got = suites._l_leq_vs_oracle(p, space, pis, bad, True)
            assert got == {"cases": len(elems) ** 2, "witness": expected}
            found += expected is not None
    assert found > 0


def test_atom_partition_fault():
    assert suites._atom_partition_fault([0b001, 0b110], 0b111) is None
    assert suites._atom_partition_fault([0b011, 0b110], 0b111) == "not injective"
    assert suites._atom_partition_fault([0b001, 0, 0b110], 0b111) == "not injective"
    assert suites._atom_partition_fault([0b001, 0b010], 0b111) == "unit mismatch"


def test_no_numpy_on_the_import_and_suite_path():
    src = os.path.dirname(os.path.dirname(suites.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, importlib, posetalg\n"
        "importlib.import_module('posetalg.cli')\n"
        "from posetalg import suites\n"
        "report = suites.run_suite('join-prime', suites.SuiteConfig(max_size=3))\n"
        "assert report['failures'] == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
