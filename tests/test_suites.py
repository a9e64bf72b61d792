import copy
import hashlib
import json
import os
import subprocess
import sys

import pytest

from posetalg import algebra, corpus, lattice, morphisms, stone, suites
from posetalg.poset import build_poset, linear_augmentation


def strip_elapsed(report):
    out = copy.deepcopy(report)
    out.pop("elapsedMs", None)
    for record in out.get("results", []):
        record.pop("elapsed_ms", None)
    out.get("firstCounterexample", {}).pop("elapsed_ms", None)
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
    with rec.case("p1", {"k": 1}):
        pass
    with rec.case("p2", {"k": 2}, cases=0, count_as="checked") as case:
        for i in range(10):
            case.cases += 1
            if i == 4:
                raise suites.Witness({"sigma": ["a"]})
    assert rec.failures == 1 and rec.cases == 6
    first, failed = rec.results
    assert first["verdict"] == "pass" and "witness" not in first
    assert failed["verdict"] == "fail" and failed["witness"] == {"sigma": ["a"]}
    assert failed["params"] == {"k": 2, "checked": 5}
    with pytest.raises(ZeroDivisionError):
        with rec.case("p3", cases=0) as case:
            case.cases += 3
            1 / 0
    assert len(rec.results) == 2 and rec.cases == 6 and rec.failures == 1


def test_a_wrong_trace_count_fails_suite_records(monkeypatch):
    """With every element's trace count read one too high, the oracle's
    count check ends each case that denotes an element as a failing record
    whose witness names the support, not as a traceback."""
    monkeypatch.setattr(algebra.AlgebraElem, "count", property(lambda e: e.entry[0] + 1))
    config = suites.SuiteConfig(max_size=3)
    for name in ("chain-lattice", "emap", "product-gen", "relativize", "hom-laws",
                 "h-construction", "interval-algebra"):
        report = suites.run_suite(name, config)
        failed = [r for r in report["results"] if r["verdict"] == "fail"]
        assert failed and report["failures"] == len(failed), name
        for record in failed:
            witness = record["witness"]
            assert set(witness) == {"support", "count", "blocks"}, name
            assert witness["count"] == witness["blocks"] + 1, name
    # the chain closures denote nothing; every corpus case after them fails
    verdicts = [r["verdict"] for r in suites.run_suite("chain-lattice", config)["results"]]
    assert verdicts == ["pass"] * 8 + ["fail"] * len(suites._corpus_for(config))


# Per suite at SuiteConfig(max_size=4, samples=100, horizon=6): cases,
# failures, record count and the sha256 of the report's JSON with the
# timing fields removed.
PINNED_REPORTS = {
    "fact24": (4056, 0, 29, "d8d93c85b6cf92ede7188dbe8cf225500f74d60ca47a020a9e0aa271dbfc8936"),
    "pi-order": (3956, 0, 24, "bd7b6fb49eb011563d26299010913579c36eecbb083dfa7d6de6f13f80335eb5"),
    "join-prime": (48167, 0, 24, "d8a1fc5fe929fb7c5a149c943bf36ddaf0a2321456ffe1d5f71b85bb61842ab3"),
    "is-pi-iso": (27, 0, 27, "53e86f04d366c3497bcdf79249a43abb1e8bc893a708e2a5e22f361921f0906d"),
    "chain-lattice": (32, 0, 32, "929ad8f4a6a088af6ede518d24fe79a425854c490aebd8a42bad2b2bd8544903"),
    "rado": (5, 0, 5, "81fa25d5e63d070b2a5bd2dbc76880d961323cb18ec96e82713cac5a97a3aee1"),
    "emap": (3760, 0, 16, "bfba863b6838a31b71fcc05d4d1a041c2b9c6b25b7cb2d637a247568e1c34f4d"),
    "product-gen": (17, 0, 17, "c35d1dabf12e4be479cdb1cdb511700c18596aad742da08308ecd60c7723b037"),
    "relativize": (1110, 0, 24, "ab7cbde563304112efc8a5c02480358eeaa54c8e7abfd5a79ebb90c9f7c54c02"),
    "hom-laws": (46761, 0, 200, "1a2271f5ea2762a9bf21a7815dfc18f933fd79ef2740c1c7b94b1bf01b4e19f0"),
    "h-construction": (56, 0, 25, "85c6438d5f63e54b20993972406dbc5dae9ac23cdfc716621452fd105f33cb91"),
    "binary-subbase": (24, 0, 24, "33c5a7f0afe6b64a2b6da61d7e38a5d64383a1f2d71f332d1798a2110b9eec09"),
    "interval-algebra": (6, 0, 6, "bcc393c3d08a4d5b0421773a0fbf256bf3b26d858120725ae54ba4eaa2146d87"),
    "lex-layering": (50, 0, 50, "fd0a81125d82f80520b5b033a9a355473721f2b1877bbea946a16791dc0ba2fc"),
}


def test_pinned_reports():
    assert list(PINNED_REPORTS) == list(suites.SUITES)
    config = suites.SuiteConfig(max_size=4, samples=100, horizon=6)
    for name, (cases, failures, records, digest) in PINNED_REPORTS.items():
        report = strip_elapsed(suites.run_suite(name, config))
        got = (report["cases"], report["failures"], len(report["results"]),
               hashlib.sha256(json.dumps(report).encode()).hexdigest())
        assert got == (cases, failures, records, digest), name


# The same, with --strict-lattice true, for the suites whose lattice
# enumerations then drop the unit (enumerate_pi/enumerate_l, include_unit=False).
PINNED_STRICT_REPORTS = {
    "join-prime": (43419, 0, 24, "7398925f5ad7d97d55e679dc110e922727d12636023e7a70f8a28a1a2c25ea01"),
    "chain-lattice": (32, 0, 32, "32929fe0fa12b2c37c2d0dc824f8dde72110b6f9d2ad0f5aef567420f905a8e2"),
    "emap": (2380, 0, 16, "e8578f3b105c74ed19c686bd36778e2348e25289e1fdfe0c9f7d082788429cbe"),
}


def test_pinned_strict_lattice_reports():
    config = suites.SuiteConfig(max_size=4, samples=100, horizon=6, strict=True)
    for name, (cases, failures, records, digest) in PINNED_STRICT_REPORTS.items():
        report = strip_elapsed(suites.run_suite(name, config))
        got = (report["cases"], report["failures"], len(report["results"]),
               hashlib.sha256(json.dumps(report).encode()).hexdigest())
        assert got == (cases, failures, records, digest), name


def test_point_traces_match_the_bit_loops():
    """``_point_traces`` against the loops it replaced: chain-lattice's
    pullback of each segment of a linear augmentation, and relativize's trace
    of each segment on the sub-poset's ids."""
    for p in corpus.corpus_posets(4):
        c, mapping = linear_augmentation(p, 42)
        space_c = stone.StoneSpace(c)
        pullbacks = []
        for seg in space_c.points:
            trace = 0
            for q in range(p.n):
                if seg >> mapping[q] & 1:
                    trace |= 1 << q
            pullbacks.append(trace)
        assert suites._point_traces(space_c, mapping) == pullbacks

        space = stone.StoneSpace(p)
        for q in range(p.n):
            _, sub_ids = morphisms.relativize(p, q)
            expected = [sum(1 << si for si, pid in enumerate(sub_ids) if seg >> pid & 1)
                        for seg in space.points]
            assert suites._point_traces(space, sub_ids) == expected


def test_corpus_scaling_beyond_five():
    config = suites.SuiteConfig(max_size=6, samples=40, seed=42)
    posets = suites._corpus_for(config)
    sizes = sorted({p.n for _, p in posets})
    assert sizes == [1, 2, 3, 4, 5, 6]
    assert sum(1 for _, p in posets if p.n == 6) == suites.RANDOM_PER_SIZE == 20


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


def _fresh_interpreter(code):
    """Standard output of ``code`` run by a new interpreter that imports from src/."""
    src = os.path.dirname(os.path.dirname(suites.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


# a fault, and a suite that must fail at least one record of the full run
# under it: pi-order reads pi_leq_masks on every pair, is-pi-iso the up-sets
# of the terms; each runs in its own interpreter, as the corpus keeps its
# posets and their caches for the life of a process
CERTIFIED_FAULTS = {
    "flipped-pi_leq_masks": (
        "real = lattice.pi_leq_masks\n"
        "lattice.pi_leq_masks = lambda poset, s, t: not real(poset, s, t)\n",
        "pi-order",
    ),
    "swapped-upset": (
        "real = Poset.upset\n"
        "Poset.upset = lambda self, mask: real(self, {1: 2, 2: 1}.get(mask, mask) if self.n > 1 else mask)\n",
        "is-pi-iso",
    ),
}


@pytest.mark.parametrize("fault", sorted(CERTIFIED_FAULTS))
def test_a_fault_fails_the_suite_that_certifies_it(fault):
    patch, suite = CERTIFIED_FAULTS[fault]
    code = (
        "from posetalg import lattice, suites\n"
        "from posetalg.poset import Poset\n"
        + patch
        + "config = suites.SuiteConfig(max_size=4, samples=100, horizon=6)\n"
        "report = suites.run_suite('all', config)\n"
        "print(' '.join(sub['suite'] for sub in report['suites'] if sub['failures']))\n"
    )
    assert suite in _fresh_interpreter(code).split()


def test_no_numpy_on_the_import_and_suite_path():
    code = (
        "import sys, importlib, posetalg\n"
        "importlib.import_module('posetalg.cli')\n"
        "from posetalg import suites\n"
        "report = suites.run_suite('join-prime', suites.SuiteConfig(max_size=3))\n"
        "assert report['failures'] == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _fresh_interpreter(code) == "False"


def test_import_loads_no_dataclasses_or_inspect():
    code = "import sys, posetalg\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    assert _fresh_interpreter(code) == "[]"


def test_suite_config_defaults_and_construction():
    config = suites.SuiteConfig()
    assert (config.max_size, config.samples, config.seed, config.horizon, config.strict) == (
        5, 1000, 42, 12, False)
    config = suites.SuiteConfig(max_size=3, strict=True)
    assert (config.max_size, config.samples, config.seed, config.strict) == (3, 1000, 42, True)
    config = suites.SuiteConfig(4, 100, 7, 6)
    assert (config.max_size, config.samples, config.seed, config.horizon) == (4, 100, 7, 6)
