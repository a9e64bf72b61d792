"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion runs its suite over the full stated corpus at the stated
tolerance (zero disagreements unless noted) and within its wall-clock
budget.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import hashlib
import json
import time

from posetalg import suites
from test_suites import strip_elapsed

CONFIG = suites.SuiteConfig(max_size=5, samples=1000, seed=42, horizon=12)

# sha256 of each suite's report at CONFIG (pal verify's defaults), as JSON
# with the timing fields removed: a refactor must leave every report as it is
REPORT_DIGESTS = {
    "fact24": "37b3cfe8cca1c572abc0fe8d9fbfb38d078f8684b490edf6e28d6bb7cf2b307e",
    "pi-order": "34a57af8226cd6733943a118fa7a5be85c10013f4b32d09d0ff1eb14f49e79e9",
    "join-prime": "0a5a7eeea5e03d27b2d2c22872911ec7802361bd953d58ec8eb925a81a53768e",
    "is-pi-iso": "cf3dc341a7360b75c0cf867c13ce9a247f2edc4700959ae4a3fa41264e3959a9",
    "chain-lattice": "04b4522f17c2707154ea955c543910b4f644092a28643096754bc9a3a4cb7520",
    "rado": "ca2fb66f22ebb0b219bfa19f64d258af76ffe742f1a60dbf1931962eba80bd97",
    "emap": "bfba863b6838a31b71fcc05d4d1a041c2b9c6b25b7cb2d637a247568e1c34f4d",
    "product-gen": "c35d1dabf12e4be479cdb1cdb511700c18596aad742da08308ecd60c7723b037",
    "relativize": "b7251c3635f1d40d63743566f500f2b5f83ec16209858de47a8a0f533914a4ec",
    "hom-laws": "1a2271f5ea2762a9bf21a7815dfc18f933fd79ef2740c1c7b94b1bf01b4e19f0",
    "h-construction": "f1da42570788d0e4dd4890e2fb7148f03f18a5f4bb062b4ade7377b99dec5c66",
    "binary-subbase": "5aba0381e0c473718820bdde81670030b17bb2a3f0fb1a5d85755467e66cd560",
    "interval-algebra": "bcc393c3d08a4d5b0421773a0fbf256bf3b26d858120725ae54ba4eaa2146d87",
    "lex-layering": "fd0a81125d82f80520b5b033a9a355473721f2b1877bbea946a16791dc0ba2fc",
}


def _run(number, suite, budget_s, config=CONFIG):
    start = time.perf_counter()
    report = suites.run_suite(suite, config)
    elapsed = time.perf_counter() - start
    ok = report["failures"] == 0 and elapsed <= budget_s
    status = "PASS" if ok else "FAIL"
    print(
        f"ACCEPTANCE {number:>2} {suite:<17} {status} "
        f"({elapsed:6.2f}s / budget {budget_s}s, cases={report['cases']})"
    )
    assert report["failures"] == 0, report.get("firstCounterexample")
    assert elapsed <= budget_s, f"budget exceeded: {elapsed:.2f}s > {budget_s}s"
    digest = hashlib.sha256(json.dumps(strip_elapsed(report)).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[suite], f"{suite} report changed"
    return report


def test_acceptance_01_elementary_zero_vs_oracle():
    report = _run(1, "fact24", 60)
    # 87 corpus posets exhaustively, plus the 1000 seeded cases at n=8
    corpus_records = [r for r in report["results"] if not r["poset"].startswith("n8r")]
    random_cases = sum(
        r["params"]["pairs"] for r in report["results"] if r["poset"].startswith("n8r")
    )
    assert len(corpus_records) == 87
    assert random_cases == 1000


def test_acceptance_02_product_order_three_ways():
    report = _run(2, "pi-order", 60)
    # sum over the 87 corpus posets of (#subsets of size <= 3) squared
    assert report["cases"] == 46544


def test_acceptance_03_join_primeness_grounds_lattice_order():
    _run(3, "join-prime", 120)


def test_acceptance_04_segments_isomorphic_to_products():
    report = _run(4, "is-pi-iso", 60)
    labels = {r["poset"] for r in report["results"]}
    assert {"rado3", "rado4", "rado5"} <= labels
    assert len(labels) == 90  # 87 corpus posets + three prefixes


def test_acceptance_05_chain_collapse():
    report = _run(5, "chain-lattice", 30)
    chains = [r for r in report["results"] if r["poset"].startswith("chain")]
    assert len(chains) == 8  # closures for chains of length 1..8


def test_acceptance_06_rado_prefix_width_and_bad_array():
    report = _run(6, "rado", 60)
    assert report["badArray"] is True
    assert report["antichainSize"] >= 5


def test_acceptance_07_product_map_properties():
    report = _run(7, "emap", 120)
    assert len(report["results"]) == 16  # all ordered base pairs


def test_acceptance_08_product_generation():
    report = _run(8, "product-gen", 120)
    assert len(report["results"]) == 17  # 16 pairs plus the premise probe


def test_acceptance_09_relativization_bijective():
    report = _run(9, "relativize", 60)
    assert len(report["results"]) == 87  # every corpus poset, every q inside


def test_acceptance_10_block_decomposition():
    report = _run(10, "h-construction", 120)
    assert len(report["results"]) == 88  # all directed posets with <= 6 elements


def test_acceptance_11_universal_property():
    report = _run(11, "hom-laws", 60)
    assert len(report["results"]) == 200


def test_acceptance_12_binary_subbase():
    report = _run(12, "binary-subbase", 60)
    # every subfamily of each of the 87 corpus posets is decided
    assert [r["params"] for r in report["results"]] == [{"mode": "exhaustive"}] * 87


def test_acceptance_13_interval_algebra():
    report = _run(13, "interval-algebra", 10)
    assert len(report["results"]) == 6


def test_acceptance_14_lex_layering():
    report = _run(14, "lex-layering", 60)
    assert len(report["results"]) == 50
