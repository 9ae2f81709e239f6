"""Acceptance gate: every published claim, one test per criterion.

The full verification suite runs once per session (the heavy certified
profile is shared across criteria, mirroring how the machinery amortizes
in the CLI); each test then checks its criterion's claims and prints one
pass/fail line.  Stated runtime budgets are asserted against the recorded
claim runtimes, with shared-build time charged to the criterion that
triggered it.
"""

import json
import os
from pathlib import Path

import pytest

from tribalance.verify import SuiteConfig, run_suite

CRITERIA_LINES = []


@pytest.fixture(scope="module")
def report():
    config = SuiteConfig(seed=0, threads=min(4, os.cpu_count() or 1))
    return run_suite("paper", config)


def _claims(report, claim_ids):
    by_id = {c.claim_id: c for c in report.claims}
    missing = [cid for cid in claim_ids if cid not in by_id]
    assert not missing, f"claims missing from registry: {missing}"
    return [by_id[cid] for cid in claim_ids]


def _check(report, number, description, claim_ids, budget_ms=None, budget_claim_ids=None):
    claims = _claims(report, claim_ids)
    ok = all(c.status == "pass" for c in claims)
    budget_claims = _claims(report, budget_claim_ids) if budget_claim_ids else claims
    runtime = sum(c.runtime_ms for c in budget_claims)
    line = f"{'PASS' if ok else 'FAIL'} criterion {number:2d} ({runtime:8.1f} ms): {description}"
    CRITERIA_LINES.append(line)
    print(line)
    failing = [(c.claim_id, c.status, c.observed, c.expected) for c in claims if c.status != "pass"]
    assert ok, f"criterion {number} failed: {failing}"
    if budget_ms is not None:
        assert runtime < budget_ms, f"criterion {number} exceeded its runtime budget"


def test_criterion_01_rho_sequence(report):
    _check(report, 1, "abelian complexity sequence at lengths 1..42",
           ["rho_sequence_1_42"], budget_ms=1_000)


def test_criterion_02_extremal_lengths(report):
    _check(report, 2, "first lengths reaching complexity 5, 6, 7 and the next four 7s",
           ["rho_min_5_is_30", "rho_min_6_is_342", "rho_min_7_is_3914",
            "rho_3914_is_7", "rho_next_7s_4063_4841_4990_7199"],
           budget_ms=2_000)


def test_criterion_03_two_balanced(report):
    # The balance table shares criterion 2's certified profile; the budget
    # covers that build (charged to the first claim that triggered it).
    _check(report, 3, "maximum imbalance over lengths <= 2000 is exactly 2",
           ["balance_max_n2000_is_2"], budget_ms=2_000,
           budget_claim_ids=["balance_max_n2000_is_2", "rho_min_5_is_30"])


def test_criterion_04_fourbonacci_witness(report):
    _check(report, 4, "4-bonacci witness windows hold 891 and 888 ones",
           ["fourbonacci_witness_counts_891_888"], budget_ms=1_000)


def test_criterion_05_spectral_constants(report):
    _check(report, 5, "spectral constants match published 5-decimal truncations",
           ["spectral_constants_5dp"])


def test_criterion_06_oracle_equivalence(report):
    _check(report, 6, "digit-expansion discrepancy matches direct counts within 1e-6",
           ["eq1_oracle_equivalence_1e6"], budget_ms=500)


def test_criterion_07_rederived_bounds(report):
    _check(report, 7, "per-letter discrepancy intervals re-derived; balance bound 2",
           ["prop_bounds_letter_0", "prop_bounds_letter_1", "prop_bounds_letter_2"])


def test_criterion_08_empirical_containment(report):
    _check(report, 8, "observed discrepancy extremes strictly inside each interval",
           ["empirical_discrepancy_containment"])


def test_criterion_09_min_complexity_characterization(report):
    _check(report, 9, "complexity-3 closed form to 5000; five-way agreement to 200",
           ["rho3_closed_form_n5000", "equivalences_agree_n200"])


def test_criterion_10_prefix_balance_threshold(report):
    _check(report, 10, "prefix 1-balance holds through 184 and fails at 185",
           ["prefix_balance_184_185"])


def test_criterion_11_numeration(report):
    _check(report, 11, "numeration round trip and prefix vectors to 10^6; uniqueness to 10^4; digit law",
           ["zeckendorf_roundtrip_1e6", "zeckendorf_uniqueness_1e4"], budget_ms=2_000)


def test_criterion_12_saturation(report):
    _check(report, 12, "factor counts are exactly 2n+1 at 20 seeded lengths",
           ["factor_count_saturation_20_samples"], budget_ms=1_000)


def test_criterion_13_value7_recurs(report):
    _check(report, 13, "complexity 7 recurs at a shifted length",
           ["rho_value7_infinitely_often_instance"], budget_ms=1_000)


def test_criterion_14_geometry(report):
    _check(report, 14, "realized sets fit admissible regions of sizes 7,7,7,6,6,6",
           ["twelve_vector_geometry_n2000"], budget_ms=1_000)


def test_observed_values_match_the_benchmark_reference(report):
    # Every claim's observed value, as JSON, equals the one the benchmark
    # harness checks against at seed 0.
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json")
                           .read_text())
    assert reference["default_seed"] == 0
    observed = {c.claim_id: json.loads(json.dumps(c.observed)) for c in report.claims}
    assert len(observed) == 22
    assert observed == reference["full"]["verify"]["claims"]


def test_registry_is_complete(report):
    # Every registered claim ran exactly once and none was left out of the
    # criteria above.
    ids = [c.claim_id for c in report.claims]
    assert len(ids) == len(set(ids))
    assert all(c.status in ("pass", "fail", "skipped") for c in report.claims)
    assert all(c.status == "pass" for c in report.claims), [
        (c.claim_id, c.status) for c in report.claims if c.status != "pass"
    ]
