"""The factor-count saturation claim and the suite runner's input checks.

The claim counts factors with the suffix-automaton index; the rolling
fingerprint scanner, which shares no code with the index, is the oracle.
"""

import pytest

from tribalance import InvalidInputError, factor_index, scan_distinct_factors
from tribalance.factors import FactorIndex
from tribalance.verify import SuiteConfig, run_suite

CLAIM = "factor_count_saturation_20_samples"


def run_claim(config=None):
    report = run_suite("paper", config or SuiteConfig(seed=0), claim_ids={CLAIM})
    (result,) = report.claims
    return result


@pytest.fixture(scope="module")
def fresh_run():
    # A suite context of its own: no shared profile has built an index, so
    # every region the claim counts over is built by the claim.
    regions = []
    init = FactorIndex.__init__

    def spy(self, buffer, region_len):
        regions.append(region_len)
        init(self, buffer, region_len)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FactorIndex, "__init__", spy)
        result = run_claim()
    return result, regions


@pytest.fixture(scope="module")
def scans(fresh_run, tribo):
    samples = fresh_run[0].observed["samples"]
    return {n: scan_distinct_factors(tribo, n, extend_after=10 * n) for n in samples}


def test_scanner_oracle_agrees_with_index_at_samples(tribo, scans):
    index = factor_index(tribo, max(scans))
    for n, scan in scans.items():
        assert scan.count == 2 * n + 1 == index.factor_count(n)
        assert scan.last_new_position == index.certify(n)


def test_claim_counts_everything_the_scanner_read(fresh_run, scans):
    result, regions = fresh_run
    assert result.status == "pass"
    assert result.observed["failures"] == []
    # The counted region reaches 10n window starts past saturation, and
    # every window the extended scans read.
    assert regions[-1] >= max(scan.last_new_position + 11 * n for n, scan in scans.items())
    assert regions[-1] >= max(scan.positions_scanned - 1 + n for n, scan in scans.items())


def test_claim_fails_on_a_miscounted_length(fresh_run, monkeypatch):
    samples = fresh_run[0].observed["samples"]
    bad = samples[7]
    count = FactorIndex.factor_count
    monkeypatch.setattr(FactorIndex, "factor_count",
                        lambda self, n: 2 * n + 2 if n == bad else count(self, n))
    result = run_claim()
    assert result.status == "fail"
    assert result.observed == {"samples": samples, "failures": [bad]}


def test_claim_skips_under_a_small_scan_cap():
    result = run_claim(SuiteConfig(seed=0, scan_cap=500))
    assert result.status == "skipped"
    assert result.observed.startswith("SaturationError")


def test_unknown_suite_is_invalid_input():
    with pytest.raises(InvalidInputError):
        run_suite("x")
