"""Single claims run on their own, and the suite runner's input checks.

The saturation claim counts factors with the suffix-automaton index; the
dictionary scanner, which shares no code with the index, is the oracle.
The batched oracle-equivalence claim is checked against the
value-at-a-time loop it replaced, the round-trip claim against corrupted
codec routes and prefix-count blocks that miss values, the uniqueness
claim against a validity check that reads a digit 2 as a 1, and the prefix-balance walk and the shared profile against
the number of indexes they build; in a full run the saturation claim builds
none, and under a tight buffer cap the same claims are skipped as before.  The four spectral certificate claims run without the float
eigendata, and fail when one of their stated targets is tightened past
the exact value.
"""

from collections import Counter

import numpy as np
import pytest
from conftest import cap_positions, scalar_eq1_worst

from tribalance import (
    InvalidInputError,
    abelian,
    factor_index,
    numeration,
    scan_distinct_factors,
    spectral,
    verify,
    words,
)
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


def test_claim_skips_under_a_small_scan_cap(monkeypatch):
    cap_positions(monkeypatch, 500)
    result = run_claim()
    assert result.status == "skipped"
    assert result.observed.startswith("SaturationError")


def test_unknown_suite_is_invalid_input():
    with pytest.raises(InvalidInputError):
        run_suite("x")


@pytest.mark.parametrize("seed", [0, 1])
def test_eq1_claim_equals_the_scalar_loop(tribo_2e6_counts, sd, seed):
    report = run_suite("paper", SuiteConfig(seed=seed), claim_ids={"eq1_oracle_equivalence_1e6"})
    (result,) = report.claims
    assert result.status == "pass"
    assert result.observed == scalar_eq1_worst(tribo_2e6_counts, sd, seed)
    if seed == 0:
        assert result.observed == 6.416733810965525e-11


def test_prefix_balance_claim_builds_one_index(monkeypatch):
    builds = []
    init = FactorIndex.__init__

    def spy(self, buffer, region_len):
        builds.append(region_len)
        init(self, buffer, region_len)

    monkeypatch.setattr(FactorIndex, "__init__", spy)
    report = run_suite("paper", SuiteConfig(seed=0), claim_ids={"prefix_balance_184_185"})
    (result,) = report.claims
    assert result.status == "pass"
    assert len(builds) == 1


def test_shared_profile_walks_each_length_once(monkeypatch):
    # The geometry claim reads the Parikh vectors of the shared profile:
    # lengths 1..2000 are walked once, over one Tribonacci index.
    walks, indexes = [], []
    windows, init = abelian._certified_windows, FactorIndex.__init__

    def counting_windows(buffer, n_from, n_to):
        walks.append((n_from, n_to))
        return windows(buffer, n_from, n_to)

    def counting_init(self, buffer, region_len):
        indexes.append(buffer.alphabet_size)
        init(self, buffer, region_len)

    monkeypatch.setattr(abelian, "_certified_windows", counting_windows)
    monkeypatch.setattr(FactorIndex, "__init__", counting_init)
    claims = {"rho_min_5_is_30", "twelve_vector_geometry_n2000"}
    report = run_suite("paper", SuiteConfig(seed=0), claim_ids=claims)
    assert [c.status for c in report.claims] == ["pass", "pass"]
    walked = Counter(n for n_from, n_to in walks for n in range(n_from, n_to + 1))
    assert [walked[n] for n in range(1, 2001)] == [1] * 2000
    assert indexes == [3]


def test_saturation_claim_reuses_the_shared_index(monkeypatch):
    # In a full run the shared profile builds the one index that also
    # covers the saturation claim's region, so that claim builds none.
    running, builds = [None], []
    init = FactorIndex.__init__

    def spy(self, buffer, region_len):
        builds.append((running[0], region_len))
        init(self, buffer, region_len)

    monkeypatch.setattr(FactorIndex, "__init__", spy)
    report = run_suite("paper", SuiteConfig(seed=0, progress=lambda m: running.__setitem__(0, m)))
    assert report.all_passed
    assert [region for claim, region in builds if claim == f"claim {CLAIM}"] == []
    shared = [region for claim, region in builds if claim.startswith("building certified profile")]
    assert shared == [8 * (verify.SHARED_INDEX + 1) + 1024]
    assert shared[0] >= verify.SATURATION_REGION


def test_a_tight_buffer_cap_skips_the_same_claims(capsys):
    # Below the shared index's region, the profile builds the index it
    # needs alone, and only the claims that need more symbols are skipped.
    from tribalance.cli import main

    assert main(["verify", "--max-buffer", "60000"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert Counter(line.split()[0] for line in lines) == {"PASS": 18, "SKIPPED": 4}
    assert [line.split()[1] for line in lines if line.startswith("SKIPPED")] == [
        "eq1_oracle_equivalence_1e6", "empirical_discrepancy_containment",
        "zeckendorf_roundtrip_1e6", CLAIM]


@pytest.mark.parametrize("route", ["zeckendorf_decode_many", "prefix_parikh_from_digits"])
def test_roundtrip_claim_reports_the_first_corrupted_value(monkeypatch, route):
    bad = 123_457
    original = getattr(numeration, route)
    decode = numeration.zeckendorf_decode_many

    def corrupted(digits, *args, **kwargs):
        out = original(digits, *args, **kwargs)
        out[..., decode(digits) == bad] += 1
        return out

    monkeypatch.setattr(numeration, route, corrupted)
    report = run_suite("paper", SuiteConfig(seed=0), claim_ids={"zeckendorf_roundtrip_1e6"})
    (result,) = report.claims
    assert result.status == "fail"
    assert result.observed == {"first_failure": bad}


def _blocks_from_one(blocks):
    # The first block starts at N = 1: N = 0 is never counted.
    for start, counts in blocks:
        yield (1, counts[:, 1:]) if start == 0 else (start, counts)


def _blocks_with_a_gap(blocks):
    # The second block is dropped: its values are never counted.
    for i, block in enumerate(blocks):
        if i != 1:
            yield block


def _blocks_cut_short(blocks):
    # The last value, N = 10^6, is never counted.
    for start, counts in blocks:
        yield start, counts if start + counts.shape[1] <= 1_000_000 else counts[:, :-1]


@pytest.mark.parametrize("blocks, first_unchecked", [
    (_blocks_from_one, 0),
    (_blocks_with_a_gap, verify.ROUNDTRIP_CHUNK),
    (_blocks_cut_short, 1_000_000),
], ids=["from_one", "gap", "cut_short"])
def test_roundtrip_claim_requires_every_value_from_zero(monkeypatch, blocks, first_unchecked):
    original = words._count_blocks
    monkeypatch.setattr(words, "_count_blocks", lambda *args: blocks(original(*args)))
    report = run_suite("paper", SuiteConfig(seed=0), claim_ids={"zeckendorf_roundtrip_1e6"})
    (result,) = report.claims
    assert result.status == "fail"
    assert result.observed == {"first_failure": first_unchecked}


def test_uniqueness_claim_fails_when_a_digit_2_is_read_as_a_1(monkeypatch):
    # Every valid 16-digit string but the all-zero one, with its 1s made 2s.
    original = numeration._valid_columns
    monkeypatch.setattr(numeration, "_valid_columns",
                        lambda columns: original(np.where(columns == 2, 1, columns)))
    report = run_suite("paper", SuiteConfig(seed=0), claim_ids={"zeckendorf_uniqueness_1e4"})
    (result,) = report.claims
    assert result.status == "fail"
    assert result.observed == {"non_unique_count": 0, "digit2_accepted": 19_512}


CERTIFICATE_CLAIMS = ("spectral_constants_5dp", "prop_bounds_letter_0", "prop_bounds_letter_1",
                      "prop_bounds_letter_2")


def test_certificate_claims_read_no_float_eigendata(monkeypatch):
    def refuse():
        raise AssertionError("the certificate read the float eigendata")

    monkeypatch.setattr(spectral, "compute_spectral_data", refuse)
    report = run_suite("paper", SuiteConfig(seed=0), claim_ids=set(CERTIFICATE_CLAIMS))
    assert [(c.claim_id, c.status) for c in report.claims] == [
        (cid, "pass") for cid in CERTIFICATE_CLAIMS]


@pytest.mark.parametrize("owner, name, value, claim", [
    # The letter-2 tail is 0.0353530 against 0.0354.
    (spectral, "TARGET_TAIL_BOUNDS", (0.17, 0.075, 0.0353), "prop_bounds_letter_2"),
    # The letter-0 interval reaches 0.8903708 against 0.9.
    (spectral, "TARGET_INTERVALS", ((-0.6, 0.89037), (-0.775, 0.725), (-0.88, 0.62)),
     "prop_bounds_letter_0"),
    # beta = 1.8392867...: one unit of the fifth decimal either way.
    (verify, "SPECTRAL_CONSTANTS_5DP", {**verify.SPECTRAL_CONSTANTS_5DP, "beta": 1.83929},
     "spectral_constants_5dp"),
    (verify, "SPECTRAL_CONSTANTS_5DP", {**verify.SPECTRAL_CONSTANTS_5DP, "beta": 1.83927},
     "spectral_constants_5dp"),
], ids=["tail_target_0.0353", "upper_target_0.89037", "beta_1.83929", "beta_1.83927"])
def test_certificate_claim_fails_on_a_tightened_target(monkeypatch, owner, name, value, claim):
    monkeypatch.setattr(owner, name, value)
    report = run_suite("paper", SuiteConfig(seed=0), claim_ids={claim})
    (result,) = report.claims
    assert result.status == "fail"
