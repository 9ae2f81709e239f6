import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tribalance import (
    InvalidInputError,
    RangeError,
    VerificationFailureError,
    balance_bound_from_interval,
    certify_balance_bounds,
    discrepancy_column,
    discrepancy_direct,
    discrepancy_extremes,
    discrepancy_from_digits,
    discrepancy_spectral,
    head_extremes,
    incidence_matrix,
    is_valid_rep_many,
    tail_bound,
    tribonacci_morphism,
    zeckendorf_encode_many,
)
from tribalance.spectral import (
    HEAD_CUTOFFS,
    TARGET_INTERVALS,
    TARGET_TAIL_BOUNDS,
    DiscrepancyInterval,
    head_terms,
)
from tribalance.verify import SPECTRAL_CONSTANTS_5DP, matches_truncated


@pytest.mark.parametrize("bound", [head_extremes, tail_bound])
def test_negative_cutoff_is_refused(sd, bound):
    with pytest.raises(InvalidInputError, match="cutoff must be >= 0"):
        bound(sd, 0, -1)


def test_discrepancy_column_refuses_past_buffer(tribo, sd):
    with pytest.raises(RangeError, match="exceeds buffer length"):
        discrepancy_column(tribo, len(tribo) + 1, 0, sd)


def test_root_relations(sd):
    assert abs(sd.beta ** 3 - sd.beta ** 2 - sd.beta - 1) < 1e-12
    assert abs(sd.alpha ** 3 - sd.alpha ** 2 - sd.alpha - 1) < 1e-12
    # The three roots multiply to 1, so |alpha| = beta ** -0.5.
    assert abs(sd.abs_alpha - sd.beta ** -0.5) < 1e-12


def test_published_truncations(sd):
    observed = {
        "beta": sd.beta,
        "abs_alpha": sd.abs_alpha,
        "abs_a_alpha": sd.abs_coeff_alpha,
        "factor_i0": abs(sd.mixing_factor(0)),
        "factor_i1": abs(sd.mixing_factor(1)),
        "factor_i2": abs(sd.mixing_factor(2)),
    }
    for name, stated in SPECTRAL_CONSTANTS_5DP.items():
        assert matches_truncated(observed[name], stated), (name, observed[name])


def test_eigenvectors(sd):
    mat = incidence_matrix(tribonacci_morphism())
    assert np.abs(mat @ sd.evec_beta - sd.beta * sd.evec_beta).max() < 1e-10
    assert np.abs(mat @ sd.evec_alpha - sd.alpha * sd.evec_alpha).max() < 1e-10
    assert abs(sd.evec_beta.sum() - 1) < 1e-12
    assert abs(sd.evec_alpha.sum() - 1) < 1e-12


def test_coefficient_expansion(sd):
    e1 = sd.coeff_beta * sd.evec_beta + 2 * (sd.coeff_alpha * sd.evec_alpha).real
    assert np.abs(e1 - np.array([1.0, 0.0, 0.0])).max() < 1e-12


def test_frequencies(sd):
    assert abs(sd.frequency(0) - 1 / sd.beta) < 1e-15
    assert abs(sum(sd.frequency(a) for a in range(3)) - 1.0) < 1e-12
    assert abs(sd.frequency(2) - sd.beta ** -3) < 1e-15
    with pytest.raises(InvalidInputError):
        sd.frequency(3)


def test_discrepancy_direct_examples(tribo, sd):
    assert abs(discrepancy_direct(tribo, 1, 0, sd) - (1 - 1 / sd.beta)) < 1e-15
    assert abs(discrepancy_direct(tribo, 1, 0, sd) - 0.4563109873) < 1e-9
    assert discrepancy_direct(tribo, 0, 1, sd) == 0.0
    # "0102010" holds one 2.
    assert abs(discrepancy_direct(tribo, 7, 2, sd) - (1 - 7 / sd.beta ** 3)) < 1e-15
    assert abs(discrepancy_direct(tribo, 7, 2, sd) - (-0.1249927135)) < 1e-9
    with pytest.raises(RangeError):
        discrepancy_direct(tribo, len(tribo) + 1, 0, sd)


def test_discrepancy_spectral_examples(sd):
    assert discrepancy_spectral(0, 0, sd) == 0.0
    assert abs(discrepancy_spectral(1, 0, sd) - 0.4563109873) < 1e-9


@pytest.mark.parametrize("bad", [3.5, 3.0, np.float64(2.0), "7"])
def test_discrepancy_spectral_refuses_non_integers(sd, bad):
    with pytest.raises(InvalidInputError):
        discrepancy_spectral(bad, 0, sd)


def test_discrepancy_spectral_accepts_numpy_integers(sd):
    for n in (np.int64(1000), np.uint16(1000), np.int32(1000)):
        assert discrepancy_spectral(n, 1, sd) == discrepancy_spectral(1000, 1, sd)
    with pytest.raises(InvalidInputError):
        discrepancy_spectral(-1, 0, sd)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=300),
       st.sampled_from([0, 1, 2]))
@example([0, 1, 2, 3, 4, 1_000_000], 0)
def test_scalar_and_batched_digit_routes_agree_exactly(sd, ns, letter):
    batched = discrepancy_from_digits(zeckendorf_encode_many(ns), letter, sd)
    assert batched.tolist() == [discrepancy_spectral(n, letter, sd) for n in ns]


def test_batched_digit_route_input_checks(sd):
    with pytest.raises(InvalidInputError):
        discrepancy_from_digits(np.zeros(4, dtype=np.uint8), 0, sd)
    with pytest.raises(InvalidInputError):
        discrepancy_from_digits(np.zeros((2, 4), dtype=np.uint8), 3, sd)
    assert discrepancy_from_digits(np.zeros((0, 0), dtype=np.uint8), 0, sd).shape == (0,)


@pytest.mark.parametrize("digits", [
    [[0.0, 1.0, 1.0]],
    np.zeros((1, 2, 3), dtype=np.uint8),
], ids=["float", "3-D"])
def test_batched_digit_route_refuses_what_the_codec_refuses(sd, digits):
    # One reader of the digit-array format: the spectral route refuses
    # exactly the arrays the batch codec refuses.
    with pytest.raises(InvalidInputError):
        is_valid_rep_many(digits)
    with pytest.raises(InvalidInputError):
        discrepancy_from_digits(digits, 0, sd)


def test_oracle_equivalence_sample(tribo, sd):
    # Direct counting is the oracle for the digit-expansion evaluation.
    tribo.ensure(120_000)
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randrange(0, 120_000)
        for letter in (0, 1, 2):
            assert abs(
                discrepancy_spectral(n, letter, sd) - discrepancy_direct(tribo, n, letter, sd)
            ) < 1e-6


def test_head_extremes_match_published_two_decimals(sd):
    published = {0: (-0.42, 0.73), 1: (-0.70, 0.65), 2: (-0.8371, 0.5764)}
    for letter, cutoff in zip((0, 1, 2), HEAD_CUTOFFS):
        lo, hi = head_extremes(sd, letter, cutoff)
        p_lo, p_hi = published[letter]
        assert p_lo < lo < p_lo + 0.01
        assert p_hi - 0.01 < hi < p_hi


def test_head_extremes_unconstrained_contains_constrained(sd):
    for letter in (0, 1, 2):
        for cutoff in range(15):
            lo_u, hi_u = head_extremes(sd, letter, cutoff, constrained=False)
            lo_c, hi_c = head_extremes(sd, letter, cutoff, constrained=True)
            assert lo_u <= lo_c <= hi_c <= hi_u


def test_head_extremes_constrained_matches_enumeration(sd):
    # Independent oracle: enumerate every valid digit string outright.
    import itertools

    for letter, cutoff in ((0, 7), (1, 9), (2, 6)):
        terms = head_terms(sd, letter, cutoff)
        values = []
        for bits in itertools.product((0, 1), repeat=cutoff + 1):
            if any(bits[k] and bits[k - 1] and bits[k - 2] for k in range(2, cutoff + 1)):
                continue
            values.append(sum(t for b, t in zip(bits, terms) if b))
        lo, hi = head_extremes(sd, letter, cutoff, constrained=True)
        assert abs(lo - min(values)) < 1e-12
        assert abs(hi - max(values)) < 1e-12


def test_tail_bounds_below_published(sd):
    for letter, cutoff, target in zip((0, 1, 2), HEAD_CUTOFFS, TARGET_TAIL_BOUNDS):
        cap = tail_bound(sd, letter, cutoff)
        assert 0 < cap < target
    # Closed form at letter 0, cutoff 7: the published bound is 0.17.
    assert abs(tail_bound(sd, 0, 7) - 0.1621988) < 1e-6


def test_balance_bound_rule():
    assert balance_bound_from_interval(-0.6, 0.9) == 2
    assert balance_bound_from_interval(-0.775, 0.725) == 2
    assert balance_bound_from_interval(-0.25, 0.25) == 0
    assert balance_bound_from_interval(-0.3, 0.3) == 1
    assert balance_bound_from_interval(0.0, 1.0) == 1
    with pytest.raises(InvalidInputError):
        balance_bound_from_interval(0.5, 0.5)
    with pytest.raises(InvalidInputError):
        DiscrepancyInterval(0, 1.0, -1.0)


def test_certified_derivations(sd):
    ders = certify_balance_bounds(sd)
    assert [d.balance_bound for d in ders] == [2, 2, 2]
    for d, (lo, hi), tail_target in zip(ders, TARGET_INTERVALS, TARGET_TAIL_BOUNDS):
        assert lo <= d.interval.lower < d.interval.upper <= hi
        assert d.tail < tail_target
        assert d.interval.lower == d.head_min - d.tail
        assert d.interval.upper == d.head_max + d.tail
        assert d.head_min <= d.constrained_head_min <= d.constrained_head_max <= d.head_max


def test_certified_derivation_failure_raises(sd):
    # A cutoff of 0 leaves a huge geometric tail; the interval cannot fit.
    with pytest.raises(VerificationFailureError):
        certify_balance_bounds(sd, cutoffs=(0, 0, 0))


def test_empirical_extremes_strictly_inside(tribo, sd):
    tribo.ensure(100_000)
    for letter, (lo_t, hi_t) in zip((0, 1, 2), TARGET_INTERVALS):
        lo, hi = discrepancy_extremes(tribo, 100_000, letter, sd)
        assert lo_t < lo < hi < hi_t
