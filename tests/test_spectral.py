import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import TAU, float_head_terms, float_interval, float_tail_bound, incidence_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tribalance import (
    InvalidInputError,
    NumericError,
    RangeError,
    VerificationFailureError,
    balance_bound_from_interval,
    certify_balance_bounds,
    compute_spectral_data,
    discrepancy_blocks,
    discrepancy_direct,
    discrepancy_extremes,
    discrepancy_from_digits,
    discrepancy_spectral,
    is_valid_rep_many,
    zeckendorf_encode_many,
)
from tribalance import spectral
from tribalance.spectral import (
    HEAD_CUTOFFS,
    TARGET_INTERVALS,
    TARGET_TAIL_BOUNDS,
    named_constants,
)
from tribalance.verify import SPECTRAL_CONSTANTS_5DP, matches_truncated


def test_discrepancy_blocks_refuse_past_buffer(tribo, sd):
    with pytest.raises(RangeError, match="exceeds buffer length"):
        discrepancy_blocks(tribo, len(tribo) + 1, 0, sd)


def test_spectral_data_is_bit_stable(sd):
    # beta is the double both ends of the exact enclosure round to; the
    # float steps from it must keep every later field bit for bit.
    assert sd.beta.hex() == "0x1.d6db7f2d9c5c1p+0"
    assert (sd.alpha.real.hex(), sd.alpha.imag.hex()) == (
        "-0x1.adb6fe5b38b82p-2", "0x1.366bbd0ba0364p-1")
    assert (sd.coeff_alpha.real.hex(), sd.coeff_alpha.imag.hex()) == (
        "-0x1.198035bde6c09p-4", "0x1.f9f200c21b3cep-4")


def test_spectral_data_refuses_a_beta_of_two_doubles(monkeypatch):
    monkeypatch.setattr(spectral, "_beta", lambda: spectral._Interval(1, 2))
    with pytest.raises(NumericError, match="does not round to one double"):
        compute_spectral_data()


def test_root_relations(sd):
    assert abs(sd.beta ** 3 - sd.beta ** 2 - sd.beta - 1) < 1e-12
    assert abs(sd.alpha ** 3 - sd.alpha ** 2 - sd.alpha - 1) < 1e-12
    # The three roots multiply to 1, so |alpha| = beta ** -0.5.
    assert abs(abs(sd.alpha) - sd.beta ** -0.5) < 1e-12


def test_published_truncations(sd):
    # Decided on the exact enclosures; the float eigendata is the oracle.
    exact = named_constants()
    floats = {
        "beta": sd.beta,
        "abs_alpha": abs(sd.alpha),
        "abs_a_alpha": abs(sd.coeff_alpha),
        **{f"factor_i{a}": abs(sd.mixing_factor(a)) for a in range(3)},
    }
    assert list(exact) == list(SPECTRAL_CONSTANTS_5DP) == list(floats)
    for name, stated in SPECTRAL_CONSTANTS_5DP.items():
        lo, hi = exact[name]
        assert type(lo) is type(hi) is Fraction
        assert 0 <= hi - lo < Fraction(1, 10**25)
        assert matches_truncated(exact[name], stated), name
        assert abs(float(lo) - floats[name]) < 1e-12
        assert f"{float(lo):.12g}" == f"{floats[name]:.12g}"


def test_truncation_rule_is_exact():
    # The stated decimal itself is its own truncation; anything below it,
    # however close, is not.
    stated = Fraction("1.83928")
    assert matches_truncated((stated, stated), 1.83928)
    assert not matches_truncated((stated - Fraction(1, 10**30), stated), 1.83928)
    assert not matches_truncated((stated, stated + Fraction(1, 10**5)), 1.83928)
    assert matches_truncated((stated, stated + Fraction(1, 10**5) - Fraction(1, 10**30)), 1.83928)


def eigenvector(root):
    """(root^-1, root^-2, root^-3), whose coordinates sum to 1 at a root of
    x^3 - x^2 - x - 1."""
    return np.array([root ** -1, root ** -2, root ** -3])


def test_eigenvectors(sd):
    mat = incidence_matrix(TAU)
    for root in (sd.beta, sd.alpha):
        vec = eigenvector(root)
        assert np.abs(mat @ vec - root * vec).max() < 1e-10
        assert abs(vec.sum() - 1) < 1e-12


def test_coefficient_expansion(sd):
    # e_0 = c * v_beta + 2 Re(coeff_alpha * v_alpha) for a real c: the
    # middle coordinate gives c, and the other two must then hold.
    v_beta, head = eigenvector(sd.beta), 2 * (sd.coeff_alpha * eigenvector(sd.alpha)).real
    c = -head[1] / v_beta[1]
    assert np.abs(c * v_beta + head - np.array([1.0, 0.0, 0.0])).max() < 1e-12


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


def test_head_extremes_match_published_two_decimals():
    # The head extremes are the certified interval narrowed by the tail.
    published = {0: ("-0.42", "0.73"), 1: ("-0.70", "0.65"), 2: ("-0.8371", "0.5764")}
    for letter, ((lower, upper), tail, _) in enumerate(certify_balance_bounds()):
        lo, hi = lower + tail, upper - tail
        p_lo, p_hi = (Fraction(x) for x in published[letter])
        assert p_lo < lo < p_lo + Fraction(1, 100)
        assert p_hi - Fraction(1, 100) < hi < p_hi


def test_head_extremes_unconstrained_contains_constrained(sd):
    # The head takes digits 0..cutoff freely, so it contains the head sum
    # of every valid digit string, enumerated outright with float terms.
    ders = certify_balance_bounds()
    for letter, cutoff in enumerate(HEAD_CUTOFFS):
        (lower, upper), tail, _ = ders[letter]
        codes = np.arange(2 ** (cutoff + 1))
        bits = ((codes[:, None] >> np.arange(cutoff + 1)) & 1).astype(np.uint8)
        sums = bits[is_valid_rep_many(bits)] @ float_head_terms(sd, letter, cutoff)
        assert float(lower + tail) - 1e-12 <= sums.min() < 0 < sums.max() <= float(upper - tail) + 1e-12


def test_tail_bounds_below_published(sd):
    ders = certify_balance_bounds()
    for letter, cutoff, target in zip((0, 1, 2), HEAD_CUTOFFS, TARGET_TAIL_BOUNDS):
        tail = ders[letter][1]
        assert 0 < tail < Fraction(str(target))
        assert abs(float(tail) - float_tail_bound(sd, letter, cutoff)) < 1e-12
    # Closed form at letter 0, cutoff 7: the published bound is 0.17.
    assert abs(float(ders[0][1]) - 0.1621988) < 1e-6


def test_balance_bound_rule():
    F = Fraction
    assert balance_bound_from_interval(F("-0.6"), F("0.9")) == 2
    assert balance_bound_from_interval(F("-0.775"), F("0.725")) == 2
    assert balance_bound_from_interval(F("-0.25"), F("0.25")) == 0
    assert balance_bound_from_interval(F("-0.3"), F("0.3")) == 1
    assert balance_bound_from_interval(0, 1) == 1
    # No slack around an integer: one part in 10^30 either side decides.
    assert balance_bound_from_interval(0, 1 + F(1, 10**30)) == 2
    assert balance_bound_from_interval(0, 1 - F(1, 10**30)) == 1
    with pytest.raises(InvalidInputError):
        balance_bound_from_interval(F("0.5"), F("0.5"))


def test_certified_derivations(sd):
    ders = certify_balance_bounds()
    assert [bound for _, _, bound in ders] == [2, 2, 2]
    for letter, ((lower, upper), tail, _) in enumerate(ders):
        assert type(lower) is type(upper) is type(tail) is Fraction
        t_lo, t_hi = (Fraction(str(x)) for x in TARGET_INTERVALS[letter])
        assert t_lo <= lower < upper <= t_hi
        # The float route is the oracle.
        f_lo, f_hi = float_interval(sd, letter, HEAD_CUTOFFS[letter])
        assert abs(float(lower) - f_lo) < 1e-12
        assert abs(float(upper) - f_hi) < 1e-12


def test_certified_derivation_failure_raises(monkeypatch):
    # A cutoff of 0 leaves a huge geometric tail; the interval cannot fit.
    monkeypatch.setattr(spectral, "HEAD_CUTOFFS", (0, 0, 0))
    with pytest.raises(VerificationFailureError):
        certify_balance_bounds()


def test_empirical_extremes_strictly_inside(tribo, sd):
    tribo.ensure(100_000)
    for letter, (lo_t, hi_t) in zip((0, 1, 2), TARGET_INTERVALS):
        lo, hi = discrepancy_extremes(tribo, 100_000, letter, sd)
        assert lo_t < lo < hi < hi_t


@pytest.mark.parametrize("n_max", [0, 2**16 - 1, 2**16, 2**16 + 1, 10**6])
def test_blocked_extremes_equal_the_column(tribo_2e6, tribo_2e6_counts, sd, n_max):
    for letter in (0, 1, 2):
        counts = tribo_2e6_counts[letter, : n_max + 1]
        column = counts - np.arange(n_max + 1) * sd.frequency(letter)
        starts, blocks = zip(*discrepancy_blocks(tribo_2e6, n_max, letter, sd))
        assert starts == tuple(range(0, n_max + 1, 2**16))
        assert np.array_equal(np.concatenate(blocks), column)
        assert discrepancy_extremes(tribo_2e6, n_max, letter, sd) == (column.min(), column.max())


def test_extremes_memory(tribo_2e6, sd):
    # The whole 10^6 column with its float prefix lengths takes about 24 MB;
    # the blocks count their own letter, so no whole-buffer counts either.
    tracemalloc.start()
    try:
        discrepancy_extremes(tribo_2e6, 10**6, 2, sd)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10**6
