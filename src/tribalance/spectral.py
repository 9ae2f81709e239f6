"""Eigendata of the substitution matrix and the discrepancy machinery.

The incidence matrix of the Tribonacci morphism has characteristic
polynomial x^3 - x^2 - x - 1 with one real (Pisot) root and a complex
conjugate pair strictly inside the unit circle.  Writing a prefix length N
in the Tribonacci numeration, the count of a letter in that prefix minus
N times the letter frequency equals a geometric-type sum over the digit
positions weighted by powers of the complex root; splitting that sum into
a finite head plus a geometrically bounded tail yields per-letter
discrepancy intervals, and any such interval (lower, upper) forces the
word to be balanced with bound strictly below 2*(upper - lower).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    NumericError,
    RangeError,
    VerificationFailureError,
)
from .numeration import digit_columns, zeckendorf_encode
from .words import WordBuffer

DEFAULT_TOLERANCE = 1e-14

#: Head cutoff index per letter (terms 0..cutoff are summed exactly).
HEAD_CUTOFFS = (7, 10, 13)

#: Certified per-letter discrepancy intervals for prefix counts.
TARGET_INTERVALS = ((-0.6, 0.9), (-0.775, 0.725), (-0.88, 0.62))

#: Certified bounds on the geometric tails at the head cutoffs.
TARGET_TAIL_BOUNDS = (0.17, 0.075, 0.0354)


@dataclass(frozen=True)
class SpectralData:
    """Roots, eigenvectors, and expansion coefficients of the incidence
    matrix of the Tribonacci morphism.

    ``evec_beta`` and ``evec_alpha`` are the eigenvectors with coordinates
    (root^-1, root^-2, root^-3), normalized so the coordinates sum to 1.
    The coefficients expand the first standard basis vector as
    coeff_beta * evec_beta + 2 Re(coeff_alpha * evec_alpha).
    """

    beta: float
    alpha: complex
    evec_beta: np.ndarray
    evec_alpha: np.ndarray
    coeff_beta: float
    coeff_alpha: complex

    @property
    def abs_alpha(self) -> float:
        return abs(self.alpha)

    @property
    def abs_coeff_alpha(self) -> float:
        return abs(self.coeff_alpha)

    def frequency(self, letter: int) -> float:
        """Asymptotic frequency of the letter: beta^-(letter+1)."""
        _check_letter(letter)
        return self.beta ** -(letter + 1)

    def mixing_factor(self, letter: int) -> complex:
        """alpha^-(letter+1) - beta^-(letter+1); its modulus controls both
        the head terms and the tail bound for that letter."""
        _check_letter(letter)
        return self.alpha ** -(letter + 1) - self.beta ** -(letter + 1)


def named_constants(sd: SpectralData) -> dict[str, float]:
    """The six constants the paper states, by name: beta, |alpha|,
    |coefficient of alpha| and |mixing factor| of each letter."""
    return {
        "beta": sd.beta,
        "abs_alpha": sd.abs_alpha,
        "abs_a_alpha": sd.abs_coeff_alpha,
        "factor_i0": abs(sd.mixing_factor(0)),
        "factor_i1": abs(sd.mixing_factor(1)),
        "factor_i2": abs(sd.mixing_factor(2)),
    }


def _check_letter(letter: int) -> None:
    if letter not in (0, 1, 2):
        raise InvalidInputError(f"letter must be 0, 1 or 2, got {letter}")


def compute_spectral_data() -> SpectralData:
    """Newton iteration for the real root, deflation for the complex pair,
    and a 3x3 solve for the expansion coefficients."""
    x = 2.0
    for _ in range(100):
        f = x * x * x - x * x - x - 1.0
        if abs(f) < DEFAULT_TOLERANCE:
            break
        x -= f / (3.0 * x * x - 2.0 * x - 1.0)
    else:
        raise NumericError("Newton iteration for the real root did not converge")
    beta = x

    # Deflate: x^3 - x^2 - x - 1 = (x - beta)(x^2 + (beta-1)x + (beta^2-beta-1)).
    p = beta - 1.0
    q = beta * beta - beta - 1.0
    disc = p * p - 4.0 * q
    if disc >= 0:
        raise NumericError("deflated quadratic has real roots; expected a conjugate pair")
    alpha = complex(-p / 2.0, np.sqrt(-disc) / 2.0)

    evec_beta = np.array([beta ** -1, beta ** -2, beta ** -3])
    evec_alpha = np.array([alpha ** -1, alpha ** -2, alpha ** -3])

    system = np.column_stack([
        evec_beta.astype(complex),
        evec_alpha,
        np.conj(evec_alpha),
    ])
    coeffs = np.linalg.solve(system, np.array([1.0, 0.0, 0.0], dtype=complex))
    if abs(coeffs[0].imag) > 1e-10 or abs(coeffs[2] - np.conj(coeffs[1])) > 1e-10:
        raise NumericError("coefficient solve lost conjugate symmetry")
    return SpectralData(
        beta=beta,
        alpha=alpha,
        evec_beta=evec_beta,
        evec_alpha=evec_alpha,
        coeff_beta=float(coeffs[0].real),
        coeff_alpha=complex(coeffs[1]),
    )


def discrepancy_direct(buffer: WordBuffer, n: int, letter: int, sd: SpectralData) -> float:
    """Prefix count of the letter minus n times its frequency."""
    _check_letter(letter)
    if n < 0 or n > len(buffer):
        raise RangeError(f"prefix length {n} outside buffer of length {len(buffer)}")
    return float(buffer.prefix_counts[letter, n] - n * sd.frequency(letter))


def discrepancy_from_digits(digits, letter: int, sd: SpectralData) -> np.ndarray:
    """The spectral discrepancy of many prefix lengths from their numeration
    digits (a 2-D integer array, one row per length, least significant
    first, read by ``numeration.digit_columns``):
    sum over set digits k of 2 Re(coeff_alpha * mixing_factor * alpha^k).

    The power sum runs over the digit columns in the order of the scalar
    formula -- add alpha^k where the digit is set, then advance to
    alpha^(k+1) -- so each entry is bit for bit what one row alone gives.
    """
    _check_letter(letter)
    columns = digit_columns(digits)
    coef = sd.coeff_alpha * sd.mixing_factor(letter)
    power_sum = np.zeros(columns.shape[1], dtype=complex)
    a_k = 1 + 0j
    for column in columns:
        np.add(power_sum, a_k, out=power_sum, where=column == 1)
        a_k *= sd.alpha
    # Re(coef * power_sum) with the two products and the difference rounded
    # one by one, as complex multiplication rounds them.
    return 2.0 * (coef.real * power_sum.real - coef.imag * power_sum.imag)


def discrepancy_spectral(n: int, letter: int, sd: SpectralData) -> float:
    """The same discrepancy evaluated from the numeration digits of n (any
    non-negative integer): ``discrepancy_from_digits`` on the one row of
    its digits."""
    digits = zeckendorf_encode(n).digits
    return float(discrepancy_from_digits(np.array([digits], dtype=np.uint8), letter, sd)[0])


def discrepancy_column(buffer: WordBuffer, n_max: int, letter: int,
                       sd: SpectralData) -> np.ndarray:
    """The direct discrepancy of every prefix length 0..n_max, as float64;
    entry N equals ``discrepancy_direct(buffer, N, letter, sd)``."""
    _check_letter(letter)
    if n_max > len(buffer):
        raise RangeError(f"n_max {n_max} exceeds buffer length {len(buffer)}")
    ns = np.arange(n_max + 1, dtype=np.float64)
    return buffer.prefix_counts[letter, : n_max + 1] - ns * sd.frequency(letter)


def discrepancy_extremes(buffer: WordBuffer, n_max: int, letter: int,
                         sd: SpectralData) -> tuple[float, float]:
    """Min and max of the direct discrepancy over all prefixes up to n_max."""
    d = discrepancy_column(buffer, n_max, letter, sd)
    return float(d.min()), float(d.max())


def head_terms(sd: SpectralData, letter: int, cutoff: int) -> np.ndarray:
    """The exact head contributions 2 Re(coeff * mixing * alpha^k), k <= cutoff."""
    coef = sd.coeff_alpha * sd.mixing_factor(letter)
    powers = sd.alpha ** np.arange(cutoff + 1)
    return 2.0 * (coef * powers).real


def head_extremes(sd: SpectralData, letter: int, cutoff: int,
                  constrained: bool = False) -> tuple[float, float]:
    """Extreme values of the digit-weighted head sum over digits 0..cutoff.

    Unconstrained: digits chosen freely in {0,1}, so the maximum collects
    the positive terms and the minimum the negative ones.  Constrained:
    digits must satisfy the numeration rule (no three consecutive ones);
    solved by dynamic programming over the last two digits.
    """
    if cutoff < 0:
        raise InvalidInputError("cutoff must be >= 0")
    terms = head_terms(sd, letter, cutoff)
    if not constrained:
        return float(terms[terms < 0].sum()), float(terms[terms > 0].sum())
    # DP state: (second-to-last digit, last digit) -> (lowest, highest)
    # partial sum.
    best = {(0, 0): (0.0, 0.0)}
    for t in terms:
        new: dict[tuple[int, int], tuple[float, float]] = {}
        for (a, b), (lo, hi) in best.items():
            for d in (0,) if a == b == 1 else (0, 1):
                key = (b, d)
                add = t if d else 0.0
                lo_val, hi_val = lo + add, hi + add
                if key in new:
                    old_lo, old_hi = new[key]
                    new[key] = (min(old_lo, lo_val), max(old_hi, hi_val))
                else:
                    new[key] = (lo_val, hi_val)
        best = new
    return min(lo for lo, _ in best.values()), max(hi for _, hi in best.values())


def tail_bound(sd: SpectralData, letter: int, cutoff: int) -> float:
    """Closed-form bound on the discarded tail:
    2 |coeff| * |mixing| * |alpha|^(cutoff+1) / (1 - |alpha|)."""
    if cutoff < 0:
        raise InvalidInputError("cutoff must be >= 0")
    r = sd.abs_alpha
    return 2.0 * sd.abs_coeff_alpha * abs(sd.mixing_factor(letter)) * r ** (cutoff + 1) / (1.0 - r)


@dataclass(frozen=True)
class DiscrepancyInterval:
    """Open interval certified to contain the prefix discrepancy of a letter."""

    letter: int
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise InvalidInputError(f"empty discrepancy interval [{self.lower}, {self.upper}]")


def balance_bound_from_interval(lower: float, upper: float) -> int:
    """Largest integer strictly below 2*(upper - lower).

    A prefix discrepancy pinned to (lower, upper) bounds any window's
    discrepancy to (lower-upper, upper-lower), so two equal-length windows
    differ by strictly less than 2*(upper-lower); count differences are
    integers, which justifies dropping an exact-integer boundary.
    """
    if not lower < upper:
        raise InvalidInputError(f"interval bounds must satisfy lower < upper, got [{lower}, {upper}]")
    x = 2.0 * (upper - lower)
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest) - 1
    return int(np.floor(x))


@dataclass(frozen=True)
class BoundDerivation:
    """One letter's full derivation: head extremes, tail bound, the
    resulting discrepancy interval, and the balance bound it implies."""

    letter: int
    head_cutoff: int
    head_min: float
    head_max: float
    constrained_head_min: float
    constrained_head_max: float
    tail: float
    interval: DiscrepancyInterval
    balance_bound: int


def certify_balance_bounds(sd: SpectralData,
                           cutoffs: tuple[int, int, int] = HEAD_CUTOFFS) -> list[BoundDerivation]:
    """Re-derive the per-letter discrepancy intervals and turn each into a
    balance bound.

    The containment assertion uses the unconstrained head extremes (they
    dominate the constrained ones, so the certificate holds a fortiori);
    both are reported.  Raises ``VerificationFailureError`` naming the
    letter if a derived interval escapes its certified target.
    """
    derivations = []
    for letter in (0, 1, 2):
        cutoff = cutoffs[letter]
        lo_u, hi_u = head_extremes(sd, letter, cutoff, constrained=False)
        lo_c, hi_c = head_extremes(sd, letter, cutoff, constrained=True)
        tail = tail_bound(sd, letter, cutoff)
        interval = DiscrepancyInterval(letter, lo_u - tail, hi_u + tail)
        target_lo, target_hi = TARGET_INTERVALS[letter]
        if interval.lower < target_lo or interval.upper > target_hi:
            raise VerificationFailureError(
                f"letter {letter}: derived interval ({interval.lower:.6f}, {interval.upper:.6f}) "
                f"escapes the target ({target_lo}, {target_hi})"
            )
        derivations.append(
            BoundDerivation(
                letter=letter,
                head_cutoff=cutoff,
                head_min=lo_u,
                head_max=hi_u,
                constrained_head_min=lo_c,
                constrained_head_max=hi_c,
                tail=tail,
                interval=interval,
                balance_bound=balance_bound_from_interval(interval.lower, interval.upper),
            )
        )
    return derivations
