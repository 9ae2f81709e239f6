"""Eigendata of the substitution matrix, the discrepancy machinery, and
the exact spectral certificate of 2-balance.

The incidence matrix of the Tribonacci morphism has characteristic
polynomial x^3 - x^2 - x - 1 with one real (Pisot) root beta and a complex
conjugate pair alpha, conj(alpha) strictly inside the unit circle.  Writing
a prefix length N in the Tribonacci numeration, the count of a letter in
that prefix minus N times the letter frequency equals a sum of head terms
2 Re(C alpha^k) over the set digits k; a finite head plus a geometrically
bounded tail yields per-letter discrepancy intervals, and any such
interval (lower, upper) forces the word to be balanced with bound strictly
below 2*(upper - lower).  The float ``SpectralData`` feeds data only (the
discrepancy tables, the digit-expansion oracle).  The certificate never
reads it: every quantity it decides on is a rational function of beta, so
it compares ``Fraction`` intervals around an integer bisection of beta.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InvalidInputError,
    NumericError,
    RangeError,
    VerificationFailureError,
    integer_in,
)
from .numeration import digit_columns, tau_parikh_table, zeckendorf_encode
from .words import WordBuffer, prefix_count_blocks

#: Head cutoff index per letter (terms 0..cutoff are summed exactly).
HEAD_CUTOFFS = (7, 10, 13)

#: Certified per-letter discrepancy intervals for prefix counts.
TARGET_INTERVALS = ((-0.6, 0.9), (-0.775, 0.725), (-0.88, 0.62))

#: Certified bounds on the geometric tails at the head cutoffs.
TARGET_TAIL_BOUNDS = (0.17, 0.075, 0.0354)


@dataclass(frozen=True)
class SpectralData:
    """The real root ``beta`` and the complex root ``alpha`` of the
    incidence matrix of the Tribonacci morphism, and the coefficient of
    ``alpha`` in the expansion of the first standard basis vector over the
    eigenvectors (root^-1, root^-2, root^-3), whose coordinates sum to 1:
    e_0 = c_beta * v_beta + 2 Re(coeff_alpha * v_alpha).
    """

    beta: float
    alpha: complex
    coeff_alpha: complex

    def frequency(self, letter: int) -> float:
        """Asymptotic frequency of the letter: beta^-(letter+1)."""
        letter = integer_in(letter, "letter", 0, 2)
        return self.beta ** -(letter + 1)

    def mixing_factor(self, letter: int) -> complex:
        """alpha^-(letter+1) - beta^-(letter+1); its modulus controls both
        the head terms and the tail bound for that letter."""
        letter = integer_in(letter, "letter", 0, 2)
        return self.alpha ** -(letter + 1) - self.beta ** -(letter + 1)


def compute_spectral_data() -> SpectralData:
    """The real root rounded from the exact bisection ``_beta``, deflation
    for the complex pair, and a 3x3 solve for the expansion coefficients."""
    enclosure = _beta()
    beta = float(enclosure.lo)
    if float(enclosure.hi) != beta:
        raise NumericError("the enclosure of beta does not round to one double")

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
    return SpectralData(beta=beta, alpha=alpha, coeff_alpha=complex(coeffs[1]))


def discrepancy_direct(buffer: WordBuffer, n: int, letter: int, sd: SpectralData) -> float:
    """Prefix count of the letter minus n times its frequency."""
    letter, n = integer_in(letter, "letter", 0, 2), integer_in(n, "prefix length")
    if n > len(buffer):
        raise RangeError(f"prefix length {n} outside buffer of length {len(buffer)}")
    return float(buffer.symbols.count(letter, 0, n) - n * sd.frequency(letter))


def discrepancy_from_digits(digits, letter: int, sd: SpectralData) -> np.ndarray:
    """The spectral discrepancy of many prefix lengths from their numeration
    digits (a 2-D integer array, one row per length, least significant
    first, read by ``numeration.digit_columns``):
    sum over set digits k of 2 Re(coeff_alpha * mixing_factor * alpha^k).

    The power sum runs over the digit columns in the order of the scalar
    formula -- add alpha^k where the digit is set, then advance to
    alpha^(k+1) -- so each entry is bit for bit what one row alone gives.
    """
    letter = integer_in(letter, "letter", 0, 2)
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
    digits = zeckendorf_encode(n)
    return float(discrepancy_from_digits(np.array([digits], dtype=np.uint8), letter, sd)[0])


#: Prefix lengths per block of ``discrepancy_blocks``.
DISCREPANCY_BLOCK = 1 << 16


def discrepancy_blocks(buffer: WordBuffer, n_max: int, letter: int,
                       sd: SpectralData) -> Iterator[tuple[int, np.ndarray]]:
    """The direct discrepancy of every prefix length 0..n_max, as an
    iterator of ``(start, block)``: float64 blocks of ``DISCREPANCY_BLOCK``
    lengths (the last one shorter), entry i of a block equal to
    ``discrepancy_direct(buffer, start + i, letter, sd)``.  The arguments
    are checked on the call, before the first block."""
    letter, n_max = integer_in(letter, "letter", 0, 2), integer_in(n_max, "n_max")
    if n_max > len(buffer):
        raise RangeError(f"n_max {n_max} exceeds buffer length {len(buffer)}")
    blocks = prefix_count_blocks(buffer, n_max + 1, DISCREPANCY_BLOCK, (letter,))
    freq = sd.frequency(letter)
    return ((start, counts - np.arange(start, start + len(counts), dtype=np.float64) * freq)
            for start, (counts,) in blocks)


def discrepancy_extremes(buffer: WordBuffer, n_max: int, letter: int,
                         sd: SpectralData) -> tuple[float, float]:
    """Min and max of the direct discrepancy over all prefixes up to n_max,
    one block of ``discrepancy_blocks`` at a time."""
    lo, hi = math.inf, -math.inf
    for _, block in discrepancy_blocks(buffer, n_max, letter, sd):
        lo, hi = min(lo, float(block.min())), max(hi, float(block.max()))
    return lo, hi


# ---------------------------------------------------------------------------
# The exact certificate

#: beta and every square root are enclosed to within 2**-BITS.
BITS = 96

#: p_k = beta^-k + alpha^-k + conj(alpha)^-k for k = 1, 2, 3: the power sums
#: of the roots of x^3 + x^2 + x - 1, the reciprocals of beta and alpha.
RECIPROCAL_POWER_SUMS = (-1, -1, 5)


class _Interval:
    """Rationals lo <= hi.  Each operation returns an interval holding every
    value the exact operation takes on its operands, so an expression of
    intervals encloses the exact value of the expression."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        self.lo, self.hi = Fraction(lo), Fraction(lo if hi is None else hi)

    def __add__(self, other):
        other = _enclose(other)
        return _Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        other = _enclose(other)
        return _Interval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other):
        return _enclose(other) - self

    def __mul__(self, other):
        other = _enclose(other)
        ends = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return _Interval(min(ends), max(ends))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _enclose(other)
        if other.lo <= 0:
            raise NumericError("an interval divisor must lie above 0")
        return self * _Interval(1 / other.hi, 1 / other.lo)

    def __pow__(self, k: int):
        # Powers, negative ones too, are taken of intervals above 0 only.
        lo, hi = sorted((self.lo**k, self.hi**k))
        return _Interval(lo, hi)

    def sqrt(self):
        # isqrt(floor(x * 4^BITS)) / 2^BITS <= sqrt(x) < (that + 1) / 2^BITS.
        lo, hi = (math.isqrt((x.numerator << 2 * BITS) // x.denominator)
                  for x in (self.lo, self.hi))
        return _Interval(Fraction(lo, 1 << BITS), Fraction(hi + 1, 1 << BITS))


def _enclose(value) -> _Interval:
    return value if isinstance(value, _Interval) else _Interval(value)


def _beta() -> _Interval:
    """beta to within 2**-BITS: integer bisection of x^3 - x^2 - x - 1,
    scaled by 2**BITS.  It is -2 at 1, 1 at 2 and increasing in between."""
    scale = 1 << BITS
    lo, hi = scale, 2 * scale
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**3 - mid**2 * scale - mid * scale**2 - scale**3 < 0:
            lo = mid
        else:
            hi = mid
    return _Interval(Fraction(lo, scale), Fraction(hi, scale))


def _head_terms(beta: _Interval, letter: int, cutoff: int) -> list[_Interval]:
    """Head terms k = 0..cutoff: the letter count of tau^k(0) minus its
    length times the letter frequency beta^-(letter+1)."""
    freq = beta ** -(letter + 1)
    return [parikh[letter] - sum(parikh) * freq
            for parikh in tau_parikh_table(cutoff + 1).T.tolist()]


def _coefficient_squared(beta: _Interval, h0: _Interval, h1: _Interval) -> _Interval:
    """|C|^2 for head terms h_k = 2 Re(C alpha^k): C (alpha - conj(alpha))
    = h_1 - h_0 conj(alpha), alpha + conj(alpha) = 1 - beta, |alpha|^2 = 1/beta."""
    return ((h1 * h1 - h0 * h1 * (1 - beta) + h0 * h0 * beta**-1)
            / (4 * beta**-1 - (1 - beta) * (1 - beta)))


def named_constants() -> dict[str, tuple[Fraction, Fraction]]:
    """The six constants the paper states, by name, as rational bounds
    (lo, hi): beta; |alpha| = beta^-1/2; |coefficient of alpha| =
    |C_0| / |mix_0|; and |mix_a| for each letter's mixing factor
    mix_a = alpha^-k - beta^-k, k = a + 1, from
    |mix_a|^2 = beta^k + 2 beta^-2k - p_k beta^-k."""
    beta = _beta()
    inv = beta**-1
    mix = [beta**k + 2 * inv ** (2 * k) - p * inv**k
           for k, p in enumerate(RECIPROCAL_POWER_SUMS, start=1)]
    values = {
        "beta": beta,
        "abs_alpha": inv.sqrt(),
        "abs_a_alpha": (_coefficient_squared(beta, *_head_terms(beta, 0, 1)) / mix[0]).sqrt(),
        **{f"factor_i{a}": m.sqrt() for a, m in enumerate(mix)},
    }
    return {name: (v.lo, v.hi) for name, v in values.items()}


def balance_bound_from_interval(lower, upper) -> int:
    """Largest integer strictly below 2*(upper - lower), exactly; a float
    bound is read as the binary value it is.

    A prefix discrepancy pinned to (lower, upper) bounds any window's
    discrepancy to (lower-upper, upper-lower), so two equal-length windows
    differ by strictly less than 2*(upper-lower); count differences are
    integers, which justifies dropping an exact-integer boundary.
    """
    try:
        lower, upper = Fraction(lower), Fraction(upper)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(
            f"interval bounds must be finite numbers, got ({lower!r}, {upper!r})") from None
    if not lower < upper:
        raise InvalidInputError(f"interval bounds must satisfy lower < upper, got ({lower}, {upper})")
    return math.ceil(2 * (upper - lower)) - 1


def _head_interval(beta: _Interval, terms: list[_Interval],
                   cutoff: int) -> tuple[Fraction, Fraction, Fraction]:
    """``(lower, upper, tail)`` for head terms h_k = 2 Re(C alpha^k),
    k = 0..cutoff, of a sum over free digits: the sums of the negative
    and of the positive parts of the head terms, widened by the tail bound
    2 |C| r^(cutoff+1) / (1 - r), r = |alpha| = beta^-1/2, with |C| read
    off h_0 and h_1.  Rationals, rounded outward."""
    r = (beta**-1).sqrt()
    tail = (2 * _coefficient_squared(beta, *terms[:2]).sqrt() * r ** (cutoff + 1) / (1 - r)).hi
    head = terms[: cutoff + 1]
    return (sum(min(t.lo, 0) for t in head) - tail,
            sum(max(t.hi, 0) for t in head) + tail, tail)


def certify_balance_bounds() -> list[tuple[tuple[Fraction, Fraction], Fraction, int]]:
    """Per letter, ``((lower, upper), tail, bound)``, rationals rounded
    outward, at the letter's cutoff in ``HEAD_CUTOFFS``: the head extremes
    (digits 0..cutoff free) widened by the tail bound (``_head_interval``;
    every head term's sign is decided first), and the balance bound.  Raises
    ``VerificationFailureError`` naming the letter if an interval escapes
    its target, read exactly from its decimal text."""
    beta = _beta()
    derivations = []
    for letter, cutoff in enumerate(HEAD_CUTOFFS):
        terms = _head_terms(beta, letter, max(cutoff, 1))
        if any(t.lo <= 0 <= t.hi for t in terms[: cutoff + 1]):
            raise NumericError(f"letter {letter}: the sign of a head term is undecided")
        lower, upper, tail = _head_interval(beta, terms, cutoff)
        target = TARGET_INTERVALS[letter]
        if lower < Fraction(str(target[0])) or upper > Fraction(str(target[1])):
            raise VerificationFailureError(
                f"letter {letter}: derived interval ({float(lower):.6f}, {float(upper):.6f}) "
                f"escapes the target {target}"
            )
        derivations.append(((lower, upper), tail, balance_bound_from_interval(lower, upper)))
    return derivations


def synchronization_window() -> tuple[Fraction, Fraction]:
    """Rationals (lower, upper), rounded outward, that bound u.S for every
    state S of the synchronized digit automaton that can still end in an
    accepting one (see ``synchronized``), with u = (1, beta - 1, 1/beta):
    u M = beta u and u e_0 = 1 for the incidence matrix M.

    The head terms of u.D(x), for the prefix discrepancy vector
    D(x) = P(x) - x f, are g_k = sum_a u_a h_(a,k) over the letters' head
    terms, so A = sup u.D is at most the sum of the positive g_k, k <= K,
    plus the tail bound, and B = inf u.D at least the sum of the negative
    ones minus it (``_head_interval``).  An accepting S is
    D(j) - D(i) - D(n), so u.S lies in [B - 2A, A - 2B].  Each digit read
    maps S to M S + d e_0 with d in [-2, 1], so with t digits still to read
    u.S is a convex combination, weights beta^-t and 1 - beta^-t, of the
    final value and a point of [-1/(beta - 1), 2/(beta - 1)]; the window is
    the hull of both intervals.  K is the certificate's longest head,
    max(HEAD_CUTOFFS)."""
    cutoff = max(HEAD_CUTOFFS)
    beta = _beta()
    u = (1, beta - 1, beta**-1)
    heads = [_head_terms(beta, letter, cutoff) for letter in range(3)]
    g = [sum((u_a * h[k] for u_a, h in zip(u, heads)), _Interval(0)) for k in range(cutoff + 1)]
    inf_d, sup_d, _ = _head_interval(beta, g, cutoff)
    step = (beta - 1) ** -1
    return min(inf_d - 2 * sup_d, -step.hi), max(sup_d - 2 * inf_d, 2 * step.hi)
