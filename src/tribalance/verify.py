"""Registry of verifiable claims about the Tribonacci word, and a runner.

Each claim recomputes one published property from scratch -- complexity
sequences, balance bounds, numeration laws, spectral constants -- and
reports observed versus expected.  The ``paper`` suite is the full
registry; ``run_suite`` executes every claim, records wall time, and
downgrades resource failures (``BufferLimitError``, ``SaturationError``)
to ``skipped`` so a run under a tight cap stays distinguishable from a
wrong one.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable

import numpy as np

from . import abelian, numeration, special, spectral
from .errors import BufferLimitError, InvalidInputError, SaturationError, TribalanceError
from .factors import FactorIndex, factor_index, position_cap
from .words import (
    DEFAULT_MAX_SYMBOLS,
    WordBuffer,
    mbonacci_word,
    prefix_count_blocks,
    tribonacci_word,
)

#: Abelian complexity of the Tribonacci word at lengths 1..42.
RHO_SEQUENCE_42 = (
    3, 3, 4, 3, 4, 4, 4, 3, 4, 4, 4, 4, 4, 4, 3, 4, 4, 4, 4, 4, 4,
    4, 4, 4, 4, 4, 4, 3, 4, 5, 5, 4, 4, 4, 4, 4, 5, 5, 4, 4, 4, 4,
)

#: First lengths attaining each complexity value, and the next four 7s.
FIRST_RHO_5 = 30
FIRST_RHO_6 = 342
FIRST_RHO_7 = 3914
NEXT_RHO_7 = (4063, 4841, 4990, 7199)

#: Published 5-decimal truncations of the spectral constants.
SPECTRAL_CONSTANTS_5DP = MappingProxyType({
    "beta": 1.83928,
    "abs_alpha": 0.73735,
    "abs_a_alpha": 0.14135,
    "factor_i0": 1.72457,
    "factor_i1": 1.96298,
    "factor_i2": 2.33887,
})


def matches_truncated(bounds: tuple[Fraction, Fraction], stated: float, decimals: int = 5) -> bool:
    """True iff the rational ``bounds`` (lo, hi) lie in [stated, stated +
    10^-decimals), ``stated`` read exactly from its decimal text: it is the
    ``decimals``-digit truncation of every value between them."""
    lo, hi = bounds
    stated = Fraction(str(stated))
    return stated <= lo and hi < stated + Fraction(1, 10**decimals)


@dataclass
class ClaimResult:
    claim_id: str
    description: str
    status: str  # "pass" | "fail" | "skipped"
    observed: object
    expected: object
    runtime_ms: float

    def to_dict(self) -> dict:
        return {**asdict(self), "runtime_ms": round(self.runtime_ms, 3)}


@dataclass
class VerificationReport:
    suite: str
    claims: list[ClaimResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.status == "pass" for c in self.claims)

    def to_json(self) -> str:
        return json.dumps(
            {"suite": self.suite, "claims": [c.to_dict() for c in self.claims]},
            indent=2,
        )


@dataclass
class SuiteConfig:
    seed: int = 0
    threads: int = 1  # accepted: the benchmark tracer's suite-subset passes it
    max_buffer: int = DEFAULT_MAX_SYMBOLS
    progress: Callable[[str], None] | None = None


#: The shared profile: the complexity claims read lengths 1..7199, and
#: the geometry claim the Parikh vectors of lengths 1..2000.
SHARED_PROFILE = 7199
SHARED_VECTORS = 2000

#: The saturation claim counts the factors of its longest sample, at most
#: 2000 symbols long, over the position cap plus n - 1 symbols: 134,095.
SATURATION_REGION = position_cap(3, 2000) + 2000 - 1

#: The length the shared index is requested at.  ``factor_index`` starts a
#: three-letter region at 8 (n + 1) + 1024 symbols, which holds
#: ``SATURATION_REGION`` from this n on (16,633), so one index, built early
#: while little else is held, serves the profile and the saturation claim.
SHARED_INDEX = -(-(SATURATION_REGION - 1024) // 8) - 1


class SuiteContext:
    """Lazily built shared artifacts: one Tribonacci word buffer (which
    holds its factor index), one profile and one spectral certificate,
    reused by every claim that needs them."""

    def __init__(self, config: SuiteConfig):
        self.config = config
        self._buffer: WordBuffer | None = None
        self._profile: list[abelian.ProfileRow] | None = None
        self._certificate: list | None = None

    def log(self, message: str) -> None:
        if self.config.progress is not None:
            self.config.progress(message)

    def buffer(self, min_len: int = 1) -> WordBuffer:
        if self._buffer is None:
            self._buffer = tribonacci_word(min_len, max_symbols=self.config.max_buffer)
        return self._buffer.ensure(min_len)

    def profile(self) -> list[abelian.ProfileRow]:
        """The certified rows of lengths 1..``SHARED_PROFILE``, those up
        to ``SHARED_VECTORS`` with their Parikh vectors: one factor index
        and one walk over every length, built at the first call.

        The index is requested at ``SHARED_INDEX``, so it also covers the
        saturation claim's region; under a ``max_buffer`` below that
        region, at ``SHARED_PROFILE``, as the profile alone needs."""
        if self._profile is None:
            buf = self.buffer()
            self.log(f"building certified profile up to n={SHARED_PROFILE}")
            # The longest length's index first: the walk with vectors would
            # otherwise build a shorter one of its own.
            try:
                factor_index(buf, SHARED_INDEX)
            except BufferLimitError:
                factor_index(buf, SHARED_PROFILE)
            self._profile = (
                abelian.abelian_profile(buf, 1, SHARED_VECTORS, collect_vectors=True)
                + abelian.abelian_profile(buf, SHARED_VECTORS + 1, SHARED_PROFILE))
        return self._profile

    def certificate(self) -> list:
        """``spectral.certify_balance_bounds()``, derived once for all
        three letters."""
        if self._certificate is None:
            self._certificate = spectral.certify_balance_bounds()
        return self._certificate


@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    run: Callable[[SuiteContext], tuple[bool, object, object]]


def _claim_rho_sequence(ctx: SuiteContext):
    # A walk of its own: the claim runs first, and the shared profile's
    # cost stays with the claims that read it.
    rows = abelian.abelian_profile(ctx.buffer(), 1, 42)
    observed = tuple(r.rho for r in rows)
    return observed == RHO_SEQUENCE_42, list(observed), list(RHO_SEQUENCE_42)


def _first_rho_claim(value: int, expected: int):
    def run(ctx: SuiteContext):
        rows = ctx.profile()
        observed = next(r.n for r in rows if r.rho == value)
        return observed == expected, observed, expected

    return run


def _claim_rho_3914(ctx: SuiteContext):
    rows = ctx.profile()
    observed = rows[3914 - 1].rho
    return observed == 7, observed, 7


def _claim_rho_next_sevens(ctx: SuiteContext):
    rows = ctx.profile()
    sevens = [r.n for r in rows if r.rho == 7]
    observed = tuple(sevens[1:5])
    return observed == NEXT_RHO_7, list(observed), list(NEXT_RHO_7)


def _claim_balance_2000(ctx: SuiteContext):
    rows = ctx.profile()[:2000]
    observed = max(max(r.max_imbalance) for r in rows)
    return observed == 2, observed, 2


def _claim_fourbonacci_witness(ctx: SuiteContext):
    buf = mbonacci_word(4, 9048 + 3305, max_symbols=ctx.config.max_buffer)
    w = abelian.verify_witness(buf, 1, 2663, 9048, 3305)
    observed = (w.count_u, w.count_v, w.diff)
    return observed == (891, 888, 3), list(observed), [891, 888, 3]


def _claim_spectral_constants(ctx: SuiteContext):
    observed = spectral.named_constants()
    ok = all(
        matches_truncated(observed[name], stated)
        for name, stated in SPECTRAL_CONSTANTS_5DP.items()
    )
    return ok, {k: round(float(lo), 7) for k, (lo, _) in observed.items()}, \
        dict(SPECTRAL_CONSTANTS_5DP)


#: Prefix-count columns per block the eq1 claim reads its samples from.
SAMPLE_BLOCK = 1 << 16


def _claim_oracle_equivalence(ctx: SuiteContext):
    sd = spectral.compute_spectral_data()
    buf = ctx.buffer(1_000_001)
    rng = random.Random(ctx.config.seed)
    ns = np.array([rng.randrange(0, 1_000_001) for _ in range(10_000)], dtype=np.int64)
    # The worst gap is the same in any order; sorted, the samples are read
    # off the prefix counts one block at a time, up to the largest.
    ns.sort()
    digits = numeration.zeckendorf_encode_many(ns)
    counted = np.empty((3, ns.size), dtype=np.int32)
    for start, counts in prefix_count_blocks(buf, int(ns[-1]) + 1, SAMPLE_BLOCK):
        lo, hi = np.searchsorted(ns, [start, start + counts.shape[1]])
        counted[:, lo:hi] = counts[:, ns[lo:hi] - start]
    worst = 0.0
    for letter in (0, 1, 2):
        direct = counted[letter] - ns * sd.frequency(letter)
        gap = np.abs(spectral.discrepancy_from_digits(digits, letter, sd) - direct)
        worst = max(worst, float(gap.max()))
    return worst < 1e-6, worst, "< 1e-06"


def _prop_claim(letter: int):
    def run(ctx: SuiteContext):
        # Raises VerificationFailureError if the interval escapes its target.
        (lower, upper), tail, bound = ctx.certificate()[letter]
        target = spectral.TARGET_INTERVALS[letter]
        tail_target = spectral.TARGET_TAIL_BOUNDS[letter]
        ok = tail < Fraction(str(tail_target)) and bound == 2
        observed = {
            "interval": [round(float(lower), 6), round(float(upper), 6)],
            "tail": round(float(tail), 6),
            "balance_bound": bound,
        }
        expected = {"interval_within": list(target), "tail_below": tail_target, "balance_bound": 2}
        return ok, observed, expected

    return run


def _claim_empirical_containment(ctx: SuiteContext):
    sd = spectral.compute_spectral_data()
    buf = ctx.buffer(1_000_001)
    observed = {}
    ok = True
    for letter in (0, 1, 2):
        lo, hi = spectral.discrepancy_extremes(buf, 1_000_000, letter, sd)
        t_lo, t_hi = spectral.TARGET_INTERVALS[letter]
        ok = ok and t_lo < lo and hi < t_hi
        observed[f"letter{letter}"] = [round(lo, 6), round(hi, 6)]
    expected = {
        f"letter{letter}": ["strictly inside", list(spectral.TARGET_INTERVALS[letter])]
        for letter in (0, 1, 2)
    }
    return ok, observed, expected


def _claim_rho3_closed_form(ctx: SuiteContext):
    rows = ctx.profile()[:5000]
    observed = [r.n for r in rows if r.rho == 3]
    expected = special.min_complexity_lengths(5000)
    return observed == expected, observed, expected


def _claim_equivalences_200(ctx: SuiteContext):
    rows = special.verify_equivalences(ctx.buffer(), 200)
    agree = all(r.all_agree() for r in rows)
    return agree and len(rows) == 200, {"lengths_checked": len(rows), "all_agree": agree}, \
        {"lengths_checked": 200, "all_agree": True}


def _claim_prefix_balance(ctx: SuiteContext):
    *below, at_185 = abelian.prefix_balance_profile(ctx.buffer(), 1, 185)
    ok_below, fails_at_185 = all(below), not at_185
    observed = {"holds_up_to_184": ok_below, "fails_at_185": fails_at_185}
    return ok_below and fails_at_185, observed, {"holds_up_to_184": True, "fails_at_185": True}


#: Values per batch of the round-trip claim; keeps each batch's digit
#: array and the codec's int32 work rows well under a megabyte.
ROUNDTRIP_CHUNK = 1 << 14

#: Every N divisible by this is also checked against the scalar codec.
ROUNDTRIP_SCALAR_STRIDE = 997


def _claim_zeckendorf_roundtrip(ctx: SuiteContext):
    # Exhaustive over N <= 10^6 with the batch codec, which also raises if
    # the greedy walk leaves a remainder.  A failing row is one with an
    # invalid digit string, a decode that misses N, a Dumont-Thomas prefix
    # vector that differs from the counted prefix of the word, or (on the
    # fixed sample) digits that differ from the scalar reference codec.
    limit = 1_000_000
    bad = None
    checked = 0  # the blocks must count N = 0, 1, ..., limit, in order
    for start, counts in prefix_count_blocks(ctx.buffer(limit + 1), limit + 1, ROUNDTRIP_CHUNK):
        if start != checked:
            bad = checked
            break
        ns = np.arange(start, start + counts.shape[1], dtype=np.int64)
        checked += ns.size
        digits = numeration.zeckendorf_encode_many(ns)
        failed = numeration.zeckendorf_decode_many(digits, invalid=-1) != ns
        failed |= (numeration.prefix_parikh_from_digits(digits) != counts).any(axis=0)
        first_sample = -start % ROUNDTRIP_SCALAR_STRIDE
        for i in range(first_sample, ns.size, ROUNDTRIP_SCALAR_STRIDE):
            scalar = numeration.zeckendorf_encode(start + i)
            row = digits[i]
            if row[: len(scalar)].tolist() != scalar or row[len(scalar):].any():
                failed[i] = True
        if failed.any():
            bad = start + int(np.argmax(failed))
            break
    if bad is None and checked != limit + 1:
        bad = min(checked, limit + 1)
    return bad is None, {"first_failure": bad}, {"first_failure": None}


#: Digit rows per chunk of the uniqueness claim: 2^12 rows of 16 digits.
UNIQUENESS_CHUNK = 1 << 12


def _claim_zeckendorf_uniqueness(ctx: SuiteContext):
    # Exhaustive: every valid digit string short enough to matter, counted
    # per represented value.  16 digits cover every N <= 10^4.  With each 1
    # read as a 2, every string but the all-zero one must be refused.
    # The rows are built and checked UNIQUENESS_CHUNK at a time.
    width, limit = 16, 10_000
    terms = np.array([numeration.tribonacci_number(k) for k in range(width)], dtype=np.int64)
    seen = np.zeros(limit + 1, dtype=np.int64)
    digit2_accepted = 0
    for start in range(0, 2**width, UNIQUENESS_CHUNK):
        codes = np.arange(start, start + UNIQUENESS_CHUNK, dtype=np.uint16)
        bits = ((codes[:, None] >> np.arange(width, dtype=np.uint16)) & 1).astype(np.uint8)
        values = bits[numeration.is_valid_rep_many(bits)] @ terms
        seen += np.bincount(values[values <= limit], minlength=limit + 1)
        accepted = numeration.is_valid_rep_many(2 * bits)
        digit2_accepted += int(np.count_nonzero(accepted[codes != 0]))
    non_unique = int(np.count_nonzero(seen != 1))
    observed = {"non_unique_count": non_unique}
    if digit2_accepted:
        observed["digit2_accepted"] = digit2_accepted
    return not non_unique and not digit2_accepted, observed, {"non_unique_count": 0}


def _claim_saturation_soundness(ctx: SuiteContext):
    """Exactly 2n + 1 factors at each sampled length, counted by the factor
    index over every window start below the position cap (64n + 4096 by
    default, well past 10n starts after saturation): a factor first
    appearing after saturation would push the count past 2n + 1."""
    buf = ctx.buffer()
    rng = random.Random(ctx.config.seed)
    samples = sorted(rng.sample(range(1, 2001), 20))
    index = factor_index(buf, max(samples))
    for n in samples:
        index.certify(n)
    need = max(position_cap(buf.alphabet_size, n) + n - 1 for n in samples)
    if index.region_len < need:
        index = FactorIndex(buf, need)
    failures = [n for n in samples if index.factor_count(n) != 2 * n + 1]
    return not failures, {"samples": samples, "failures": failures}, {"failures": []}


def _claim_value7_instance(ctx: SuiteContext):
    # Smallest k with T_k >= 3914 is tried first; the first-occurrence
    # bound for length 3914 gives a k that must work, capping the search.
    buf = ctx.buffer()
    index = factor_index(buf, 3914)
    index.certify(3914)
    cover = int(index.cover_end[3914])
    k = 0
    while numeration.tribonacci_number(k) < 3914:
        k += 1
    while True:
        n = numeration.tribonacci_number(k) + 3914
        rho = abelian.abelian_complexity(buf, n)
        if rho == 7:
            return True, {"k": k, "n": n, "rho": rho}, {"rho": 7}
        if numeration.tribonacci_number(k) >= cover:
            return False, {"k": k, "n": n, "rho": rho}, {"rho": 7}
        k += 1


def _claim_geometry(ctx: SuiteContext):
    # Alongside the region classification, this sweep checks the two
    # structural laws it rests on: the central triple is always realized,
    # and meeting the boundary triple is equivalent to complexity > 3.
    buf = ctx.buffer()
    rows = ctx.profile()[:SHARED_VECTORS]
    index = factor_index(buf, SHARED_VECTORS)
    # Every length classifies against the one offset table, so its region
    # sizes are checked once; a wrong table fails every length.
    sizes = tuple(sorted((len(r.vectors) for r in special.REGIONS), reverse=True))
    sizes_ok = sizes == (7, 7, 7, 6, 6, 6)
    bad = []
    for row in rows:
        base = special.right_special_parikh(buf, index, row.n - 1)
        special.twelve_vector_geometry(buf, row.n, vectors=row.vectors, base=base)
        realized = frozenset(row.vectors)
        central_ok = realized.issuperset(special.central_vectors(base))
        boundary_law = (len(realized) == 3) == realized.isdisjoint(special.boundary_vectors(base))
        if not sizes_ok or not central_ok or not boundary_law:
            bad.append(row.n)
    return not bad, {"lengths_checked": len(rows), "failures": bad}, {"failures": []}


CLAIMS: tuple[Claim, ...] = (
    Claim("rho_sequence_1_42",
          "abelian complexity at lengths 1..42 matches the published sequence",
          _claim_rho_sequence),
    Claim("rho_min_5_is_30", "smallest length with complexity 5 is 30",
          _first_rho_claim(5, FIRST_RHO_5)),
    Claim("rho_min_6_is_342", "smallest length with complexity 6 is 342",
          _first_rho_claim(6, FIRST_RHO_6)),
    Claim("rho_min_7_is_3914", "smallest length with complexity 7 is 3914",
          _first_rho_claim(7, FIRST_RHO_7)),
    Claim("rho_3914_is_7", "complexity at length 3914 equals 7", _claim_rho_3914),
    Claim("rho_next_7s_4063_4841_4990_7199",
          "the next four lengths with complexity 7 are 4063, 4841, 4990, 7199",
          _claim_rho_next_sevens),
    Claim("balance_max_n2000_is_2",
          "maximum per-letter imbalance over all lengths <= 2000 is exactly 2",
          _claim_balance_2000),
    Claim("fourbonacci_witness_counts_891_888",
          "4-bonacci windows (2663, 3305) and (9048, 3305) hold 891 and 888 ones",
          _claim_fourbonacci_witness),
    Claim("spectral_constants_5dp",
          "spectral constants match their published 5-decimal truncations",
          _claim_spectral_constants),
    Claim("eq1_oracle_equivalence_1e6",
          "digit-expansion discrepancy matches direct counting within 1e-6 "
          "on 10^4 seeded prefixes up to 10^6",
          _claim_oracle_equivalence),
    Claim("prop_bounds_letter_0",
          "letter-0 discrepancy interval re-derived within (-0.6, 0.9), tail < 0.17, bound 2",
          _prop_claim(0)),
    Claim("prop_bounds_letter_1",
          "letter-1 discrepancy interval re-derived within (-0.775, 0.725), tail < 0.075, bound 2",
          _prop_claim(1)),
    Claim("prop_bounds_letter_2",
          "letter-2 discrepancy interval re-derived within (-0.88, 0.62), tail < 0.0354, bound 2",
          _prop_claim(2)),
    Claim("empirical_discrepancy_containment",
          "observed discrepancy extremes over prefixes <= 10^6 lie strictly inside each interval",
          _claim_empirical_containment),
    Claim("rho3_closed_form_n5000",
          "complexity equals 3 exactly at the closed-form lengths, up to 5000",
          _claim_rho3_closed_form),
    Claim("equivalences_agree_n200",
          "the five equivalent characterizations agree at every length <= 200",
          _claim_equivalences_200),
    Claim("prefix_balance_184_185",
          "prefix 1-balance holds at all lengths <= 184 and fails at 185",
          _claim_prefix_balance),
    Claim("zeckendorf_roundtrip_1e6",
          "numeration round trip, digit constraint and digit-read prefix counts "
          "hold for all N <= 10^6",
          _claim_zeckendorf_roundtrip),
    Claim("zeckendorf_uniqueness_1e4",
          "exhaustive enumeration finds exactly one representation per N <= 10^4",
          _claim_zeckendorf_uniqueness),
    Claim("factor_count_saturation_20_samples",
          "distinct-factor count is exactly 2n+1 at 20 seeded lengths and "
          "extending the scan finds nothing new",
          _claim_saturation_soundness),
    Claim("rho_value7_infinitely_often_instance",
          "complexity returns to 7 at a shifted length T_k + 3914",
          _claim_value7_instance),
    Claim("twelve_vector_geometry_n2000",
          "every realized Parikh set <= 2000 fits one admissible region; "
          "regions have sizes 7,7,7,6,6,6",
          _claim_geometry),
)


def run_suite(suite: str = "paper", config: SuiteConfig | None = None,
              claim_ids: set[str] | None = None) -> VerificationReport:
    """Run every registered claim and collect a report.

    ``claim_ids`` restricts the run to a subset (testing hook); a full
    report always contains each registered claim exactly once.
    """
    if suite != "paper":
        raise InvalidInputError(f"unknown suite {suite!r}")
    config = config or SuiteConfig()
    ctx = SuiteContext(config)
    report = VerificationReport(suite=suite)
    for claim in CLAIMS:
        if claim_ids is not None and claim.claim_id not in claim_ids:
            continue
        ctx.log(f"claim {claim.claim_id}")
        start = time.perf_counter()
        try:
            ok, observed, expected = claim.run(ctx)
            status = "pass" if ok else "fail"
        except (SaturationError, BufferLimitError) as err:
            status, observed, expected = "skipped", f"{type(err).__name__}: {err}", None
        except TribalanceError as err:
            status, observed, expected = "fail", f"{type(err).__name__}: {err}", None
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        report.claims.append(
            ClaimResult(claim.claim_id, claim.description, status, observed, expected, elapsed_ms)
        )
    return report
