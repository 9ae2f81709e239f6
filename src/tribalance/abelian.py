"""Parikh vectors, abelian complexity, balance checking, desubstitution.

A Parikh vector is the tuple of per-letter occurrence counts of a factor.
The abelian complexity of a word at length n is the number of distinct
Parikh vectors among its length-n factors; a word is C-balanced when the
per-letter counts of any two equal-length factors differ by at most C.
Everything here reduces to O(1) Parikh queries against the buffer's
per-letter prefix sums, plus saturation certificates that a scanned region
contains every factor of the relevant length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    NotAFactorError,
    RangeError,
    integer_in,
)
from .factors import factor_index
from .words import (
    WordBuffer,
    WordLike,
    apply_morphism,
    as_word,
    tribonacci_morphism,
)

ParikhVector = tuple[int, ...]


def parikh(w: WordLike, alphabet_size: int) -> ParikhVector:
    """Per-letter occurrence counts of a finite word."""
    w = as_word(w)
    alphabet_size = integer_in(alphabet_size, "alphabet size")
    if any(c >= alphabet_size for c in w):
        raise InvalidInputError("word uses symbols outside the alphabet")
    return tuple(w.count(a) for a in range(alphabet_size))


def window_parikh(buffer: WordBuffer, start: int, length: int) -> ParikhVector:
    """Parikh vector of the window at ``start``; O(1) via prefix sums."""
    start = integer_in(start, "window start", None)
    length = integer_in(length, "window length", None)
    if start < 0 or length < 0 or start + length > len(buffer):
        raise RangeError(
            f"window [{start}, {start + length}) outside buffer of length {len(buffer)}"
        )
    pc = buffer.prefix_counts
    return tuple(int(x) for x in pc[:, start + length] - pc[:, start])


def parikh_set(buffer: WordBuffer, n: int) -> frozenset[ParikhVector]:
    """Set of Parikh vectors over the distinct length-n factors; its size
    is the abelian complexity.

    One certified profile row over the factor index; a region that misses
    the complexity target raises ``SaturationError``.  The certified window
    bound is ``factor_index(buffer, n).certify(n)``.
    """
    (row,) = abelian_profile(buffer, n, n, collect_vectors=True)
    return frozenset(row.vectors)


def abelian_complexity(buffer: WordBuffer, n: int) -> int:
    """Number of distinct Parikh vectors among length-n factors."""
    return abelian_profile(buffer, n, n)[0].rho


@dataclass
class ProfileRow:
    """Per-length summary: abelian complexity and per-letter imbalance.

    ``vectors`` holds the distinct Parikh vectors of the length in
    increasing lexicographic order when the profile collected them.
    """

    n: int
    rho: int
    max_imbalance: tuple[int, ...]
    vectors: tuple[ParikhVector, ...] | None = None


def _certified_windows(buffer: WordBuffer, n_from: int, n_to: int):
    """Yield ``(n, ends, starts)`` for every n in [n_from, n_to]: the int32
    prefix counts at the ends and at the starts of the length-n windows
    starting at 0..bound, as (alphabet, bound + 1) views, so ``ends -
    starts`` holds the windows' letter counts as columns.  A caller that
    needs one letter subtracts only that row.

    One factor index covers n_to, and the windows read the buffer's
    published int32 prefix counts through ``cover_end[n_to]`` -- the
    largest n + bound, since ``cover_end`` is a running maximum -- as one
    slice, with no copy.  Each length is
    certified only when the walk reaches it, so a caller that stops early
    certifies no length past its stop.  Every window query checks its
    lengths here: n_from >= 1 and n_to >= n_from, both integers.
    """
    n_from = integer_in(n_from, "first length", 1)
    n_to = integer_in(n_to, "last length", n_from)
    index = factor_index(buffer, n_to)
    pc = buffer.prefix_counts[:, : int(index.cover_end[n_to]) + 1]
    for n in range(n_from, n_to + 1):
        bound = index.certify(n)
        yield n, pc[:, n : n + bound + 1], pc[:, : bound + 1]


def abelian_profile(buffer: WordBuffer, n_from: int, n_to: int, *,
                    threads: int = 1,
                    collect_vectors: bool = False) -> list[ProfileRow]:
    """Certified ``ProfileRow`` for every n in [n_from, n_to]; the
    imbalance at length n for letter a is max - min of the letter-a count
    over all length-n factors.

    Per length, the window letter counts of ``_certified_windows`` vary
    only within the imbalance, so each window is keyed densely by its
    offsets from the per-letter minima (the last letter is n minus the
    others) and the distinct Parikh vectors are counted without sorting;
    ``collect_vectors`` decodes the keys back into each row's ``vectors``.
    Rows are computed in the calling thread.
    """
    # ``threads`` is accepted because the benchmark tracer's --speedup passes it.
    rows = []
    for n, ends, starts in _certified_windows(buffer, n_from, n_to):
        span, rho, vectors = _window_classes(ends - starts, collect_vectors)
        vecs = None if vectors is None else tuple(map(tuple, vectors.tolist()))
        rows.append(ProfileRow(n, rho, tuple(int(x) for x in span), vectors=vecs))
    return rows


def _window_classes(counts: np.ndarray, vectors: bool):
    """Per-letter imbalance of the window columns of ``counts``, their
    number of distinct Parikh vectors and, with ``vectors``, those vectors
    as the rows of an array in increasing lexicographic order (else None).

    Each column is keyed by its offsets from the per-letter minima in the
    mixed radix span + 1, dropping the last letter (it is the window length
    minus the others), so key order is lexicographic vector order.  The
    keys present are the set bits of an OR over ``1 << key`` (at most 31
    keys) or the nonzero bins of ``np.bincount``; counting them gives the
    number of vectors, and decoding them gives the vectors.  When the key
    range exceeds the window count, the columns are deduplicated by sorting
    instead.
    """
    lo = counts.min(axis=1)
    span = counts.max(axis=1) - lo
    radix = tuple(int(s) + 1 for s in span[:-1])
    size = math.prod(radix)
    if size > counts.shape[1]:
        unique = np.unique(counts.T, axis=0)
        return span, len(unique), (unique if vectors else None)
    key = counts[0] - lo[0]
    for a in range(1, len(span) - 1):
        key = key * radix[a] + (counts[a] - lo[a])
    if size <= 31:
        mask = int(np.bitwise_or.reduce(np.left_shift(1, key)))
        if not vectors:
            return span, mask.bit_count(), None
        keys = np.flatnonzero((mask >> np.arange(size)) & 1)
    else:
        bins = np.bincount(key)
        if not vectors:
            return span, int(np.count_nonzero(bins)), None
        keys = np.flatnonzero(bins)
    head = np.column_stack(np.unravel_index(keys, radix)) + lo[:-1]
    last = int(counts[:, 0].sum()) - head.sum(axis=1)
    return span, len(keys), np.column_stack([head, last])


@dataclass
class BalanceWitness:
    """Two equal-length windows exhibiting a letter-count difference."""

    letter: int
    length: int
    pos_u: int
    pos_v: int
    count_u: int
    count_v: int

    @property
    def diff(self) -> int:
        return abs(self.count_u - self.count_v)


def verify_witness(buffer: WordBuffer, letter: int, pos_u: int, pos_v: int,
                   length: int) -> BalanceWitness:
    """Recompute both window counts of ``letter`` and their difference."""
    letter = integer_in(letter, "letter", 0, buffer.alphabet_size - 1)
    cu = window_parikh(buffer, pos_u, length)[letter]
    cv = window_parikh(buffer, pos_v, length)[letter]
    return BalanceWitness(letter, length, pos_u, pos_v, cu, cv)


def imbalance_witness_search(buffer: WordBuffer, letter: int, target_diff: int,
                             max_len: int, n_from: int = 1) -> BalanceWitness | None:
    """Smallest-length witness with count difference >= target_diff, or None.

    Walks the lengths from ``n_from`` (a caller that knows no shorter length
    reaches the target) to ``max_len`` through ``_certified_windows`` and
    returns at the first length whose letter counts reach the target, with
    the positions of a maximal and a minimal count.
    """
    letter = integer_in(letter, "letter", 0, buffer.alphabet_size - 1)
    for n, ends, starts in _certified_windows(buffer, n_from, max_len):
        row = ends[letter] - starts[letter]
        hi = int(row.argmax())
        lo = int(row.argmin())
        if row[hi] - row[lo] >= target_diff:
            return BalanceWitness(letter, n, hi, lo, int(row[hi]), int(row[lo]))
    return None


def prefix_balance_check(buffer: WordBuffer, n: int) -> bool:
    """True iff every length-n factor's letter counts differ from the
    length-n prefix's (the window at 0) by at most 1."""
    ((_, ends, starts),) = _certified_windows(buffer, n, n)
    counts = ends - starts
    return bool(np.abs(counts - counts[:, :1]).max() <= 1)


# ---------------------------------------------------------------------------
# Desubstitution

@dataclass(frozen=True)
class Desubstitution:
    """Preimage word and the two corrections against its image: the leading
    0 ``dropped`` and a trailing 0 ``appended``.

    The invariant relating the factor U to its preimage u is
    parikh(U) = (len(u) + delta, count of 0 in u, count of 1 in u).
    """

    u: bytes
    dropped: bool
    appended: bool

    @property
    def delta(self) -> int:
        """Length correction: ``appended - dropped``."""
        return self.appended - self.dropped

    def reconstruct(self) -> bytes:
        w = apply_morphism(tribonacci_morphism(), self.u)
        return w[self.dropped:] + b"\x00" * self.appended


def is_tribonacci_factor(w: WordLike) -> bool:
    """Exact membership test by repeated desubstitution.

    A word is a factor exactly when its preimage ``desubstitute(w).u`` is
    one, and each step shortens the word (the single letters go 2 -> 1 ->
    0 -> empty), so the preimages reach the empty word unless a step
    fails to decode.
    """
    w = as_word(w)
    try:
        while w:
            w = desubstitute(w, verify=False).u
    except NotAFactorError:
        return False
    return True


def desubstitute(U: WordLike, verify: bool = True) -> Desubstitution:
    """Decompose a factor of the Tribonacci word against its morphism.

    Decoding: a factor starting with 1 or 2 regains the 0 that always
    precedes those letters (a dropped-0 form); the extended word is then
    cut at each 0 into blocks 01 -> 0, 02 -> 1, 0 -> 2, a trailing lone 0
    marking an appended-0 form.  ``verify=False`` skips the factor-of-the-
    word membership check (useful when the caller took U from the buffer).
    """
    U = as_word(U)
    if not U:
        raise InvalidInputError("cannot desubstitute the empty word")
    if any(c > 2 for c in U):
        raise NotAFactorError(f"symbols outside {{0,1,2}} in {U!r}")
    if verify and not is_tribonacci_factor(U):
        raise NotAFactorError(f"{U!r} is not a factor of the Tribonacci word")
    dropped = U[0] != 0
    w = b"\x00" + U if dropped else U
    out = bytearray()
    appended = False
    i = 0
    L = len(w)
    while i < L:
        if w[i] != 0:
            raise NotAFactorError(f"{U!r} cannot be decoded against the morphism")
        if i + 1 < L:
            nxt = w[i + 1]
            if nxt == 1:
                out.append(0)
                i += 2
            elif nxt == 2:
                out.append(1)
                i += 2
            else:
                out.append(2)
                i += 1
        else:
            appended = True
            i += 1
    return Desubstitution(bytes(out), dropped, appended)
