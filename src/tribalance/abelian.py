"""Parikh vectors, abelian complexity and balance checking.

A Parikh vector is the tuple of per-letter occurrence counts of a factor.
The abelian complexity of a word at length n is the number of distinct
Parikh vectors among its length-n factors; a word is C-balanced when the
per-letter counts of any two equal-length factors differ by at most C.
Everything here reduces to O(1) Parikh queries against per-letter prefix
sums of the indexed region, plus saturation certificates that the region
contains every factor of the relevant length.  The per-length queries read
one window per distinct factor, at the starts where the factors first
occur, in blocks of consecutive lengths (``_certified_windows``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvariantViolationError, SaturationError, integer_in
from .factors import factor_index
from .words import WordBuffer

ParikhVector = tuple[int, ...]


def window_parikh(buffer: WordBuffer, start: int, length: int) -> ParikhVector:
    """Parikh vector of the window ``buffer.slice(start, length)``, counted
    off its symbols (``bytes.count``, one pass per letter)."""
    window = buffer.slice(start, length)
    return tuple(window.count(a) for a in range(buffer.alphabet_size))


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


#: Windows per letter one block of lengths reads, about: the window count
#: of its last length times the number of lengths.  Blocks of 2**17 run as
#: fast as blocks of 2**18 and hold half the memory (2**16: a quarter
#: slower).
_BLOCK_WINDOWS = 1 << 17

#: Lengths a block may span whatever its first length n0 (1 + n0 // 32 is
#: more from n0 = 480 on).  At short lengths a block's set-up costs more
#: than the at most 15 (m - 1) extra windows per length of a longer block.
#: The walks of lengths 1..42, 1..185 and 1..2000 take 3, 12 and 80 blocks
#: (37, 77 and 156 with one length per block below n0 = 32).
_MIN_BLOCK_LENGTHS = 16


class _Block:
    """The window letter counts of the lengths n0..n1 at the starts where
    the length-n1 factors first occur, given as sorted ``(start, stop)``
    runs.

    Those starts hold a first occurrence of every shorter factor too: a
    factor that first occurs at s extends on the right to one that also
    first occurs at s.  So each row reads one window per distinct factor
    of n1, with repeats among the shorter factors but none missing, and
    the smallest start holding an extreme count of a length (a first
    occurrence) is among them.  ``counts`` writes into ``out``, a flat
    buffer the walk shares among its blocks, so a block's counts hold only
    until the next block reads its own.
    """

    def __init__(self, pc: np.ndarray, n0: int, n1: int, runs: list[tuple[int, int]],
                 out: np.ndarray):
        self.pc, self.n0, self.n1, self.runs, self.out = pc, n0, n1, runs, out

    @property
    def starts(self) -> np.ndarray:
        """The window start of each column, in increasing order."""
        return np.concatenate([np.arange(a, b) for a, b in self.runs])

    def counts(self, letters=slice(None)) -> np.ndarray:
        """(letters, lengths, windows) array: entry [a, r, j] counts the
        letter a in the window of length n0 + r at ``starts[j]``.  Each run
        of starts reads one strided view of the prefix counts, no gather."""
        pc = self.pc[letters]
        lengths = self.n1 - self.n0 + 1
        ends = sliding_window_view(pc, lengths, axis=1)  # ends[a, e, r] = pc[a, e + r]
        shape = (len(pc), lengths, sum(b - a for a, b in self.runs))
        out = self.out[: shape[0] * shape[1] * shape[2]].reshape(shape)
        col = 0
        for a, b in self.runs:
            np.subtract(ends[:, a + self.n0 : b + self.n0].transpose(0, 2, 1), pc[:, None, a:b],
                        out=out[:, :, col : col + b - a])
            col += b - a
        return out


def _certified_windows(buffer: WordBuffer, n_from: int, n_to: int):
    """Yield a ``_Block`` per run of consecutive lengths, covering [n_from,
    n_to] in order.

    One factor index covers n_to.  A block of lengths [n0, n1] reads the
    first-occurrence runs of n1 (``FactorIndex.first_runs``), about
    ``_BLOCK_WINDOWS`` windows per letter, and spans at most
    max(1 + n0 // 32, ``_MIN_BLOCK_LENGTHS``) lengths, so reading every
    length at the starts of the last costs at most about 1/64 more windows
    than the first occurrences themselves, apart from a few thousand
    windows at the short lengths.
    Each length is certified in order, and a block ends before a length
    that fails, so a caller that stops early certifies no length past its
    block.  The walk allocates one counts buffer for its largest block and
    every block writes its counts there: a fresh array per block would let
    the allocator hand its pages back and fault them in again.  Every
    window query checks its lengths here: n_from >= 1 and n_to >= n_from,
    both integers.
    """
    n_from = integer_in(n_from, "first length", 1)
    n_to = integer_in(n_to, "last length", n_from)
    index = factor_index(buffer, n_to)
    # The prefix counts of the region, wrapped in the narrowest unsigned
    # type that holds n_to: every window count lies in [0, n_to], so the
    # wrapped differences are exact, and below 2**16 every pass of a block
    # moves half the bytes of int32 counts.
    data = np.frombuffer(buffer.symbols, dtype=np.uint8, count=int(index.cover_end[n_to]))
    pc = np.zeros((buffer.alphabet_size, len(data) + 1), dtype=np.min_scalar_type(n_to))
    for a, row in enumerate(pc):
        np.cumsum(data == a, dtype=pc.dtype, out=row[1:])
    # A block of several lengths reads at most _BLOCK_WINDOWS windows per
    # letter, and a one-length block the counts[n1] <= counts[n_to] ones.
    widest = int(index.counts[n_to])
    out = np.empty(len(pc) * min(max(_BLOCK_WINDOWS, widest), (n_to - n_from + 1) * widest),
                   dtype=pc.dtype)
    n0 = n_from
    while n0 <= n_to:
        index.certify(n0)
        n1 = n0
        while (n1 < n_to and n1 - n0 < max(n0 // 32, _MIN_BLOCK_LENGTHS - 1)
               and (n1 + 2 - n0) * int(index.counts[n1 + 1]) <= _BLOCK_WINDOWS):
            try:
                index.certify(n1 + 1)
            except (SaturationError, InvariantViolationError):
                break
            n1 += 1
        yield _Block(pc, n0, n1, index.first_runs(n1), out)
        n0 = n1 + 1


def abelian_profile(buffer: WordBuffer, n_from: int, n_to: int, *,
                    threads: int = 1,
                    collect_vectors: bool = False) -> list[ProfileRow]:
    """Certified ``ProfileRow`` for every n in [n_from, n_to]; the
    imbalance at length n for letter a is max - min of the letter-a count
    over all length-n factors.

    Each block of ``_certified_windows`` goes through ``_block_rows``;
    ``collect_vectors`` decodes each row's distinct Parikh vectors too.
    Rows are computed in the calling thread.
    """
    # ``threads`` is accepted because the benchmark tracer's --speedup passes it.
    rows = []
    for block in _certified_windows(buffer, n_from, n_to):
        rows += _block_rows(block.counts(), block.n0, collect_vectors)
    return rows


def _block_rows(counts: np.ndarray, n0: int, vectors: bool) -> list[ProfileRow]:
    """``ProfileRow`` of each row of the (alphabet, lengths, windows)
    letter counts ``counts``, row r of length n0 + r: the per-letter
    imbalance, the number of distinct Parikh vectors and, with
    ``vectors``, those vectors in increasing lexicographic order.

    Within a row the letter counts vary only within the imbalance, so each
    window is keyed by its offsets from the per-letter minima in the mixed
    radix span + 1, dropping the last letter (it is the length minus the
    others); key order is lexicographic vector order.  Rows whose key space
    has at most 32 values are keyed together in the counts' dtype (wrapped
    arithmetic is exact for keys this small) and counted as the set bits of
    a uint32 OR over ``1 << key``; every wider row counts its int64 keys
    with ``np.bincount``, whatever its window count.  Either way the keys
    present come out sorted.
    """
    m, lengths = counts.shape[:2]
    lo = counts.min(axis=2)
    span = counts.max(axis=2) - lo
    radix = span[:-1].astype(np.int64) + 1
    lows, spans, shapes = lo.T.tolist(), span.T.tolist(), radix.T.tolist()
    sizes = radix.prod(axis=0).tolist()
    small = [r for r in range(lengths) if sizes[r] <= 32]
    masks = {}
    if small:
        part = counts if len(small) == lengths else counts[:, small]
        low = lo[:, small, None]
        rad = np.array([shapes[r] for r in small], dtype=counts.dtype).T[:, :, None]
        key = part[0] - low[0]
        for a in range(1, m - 1):
            key *= rad[a]
            key += part[a]
            key -= low[a]
        bits = np.left_shift(1, key, dtype=np.uint32, casting="unsafe")
        masks = dict(zip(small, np.bitwise_or.reduce(bits, axis=1).tolist()))
    keys = {}
    for r in (r for r in range(lengths) if sizes[r] > 32):
        offsets = counts[:, r].astype(np.int64) - lo[:, r, None]
        key = offsets[0]
        for a in range(1, m - 1):
            key = key * shapes[r][a] + offsets[a]
        keys[r] = np.flatnonzero(np.bincount(key)).tolist()
    rows = []
    for r, (imbalance, shape) in enumerate(zip(spans, shapes)):
        if r in masks:
            rho = masks[r].bit_count()
            found = [k for k in range(sizes[r]) if masks[r] >> k & 1] if vectors else None
        else:
            rho, found = len(keys[r]), keys[r]
        n = n0 + r
        rows.append(ProfileRow(n, rho, tuple(imbalance),
                               _decode(found, shape, lows[r], n) if vectors else None))
    return rows


def _decode(keys, shape: list[int], low: list[int], n: int) -> tuple[ParikhVector, ...]:
    """The Parikh vectors of length n whose dense keys in the mixed radix
    ``shape`` over the minima ``low`` are the ints ``keys``, in key order.
    A length has rho(n) keys, a handful, so plain ``divmod`` costs less
    than a numpy call per length."""
    radices = list(zip(shape[::-1], low[-2::-1]))  # last digit first
    vectors = []
    for key in keys:
        head = []
        for radix, base in radices:
            key, digit = divmod(key, radix)
            head.append(base + digit)
        head.reverse()
        vectors.append((*head, n - sum(head)))
    return tuple(vectors)


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
    reaches the target) to ``max_len`` through ``_certified_windows``,
    reading only the letter's counts, and returns at the first length whose
    counts reach the target, with the smallest starts of a maximal and a
    minimal count.
    """
    letter = integer_in(letter, "letter", 0, buffer.alphabet_size - 1)
    for block in _certified_windows(buffer, n_from, max_len):
        (counts,) = block.counts(slice(letter, letter + 1))
        hi, lo = counts.max(axis=1), counts.min(axis=1)
        reached = np.flatnonzero(hi - lo >= target_diff)
        if reached.size:
            r = int(reached[0])
            pos_u, pos_v = block.starts[[counts[r].argmax(), counts[r].argmin()]].tolist()
            return BalanceWitness(letter, block.n0 + r, pos_u, pos_v, int(hi[r]), int(lo[r]))
    return None


def prefix_balance_check(buffer: WordBuffer, n: int) -> bool:
    """True iff every length-n factor's letter counts differ from the
    length-n prefix's by at most 1."""
    return prefix_balance_profile(buffer, n, n)[0]


def prefix_balance_profile(buffer: WordBuffer, n_from: int, n_to: int) -> list[bool]:
    """``prefix_balance_check`` of every n in [n_from, n_to], in one walk
    through ``_certified_windows``.  Each row's first column is the window
    at 0, the prefix; a length passes when its per-letter maximum and
    minimum both lie within 1 of that column."""
    balanced = []
    for block in _certified_windows(buffer, n_from, n_to):
        counts = block.counts()
        prefix = counts[:, :, 0]
        balanced += ((counts.max(axis=2) - prefix <= 1)
                     & (prefix - counts.min(axis=2) <= 1)).all(axis=0).tolist()
    return balanced
