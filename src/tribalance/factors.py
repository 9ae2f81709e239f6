"""Distinct-factor enumeration and saturation certification.

Every query here is certified: it reads nothing until the examined region
holds exactly the complexity target of (m-1)*n + 1 distinct length-n
factors (the count of an Arnoux-Rauzy word on m letters), which proves
every factor of that length has been seen.  The one limit is the
position cap, derived from the alphabet and the length by
``position_cap``: a length that does not saturate within it raises
``SaturationError``, and a count above the target raises
``InvariantViolationError``.

``FactorIndex`` builds the suffix automaton of a prefix region, which has
no clone on the standard episturmian words it accepts, and answers for
every length at once: how many distinct factors the region contains, how
long a prefix holds them all, where the unique right special factor first
occurs with its extension counts, and (``first_runs``) at which window
starts each length's factors first occur, as a few runs.  Every
per-length query of the package (Parikh sets, window bounds, special
factors, profiles, the saturation claim) goes through the index.

``scan_distinct_factors`` is the one-length view of the index: the
certified factor count and first-occurrence starts of a single length.
Nothing in the package calls it; it stays because the benchmark tracer
wraps it by name.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import BufferLimitError, InvariantViolationError, SaturationError, integer_in
from .words import WordBuffer


def position_cap(alphabet_size: int, n: int) -> int:
    """Window start positions a certified length-n query may examine:
    max(64, 2**m) * n + 4096 on m = alphabet_size letters (64n + 4096 for
    m <= 6).

    The analyzed words are linearly recurrent: every length-n factor of
    the m-bonacci word first occurs within about 0.76 * 2**m * (n + 1)
    symbols, so the generous linear cap catches configuration errors
    without unbounded scans.
    """
    return max(64, 2**alphabet_size) * n + 4096


def default_target(alphabet_size: int, n: int) -> int:
    """Distinct-factor count of an Arnoux-Rauzy word: (m-1)*n + 1."""
    return (alphabet_size - 1) * n + 1


# ---------------------------------------------------------------------------
# Suffix-automaton index

def _common_prefix(sym: np.ndarray, i: int, j: int) -> int:
    """Common prefix length of ``sym[i:]`` and ``sym[j:]``, i < j, in chunks from 64 up."""
    n, size = 0, 64
    while j + n < len(sym):
        size = min(size, len(sym) - j - n)
        differ = np.flatnonzero(sym[i + n : i + n + size] != sym[j + n : j + n + size])
        if differ.size:
            return n + int(differ[0])
        n, size = n + size, 2 * size
    return n


def _suffix_automaton(data: bytes, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Online suffix automaton (Blumer et al. 1985) of ``data`` over m
    letters, as ``(link, outdeg)`` per state: the suffix link (-1 for the
    root) and the number of outgoing transitions, int32 arrays (int64 once
    R = len(data) reaches 2**31).

    A clone is made exactly when a suffix that occurred before, never as a
    prefix, follows a second letter.  Every left special factor of a
    standard episturmian word, such as an m-bonacci word, is a prefix
    (Droubay-Justin-Pirillo 2001), so its automaton has no clone: its
    states are the R + 1 prefixes, state i with longest length and first
    end i and shortest length link + 1.  Any other word raises
    ``InvariantViolationError`` where it would need a clone, naming the
    prefix and the suffix.

    The transition of state i on ``data[i]`` leads to i + 1 and is never
    stored; the others go into one dict per letter, keyed by source state,
    and stay few (35 over the 132,990 Tribonacci symbols of the saturation
    claim).  Nearly every step is trivial: it stores no edge and links
    state i + 1 to link[i] + 1, and such steps run on while ``data[p:]``
    repeats ``data[i:]`` (p = link[i]).  A run takes one ``arange``; only
    the first step and the 18 mismatches of the suite's region run in Python.
    """
    R = len(data)
    dtype = np.int32 if R < 2**31 else np.int64
    link = np.empty(R + 1, dtype=dtype)
    link[0] = -1
    edges: list[dict[int, int]] = [{} for _ in range(m)]
    sym, cur = np.frombuffer(data, dtype=np.uint8), 1
    while cur <= R:
        p, c = int(link[cur - 1]), data[cur - 1]
        row = edges[c]  # state cur - 1 goes to cur on c without storage
        while p != -1 and data[p] != c and p not in row:
            row[p] = cur
            p = int(link[p])
        if p == -1:
            link[cur] = 0
        elif data[p] == c:
            link[cur] = p + 1
        else:
            # The suffix of length p + 1 occurred before, always after one
            # other letter, and is no prefix: its state would split.
            suffix = "".join(map(str, data[cur - p - 1 : cur][:20])) + "..." * (p >= 20)
            raise InvariantViolationError(
                f"the prefix of length {cur} ends with {suffix} (length {p + 1}), a factor "
                f"that occurred before, not as a prefix, and now follows a second letter: "
                f"the word is not standard episturmian, and its index would need a clone")
        p = int(link[cur])  # the next steps are trivial while data[p:] repeats data[cur:]
        run = _common_prefix(sym, p, cur)
        link[cur + 1 : cur + 1 + run] = np.arange(p + 1, p + 1 + run, dtype=dtype)
        cur += 1 + run
    outdeg = np.zeros(R + 1, dtype=dtype)
    outdeg[:R] = 1  # the transitions that are not stored
    for row in edges:
        outdeg[np.fromiter(row, dtype=np.intp, count=len(row))] += 1
    return link, outdeg


class FactorIndex:
    """Index of all substrings of ``buffer[:region_len]``.

    Built from the suffix automaton of the region (``_suffix_automaton``),
    which refuses a region that needs a clone, so ``n_states`` is always
    R + 1.  State i holds the substrings of one
    right-extension class, with lengths (link[i], i], all first ending at
    i; aggregating the states by that interval yields per-length distinct
    counts, first-occurrence bounds, and right- and left-extension counts
    without materializing factor sets.  The index keeps three per-length
    tables (``counts``, ``cover_end`` and the longest-repeated-suffix
    table, the suffix links themselves) and the right-special states.

    The index keeps no reference to the buffer that holds it in
    ``buffer.index``, so the two form no reference cycle and are freed as
    soon as the buffer is, without waiting for a garbage collection.
    """

    def __init__(self, buffer: WordBuffer, region_len: int):
        buffer.ensure(region_len)
        self.region_len = R = region_len
        self.alphabet_size = buffer.alphabet_size
        link, outdeg = _suffix_automaton(buffer.symbols[:region_len], buffer.alphabet_size)
        self.n_states = len(link)
        shortest = link + 1  # 0 for the root

        # The right-special states (>= 2 extensions; the root is one when
        # the region has two letters), sorted by shortest length, each with
        # its longest length (its first end too), extension degree and
        # number of children in the suffix-link tree.  ``_special_reach[j]``
        # is the row that reaches the longest length among the first j + 1.
        special = np.flatnonzero(outdeg >= 2)
        children = np.bincount(link[1:], minlength=self.n_states)[special]
        rows = sorted(zip(shortest[special].tolist(), special.tolist(),
                          outdeg[special].tolist(), children.tolist()))
        self._special_shortest = [row[0] for row in rows]
        self._special_longest = sorted(row[1] for row in rows)
        self._special_reach = list(accumulate(rows, lambda a, b: b if b[1] > a[1] else a))

        # counts[n]: number of distinct substrings of length n in the
        # region: the states 1..R whose shortest length is at most n, less
        # the n - 1 of them whose longest length is below n (1 at n = 0).
        self.counts = np.cumsum(np.bincount(shortest[1:], minlength=R + 1), dtype=link.dtype)
        self.counts -= np.arange(-1, R, dtype=link.dtype)

        # cover_end[n]: prefix length containing every length-n substring
        # of the region, the last state whose shortest length is at most n.
        # The true cover bound is non-decreasing in n (every factor extends
        # to the right), so this running maximum is exact away from the
        # region end and a sound overestimate there.
        self.cover_end = cover_end = np.zeros(R + 1, dtype=link.dtype)
        np.maximum.at(cover_end, shortest[1:], np.arange(1, R + 1, dtype=link.dtype))
        np.maximum.accumulate(cover_end, out=cover_end)

        # lrs[e]: length of the longest suffix of the prefix of length e
        # that already occurs in the prefix of length e - 1 (Crochemore-Ilie
        # 2008).  The suffixes first ending at e are the strings of state e,
        # with lengths (link[e], e], so lrs[e] is link[e].
        link[0] = 0
        self._lrs = link

    # -- queries -----------------------------------------------------------

    def covers(self, n: int) -> bool:
        """True when the region holds the target count of length-n
        factors and ``cover_end`` is exact through n.

        With the target equal to the word's factor complexity, the region
        then holds every factor of each length through n, since each is a
        prefix of a length-n factor.  ``cover_end`` is a running maximum over
        lengths, so a short factor first ending near the region end could
        raise it; with ``cover_end[n] + n <= region_len`` every such factor
        extends inside the region to a length-n factor that ends no earlier.
        """
        return (n <= self.region_len
                and self.counts[n] == default_target(self.alphabet_size, n)
                and self.cover_end[n] + n <= self.region_len)

    def factor_count(self, n: int) -> int:
        """Distinct substrings of length n in the indexed region."""
        return int(self.counts[n])

    def certify(self, n: int) -> int:
        """Check the region saturates length n and return the window bound.

        Returns the last window start position that must be scanned so that
        every factor of length n is seen at least once.  Raises
        ``SaturationError`` if the distinct count misses the complexity
        target or the bound exceeds the position cap (``_saturates``).
        """
        if n <= self.region_len and self._saturates(n):
            return int(self.cover_end[n]) - n
        target = default_target(self.alphabet_size, n)
        found = int(self.counts[n]) if n <= self.region_len else 0
        if found > target:
            raise InvariantViolationError(
                f"region holds {found} distinct factors of length {n}, exceeding "
                f"the complexity target {target}; the word is outside the certified family"
            )
        if found < target:
            raise SaturationError(
                f"region of {self.region_len} symbols holds {found} factors of "
                f"length {n}, target {target}",
                n=n,
                positions_scanned=max(self.region_len - n + 1, 0),
            )
        cap = position_cap(self.alphabet_size, n)
        raise SaturationError(f"length {n} saturates only at window start "
                              f"{int(self.cover_end[n]) - n}, beyond the cap {cap}",
                              n=n, positions_scanned=cap)

    def _saturates(self, n):
        """Whether a length n (or each of an array of them) within the region
        has the target factor count, all first occurring before the cap."""
        return ((self.counts[n] == default_target(self.alphabet_size, n))
                & (self.cover_end[n] - n < position_cap(self.alphabet_size, n)))

    def first_refused(self, n_from: int, n_to: int) -> int:
        """The first length of [n_from, n_to] that ``certify`` refuses, or n_to + 1."""
        ns = np.arange(n_from, min(n_to, self.region_len) + 1)
        fits = self._saturates(ns)
        return n_from + (len(ns) if fits.all() else int(fits.argmin()))

    def first_runs(self, n: int) -> list[tuple[int, int]]:
        """Window starts where a length-n factor of the region first
        occurs, as sorted, disjoint ``(start, stop)`` runs of consecutive
        starts.

        The window at s first holds its factor exactly when no suffix of
        length n of the prefix ending at s + n occurred before, that is
        when ``lrs[s + n] < n``; every first occurrence ends by
        ``cover_end[n]``.  The runs hold one start per distinct factor, so
        their total must be ``counts[n]``; anything else raises
        ``InvariantViolationError``.  On the m-bonacci words the starts
        form at most m runs (the first occurrences of a standard
        episturmian word, Droubay-Justin-Pirillo 2001).
        """
        n = integer_in(n, "factor length", 1, self.region_len)
        new = np.flatnonzero(self._lrs[n : int(self.cover_end[n]) + 1] < n)
        if new.size != self.counts[n]:
            raise InvariantViolationError(
                f"found {new.size} first occurrences of length {n}, but the region holds "
                f"{int(self.counts[n])} distinct factors of that length"
            )
        gaps = np.flatnonzero(new[1:] != new[:-1] + 1)  # the last start of each run but the last
        starts = [int(new[0]), *new[gaps + 1].tolist()]
        stops = [*(new[gaps] + 1).tolist(), int(new[-1]) + 1]
        return list(zip(starts, stops))

    def right_special_end(self, n: int) -> tuple[int, int, int]:
        """First-occurrence end, right extension degree and left extension
        count of the unique right-special factor of length n; the end is
        the longest length of its state.

        The left count needs no scan: a word shorter than the longest word
        of its state has the same left neighbour at every occurrence, and
        the longest one extends to the left by one letter per child of its
        state in the suffix-link tree.  The caller is responsible for having
        certified saturation at n and n + 1; uniqueness failure signals a
        word outside the Arnoux-Rauzy family.

        The count of right-special states whose lengths hold n is exact:
        the i states with shortest length <= n, less those with longest
        length < n (each of which is among the i), two bisections.  When
        the count is one, the state is the one of the i that reaches the
        longest length.
        """
        i = bisect_right(self._special_shortest, n)
        count = i - bisect_left(self._special_longest, n)
        if count != 1:
            raise InvariantViolationError(
                f"expected exactly one right-special factor of length {n}, found {count}"
            )
        _, longest, outdeg, children = self._special_reach[i - 1]
        return longest, outdeg, 1 if n < longest else children


def factor_index(buffer: WordBuffer, n_max: int) -> FactorIndex:
    """Index that covers every length up to n_max + 1 (the extra length is
    the extension margin special-factor analysis at n_max needs).

    On m letters the region starts at max(8, 2**m) * (n_max + 1) + 1024
    symbols (measured to cover at once for m <= 6) and doubles until the
    index ``covers`` n_max + 1, but never goes past the position cap plus
    n_max + 1 symbols.  When even that region does not saturate, the index
    is built on exactly that region, so ``certify`` reports the shortfall.
    Reuses ``buffer.index`` when it already covers n_max + 1, else builds a
    new index and offers it to ``buffer.keep_index``.  A region past
    ``buffer.max_symbols`` raises ``BufferLimitError``, naming the lengths,
    the region and its position-cap bound.
    """
    k = integer_in(n_max, "n_max") + 1
    if (held := buffer.index) is not None and held.covers(k):
        return held
    m = buffer.alphabet_size
    cap = position_cap(m, k)
    full = cap + k

    def build(region: int) -> FactorIndex:
        if region > buffer.max_symbols:
            raise BufferLimitError(
                f"lengths up to {n_max} on {m} letters need an index region of {region} "
                f"symbols (at most {full}: the position cap {cap} plus {k}), past the "
                f"buffer cap of {buffer.max_symbols} symbols (--max-buffer)")
        return FactorIndex(buffer, region)

    region = min(full, max(8, 2**m) * k + 1024)
    index = build(region)
    while region < full and not index.covers(k):
        region = min(full, 2 * region)
        index = build(region)
    buffer.keep_index(index)
    return index


@dataclass
class ScanResult:
    """The certified factors of one length n: their ``count``, the sorted
    window starts where each first occurs, and the last of those starts,
    ``last_new_position``; ``positions_scanned`` is the window starts up to
    it, the fewest that hold every length-n factor."""

    n: int
    count: int
    first_positions: list[int]
    last_new_position: int
    positions_scanned: int


def scan_distinct_factors(buffer: WordBuffer, n: int) -> ScanResult:
    """The certified length-n factors of the buffer's word, read off its
    ``factor_index``: ``certify`` checks the count against the complexity
    target, and ``first_runs`` gives the first-occurrence starts."""
    n = integer_in(n, "factor length", 1)
    index = factor_index(buffer, n)
    index.certify(n)
    starts = [s for start, stop in index.first_runs(n) for s in range(start, stop)]
    return ScanResult(n, len(starts), starts, starts[-1], starts[-1] + 1)
