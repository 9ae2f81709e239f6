"""Distinct-factor enumeration and saturation certification.

Every query here is certified: it reads nothing until the examined region
holds exactly the complexity target of (m-1)*n + 1 distinct length-n
factors (the count of an Arnoux-Rauzy word on m letters), which proves
every factor of that length has been seen.  The one limit is the
position cap, derived from the alphabet and the length by
``position_cap``: a length that does not saturate within it raises
``SaturationError``, and a count above the target raises
``InvariantViolationError``.

``FactorIndex`` builds a suffix automaton over a fixed prefix region and
answers, for every length at once: how many distinct factors the region
contains, how long a prefix suffices to contain them all, where the
unique right special factor first occurs with its right and left extension
counts, and (``first_runs``) at which window starts each length's
distinct factors first occur, as a few runs of consecutive starts.  Every
per-length query of the package (Parikh sets, window bounds, special
factors, profiles, the saturation claim) goes through the index.

``scan_distinct_factors`` slides a 127-bit rolling fingerprint over the
buffer and counts distinct windows, confirming every fingerprint match by
symbol comparison so the count is exact, never probabilistic.  It stops as
soon as the factor count reaches the target.  It shares no code with the
index and backs no claim: the tests use it as an oracle for the index, and
the benchmark tracer wraps it by name.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import BufferLimitError, InvariantViolationError, SaturationError, integer_in
from .words import WordBuffer

# Rolling fingerprint parameters: polynomial hash modulo the Mersenne
# prime 2**127 - 1 with a fixed odd base.
_FP_MOD = (1 << 127) - 1
_FP_BASE = 0x9E3779B97F4A7C15


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


@dataclass
class ScanResult:
    """Outcome of one certified distinct-factor scan at a single length."""

    n: int
    count: int
    first_positions: list[int]
    last_new_position: int
    positions_scanned: int

    @property
    def saturation_end(self) -> int:
        """Prefix length containing every factor found (end of the last
        first occurrence)."""
        return self.last_new_position + self.n


def scan_distinct_factors(buffer: WordBuffer, n: int, extend_after: int = 0) -> ScanResult:
    """Count distinct length-n windows left to right, exactly.

    Windows are keyed by rolling fingerprint and every fingerprint match is
    confirmed by symbol comparison before the window is treated as a
    repeat, so a genuine 127-bit collision cannot corrupt the count.  The
    scan stops once the complexity target is reached; if the position cap
    is hit first, ``SaturationError`` is raised.  ``extend_after`` keeps
    scanning that many positions past the window that reaches the target;
    a factor found there exceeds it and raises ``InvariantViolationError``.
    """
    if n < 1:
        raise InvariantViolationError(f"factor length must be >= 1, got {n}")
    cap = position_cap(buffer.alphabet_size, n)
    target = default_target(buffer.alphabet_size, n)

    # Grow lazily: saturation usually happens within a few multiples of n.
    want = min(cap - 1 + n, max(8 * n + 256, 1024, len(buffer)))
    if want > buffer.max_symbols and n <= buffer.max_symbols:
        want = buffer.max_symbols
    buffer.ensure(want)
    sym = buffer.symbols

    shift = pow(_FP_BASE, n - 1, _FP_MOD)
    h = 0
    for c in sym[:n]:
        h = (h * _FP_BASE + c) % _FP_MOD
    table: dict[int, object] = {h: 0}
    firsts = [0]
    count = 1
    last_new = 0
    stop_at = extend_after if count >= target else None
    p = 0
    limit = cap - 1
    while p < limit and (stop_at is None or p < stop_at):
        p += 1
        if p + n > len(sym):
            want = min(limit + n, max(2 * len(sym), p + n))
            if want > buffer.max_symbols and p + n <= buffer.max_symbols:
                want = buffer.max_symbols
            buffer.ensure(want)
            sym = buffer.symbols
        h = ((h - sym[p - 1] * shift) * _FP_BASE + sym[p + n - 1]) % _FP_MOD
        prev = table.get(h)
        if prev is None:
            table[h] = p
            count += 1
            firsts.append(p)
            last_new = p
        else:
            if isinstance(prev, int):
                if sym[prev : prev + n] == sym[p : p + n]:
                    continue
                table[h] = prev = [prev]
            else:
                if any(sym[q : q + n] == sym[p : p + n] for q in prev):
                    continue
            # True fingerprint collision: same key, different content.
            prev.append(p)
            count += 1
            firsts.append(p)
            last_new = p
        if count >= target and stop_at is None:
            stop_at = p + extend_after
    positions_scanned = p + 1
    if count > target:
        raise InvariantViolationError(
            f"found {count} distinct factors of length {n}, exceeding the "
            f"complexity target {target}; the word is outside the certified family"
        )
    if count < target:
        raise SaturationError(
            f"scan of length {n} hit the position cap {cap} at {count} factors "
            f"(target {target})",
            n=n,
            positions_scanned=positions_scanned,
        )
    return ScanResult(n, count, firsts, last_new, positions_scanned)


# ---------------------------------------------------------------------------
# Suffix-automaton index

def _suffix_automaton(data: bytes, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Online suffix automaton (Blumer et al. 1985) of ``data`` over m
    letters, as ``(length, link, first_end, outdeg)`` per state: the
    longest length, the suffix link (-1 for the root), the end of the first
    occurrence and the number of outgoing transitions.  The arrays are
    int32, int64 once 2R + 2 reaches 2**31 (R = len(data)).

    States are numbered by prefix: state i (0 <= i <= R) is the state made
    for the prefix of length i, so its longest length and its first end are
    both i, and clones take the ids R + 1, R + 2, ... in the order they are
    made.  The transition of prefix state i on ``data[i]`` always leads to
    i + 1 and is never stored: a clone's redirect moves only transitions
    p -> q with length(p) + 1 < length(q), and a clone of a prefix state
    stores the copy of that transition.  Every other transition goes into
    one dict per letter, keyed by its source state; on an Arnoux-Rauzy word
    the automaton is almost a path and the dicts stay small (35 entries
    over the 132,990 Tribonacci symbols of the saturation claim).  The
    suffix links are one typed array, clones' links appended to it; clones
    keep their lengths and first ends in lists.  A clone of q first ends
    where q does, since its end set is q's plus the current, later end, and
    end sets only gain later ends, so no first end moves afterwards.
    """
    R = len(data)
    typecode, dtype = ("i", np.int32) if 2 * R + 2 < 2**31 else ("q", np.int64)
    link = array(typecode, [0]) * (R + 1)
    link[0] = -1
    edges: list[dict[int, int]] = [{} for _ in range(m)]
    clone_len: list[int] = []
    clone_end: list[int] = []
    for cur, c in enumerate(data, 1):
        row = edges[c]
        p = link[cur - 1]  # state cur - 1 goes to cur on c without storage
        while p != -1 and (p >= R or data[p] != c) and p not in row:
            row[p] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        elif p < R and data[p] == c:
            link[cur] = p + 1
        else:
            q = row[p]
            len_p = p if p <= R else clone_len[p - R - 1]
            if len_p + 1 == (q if q <= R else clone_len[q - R - 1]):
                link[cur] = q
            else:
                clone = len(link)
                clone_len.append(len_p + 1)
                clone_end.append(q if q <= R else clone_end[q - R - 1])
                link.append(link[q])
                for r in edges:
                    if q in r:
                        r[clone] = r[q]
                if q < R:
                    edges[data[q]][clone] = q + 1
                while p != -1 and row.get(p) == q:
                    row[p] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone

    n_states = len(link)
    length = np.arange(n_states, dtype=dtype)
    length[R + 1 :] = clone_len
    first_end = length.copy()
    first_end[R + 1 :] = clone_end
    outdeg = np.zeros(n_states, dtype=dtype)
    outdeg[:R] = 1  # the transitions that are not stored
    for row in edges:
        outdeg[np.fromiter(row, dtype=np.intp, count=len(row))] += 1
    return length, np.frombuffer(link, dtype=dtype), first_end, outdeg


class FactorIndex:
    """Index of all substrings of ``buffer[:region_len]``.

    Built from the suffix automaton of the region (``_suffix_automaton``).
    Each automaton state covers the substrings of one right-extension
    class, with lengths filling the interval (shortest-1, longest];
    aggregating states by that interval yields per-length distinct counts,
    first-occurrence bounds, and right- and left-extension counts without
    ever materializing factor sets.  The per-state arrays are dropped once
    aggregated: the index keeps three per-length tables (``counts``,
    ``cover_end`` and the longest-repeated-suffix table) and a short table
    of the right-special states.

    The index keeps no reference to the buffer that holds it in
    ``buffer.index``, so the two form no reference cycle and are freed as
    soon as the buffer is, without waiting for a garbage collection.
    """

    def __init__(self, buffer: WordBuffer, region_len: int):
        buffer.ensure(region_len)
        self.region_len = R = region_len
        self.alphabet_size = buffer.alphabet_size
        length, link, first_end, outdeg = _suffix_automaton(buffer.symbols[:region_len],
                                                            buffer.alphabet_size)
        self.n_states = len(length)

        # The right-special states (>= 2 extensions; the root is one when
        # the region has two letters), sorted by shortest length, each with
        # its longest length, first end, extension degree and number of
        # children in the suffix-link tree.  ``_special_reach[j]`` is the
        # row that reaches the longest length among the first j + 1.
        shortest = length[link]  # the root's entry is overwritten
        shortest += 1
        shortest[0] = 0
        special = np.flatnonzero(outdeg >= 2)
        children = np.bincount(link[1:], minlength=self.n_states)[special]
        rows = sorted(zip(shortest[special].tolist(), length[special].tolist(),
                          first_end[special].tolist(), outdeg[special].tolist(),
                          children.tolist()))
        self._special_shortest = [row[0] for row in rows]
        self._special_longest = sorted(row[1] for row in rows)
        self._special_reach = list(accumulate(rows, lambda a, b: b if b[1] > a[1] else a))
        # Freed before the int64 bincounts below, the peak of the build
        # (6.4 MB at 132,990 symbols with these and ``counts`` kept, 5.3 MB).
        del link, outdeg

        # From here on the root, the empty word, is skipped.
        shortest, longest, first_end = shortest[1:], length[1:], first_end[1:]

        # counts[n]: number of distinct substrings of length n in the
        # region: the prefix sum of +1 at each interval's opening and -1
        # one past its close.
        counts = np.bincount(shortest, minlength=R + 2)
        counts -= np.bincount(longest + 1, minlength=R + 2)
        np.cumsum(counts, out=counts)
        self.counts = counts[: R + 1].astype(length.dtype)
        self.counts[0] = 1
        del counts

        # cover_end[n]: prefix length containing every length-n substring
        # of the region.  Within a state all lengths share one
        # first-occurrence end, and the true cover bound is non-decreasing
        # in n (every factor extends to the right), so a running maximum
        # over interval-opening values is exact away from the region end
        # and a sound overestimate there.
        cover_end = np.zeros(R + 2, dtype=length.dtype)
        np.maximum.at(cover_end, shortest, first_end)
        np.maximum.accumulate(cover_end, out=cover_end)
        self.cover_end = cover_end[: R + 1]
        self.cover_end[0] = 0

        # lrs[e]: length of the longest suffix of the prefix of length e
        # that already occurs in the prefix of length e - 1 (Crochemore-Ilie
        # 2008).  The suffixes first ending at e are the strings of the
        # states with first end e, and their lengths fill (lrs[e], e], so
        # lrs[e] is the least shortest-length-minus-one among those states.
        lrs = np.full(R + 1, R, dtype=length.dtype)
        np.minimum.at(lrs, first_end, shortest - 1)
        lrs[0] = 0
        self._lrs = lrs

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
        target or the bound exceeds the position cap.
        """
        target = default_target(self.alphabet_size, n)
        cap = position_cap(self.alphabet_size, n)
        if n > self.region_len or self.counts[n] != target:
            found = int(self.counts[n]) if n <= self.region_len else 0
            if found > target:
                raise InvariantViolationError(
                    f"region holds {found} distinct factors of length {n}, exceeding "
                    f"the complexity target {target}; the word is outside the certified family"
                )
            raise SaturationError(
                f"region of {self.region_len} symbols holds {found} factors of "
                f"length {n}, target {target}",
                n=n,
                positions_scanned=max(self.region_len - n + 1, 0),
            )
        bound = int(self.cover_end[n]) - n
        if bound > cap - 1:
            raise SaturationError(
                f"length {n} saturates only at window start {bound}, beyond the cap {cap}",
                n=n,
                positions_scanned=cap,
            )
        return bound

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
        count of the unique right-special factor of length n.

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
        _, longest, first_end, outdeg, children = self._special_reach[i - 1]
        return first_end, outdeg, 1 if n < longest else children


def factor_index(buffer: WordBuffer, n_max: int) -> FactorIndex:
    """Index that covers every length up to n_max + 1 (the extra length is
    the extension margin special-factor analysis at n_max needs).

    On m letters the region starts at max(8, 2**m) * (n_max + 1) + 1024
    symbols (measured to cover at once for m <= 6) and doubles until the
    index ``covers`` n_max + 1, but never goes past the position cap plus
    n_max + 1 symbols.  When even that region does not saturate, the index
    is built on exactly that region, so ``certify`` reports the shortfall.
    Reuses ``buffer.index`` when it already covers n_max + 1, else builds a
    new index and publishes it there; this is the one writer of that slot.
    A region past ``buffer.max_symbols`` raises ``BufferLimitError``, naming
    the lengths, the region and its position-cap bound.
    """
    k = integer_in(n_max, "n_max") + 1
    if buffer.index is not None and buffer.index.covers(k):
        return buffer.index
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
    buffer.index = index
    return index
