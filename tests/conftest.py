"""Shared fixtures and independent oracles.

The oracles are deliberately primitive: direct window enumeration over a
materialized prefix, and counting with ``collections.Counter``.  They never
touch the library's prefix counts or the factor index, so agreement with
the library is meaningful.  ``dictionary_scan`` counts the distinct
windows of one length with a dictionary from each window's symbols to its
first start, the oracle of the index's counts and first occurrences.  ``count_prefixes`` counts every letter along
a word in one ``np.cumsum`` over its one-hot rows, not the package's
blocked kernel; ``tribo_2e6_counts`` holds its counts of ``tribo_2e6``,
counted once a session.  The one exception is ``unique_profile``, the
sorting route the dense profile pass replaced: it reads window bounds from an index
over the full capped region and deduplicates count columns with an
``np.lexsort`` over the letter rows.  ``flat_suffix_automaton`` is the
factor index's first builder, the oracle of the prefix-numbered one; it
keeps its clones, so it also says where the index must refuse a word.
``online_suffix_links`` is the prefix-numbered build one symbol at a time,
the loop the index's run-at-once build replaced, with the same refusal.
``FixedWord`` serves a word given whole, such as a standard episturmian
word, to the factor and window queries.
``standard_episturmian`` builds, by iterated palindromic closure, the words
the index accepts.  ``scalar_eq1_worst`` is the value-at-a-time discrepancy
loop the batched oracle-equivalence claim replaced, with its own copy of
the alpha-power sum.  ``float_head_terms`` and ``float_tail_bound`` are the
float route the exact spectral certificate replaced: they read the
eigendata of ``compute_spectral_data``, which the certificate never does.
``concat_images`` applies a morphism, given as its tuple of images, to a
word symbol by symbol, and ``iterate_images`` grows the fixed point of one
by re-applying it to the whole word: the test-side generator for words
outside the m-bonacci family, such as Thue-Morse, which the package does
not build.  ``TAU`` holds the Tribonacci images, and ``digits`` reads a
word written as a digit string.  ``incidence_matrix`` counts each letter
in each image, and ``matrix_power_parikh_table`` reads Parikh(tau^k(0))
off the int64 matrix powers M^k e_0: the oracle of ``numeration.tau_parikh_table``, which
reads the same table off the Horner kernel.  ``einsum_prefix_parikh`` is
the one int64 contraction of the digit rows with that table of matrix
powers, the route the Horner kernel of ``prefix_parikh_from_digits``
replaced.  ``desubstitute`` decodes a factor against the Tribonacci
substitution, as the first proof's two-factor lemma does.  ``cap_positions`` stands in for a run whose
certified queries may examine only a few window starts.
"""

from __future__ import annotations

import random
import sys
from collections import Counter

import numpy as np
import pytest

from tribalance import (
    BufferLimitError,
    InvariantViolationError,
    SaturationError,
    compute_spectral_data,
    mbonacci_word,
    tribonacci_word,
    zeckendorf_encode,
)
from tribalance import factors
from tribalance.factors import FactorIndex, ScanResult, default_target, position_cap
from tribalance.words import mbonacci_images

#: The Tribonacci substitution 0 -> 01, 1 -> 02, 2 -> 0, as its images.
TAU = mbonacci_images(3)


@pytest.fixture(scope="session")
def tribo():
    return tribonacci_word(200_000)


@pytest.fixture(scope="session")
def tribo_2e6():
    """A prefix past 2 * 10^6, kept apart from ``tribo`` so that no other
    test has grown or indexed it."""
    return tribonacci_word(2_000_001)


@pytest.fixture(scope="session")
def tribo_2e6_counts(tribo_2e6):
    return count_prefixes(tribo_2e6.symbols, 3)


@pytest.fixture(scope="session")
def fibo():
    return mbonacci_word(2, 50_000)


@pytest.fixture(scope="session")
def fourbo():
    return mbonacci_word(4, 20_000)


@pytest.fixture(scope="session")
def sd():
    return compute_spectral_data()


def patch_everywhere(monkeypatch, original, replacement) -> None:
    """Set every name bound to original in a tribalance module to replacement."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "tribalance" or module_name.startswith("tribalance."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def cap_positions(monkeypatch, cap: int) -> None:
    """Limit every certified factor query to cap window starts at every
    length: ``factors.position_cap`` and each alias of it return cap."""
    patch_everywhere(monkeypatch, factors.position_cap, lambda alphabet_size, n: cap)


# -- oracles ----------------------------------------------------------------

def digits(text: str) -> bytes:
    """The word written as the digit string text: "0102" is 0, 1, 0, 2."""
    return bytes(int(c) for c in text)


def concat_images(images, word) -> bytes:
    """The images of the symbols of word, joined one by one."""
    return b"".join(images[c] for c in word)


def iterate_images(images, n: int) -> bytes:
    """The first n symbols of the fixed point from 0 of the morphism with
    these images (the image of 0 starts with 0), by re-joining the images
    of the whole word until it is long enough."""
    w = b"\x00"
    while len(w) < n:
        grown = concat_images(images, w)
        assert len(grown) > len(w)
        w = grown
    return w[:n]


def brute_factors(symbols: bytes, n: int) -> set[bytes]:
    """Every distinct length-n window of the materialized symbols."""
    return {symbols[i : i + n] for i in range(len(symbols) - n + 1)}


def dictionary_scan(buffer, n: int, extend_after: int = 0) -> ScanResult:
    """Count distinct length-n windows left to right, exactly: the scan
    ``factors.scan_distinct_factors`` ran before it read the factor index.

    Each window's symbols key a dictionary that holds the window's first
    start, so a window is new exactly when its symbols are not yet a key.
    The scan stops once the complexity target is reached; if the position
    cap (``factors.position_cap``, which ``cap_positions`` lowers) is hit
    first, ``SaturationError`` is raised.  ``extend_after`` keeps scanning
    that many positions past the window that reaches the target; a factor
    found there exceeds it and raises ``InvariantViolationError``.
    """
    if n < 1:
        raise InvariantViolationError(f"factor length must be >= 1, got {n}")
    cap = factors.position_cap(buffer.alphabet_size, n)
    target = default_target(buffer.alphabet_size, n)

    first: dict[bytes, int] = {}
    stop_at = None
    sym = buffer.symbols
    for p in range(cap):
        if p + n > len(sym):
            # Grow lazily (saturation usually comes within a few multiples of
            # n), clamped to max_symbols unless window p itself ends past it.
            sym = buffer.ensure(min(cap - 1 + n, max(2 * len(sym), 8 * n + 256, 1024),
                                    max(buffer.max_symbols, p + n))).symbols
        window = sym[p : p + n]
        if window not in first:
            first[window] = p
            if len(first) == target:
                stop_at = p + extend_after
        if p == stop_at:
            break
    count = len(first)
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
            positions_scanned=p + 1,
        )
    firsts = list(first.values())
    return ScanResult(n, count, firsts, firsts[-1], p + 1)


def desubstitute(U: bytes) -> tuple[bytes, bool, bool]:
    """(u, dropped, appended) with U = tau(u)[dropped:] + 0 * appended for
    the Tribonacci substitution tau: 0 -> 01, 1 -> 02, 2 -> 0.  A U that
    starts with 1 or 2 regains the 0 that always precedes those letters
    (``dropped``); the word is then cut at each 0 into the blocks 01 -> 0,
    02 -> 1, 0 -> 2, and a lone 0 at its end is ``appended``.  U is not
    checked to be a factor; a KeyError means it does not decode."""
    dropped = U[0] != 0
    w = b"\x00" + U if dropped else U
    appended = w.endswith(b"\x00")
    blocks = w.split(b"\x00")[1:]
    if appended:
        blocks.pop()
    return bytes({b"\x01": 0, b"\x02": 1, b"": 2}[b] for b in blocks), dropped, appended


def count_prefixes(symbols: bytes, m: int) -> np.ndarray:
    """(m, len + 1) int32 array whose entry [a, N] counts the letter a among
    the first N symbols: the one-hot rows of the word, summed along it."""
    data = np.frombuffer(symbols, dtype=np.uint8)
    counts = np.zeros((m, len(data) + 1), dtype=np.int32)
    np.cumsum(data == np.arange(m)[:, None], axis=1, out=counts[:, 1:])
    return counts


def brute_parikh(word, m: int) -> tuple[int, ...]:
    counts = Counter(word)
    return tuple(counts.get(a, 0) for a in range(m))


def brute_parikh_set(symbols: bytes, n: int, m: int) -> set[tuple[int, ...]]:
    return {brute_parikh(w, m) for w in brute_factors(symbols, n)}


def full_region_index(buffer, n_max: int) -> FactorIndex:
    """Index over the whole capped region for lengths up to n_max + 1."""
    return FactorIndex(buffer, position_cap(buffer.alphabet_size, n_max + 1) + n_max + 1)


def flat_suffix_automaton(data: bytes, m: int) -> dict[str, np.ndarray]:
    """The suffix automaton of data as the index first built it: states in
    creation order, one flat transition list ``trans[s * m + c]`` grown by
    m entries per state, and the first ends of clones in a dict (a clone
    first ends where the state it splits does).  Returns int64 arrays:
    per state ``length``, ``shortest`` (0 for the root), ``first_end``,
    ``outdeg`` and ``children`` (in the suffix-link tree); and per length
    n <= len(data), by ``np.add.at`` / ``np.maximum.at`` over the states'
    length intervals, ``counts``, ``cover_end`` and ``special`` (the
    number of right-special factors).  ``clones`` lists, for each clone in
    order, the prefix length at which it is made and the length of the
    suffix that makes it."""
    link, length, clone_end, clones = [-1], [0], {}, []
    trans = [-1] * m
    last = 0
    for i, c in enumerate(data, 1):
        cur = len(length)
        length.append(length[last] + 1)
        link.append(-1)
        trans.extend([-1] * m)
        p = last
        while p != -1 and trans[p * m + c] == -1:
            trans[p * m + c] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = trans[p * m + c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(length)
                clones.append((i, length[p] + 1))
                length.append(length[p] + 1)
                link.append(link[q])
                clone_end[clone] = clone_end.get(q, length[q])
                trans.extend(trans[q * m : q * m + m])
                while p != -1 and trans[p * m + c] == q:
                    trans[p * m + c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur
    length, link = np.array(length), np.array(link)
    first_end = length.copy()
    first_end[list(clone_end)] = list(clone_end.values())
    shortest = np.where(link >= 0, length[np.maximum(link, 0)] + 1, 0)
    outdeg = (np.array(trans).reshape(-1, m) >= 0).sum(axis=1)
    R = len(data)

    def per_length(states):
        diff = np.zeros(R + 2, dtype=np.int64)
        np.add.at(diff, shortest[states], 1)
        np.add.at(diff, length[states] + 1, -1)
        return np.cumsum(diff)[: R + 1]

    states = np.arange(1, len(length))
    counts = per_length(states)
    counts[0] = 1
    opening = np.zeros(R + 2, dtype=np.int64)
    np.maximum.at(opening, shortest[states], first_end[states])
    cover_end = np.maximum.accumulate(opening)[: R + 1]
    cover_end[0] = 0
    return {"length": length, "shortest": shortest, "first_end": first_end, "outdeg": outdeg,
            "children": np.bincount(link[1:], minlength=len(length)),
            "counts": counts, "cover_end": cover_end,
            "special": per_length(np.flatnonzero(outdeg >= 2)), "clones": clones}


def online_suffix_links(data: bytes, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``(link, outdeg)`` of the clone-free suffix automaton of data, built
    one symbol at a time: the transition of state i on ``data[i]`` is not
    stored, every other one goes into a dict per letter, and a step that
    would need a clone raises ``InvariantViolationError`` with the index's
    message.  int32 arrays."""
    link = [-1] + [0] * len(data)
    edges: list[dict[int, int]] = [{} for _ in range(m)]
    for cur, c in enumerate(data, 1):
        p = link[cur - 1]
        while p != -1 and data[p] != c and p not in edges[c]:
            edges[c][p] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        elif data[p] == c:
            link[cur] = p + 1
        else:
            suffix = "".join(map(str, data[cur - p - 1 : cur][:20])) + "..." * (p >= 20)
            raise InvariantViolationError(
                f"the prefix of length {cur} ends with {suffix} (length {p + 1}), a factor "
                f"that occurred before, not as a prefix, and now follows a second letter: "
                f"the word is not standard episturmian, and its index would need a clone")
    outdeg = np.array([1] * len(data) + [0], dtype=np.int32)
    for row in edges:
        for p in row:
            outdeg[p] += 1
    return np.array(link, dtype=np.int32), outdeg


class FixedWord:
    """A word given whole, with the members of a buffer the factor and
    window queries read: ``symbols``, ``alphabet_size``, ``max_symbols``,
    ``index``, ``keep_index`` and ``ensure``, which refuses any length
    past the word."""

    def __init__(self, data: bytes, alphabet_size: int):
        self.symbols, self.alphabet_size = data, alphabet_size
        self.max_symbols = len(data)
        self.index = None

    def __len__(self) -> int:
        return len(self.symbols)

    def ensure(self, min_len: int) -> "FixedWord":
        if min_len > len(self.symbols):
            raise BufferLimitError(f"requested {min_len} symbols of a word of {len(self.symbols)}")
        return self

    def keep_index(self, index) -> None:
        if self.index is None or index.region_len > self.index.region_len:
            self.index = index


def standard_episturmian(directive, n: int) -> bytes:
    """The first n symbols of the standard episturmian word with this
    directive sequence of letters, by iterated palindromic closure: w_0 is
    empty and w_(k+1) the shortest palindrome that starts with w_k a_k.
    Each closure is read off Justin's formula: w_k a_k w_k when a_k is new,
    else w_k with w_j cut from the front of a second copy, where j is the
    last earlier step with a_j = a_k.  The directive must grow the word to
    n symbols; the directives (0, ..., m-1) repeated give the m-bonacci
    words."""
    w, last, steps = b"", {}, []
    for k, a in enumerate(directive):
        if len(w) >= n:
            break
        steps.append(w)
        w = w + bytes([a]) + w if a not in last else w + w[len(steps[last[a]]):]
        last[a] = k
    assert len(w) >= n, "the directive is too short"
    return w[:n]


def unique_profile(buffer, n_max: int):
    """(n, rho, max_imbalance, vectors) for n = 1..n_max, vectors in
    first-occurrence order, by sorting the window count columns."""
    index = full_region_index(buffer, n_max)
    pc = count_prefixes(buffer.symbols, buffer.alphabet_size)
    rows = []
    for n in range(1, n_max + 1):
        bound = index.certify(n)
        counts = pc[:, n : n + bound + 1] - pc[:, : bound + 1]
        # Sort the columns by their letter rows (a stable sort, so equal
        # columns keep their start order) and keep the first of each group.
        order = np.lexsort(counts[::-1])
        ordered = counts[:, order]
        first = order[np.r_[True, (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)]]
        vectors = tuple(tuple(int(x) for x in counts[:, i]) for i in sorted(first))
        imbalance = tuple(int(x) for x in counts.max(axis=1) - counts.min(axis=1))
        rows.append((n, len(vectors), imbalance, vectors))
    return rows


def incidence_matrix(images) -> np.ndarray:
    """m x m int64 matrix, m = len(images), whose (i, j) entry counts the
    letter i in the image of j, so parikh(image of w) = matrix @ parikh(w)."""
    return np.array([[im.count(i) for im in images] for i in range(len(images))], dtype=np.int64)


def matrix_power_parikh_table(width: int) -> np.ndarray:
    """Parikh(tau^k(0)) = M^k e_0 for k < width as the columns of a
    (3, width) int64 array, each from ``np.linalg.matrix_power`` of the
    Tribonacci incidence matrix (exact for width <= 72)."""
    mat = incidence_matrix(TAU)
    table = np.zeros((3, width), dtype=np.int64)
    for k in range(width):
        table[:, k] = np.linalg.matrix_power(mat, k)[:, 0]
    return table


def einsum_prefix_parikh(digits) -> np.ndarray:
    """The Dumont-Thomas sum of each digit row, sum(p_k * Parikh(tau^k(0))),
    as a (3, rows) int64 array: one int64 einsum over the whole array."""
    d = np.asarray(digits).astype(np.int64)
    return np.einsum("ak,nk->an", matrix_power_parikh_table(d.shape[1]), d)


def float_head_terms(sd, letter: int, cutoff: int) -> np.ndarray:
    """Head terms 2 Re(coeff_alpha * mixing * alpha^k), k <= cutoff, in floats."""
    coef = sd.coeff_alpha * sd.mixing_factor(letter)
    return 2.0 * (coef * sd.alpha ** np.arange(cutoff + 1)).real


def float_tail_bound(sd, letter: int, cutoff: int) -> float:
    """2 |coeff_alpha| |mixing| |alpha|^(cutoff+1) / (1 - |alpha|), in floats."""
    r = abs(sd.alpha)
    return 2.0 * abs(sd.coeff_alpha) * abs(sd.mixing_factor(letter)) * r ** (cutoff + 1) / (1.0 - r)


def float_interval(sd, letter: int, cutoff: int) -> tuple[float, float]:
    """The float discrepancy interval: the sums of the negative and of the
    positive head terms, widened by the tail bound."""
    terms = float_head_terms(sd, letter, cutoff)
    tail = float_tail_bound(sd, letter, cutoff)
    return float(terms[terms < 0].sum()) - tail, float(terms[terms > 0].sum()) + tail


def scalar_eq1_worst(counts, sd, seed: int) -> float:
    """Largest gap between the digit-expansion and the direct discrepancy
    over the eq1 claim's 10^4 seeded prefix lengths and three letters, one
    value at a time: the scalar digits of each N, a Python power sum over
    alpha^k, and the prefix count of that one N read off ``counts`` (those
    of ``count_prefixes``)."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(10_000):
        n = rng.randrange(0, 1_000_001)
        digits = zeckendorf_encode(n)
        for letter in (0, 1, 2):
            coef = sd.coeff_alpha * sd.mixing_factor(letter)
            power_sum = 0j
            a_k = 1 + 0j
            for d in digits:
                if d:
                    power_sum += a_k
                a_k *= sd.alpha
            spectral = 2.0 * (coef * power_sum).real
            direct = float(counts[letter, n] - n * sd.frequency(letter))
            worst = max(worst, abs(spectral - direct))
    return worst
