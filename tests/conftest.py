"""Shared fixtures and independent oracles.

The oracles are deliberately primitive: direct window enumeration over a
materialized prefix, and counting with ``collections.Counter``.  They never
touch the library's prefix counts or the factor index, so agreement with
the library is meaningful.  ``count_prefixes`` counts every letter along
a word in one ``np.cumsum`` over its one-hot rows, not the package's
blocked kernel; ``tribo_2e6_counts`` holds its counts of ``tribo_2e6``,
counted once a session.  The one exception is ``unique_profile``, the
sorting route the dense profile pass replaced: it reads window bounds from an index
over the full capped region and deduplicates count columns with an
``np.lexsort`` over the letter rows.  ``flat_suffix_automaton`` is the
factor index's first builder, the oracle of the prefix-numbered one.  ``scalar_eq1_worst`` is the value-at-a-time discrepancy
loop the batched oracle-equivalence claim replaced, with its own copy of
the alpha-power sum.  ``float_head_terms`` and ``float_tail_bound`` are the
float route the exact spectral certificate replaced: they read the
eigendata of ``compute_spectral_data``, which the certificate never does.
``incidence_matrix`` counts each letter in each image of a morphism, and
``matrix_power_parikh_table`` reads Parikh(tau^k(0)) off the int64 matrix
powers M^k e_0: the oracle of ``numeration.tau_parikh_table``, which
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
    compute_spectral_data,
    mbonacci_word,
    tribonacci_morphism,
    tribonacci_word,
    zeckendorf_encode,
)
from tribalance import factors
from tribalance.factors import FactorIndex, position_cap


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

def concat_images(morphism, word) -> bytes:
    """The images of the symbols of word, joined one by one."""
    return b"".join(morphism.images[c] for c in word)


def brute_factors(symbols: bytes, n: int) -> set[bytes]:
    """Every distinct length-n window of the materialized symbols."""
    return {symbols[i : i + n] for i in range(len(symbols) - n + 1)}


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
    number of right-special factors)."""
    link, length, clone_end = [-1], [0], {}
    trans = [-1] * m
    last = 0
    for c in data:
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
            "special": per_length(np.flatnonzero(outdeg >= 2))}


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


def incidence_matrix(morphism) -> np.ndarray:
    """m x m int64 matrix whose (i, j) entry counts the letter i in the
    image of j, so parikh(image of w) = matrix @ parikh(w)."""
    m = morphism.alphabet_size
    return np.array([[im.count(i) for im in morphism.images] for i in range(m)], dtype=np.int64)


def matrix_power_parikh_table(width: int) -> np.ndarray:
    """Parikh(tau^k(0)) = M^k e_0 for k < width as the columns of a
    (3, width) int64 array, each from ``np.linalg.matrix_power`` of the
    Tribonacci incidence matrix (exact for width <= 72)."""
    mat = incidence_matrix(tribonacci_morphism())
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
