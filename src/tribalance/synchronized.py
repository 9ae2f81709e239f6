"""The abelian complexity and the per-letter imbalance of the Tribonacci
word, read off the numeration digits of the length by one synchronized
automaton (Shallit, "Abelian complexity and synchronization", 2021).

The Parikh vectors of the length-n factors are P(j) - P(i) with j = i + n,
P(x) the Parikh vector of the prefix of length x.  Shifted by P(n) they are
the vectors S = P(j) - P(i) - P(n) with sum(S) = j - i - n = 0.  By the
Dumont-Thomas identity P(x) = sum of d_k M^k e_0 over the digits d_k of x
(``numeration.prefix_parikh_from_digits``), so reading the digits of i, j
and n together, most significant first, is the step
S <- M S + (d_j - d_i - d_n) e_0, M the incidence matrix of tau.

An element of the nondeterministic automaton is S with the last two digits
read of i and of j.  It reads the digits of n and guesses those of i and j,
refusing a guess that would make a run 111.  The start subset is the
fixpoint of reading the digit 0 of n, since i and j may have more digits
than n.  After the digits of n the subset holds, for every i, the element
of P(i + n) - P(i) - P(n), so the number of its S with sum 0 is rho(n), and
max - min of their letter-a coordinates is the imbalance of letter a.

Pruning keeps the element set finite, soundly.  With u = (1, beta - 1,
1/beta), u M = beta u and u e_0 = 1.  An accepting S is
D(j) - D(i) - D(n) for the prefix discrepancy vector D(x) = P(x) - x f,
so u.S lies in [B - 2A, A - 2B], where A = sup u.D and B = inf u.D are
bounded from the head terms g_k = sum_a u_a h_(a,k) and a geometric tail.
Each step adds a digit difference in [-2, 1], so an element that can still
reach an accepting S has u.S in the hull of that interval and
[-1/(beta - 1), 2/(beta - 1)], about [-1.19, 2.38]
(``spectral.synchronization_window`` derives it exactly).  An element is
dropped only when an exact rational enclosure of its u.S lies outside that
window.  Since u.S and the contracting part of S are both bounded, so is S.

The subsets are Python-int bitmasks over the elements; a Moore
minimization on the output (rho, spans) leaves the minimal automaton,
numbered breadth first from its start, so two minimal automata of the same
function are equal tables exactly when they are isomorphic.  It is built
on every call, with nothing cached: about 30 ms on a shared 2-core x86-64
Linux machine.  The lengths are walked in blocks of ``BLOCK``, so memory
stays bounded for any range.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import numeration, spectral
from .abelian import ProfileRow
from .errors import InvariantViolationError, integer_in

#: Lengths per digit walk: about 10 MB of digits, states and rows at a time.
BLOCK = 1 << 16


@dataclass(frozen=True)
class DigitAutomaton:
    """Minimal automaton over the digits of n, most significant first:
    state 0 is the start, ``trans[s, d]`` the successor of s on digit d,
    ``rho[s]`` and ``spans[s]`` (one column per letter) the outputs."""

    trans: np.ndarray
    rho: np.ndarray
    spans: np.ndarray


def _pruning_test():
    """``keep(s0, s1, s2)``: False only when an enclosure of
    u.S = s0 + (beta - 1) s1 + s2 / beta lies outside
    ``spectral.synchronization_window()``.  The enclosures are integers
    scaled by 2**128, each bound rounded outward."""
    scale = 1 << 128
    (b_lo, b_hi), (w_lo, w_hi) = (spectral.named_constants()["beta"],
                                  spectral.synchronization_window())
    shift = (math.floor((b_lo - 1) * scale), math.ceil((b_hi - 1) * scale))
    recip = (math.floor(scale / b_hi), math.ceil(scale / b_lo))
    low, high = math.floor(w_lo * scale), math.ceil(w_hi * scale)

    def keep(s0: int, s1: int, s2: int) -> bool:
        a = [s1 * c for c in shift]
        b = [s2 * c for c in recip]
        return s0 * scale + min(a) + min(b) <= high and s0 * scale + max(a) + max(b) >= low

    return keep


def _elements(keep):
    """The elements reachable from (S = 0, no digits), each as
    (s0, s1, s2, last digits of i, last digits of j) with the last two
    digits as a 2-bit number, and per n-digit 0 and 1 the bitmask of each
    element's successors."""
    elements = [(0, 0, 0, 0, 0)]
    number = {elements[0]: 0}
    successors = ([], [])
    for s0, s1, s2, ti, tj in elements:  # the list grows as it is walked
        for dn, masks in enumerate(successors):
            mask = 0
            for di in (0, 1) if ti != 3 else (0,):
                for dj in (0, 1) if tj != 3 else (0,):
                    nxt = (s0 + s1 + s2 + dj - di - dn, s0, s1, (ti << 1 | di) & 3,
                           (tj << 1 | dj) & 3)
                    if not keep(*nxt[:3]):
                        continue
                    if nxt not in number:
                        number[nxt] = len(elements)
                        elements.append(nxt)
                    mask |= 1 << number[nxt]
            masks.append(mask)
    return elements, successors


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def _union(masks: list[int], subset: int) -> int:
    """OR of ``masks[e]`` over the set bits e of ``subset``."""
    out = 0
    for e in _bits(subset):
        out |= masks[e]
    return out


def digit_automaton() -> DigitAutomaton:
    """The minimal automaton of rho(n) and the per-letter imbalance,
    pruned to ``spectral.synchronization_window()``."""
    elements, successors = _elements(_pruning_test())
    # The start subset is the closure of {S = 0} under the n-digit 0.  It
    # is fixed by 0, so a longer i or j is read as leading zeros, exactly
    # when S = 0 steps to itself on 0, that is when the window holds 0.
    if not successors[0][0] & 1:
        raise InvariantViolationError("the start subset is not fixed by the digit 0")
    start = 1
    while (grown := start | _union(successors[0], start)) != start:
        start = grown

    # Subset construction, numbering subsets in the order they are found.
    subsets, found, trans = [start], {start: 0}, []
    for subset in subsets:
        row = []
        for masks in successors:
            nxt = _union(masks, subset)
            if nxt not in found:
                found[nxt] = len(subsets)
                subsets.append(nxt)
            row.append(found[nxt])
        trans.append(row)
    # The outputs read the accepting elements, those with sum(S) = 0.
    accepting = sum(1 << k for k, e in enumerate(elements) if sum(e[:3]) == 0)
    outputs = []
    for subset in subsets:
        vectors = {elements[k][:3] for k in _bits(subset & accepting)}
        spans = tuple(max(c) - min(c) for c in zip(*vectors)) if vectors else (0, 0, 0)
        outputs.append((len(vectors), spans))

    # Moore minimization: split classes by output, then by successor
    # classes, until the number of classes stops growing.
    def relabel(keys):
        labels = {}
        return [labels.setdefault(k, len(labels)) for k in keys]

    classes = relabel(outputs)
    while True:
        refined = relabel([(classes[s], classes[t0], classes[t1])
                           for s, (t0, t1) in enumerate(trans)])
        if max(refined) == max(classes):
            break
        classes = refined

    # Breadth-first numbering of the classes from the start.
    order = {classes[0]: 0}
    members = {classes[s]: s for s in range(len(subsets))}
    queue = [classes[0]]
    for c in queue:
        for t in trans[members[c]]:
            if classes[t] not in order:
                order[classes[t]] = len(order)
                queue.append(classes[t])
    table = np.zeros((len(order), 2), dtype=np.intp)
    rho = np.zeros(len(order), dtype=np.int64)
    spans = np.zeros((len(order), 3), dtype=np.int64)
    for c, k in order.items():
        s = members[c]
        table[k] = [order[classes[t]] for t in trans[s]]
        rho[k], spans[k] = outputs[s]
    return DigitAutomaton(table, rho, spans)


def synchronized_profile(n_from: int, n_to: int) -> Iterator[ProfileRow]:
    """``ProfileRow(n, rho, max_imbalance)`` of the Tribonacci word for
    every n in [n_from, n_to], in order, read off a fresh
    ``digit_automaton``.  The arguments are checked and the automaton is
    built at the call; the rows are produced lazily, ``BLOCK`` lengths at
    a time, so memory does not grow with the range."""
    limit = int(np.iinfo(np.int64).max) - 1
    n_from = integer_in(n_from, "first length", 1, limit)
    n_to = integer_in(n_to, "last length", n_from, limit)
    return _walk(digit_automaton(), n_from, n_to)


def _walk(automaton: DigitAutomaton, n_from: int, n_to: int) -> Iterator[ProfileRow]:
    """One gather per digit column of ``zeckendorf_encode_many`` per
    block, most significant first (the start state is fixed by the zero
    padding of the shorter lengths)."""
    for first in range(n_from, n_to + 1, BLOCK):
        last = min(n_to, first + BLOCK - 1)
        columns = numeration.digit_columns(numeration.zeckendorf_encode_many(
            np.arange(first, last + 1, dtype=np.int64)))
        state = np.zeros(columns.shape[1], dtype=np.intp)
        for column in columns[::-1]:
            state = automaton.trans[state, column]
        rho = automaton.rho[state].tolist()
        spans = automaton.spans[state].tolist()
        yield from (ProfileRow(n, r, tuple(s))
                    for n, r, s in zip(range(first, last + 1), rho, spans))
