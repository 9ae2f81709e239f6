"""The synchronized digit automaton against the certified window pass.

The window pass reads the materialized word through the factor index; the
automaton reads only the numeration digits of n, so agreement between the
two is meaningful.
"""

import tracemalloc
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tribalance.spectral as spectral
import tribalance.synchronized as synchronized
from tribalance import (
    InvalidInputError,
    InvariantViolationError,
    abelian_profile,
    synchronization_window,
    synchronized_profile,
    tribonacci_word,
)
from tribalance.synchronized import digit_automaton


def same_automaton(a, b) -> bool:
    # Both are numbered breadth first from the start, so they are
    # isomorphic exactly when their tables are equal.
    return (np.array_equal(a.trans, b.trans) and np.array_equal(a.rho, b.rho)
            and np.array_equal(a.spans, b.spans))


def test_automaton_matches_the_window_pass_through_7199():
    expected = abelian_profile(tribonacci_word(), 1, 7199)
    rows = list(synchronized_profile(1, 7199))
    assert [(r.n, r.rho, r.max_imbalance) for r in rows] == \
        [(r.n, r.rho, r.max_imbalance) for r in expected]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 40))
def test_any_range_is_a_slice_of_the_full_profile(n_from, extra):
    rows = list(synchronized_profile(n_from, n_from + extra))
    full = list(synchronized_profile(1, n_from + extra))
    assert rows == full[n_from - 1:]


def test_block_boundaries_change_no_row(monkeypatch):
    whole = list(synchronized_profile(3, 5000))
    monkeypatch.setattr(synchronized, "BLOCK", 7)
    assert list(synchronized_profile(3, 5000)) == whole


def test_memory_does_not_grow_with_the_range():
    # The whole range at once would hold about 2 * 10**8 * 35 digit bytes;
    # the first rows come after one block.
    tracemalloc.start()
    try:
        rows = synchronized_profile(1, 2 * 10**8)
        first = list(islice(rows, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(r.n, r.rho) for r in first] == [(1, 3), (2, 3), (3, 4)]
    assert peak < 64 * 2**20


def test_window_is_exact_and_contains_the_step_hull():
    lo, hi = synchronization_window()
    assert type(lo) is Fraction and type(hi) is Fraction
    # The hull of [-1/(beta - 1), 2/(beta - 1)] and the final interval.
    beta_lo, beta_hi = spectral.named_constants()["beta"]
    assert lo <= -1 / (beta_lo - 1) and hi >= 2 / (beta_lo - 1)
    assert -1.2 < lo and hi < 2.39


def test_minimal_automaton_is_the_same_at_twice_the_window(monkeypatch):
    derived = digit_automaton()
    lo, hi = synchronization_window()
    half = (hi - lo) / 2
    monkeypatch.setattr(spectral, "synchronization_window", lambda: (lo - half, hi + half))
    assert same_automaton(derived, digit_automaton())


def test_start_state_is_fixed_by_the_digit_zero(monkeypatch):
    automaton = digit_automaton()
    assert automaton.trans[0, 0] == 0
    # The zero padding of a shorter n changes no output.
    assert list(synchronized_profile(1, 40)) == list(islice(synchronized_profile(1, 13000), 40))
    # A window without 0 drops S = 0 on the digit 0: the start check refuses it.
    monkeypatch.setattr(spectral, "synchronization_window", lambda: (Fraction(1), Fraction(3)))
    with pytest.raises(InvariantViolationError, match="not fixed by the digit 0"):
        digit_automaton()


def test_every_state_is_the_papers_theorem():
    # rho(n) in {3, ..., 7} and every span at most 2, for every n >= 1: the
    # start state alone (n = 0, the empty word) outputs rho = 1.
    automaton = digit_automaton()
    assert automaton.rho[0] == 1 and automaton.spans[0].tolist() == [0, 0, 0]
    assert set(automaton.rho[1:].tolist()) == {3, 4, 5, 6, 7}
    assert automaton.spans[1:].max() == 2
    assert len(automaton.rho) == 68


def test_each_call_builds_a_fresh_automaton():
    a, b = digit_automaton(), digit_automaton()
    assert a is not b and a.trans is not b.trans and same_automaton(a, b)


@pytest.mark.parametrize("n_from, n_to", [(0, 5), (5, 4), (1.5, 3), (1, 2.0), (1, 2**63 - 1)])
def test_profile_refuses_bad_ranges(n_from, n_to):
    with pytest.raises(InvalidInputError):
        synchronized_profile(n_from, n_to)
