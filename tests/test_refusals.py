"""Inputs outside a function's domain are refused up front.

Each call below once raised a bare ``IndexError`` or ``ValueError``, or
answered for another letter than the one asked: a witness for letter -1
was letter 2's.  Each must raise ``InvalidInputError``, a
``TribalanceError``, so the command line maps it to exit code 2.
"""

import pytest

from tribalance import (
    InvalidInputError,
    TribalanceError,
    boundary_set,
    central_set,
    discrepancy_column,
    discrepancy_direct,
    discrepancy_extremes,
    imbalance_witness_search,
    successor_length,
    verify_equivalences,
    verify_witness,
)

CASES = {
    # Witness letters are in 0..m-1.
    "verify_witness_letter_-1": lambda t, f, sd: verify_witness(t, -1, 0, 10, 5),
    "verify_witness_letter_5": lambda t, f, sd: verify_witness(t, 5, 0, 10, 5),
    "verify_witness_letter_True": lambda t, f, sd: verify_witness(t, True, 0, 10, 5),
    "verify_witness_4bonacci_letter_4": lambda t, f, sd: verify_witness(f, 4, 0, 10, 5),
    "witness_search_letter_-1": lambda t, f, sd: imbalance_witness_search(t, -1, 3, 40),
    "witness_search_letter_5": lambda t, f, sd: imbalance_witness_search(t, 5, 3, 40),
    "witness_search_letter_1.0": lambda t, f, sd: imbalance_witness_search(t, 1.0, 3, 40),
    # Spectral letters and lengths are integers, and in range.
    "direct_letter_1.0": lambda t, f, sd: discrepancy_direct(t, 10, 1.0, sd),
    "column_letter_True": lambda t, f, sd: discrepancy_column(t, 10, True, sd),
    "direct_length_2.5": lambda t, f, sd: discrepancy_direct(t, 2.5, 0, sd),
    "extremes_n_max_-1": lambda t, f, sd: discrepancy_extremes(t, -1, 0, sd),
    "column_n_max_-1": lambda t, f, sd: discrepancy_column(t, -1, 0, sd),
    "column_n_max_10.0": lambda t, f, sd: discrepancy_column(t, 10.0, 0, sd),
    "column_letter_3": lambda t, f, sd: discrepancy_column(t, 10, 3, sd),
    # Tribonacci-only queries refuse other alphabets.
    "central_set_4bonacci": lambda t, f, sd: central_set(f, 5),
    "boundary_set_4bonacci": lambda t, f, sd: boundary_set(f, 5),
    "successor_length_4bonacci": lambda t, f, sd: successor_length(f, 5),
    "verify_equivalences_4bonacci": lambda t, f, sd: verify_equivalences(f, 5),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_bad_input_is_refused(tribo, fourbo, sd, call):
    with pytest.raises(TribalanceError) as info:
        call(tribo, fourbo, sd)
    assert isinstance(info.value, InvalidInputError)
