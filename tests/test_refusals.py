"""Inputs outside a function's domain are refused up front.

Each call below once raised a bare ``IndexError``, ``TypeError``,
``ValueError`` or ``OverflowError``, blamed the word for a bad length, or
answered where it should have refused: a witness for letter -1 was letter
2's, and the prefix balance at length 0 was ``True``.  Each must raise
``InvalidInputError``, a ``TribalanceError``, so the command line maps it
to exit code 2.
"""

import pytest

from tribalance import (
    InvalidInputError,
    TribalanceError,
    abelian_profile,
    balance_bound_from_interval,
    discrepancy_blocks,
    discrepancy_direct,
    discrepancy_extremes,
    factor_index,
    imbalance_witness_search,
    parikh_set,
    prefix_balance_check,
    prefix_balance_profile,
    prefix_count_blocks,
    tribonacci_numbers_upto,
    tribonacci_word,
    verify_equivalences,
    verify_witness,
    window_parikh,
)
from tribalance.cli import main

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
    "blocks_letter_True": lambda t, f, sd: discrepancy_blocks(t, 10, True, sd),
    "direct_length_2.5": lambda t, f, sd: discrepancy_direct(t, 2.5, 0, sd),
    "extremes_n_max_-1": lambda t, f, sd: discrepancy_extremes(t, -1, 0, sd),
    "blocks_n_max_-1": lambda t, f, sd: discrepancy_blocks(t, -1, 0, sd),
    "blocks_n_max_10.0": lambda t, f, sd: discrepancy_blocks(t, 10.0, 0, sd),
    "blocks_letter_3": lambda t, f, sd: discrepancy_blocks(t, 10, 3, sd),
    # Tribonacci-only queries refuse other alphabets.
    "verify_equivalences_4bonacci": lambda t, f, sd: verify_equivalences(f, 5),
    # Window lengths are integers n_from >= 1 and n_to >= n_from, checked
    # once for every window query; an index covers an n_max >= 0.
    "profile_n_from_1.5": lambda t, f, sd: abelian_profile(t, 1.5, 3),
    "parikh_set_n_2.0": lambda t, f, sd: parikh_set(t, 2.0),
    "witness_search_max_len_10.0": lambda t, f, sd: imbalance_witness_search(t, 0, 3, 10.0),
    "verify_equivalences_n_5.5": lambda t, f, sd: verify_equivalences(t, 5.5),
    "prefix_balance_n_0": lambda t, f, sd: prefix_balance_check(t, 0),
    "prefix_balance_n_-1": lambda t, f, sd: prefix_balance_check(t, -1),
    "prefix_balance_profile_n_to_0": lambda t, f, sd: prefix_balance_profile(t, 1, 0),
    "factor_index_n_max_-5": lambda t, f, sd: factor_index(t, -5),
    # Positions and scalar arguments are integers or finite numbers.
    "window_parikh_start_1.5": lambda t, f, sd: window_parikh(t, 1.5, 2),
    "window_parikh_start_True": lambda t, f, sd: window_parikh(t, True, 2),
    "slice_start_1.5": lambda t, f, sd: t.slice(1.5, 2),
    # Prefix-count blocks cover at most every column of the buffer, in
    # blocks of one column or more, of letters of its alphabet, counted in
    # int32 or an unsigned type.
    "count_blocks_stop_past_buffer": lambda t, f, sd: prefix_count_blocks(t, len(t) + 2, 8),
    "count_blocks_block_0": lambda t, f, sd: prefix_count_blocks(t, 10, 0),
    "count_blocks_letter_3": lambda t, f, sd: prefix_count_blocks(t, 10, 8, [3]),
    "count_blocks_int64": lambda t, f, sd: prefix_count_blocks(t, 10, 8, dtype="int64"),
    "count_blocks_float": lambda t, f, sd: prefix_count_blocks(t, 10, 8, dtype=float),
    "count_blocks_type_x": lambda t, f, sd: prefix_count_blocks(t, 10, 8, dtype="x"),
    # The buffer cap is an integer >= 1: a string or None raised a bare
    # TypeError, and 1.5, -3 or True passed as a cap, then raised
    # BufferLimitError (exit 3, not 2).
    "max_symbols_x": lambda t, f, sd: tribonacci_word(10, max_symbols="x"),
    "max_symbols_None": lambda t, f, sd: tribonacci_word(10, max_symbols=None),
    "max_symbols_1.5": lambda t, f, sd: tribonacci_word(10, max_symbols=1.5),
    "max_symbols_-3": lambda t, f, sd: tribonacci_word(10, max_symbols=-3),
    "max_symbols_True": lambda t, f, sd: tribonacci_word(10, max_symbols=True),
    # A buffer grows to an integer length >= 0: a string, None or 7.5
    # raised a bare TypeError, and -1 returned silently.
    "ensure_9_text": lambda t, f, sd: tribonacci_word(5).ensure("9"),
    "ensure_None": lambda t, f, sd: tribonacci_word(5).ensure(None),
    "ensure_7.5": lambda t, f, sd: tribonacci_word(5).ensure(7.5),
    "ensure_-1": lambda t, f, sd: tribonacci_word(5).ensure(-1),
    # A float bound was compared, not refused; NaN or inf never stopped.
    "terms_upto_7.5": lambda t, f, sd: tribonacci_numbers_upto(7.5),
    "balance_bound_nan": lambda t, f, sd: balance_bound_from_interval(float("nan"), 1),
    "balance_bound_inf": lambda t, f, sd: balance_bound_from_interval(0, float("inf")),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_bad_input_is_refused(tribo, fourbo, sd, call):
    with pytest.raises(TribalanceError) as info:
        call(tribo, fourbo, sd)
    assert isinstance(info.value, InvalidInputError)


#: Resource refusals exit 3 with a message that names the need, not one
#: growth step: the lengths and alphabet, the first index region, its
#: position-cap bound and the --max-buffer value.
RESOURCE_CASES = {
    "balance_mbonacci4_3305_max_buffer_20000": (
        ["balance", "mbonacci:4", "3305", "--max-buffer", "20000"],
        "resource failure: lengths up to 3305 on 4 letters need an index region of 53920 "
        "symbols (at most 218986: the position cap 215680 plus 3306), past the buffer cap "
        "of 20000 symbols (--max-buffer)\n"),
}


@pytest.mark.parametrize("argv, message", RESOURCE_CASES.values(), ids=RESOURCE_CASES.keys())
def test_resource_refusal_names_the_need(capsys, argv, message):
    assert main(argv) == 3
    assert capsys.readouterr().err.endswith(message)
