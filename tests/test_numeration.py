import itertools

import numpy as np
import pytest
from conftest import einsum_prefix_parikh, matrix_power_parikh_table
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tribalance import (
    InvalidInputError,
    InvalidRepresentationError,
    is_valid_rep,
    is_valid_rep_many,
    prefix_parikh_from_digits,
    tribonacci_number,
    tribonacci_numbers_upto,
    zeckendorf_decode,
    zeckendorf_decode_many,
    zeckendorf_encode,
    zeckendorf_encode_many,
)
from tribalance.numeration import tau_parikh_table


def test_sequence_start():
    assert [tribonacci_number(k) for k in range(6)] == [1, 2, 4, 7, 13, 24]


def test_sequence_recurrence():
    # Through and past the last term below 2**64 (index 72).
    for k in (*range(3, 40), 72, 73, 74, 200):
        assert tribonacci_number(k) == (
            tribonacci_number(k - 1) + tribonacci_number(k - 2) + tribonacci_number(k - 3)
        )


def test_sequence_upto():
    assert tribonacci_numbers_upto(7) == [1, 2, 4, 7]
    assert tribonacci_numbers_upto(6) == [1, 2, 4]
    assert tribonacci_numbers_upto(0) == []
    terms = tribonacci_numbers_upto(2**70)
    assert terms == [tribonacci_number(k) for k in range(len(terms))]
    assert terms[-1] <= 2**70 < tribonacci_number(len(terms))


def test_negative_index_rejected():
    with pytest.raises(InvalidInputError):
        tribonacci_number(-1)


@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(3.0), "3", None])
def test_scalar_entry_points_refuse_non_integers(bad):
    with pytest.raises(InvalidInputError):
        zeckendorf_encode(bad)
    with pytest.raises(InvalidInputError):
        tribonacci_number(bad)


@pytest.mark.parametrize("n", [6, np.int64(6), np.uint8(6), np.int32(6)])
def test_scalar_entry_points_accept_integers(n):
    assert zeckendorf_encode(n) == [0, 1, 1]
    assert tribonacci_number(n) == 44


def test_encode_examples():
    assert zeckendorf_encode(1) == [1]
    assert zeckendorf_encode(6) == [0, 1, 1]  # 6 = 2 + 4
    assert zeckendorf_encode(7) == [0, 0, 0, 1]  # 7 is a sequence term
    assert zeckendorf_encode(0) == []


def test_decode_examples():
    assert zeckendorf_decode([1]) == 1
    assert zeckendorf_decode([0, 1, 1]) == 6
    assert zeckendorf_decode([1, 1, 0, 1]) == 1 + 2 + 7
    assert zeckendorf_decode([]) == 0


def test_validity_examples():
    assert not is_valid_rep([1, 1, 1])
    assert is_valid_rep([])
    assert is_valid_rep([1, 1, 0, 1, 1])
    assert not is_valid_rep([0, 2])


def test_decode_rejects_invalid():
    with pytest.raises(InvalidRepresentationError):
        zeckendorf_decode([1, 1, 1])
    with pytest.raises(InvalidRepresentationError):
        zeckendorf_decode([1, 1, 1, 0])


def test_text_form():
    # The command line prints the digit list as text, least significant first.
    assert "".join(map(str, zeckendorf_encode(6))) == "011"
    assert zeckendorf_decode([int(c) for c in "011"]) == 6


@given(st.integers(min_value=0, max_value=10**9)
       | st.integers(min_value=2**64 - 2**20, max_value=2**100))
@example(2**64)
@example(tribonacci_number(73))
def test_round_trip(n):
    digits = zeckendorf_encode(n)
    assert is_valid_rep(digits)
    assert zeckendorf_decode(digits) == n
    if digits:
        assert digits[-1] == 1  # canonical: no trailing zeros


def test_uniqueness_small_exhaustive():
    # Independent oracle: enumerate every valid digit string of width 12
    # and count representations per value; each representable value must
    # occur exactly once, and must match the greedy encoding.
    width = 12
    terms = [tribonacci_number(k) for k in range(width)]
    reps: dict[int, list[tuple[int, ...]]] = {}
    for bits in itertools.product((0, 1), repeat=width):
        if any(bits[k] and bits[k - 1] and bits[k - 2] for k in range(2, width)):
            continue
        value = sum(t for b, t in zip(bits, terms) if b)
        canon = tuple(reversed(tuple(itertools.dropwhile(lambda b: not b, reversed(bits)))))
        reps.setdefault(value, []).append(canon)
    max_covered = max(v for v in reps if set(range(v + 1)) <= set(reps))
    assert max_covered >= 1000
    for value in range(max_covered + 1):
        assert len(reps[value]) == 1
        assert list(reps[value][0]) == zeckendorf_encode(value)


def _assert_batch_matches_scalar(ns):
    digits = zeckendorf_encode_many(ns)
    assert digits.dtype == np.uint8
    assert digits.shape == (len(ns), len(zeckendorf_encode(max(ns))))
    assert is_valid_rep_many(digits).all()
    assert zeckendorf_decode_many(digits).tolist() == list(ns)
    for n, row in zip(ns, digits.tolist()):
        scalar = zeckendorf_encode(n)
        assert row == scalar + [0] * (len(row) - len(scalar))


_tribonacci_values = st.sampled_from([0] + tribonacci_numbers_upto(10**9))


@given(st.lists(st.integers(min_value=0, max_value=10**9) | _tribonacci_values,
                min_size=1, max_size=50))
def test_batch_codec_matches_scalar(ns):
    _assert_batch_matches_scalar(ns)


def test_batch_codec_matches_scalar_exhaustive():
    _assert_batch_matches_scalar(range(20_001))


def test_batch_validity_examples():
    rows = [[1, 1, 0, 1, 1], [1, 1, 1, 0, 0], [0, 2, 0, 0, 0], [0, 0, 0, 0, 0]]
    assert is_valid_rep_many(rows).tolist() == [is_valid_rep(r) for r in rows]


@pytest.mark.parametrize("dtype, bad", [
    (bool, []),
    (np.int8, [-1, 2, 127, -128]),
    (np.int64, [-1, 2, 255, 256, 257, -255, np.iinfo(np.int64).min]),
    (np.uint64, [2, 255, 256, 257, np.iinfo(np.uint64).max]),
])
@pytest.mark.parametrize("order", ["C", "F"])
def test_batch_validity_matches_scalar_on_any_dtype(dtype, bad, order):
    # Signed digits are read as unsigned and runs as uint8 copies, so a
    # negative digit, and one whose low byte is 0 or 1 (256, 257, -255),
    # must still make its row invalid.  Runs of three 1s sit at the lowest
    # and the highest digit.
    width = 9
    rows = [[1, 1, 1] + [0] * (width - 3), [0] * (width - 3) + [1, 1, 1],
            [1, 1, 0, 1, 1, 0, 1, 1, 0], [0] * width, [1] * width]
    rows += [[0] * k + [value] + [1] * (width - k - 1) for value in bad for k in (0, 4, width - 1)]
    rows += [[value, 1, 1] + [0] * (width - 3) for value in bad]
    rng = np.random.default_rng(len(bad))
    rows += rng.choice([0, 1], size=(200, width)).tolist()
    digits = np.array(rows, dtype=object).astype(dtype, order=order)
    assert digits.flags.f_contiguous == (order == "F")
    expected = [is_valid_rep(r) for r in digits.tolist()]
    assert is_valid_rep_many(digits).tolist() == expected
    assert expected[:5] == [False, False, True, True, False]
    assert not any(expected[5:5 + 4 * len(bad)])
    assert any(expected[5 + 4 * len(bad):]) and not all(expected[5 + 4 * len(bad):])


@pytest.mark.parametrize("row", [[1, 1, 1], [0, 2, 0], [0, 0, 1, 1, 1, 0]])
def test_batch_decode_rejects_invalid(row):
    digits = np.zeros((3, len(row)), dtype=np.uint8)
    digits[1] = row
    with pytest.raises(InvalidRepresentationError):
        zeckendorf_decode_many(digits)


@pytest.mark.parametrize("ns", [[-1], [5, -3, 7], [1.5], [[1, 2]]])
def test_batch_encode_rejects_bad_input(ns):
    with pytest.raises(InvalidInputError):
        zeckendorf_encode_many(ns)


def test_batch_codec_int64_limit():
    top = np.iinfo(np.int64).max
    digits = zeckendorf_encode_many([top])
    assert digits[0].tolist() == zeckendorf_encode(top)
    assert zeckendorf_decode_many(digits).tolist() == [top]
    with pytest.raises(InvalidInputError):
        zeckendorf_encode_many(np.array([top + 1], dtype=np.uint64))
    overflow = np.zeros((1, digits.shape[1]), dtype=np.uint8)
    overflow[0, -2:] = 1
    with pytest.raises(InvalidInputError):
        zeckendorf_decode_many(overflow)


def test_batch_encode_is_column_major():
    digits = zeckendorf_encode_many(range(1000))
    assert digits.T.flags.c_contiguous
    for n in (0, 1, 6, 7, 500, 999):
        scalar = zeckendorf_encode(n)
        assert digits[n].tolist() == scalar + [0] * (digits.shape[1] - len(scalar))


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
def test_batch_validity_and_decode_ignore_memory_order(dtype):
    digits = zeckendorf_encode_many(range(5000)).astype(dtype)
    if dtype is not bool:
        digits[[10, 400, 4999], :3] = [[1, 1, 1], [0, 2, 0], [1, 1, 1]]
    c_order, f_order = np.ascontiguousarray(digits), np.asfortranarray(digits)
    assert c_order.flags.c_contiguous and f_order.flags.f_contiguous
    valid = is_valid_rep_many(c_order)
    assert valid.tolist() == [is_valid_rep(r) for r in c_order.tolist()]
    assert (is_valid_rep_many(f_order) == valid).all()
    decoded = zeckendorf_decode_many(c_order, invalid=-7)
    assert (zeckendorf_decode_many(f_order, invalid=-7) == decoded).all()
    assert (decoded[~valid] == -7).all()
    assert decoded[valid].tolist() == [zeckendorf_decode(r) for r in c_order[valid].tolist()]


def test_batch_decode_invalid_sentinel_only_replaces_invalid_rows():
    rows = np.array([[0, 1, 1, 0], [1, 1, 1, 0], [0, 0, 0, 1], [0, 3, 0, 0]], dtype=np.uint8)
    assert zeckendorf_decode_many(rows, invalid=-1).tolist() == [6, -1, 7, -1]
    with pytest.raises(InvalidRepresentationError):
        zeckendorf_decode_many(rows)


def test_prefix_parikh_examples():
    # t = 0102010010201...: the prefixes of lengths 0, 1, 2, 4 and 7.
    digits = zeckendorf_encode_many([0, 1, 2, 4, 7])
    assert prefix_parikh_from_digits(digits).tolist() == [
        [0, 1, 1, 2, 4], [0, 0, 1, 1, 2], [0, 0, 0, 1, 1]]
    assert prefix_parikh_from_digits(zeckendorf_encode_many([])).shape == (3, 0)
    with pytest.raises(InvalidInputError):
        zeckendorf_encode_many([-1])
    with pytest.raises(InvalidInputError):
        prefix_parikh_from_digits(np.zeros((1, 100), dtype=np.uint8))


def test_tau_parikh_table_is_the_matrix_powers():
    # Every width through 72, the widest whose terms fit in int64.
    for width in range(73):
        table = tau_parikh_table(width)
        assert table.dtype == np.int64
        assert table.tolist() == matrix_power_parikh_table(width).tolist()
    assert table.sum(axis=0).tolist() == [tribonacci_number(k) for k in range(72)]
    with pytest.raises(InvalidInputError, match="digit rows wider than 72 overflow int64"):
        tau_parikh_table(73)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2_000_000), min_size=1, max_size=200))
@example([2_000_000])
@example([0, tribonacci_number(23), tribonacci_number(23) - 1])
def test_prefix_parikh_matches_prefix_counts(tribo_2e6, ns):
    # The Dumont-Thomas identity against letters counted along the word.
    expected = tribo_2e6.prefix_counts[:, ns]
    got = prefix_parikh_from_digits(zeckendorf_encode_many(ns))
    assert got.dtype == np.int64
    assert (got == expected).all()
    assert (got.sum(axis=0) == ns).all()


# -- the int32/int64 boundary of the batch kernels ---------------------------

INT32_MAX, INT64_MAX = np.iinfo(np.int32).max, np.iinfo(np.int64).max
_NEAR_TERMS = sorted({t + d for t in tribonacci_numbers_upto(2**40) for d in (-1, 0)})


@pytest.mark.parametrize("top", [INT32_MAX, INT32_MAX + 1, INT64_MAX])
def test_batch_kernels_at_the_int32_boundary(top):
    # max(ns) picks the encoder's dtype: int32 through 2**31 - 1, int64 from
    # 2**31 on.  Every T_k - 1 and T_k below top rides along.
    ns = [n for n in _NEAR_TERMS if n < top] + [top]
    digits = zeckendorf_encode_many(np.array(ns, dtype=np.int64))
    for n, row in zip(ns, digits.tolist()):
        scalar = zeckendorf_encode(n)
        assert row == scalar + [0] * (len(row) - len(scalar))
    assert zeckendorf_decode_many(digits).tolist() == ns
    got = prefix_parikh_from_digits(digits)
    assert got.dtype == np.int64
    assert (got == einsum_prefix_parikh(digits)).all()
    assert got.sum(axis=0).tolist() == ns


def _largest_rows(width: int) -> np.ndarray:
    """The largest valid row of each width up to ``width`` (digits 110110...
    from the top), zero-padded to ``width``."""
    rows = np.zeros((width, width), dtype=np.uint8)
    for w in range(1, width + 1):
        rows[w - 1, :w] = [(w - 1 - k) % 3 != 2 for k in range(w)]
    return rows


@pytest.mark.parametrize("width", [34, 35])
def test_batch_decode_at_the_int32_boundary(width):
    # The terms of 34 digits sum to 1,349,284,787, of 35 past 2**31.
    rows = _largest_rows(width)
    assert zeckendorf_decode_many(rows).tolist() == [zeckendorf_decode(r) for r in rows.tolist()]
    assert (zeckendorf_decode_many(rows) == einsum_prefix_parikh(rows).sum(axis=0)).all()
    rows[3, :3] = 1
    for sentinel in (-1, -(2**40), INT64_MAX):
        decoded = zeckendorf_decode_many(rows, invalid=sentinel)
        assert decoded.dtype == np.int64
        assert decoded[3] == sentinel
        assert decoded[4:].tolist() == [zeckendorf_decode(r) for r in rows[4:].tolist()]


@pytest.mark.parametrize("width", [25, 26, 33, 34, 72])
@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_prefix_parikh_of_non_binary_digits(width, dtype):
    # 255 times the term sum passes 2**31 from 26 digits on, 2 times it from
    # 34 on; int64 rows also hold -255.  At 72 digits, the widest int64
    # holds, both sums wrap, and alike.
    rng = np.random.default_rng(width)
    choices = [0, 1, 2, 255] + ([-255] if dtype is np.int64 else [])
    rows = rng.choice(choices, size=(200, width)).astype(dtype)
    rows[0] = 255
    got = prefix_parikh_from_digits(rows)
    assert got.dtype == np.int64
    assert (got == einsum_prefix_parikh(rows)).all()
    assert not is_valid_rep_many(rows).any()
    assert (zeckendorf_decode_many(rows, invalid=-3) == -3).all()
    with pytest.raises(InvalidRepresentationError):
        zeckendorf_decode_many(rows)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
@pytest.mark.parametrize("order", ["C", "F"])
def test_prefix_parikh_ignores_dtype_and_memory_order(dtype, order):
    digits = zeckendorf_encode_many(range(5000))
    rows = np.array(digits, dtype=dtype, order=order)
    if dtype is not bool:
        rows[[10, 400, 4999], :3] = [[1, 1, 1], [0, 2, 0], [2, 0, 2]]
    got = prefix_parikh_from_digits(rows)
    assert got.dtype == np.int64
    assert (got == einsum_prefix_parikh(rows)).all()
