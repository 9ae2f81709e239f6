"""Tribonacci numbers and the Zeckendorf-style numeration they induce.

The sequence is 1, 2, 4, 7, 13, 24, ... (each term the sum of the previous
three).  Every natural number N has a unique expansion N = sum(p_k * T_k)
with binary digits p_k subject to the rule that two consecutive 1-digits
force a 0 two places below: p_k = p_{k-1} = 1 implies p_{k-2} = 0.
Digits are stored least-significant first throughout.

The scalar codec (``zeckendorf_encode``, ``zeckendorf_decode``,
``is_valid_rep``) is the reference.  It works on plain lists of digits:
the encoder returns one with no trailing zeros (empty for N = 0), and the
decoder and the check take any digit sequence.  The ``*_many`` functions
apply the same rules to a whole array of values at once, one row of
digits per value.  They store the digits column-major -- one contiguous
run of values per digit position -- so each per-digit pass reads
contiguous memory.  Their encoder and decoder take or add each term as a
multiply-accumulate over the whole row, with no masked passes, and each
batch kernel computes in int32 where a bound proves every value it forms
fits (``max(ns)`` for the encoder, the largest digit times the sum of the
row's terms for the decoder and the prefix vectors), in int64 otherwise;
what they return does not depend on that choice.

The digits of N also spell out the prefix of length N of the Tribonacci
word (Dumont and Thomas, 1989): t[:N] is the concatenation, from the most
significant set digit down, of the words tau^k(0), one per set digit k,
so its Parikh vector is sum(p_k * M^k e_0) for the incidence matrix M
(``prefix_parikh_from_digits``).  By Horner's rule that sum is one pass
from the top digit down, S <- M S + p_k e_0, and M (a, b, c) =
(a + b + c, a, b) for the Tribonacci substitution 0 -> 01, 1 -> 02,
2 -> 0.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidRepresentationError,
    InvariantViolationError,
    integer_in,
)


def _terms_until(done) -> list[int]:
    """The terms 1, 2, 4, 7, ... from the start until ``done(terms)``."""
    t = [1, 2, 4]
    while not done(t):
        t.append(t[-1] + t[-2] + t[-3])
    return t


#: Every term up to 2**64, built once at import and never changed.  It
#: serves the int64 batch codec and every scalar call in that range.
_TERMS: tuple[int, ...] = tuple(_terms_until(lambda t: t[-1] > 2**64)[:-1])


def _terms(index: int = 0, value: int = 0) -> tuple[int, ...] | list[int]:
    """Terms through at least ``index`` and past ``value``: the import-time
    tuple when it reaches that far, else a longer list local to the call,
    so arbitrary Python ints still work."""
    if index < len(_TERMS) and value < _TERMS[-1]:
        return _TERMS
    return _terms_until(lambda t: len(t) > index and t[-1] > value)


def tribonacci_number(k: int) -> int:
    """k-th generalized-Fibonacci number of order 3 (1, 2, 4, 7, 13, ...).

    Equals the length of the k-th iterate of the Tribonacci morphism on "0".
    """
    k = integer_in(k, "index")
    return _terms(index=k)[k]


def tribonacci_numbers_upto(value: int) -> list[int]:
    """All sequence terms <= value, in increasing order."""
    value = integer_in(value, "value", None)
    if value < 1:
        return []
    terms = _terms(value=value)
    return list(terms[: bisect_right(terms, value)])


def is_valid_rep(digits) -> bool:
    """True iff the digit string satisfies the numeration constraint.

    Digits must be bits, and whenever p_k = p_{k-1} = 1 the next lower
    digit p_{k-2} must be 0 (no run of three consecutive ones).
    """
    digits = list(digits)
    if any(d not in (0, 1) for d in digits):
        return False
    for k in range(2, len(digits)):
        if digits[k] == 1 and digits[k - 1] == 1 and digits[k - 2] == 1:
            return False
    return True


def zeckendorf_encode(n: int) -> list[int]:
    """Digits of n >= 0, least significant first, with no trailing zeros
    (empty for 0): the greedy expansion, which repeatedly subtracts the
    largest term <= remainder."""
    n = integer_in(n, "value to encode")
    if n == 0:
        return []
    terms = tribonacci_numbers_upto(n)
    digits = [0] * len(terms)
    remainder = n
    k = len(terms) - 1
    while remainder > 0:
        k = bisect_right(terms, remainder, 0, k + 1) - 1
        digits[k] = 1
        remainder -= terms[k]
    if not is_valid_rep(digits):
        raise InvalidRepresentationError(f"digit string violates the numeration constraint: {digits}")
    return digits


def zeckendorf_decode(digits) -> int:
    """Weighted sum of a digit sequence, least significant first, against
    the Tribonacci terms; digits that violate the numeration constraint
    raise ``InvalidRepresentationError``."""
    digits = list(digits)
    if not is_valid_rep(digits):
        raise InvalidRepresentationError(f"digit string violates the numeration constraint: {digits}")
    if not digits:
        return 0
    return sum(t for d, t in zip(digits, _terms(index=len(digits) - 1)) if d)


#: Widest digit row whose terms all fit in int64.
_MAX_WIDTH = bisect_right(_TERMS, np.iinfo(np.int64).max)


def _exact_dtype(bound: int) -> type:
    """int32 when no value a batch kernel forms exceeds ``bound`` in
    magnitude and int32 holds it, else int64."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def zeckendorf_encode_many(ns) -> np.ndarray:
    """Greedy expansions of many integers at once.

    Returns a ``(len(ns), width)`` uint8 array whose row i holds the digits
    of ``ns[i]``, least significant first, zero-padded to the width of
    ``max(ns)``; each row equals ``zeckendorf_encode(ns[i])``
    followed by zeros.  The array is the transpose of a C-ordered
    ``(width, len(ns))`` one, so each digit position is contiguous.  Inputs
    must be non-negative integers that fit in int64.
    """
    arr = np.asarray(ns)
    if arr.ndim != 1:
        raise InvalidInputError(f"expected a 1-D sequence of integers, got shape {arr.shape}")
    if arr.size == 0:
        return np.zeros((0, 0), dtype=np.uint8)
    if arr.dtype.kind not in "iu":
        raise InvalidInputError(f"expected integers that fit in int64, got dtype {arr.dtype}")
    if arr.dtype.kind == "i" and arr.min() < 0:
        raise InvalidInputError(f"cannot encode negative integer {arr.min()}")
    if arr.max() > np.iinfo(np.int64).max:
        raise InvalidInputError(f"{arr.max()} does not fit in int64")
    top = int(arr.max())
    dtype = _exact_dtype(top)
    remainder = arr.astype(dtype)
    terms = np.array(tribonacci_numbers_upto(top), dtype=dtype)
    columns = np.zeros((terms.size, arr.size), dtype=np.uint8)
    taken = np.empty_like(remainder)
    # Top-down greedy: after taking T_k the remainder is below T_k, so each
    # term is taken at most once and the digits obey the no-111 rule.
    for k in range(terms.size - 1, -1, -1):
        take = columns[k].view(bool)
        np.greater_equal(remainder, terms[k], out=take)
        np.multiply(take, terms[k], out=taken)
        remainder -= taken
    if remainder.any():
        raise InvariantViolationError("greedy expansion left a non-zero remainder")
    return columns.T


def digit_columns(digits) -> np.ndarray:
    """A 2-D integer digit array as C-ordered ``(width, rows)`` columns:
    no copy for the output of ``zeckendorf_encode_many``.  Every batch
    digit reader goes through it; any other array (float, 3-D) raises
    ``InvalidInputError``."""
    d = np.asarray(digits)
    if d.ndim != 2 or (d.size and d.dtype.kind not in "biu"):
        raise InvalidInputError(f"expected a 2-D integer digit array, got {d.dtype} {d.shape}")
    return np.ascontiguousarray(d.T)


def _valid_columns(columns: np.ndarray) -> np.ndarray:
    """``is_valid_rep`` of each column of the ``(width, rows)`` digits.  A
    negative digit viewed as unsigned is large, so one maximum checks the
    bits; a uint8 cast that changes a digit only changes an invalid row."""
    digits = columns.view(f"u{columns.itemsize}")
    bits = digits.max(axis=0, initial=0) <= 1
    ones = digits.astype(np.uint8, copy=False)
    runs = ones[2:] & ones[1:-1]
    runs &= ones[:-2]
    return bits & ~runs.any(axis=0)


def is_valid_rep_many(digits) -> np.ndarray:
    """Row-wise ``is_valid_rep`` over a 2-D digit array: True where every
    digit is 0 or 1 and no three consecutive digits are all 1."""
    return _valid_columns(digit_columns(digits))


def zeckendorf_decode_many(digits, invalid: int | None = None) -> np.ndarray:
    """Row-wise ``zeckendorf_decode`` of a 2-D digit array, as int64.

    A row that violates the numeration constraint raises
    ``InvalidRepresentationError``, as the scalar decoder does, unless
    ``invalid`` is given: then that row decodes to ``invalid``.  Each digit
    column is multiplied by its term and added to the values.  A valid row
    has digits 0 and 1, so its value is at most the sum of the row's terms;
    the sum is formed in int32 when that bound fits, since every other row
    is replaced.
    """
    columns = digit_columns(digits)
    valid = _valid_columns(columns)
    if invalid is None and not valid.all():
        row = int(np.argmin(valid))
        raise InvalidRepresentationError(
            f"digit row {row} violates the numeration constraint: {columns[:, row].tolist()}"
        )
    width = columns.shape[0]
    if width > _MAX_WIDTH:
        raise InvalidInputError(f"digit rows wider than {_MAX_WIDTH} overflow int64")
    dtype = _exact_dtype(sum(_TERMS[:width]))
    values = np.zeros(columns.shape[1], dtype=dtype)
    term_column = np.empty_like(values)
    # Column by column, so no (width, rows) temporary is formed.
    for column, term in zip(columns, np.array(_TERMS[:width], dtype=dtype)):
        np.multiply(column, term, out=term_column, dtype=dtype, casting="unsafe")
        values += term_column
    # An int64 sum past the int64 range wraps to a negative value: a valid
    # row's value is below the next term, which is below 2**64.
    if (valid & (values < 0)).any():
        raise InvalidInputError("decoded value does not fit in int64")
    values = values.astype(np.int64, copy=False)
    if invalid is not None:
        values[~valid] = invalid
    return values


def prefix_parikh_from_digits(digits) -> np.ndarray:
    """Parikh vectors of the Tribonacci prefixes whose lengths have the
    given digit rows, as a ``(3, rows)`` int64 array.

    Column i is sum(p_k * Parikh(tau^k(0))) over the digits p_k of row i,
    the Dumont-Thomas identity; for the rows of ``zeckendorf_encode_many(ns)``
    it equals ``tribonacci_word(...).prefix_counts[:, ns]``.  It is read in
    Horner form, from the top digit down: (a, b, c) <- (a + b + c + p_k,
    a, b).  Every entry formed is at most the largest digit magnitude times
    the sum of the row's terms, so the pass runs in int32 when that bound
    fits and in int64 otherwise.  The rows are not validated: a row that is
    not a valid representation gives the Parikh vector of a word that is
    not a prefix.
    """
    columns = digit_columns(digits)
    width = columns.shape[0]
    if width > _MAX_WIDTH:
        raise InvalidInputError(f"digit rows wider than {_MAX_WIDTH} overflow int64")
    digit_max = max(int(columns.max()), -int(columns.min())) if columns.size else 0
    dtype = _exact_dtype(digit_max * sum(_TERMS[:width]))
    a, b, c = np.zeros((3, columns.shape[1]), dtype=dtype)
    for digit in columns[::-1]:
        c += a
        c += b
        np.add(c, digit, out=c, dtype=dtype, casting="unsafe")
        a, b, c = c, a, b
    return np.stack((a, b, c)).astype(np.int64, copy=False)


def tau_parikh_table(width: int) -> np.ndarray:
    """Parikh vectors of tau^0(0), ..., tau^(width-1)(0) as the columns of
    a ``(3, width)`` int64 array: row k of the identity is the digit row of
    T_k = |tau^k(0)|.  Read by the exact spectral certificate."""
    return prefix_parikh_from_digits(np.eye(width, dtype=np.uint8))
