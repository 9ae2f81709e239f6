"""Generation of prefixes of fixed points of substitutions.

Words are sequences of small integer symbols (one byte each), held as
``bytes``.  The buffer of a fixed point grows by appending the images of
its next unexpanded symbols: the image of a prefix of the fixed point is
again a prefix, so each symbol is expanded once.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import (
    BufferLimitError,
    ConfigurationError,
    InvalidInputError,
    RangeError,
    integer_in,
)

Symbol = int
WordLike = Union[bytes, bytearray, str, Sequence[int]]

#: Default hard cap on materialized symbols (2**27).
DEFAULT_MAX_SYMBOLS = 1 << 27

#: Buffers of this many symbols or more have no prefix counts: the counts
#: are int32, and the last column of a buffer of N symbols holds N.
PREFIX_COUNTS_LIMIT = 1 << 31

_MAX_ALPHABET = 256  # one byte per symbol


def as_word(w: WordLike) -> bytes:
    """Normalize a word given as bytes, a digit string, or an int sequence."""
    if isinstance(w, bytes):
        return w
    if isinstance(w, bytearray):
        return bytes(w)
    if isinstance(w, str):
        try:
            return bytes(int(c) for c in w)
        except ValueError:
            raise InvalidInputError(f"word text must be decimal digits, got {w!r}") from None
    try:
        return bytes(w)
    except ValueError:
        raise InvalidInputError("word symbols must be integers in 0..255") from None


#: ``bytes.translate`` table from the symbols 0..9 to their ASCII digits;
#: every other byte maps to "?", which is not a digit.
_TEXT = bytes(b"0123456789" + b"?" * (256 - 10))


def word_to_text(w: WordLike) -> str:
    """ASCII digit form, one digit per symbol, no separators: the form
    ``as_word`` reads back.  A symbol of 10 or more has no one-digit form
    and raises ``InvalidInputError``."""
    data = as_word(w)
    text = data.translate(_TEXT)
    if data and not text.isdigit():
        raise InvalidInputError(
            f"symbol {max(data)} has no one-digit text form; text covers the symbols 0..9")
    return text.decode("ascii")


class Morphism:
    """Map from each symbol of an alphabet {0..m-1} to a finite word over it."""

    __slots__ = ("alphabet_size", "images")

    def __init__(self, images: Iterable[WordLike]):
        images = tuple(as_word(im) for im in images)
        m = integer_in(len(images), "alphabet size", 2, _MAX_ALPHABET)
        for a, im in enumerate(images):
            if any(c >= m for c in im):
                raise InvalidInputError(f"image of {a} uses symbols outside the {m}-letter alphabet")
        self.alphabet_size = m
        self.images = images

    def __repr__(self) -> str:
        return f"Morphism({[list(im) for im in self.images]})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Morphism) and self.images == other.images

    def is_prolongable_at(self, seed: Symbol) -> bool:
        """The image of seed begins with seed and has length >= 2, so the
        iterates converge to an infinite fixed point."""
        if not 0 <= seed < self.alphabet_size:
            return False
        im = self.images[seed]
        return len(im) >= 2 and im[0] == seed


def apply_morphism(morphism: Morphism, w: WordLike) -> bytes:
    """Concatenation of the images of the symbols of w, in order: each
    symbol picks its row of a zero-padded image table, and a mask of the
    image lengths keeps the image part of each row, in row-major order."""
    data = np.frombuffer(as_word(w), dtype=np.uint8)
    if data.size and data.max() >= morphism.alphabet_size:
        raise InvalidInputError("word uses symbols outside the morphism's alphabet")
    images = morphism.images
    lengths = np.array([len(im) for im in images])
    table = np.zeros((len(images), lengths.max()), dtype=np.uint8)
    for a, im in enumerate(images):
        table[a, : len(im)] = np.frombuffer(im, dtype=np.uint8)
    mask = np.arange(table.shape[1]) < lengths[:, None]
    return table[data][mask[data]].tobytes()


def mbonacci_morphism(m: int) -> Morphism:
    """The order-m generalization of the Fibonacci/Tribonacci morphism:
    i maps to the two-letter word 0,(i+1) for i < m-1, and m-1 maps to 0."""
    m = integer_in(m, "m-bonacci order", 2, _MAX_ALPHABET)
    images = [bytes((0, i + 1)) for i in range(m - 1)]
    images.append(bytes((0,)))
    return Morphism(images)


def tribonacci_morphism() -> Morphism:
    """0 -> 01, 1 -> 02, 2 -> 0."""
    return mbonacci_morphism(3)


class WordBuffer:
    """Materialized prefix of the fixed point of a morphism.

    The symbol store is an immutable ``bytes`` object that is replaced
    wholesale by ``ensure``; readers holding views of the old content are
    never invalidated.  Growth is serialized by the buffer's own lock, and
    a buffer never gets shorter.  ``prefix_counts``
    publishes read-only int32 per-letter prefix counts of the whole buffer,
    computed on first read after each growth; the package's own readers
    count only what they read instead (``prefix_count_blocks``, or the
    symbols themselves).

    ``index`` holds the ``FactorIndex`` most recently built over the
    buffer, or None.  Only ``factors.factor_index`` writes it, and always
    replaces it whole, so a reader holding an older index keeps a valid one.

    ``max_symbols`` is the one per-run resource cap: it bounds the
    materialized prefix.  The window starts a certified factor query may
    examine are derived from the alphabet and the length alone (see
    ``factors.position_cap``).
    """

    def __init__(self, morphism: Morphism, seed: Symbol,
                 max_symbols: int = DEFAULT_MAX_SYMBOLS):
        seed = integer_in(seed, "seed", 0, morphism.alphabet_size - 1)
        max_symbols = integer_in(max_symbols, "max_symbols", 1)
        if not morphism.is_prolongable_at(seed):
            raise ConfigurationError(
                f"morphism is not prolongable at {seed}: image must start with the seed and have length >= 2"
            )
        self.morphism = morphism
        self.seed = seed
        self.max_symbols = max_symbols
        # The image of the seed starts with the seed.
        self._symbols: bytes = bytes((seed,))
        self._tail = morphism.images[seed][1:]
        self._expanded = 1
        self._prefix_counts: np.ndarray | None = None
        self._growth = threading.Lock()
        self.index = None

    def __len__(self) -> int:
        return len(self._symbols)

    @property
    def alphabet_size(self) -> int:
        return self.morphism.alphabet_size

    @property
    def symbols(self) -> bytes:
        return self._symbols

    def ensure(self, min_len: int) -> "WordBuffer":
        """Grow the buffer to at least min_len symbols (no-op if long enough).

        The image of the fixed point's first ``_expanded`` symbols is a
        prefix of it; the buffer holds that image cut at its length,
        and ``_tail`` the cut-off rest.  Growth takes symbols from the tail
        first, then appends the images of just enough of the next symbols,
        so each symbol is expanded once over the life of the buffer.
        ``min_len`` must be an integer >= 0.  Growth checks the length again,
        grows and stores under the buffer's lock, so it never shrinks.
        """
        min_len = integer_in(min_len, "buffer length", 0)
        if min_len > self.max_symbols:
            raise BufferLimitError(
                f"requested {min_len} symbols exceeds the configured cap of {self.max_symbols}"
            )
        if min_len <= len(self._symbols):
            return self
        with self._growth:
            if min_len <= len(self._symbols):  # grown while this call waited
                return self
            w, k = self._symbols + self._tail, self._expanded
            sizes = np.array([len(im) for im in self.morphism.images])
            while len(w) < min_len:
                if k == len(w):
                    raise ConfigurationError("morphism does not grow the buffer; cannot reach requested length")
                # The next min_len - len(w) symbols expand to enough when no
                # image is empty, so the sizes of no more of them are summed.
                ahead = np.frombuffer(w, dtype=np.uint8, offset=k,
                                      count=min(len(w) - k, min_len - len(w)))
                ends = np.cumsum(sizes[ahead])
                stop = k + min(int(np.searchsorted(ends, min_len - len(w))) + 1, len(ends))
                w, k = w + apply_morphism(self.morphism, w[k:stop]), stop
            self._symbols, self._tail, self._expanded = w[:min_len], w[min_len:], k
            self._prefix_counts = None
            return self

    @property
    def prefix_counts(self) -> np.ndarray:
        """Read-only int32 array of shape (alphabet_size, len + 1); entry
        [a, N] counts the letter a among the first N symbols.  A buffer of
        ``PREFIX_COUNTS_LIMIT`` (2**31) symbols or more raises
        ``BufferLimitError``."""
        pc = self._prefix_counts
        if pc is None:
            if len(self._symbols) >= PREFIX_COUNTS_LIMIT:
                raise BufferLimitError(
                    f"{len(self._symbols)} symbols reach the int32 prefix count limit "
                    f"of {PREFIX_COUNTS_LIMIT}"
                )
            data = np.frombuffer(self._symbols, dtype=np.uint8)
            m = self.alphabet_size
            pc = np.zeros((m, len(data) + 1), dtype=np.int32)
            for a in range(m):
                np.cumsum(data == a, dtype=np.int32, out=pc[a, 1:])
            pc.flags.writeable = False
            self._prefix_counts = pc
        return pc

    def slice(self, start: int, length: int) -> bytes:
        """The factor occurring at position start (the buffer is not grown)."""
        start = integer_in(start, "window start", None)
        length = integer_in(length, "window length", None)
        if start < 0 or length < 0 or start + length > len(self._symbols):
            raise RangeError(
                f"window [{start}, {start + length}) outside buffer of length {len(self._symbols)}"
            )
        return self._symbols[start : start + length]


def prefix_count_blocks(buffer: WordBuffer, stop: int, block: int,
                        letters: Sequence[int] | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """The prefix counts of the first ``stop`` columns of
    ``buffer.prefix_counts``, as an iterator of ``(start, counts)``: int32
    arrays of ``block`` columns (the last one shorter), row i of a block
    for ``letters[i]`` (every letter by default), entry [i, j] the count of
    ``letters[i]`` among the first start + j symbols.

    Each block is counted from its own symbols plus the last column of the
    block before, so no more than one block of counts exists at a time.
    ``stop`` is at most ``len(buffer) + 1``; counting ``PREFIX_COUNTS_LIMIT``
    (2**31) symbols or more raises ``BufferLimitError``.  The arguments are
    checked on the call, before the first block.
    """
    stop = integer_in(stop, "prefix count columns", 0, len(buffer) + 1)
    block = integer_in(block, "block columns", 1)
    m = buffer.alphabet_size
    letters = range(m) if letters is None else [integer_in(a, "letter", 0, m - 1) for a in letters]
    if stop - 1 >= PREFIX_COUNTS_LIMIT:
        raise BufferLimitError(
            f"{stop - 1} symbols reach the int32 prefix count limit of {PREFIX_COUNTS_LIMIT}")
    return _count_blocks(np.frombuffer(buffer.symbols, dtype=np.uint8), stop, block, letters)


def _count_blocks(data: np.ndarray, stop: int, block: int,
                  letters: Sequence[int]) -> Iterator[tuple[int, np.ndarray]]:
    carry = [0] * len(letters)
    for start in range(0, stop, block):
        counts = np.empty((len(letters), min(block, stop - start)), dtype=np.int32)
        # Column 0 counts the symbols before start: the previous block's
        # last column counts all but the one just before start.
        symbols = data[start : start + counts.shape[1] - 1]
        before = int(data[start - 1]) if start else -1
        for i, a in enumerate(letters):
            row = counts[i]
            row[0] = carry[i] + (before == a)
            np.equal(symbols, a, out=row[1:])
            np.cumsum(row, out=row)
            carry[i] = int(row[-1])
        yield start, counts


def fixed_point_prefix(morphism: Morphism, seed: Symbol, min_len: int,
                       max_symbols: int = DEFAULT_MAX_SYMBOLS) -> WordBuffer:
    """Buffer holding at least min_len symbols of the fixed point of the
    morphism at the given seed."""
    min_len = integer_in(min_len, "prefix length", 1)
    return WordBuffer(morphism, seed, max_symbols=max_symbols).ensure(min_len)


def tribonacci_word(min_len: int = 1, max_symbols: int = DEFAULT_MAX_SYMBOLS) -> WordBuffer:
    """Prefix buffer of the Tribonacci word 0102010010201..."""
    return fixed_point_prefix(tribonacci_morphism(), 0, min_len, max_symbols=max_symbols)


def mbonacci_word(m: int, min_len: int = 1, max_symbols: int = DEFAULT_MAX_SYMBOLS) -> WordBuffer:
    """Prefix buffer of the m-bonacci word."""
    return fixed_point_prefix(mbonacci_morphism(m), 0, min_len, max_symbols=max_symbols)
