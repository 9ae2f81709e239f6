"""Generation of prefixes of fixed points of substitutions.

Words are sequences of small integer symbols (one byte each), held as
``bytes``.  A fixed point t of a morphism τ is also the fixed point of
every power τ^j, so its buffer grows by appending the τ^j images of its
next unexpanded symbols: the image of a prefix of t is again a prefix, so
each symbol is expanded once, and the images are long, so few symbols are.
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

#: Prefixes of this many symbols or more have no int32 prefix counts: the
#: last column of the counts of N symbols holds N.
PREFIX_COUNTS_LIMIT = 1 << 31

_MAX_ALPHABET = 256  # one byte per symbol

#: A buffer grows by the images of τ^j for the largest j that keeps every
#: image within ``IMAGE_LIMIT`` symbols and all of them together within
#: ``IMAGES_TOTAL_LIMIT`` (1 MiB, whatever the alphabet's size).
IMAGE_LIMIT = 1 << 16
IMAGES_TOTAL_LIMIT = 1 << 20


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
            if im and max(im) >= m:
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
    """Concatenation of the images of the symbols of w, in order, joined
    once: it holds no more than the words in and out, however unequal the
    image lengths."""
    data = as_word(w)
    if data and max(data) >= morphism.alphabet_size:
        raise InvalidInputError("word uses symbols outside the morphism's alphabet")
    images = morphism.images
    return b"".join([images[c] for c in data])


def power_images(morphism: Morphism) -> tuple[bytes, ...]:
    """The images τ^j(a) of every symbol a under the largest power j >= 1
    of τ that keeps each of them within ``IMAGE_LIMIT`` symbols and their
    total within ``IMAGES_TOTAL_LIMIT`` (j = 1 when τ itself is past
    either).

    j is found by binary lifting: τ^(2^i) by squaring while the squares
    stay within the limits, then each smaller of those powers composed on,
    largest first, where the result stays within them.  Powers of τ commute,
    so each composition joins the long images along the short ones.  A
    composition whose images are no longer in total than the current ones
    is not taken, so an erasing morphism stops composing once the total
    length stops growing.
    """
    powers = [morphism.images]
    while (square := _compose(powers[-1], powers[-1])) is not None:
        powers.append(square)
    images = powers.pop()
    for power in reversed(powers):
        images = _compose(images, power) or images
    return images


def _compose(outer: tuple[bytes, ...], inner: tuple[bytes, ...]) -> tuple[bytes, ...] | None:
    """The images of outer after inner, or None when one of them would be
    longer than ``IMAGE_LIMIT``, or their total past ``IMAGES_TOTAL_LIMIT``
    or no longer than inner's.  The lengths are summed before any image is
    built, and each image is ``apply_morphism`` of outer to an image of
    inner."""
    lengths = np.array([len(im) for im in outer])
    sizes = [int(lengths[np.frombuffer(im, dtype=np.uint8)].sum()) for im in inner]
    total = sum(sizes)
    if max(sizes) > IMAGE_LIMIT or not sum(map(len, inner)) < total <= IMAGES_TOTAL_LIMIT:
        return None
    morphism = Morphism(outer)
    return tuple(apply_morphism(morphism, im) for im in inner)


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
    a buffer never gets shorter.  ``power_images`` holds the τ^j images the
    buffer grows by (see ``power_images``); ``blocks`` hands out a long
    prefix as those images without materializing it.  ``prefix_counts``
    counts the whole buffer on every read (``prefix_count_blocks``) and
    keeps nothing; the package's own readers count only what they read.

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
        self.power_images = power_images(morphism)
        # The image of the seed starts with the seed.
        self._symbols: bytes = bytes((seed,))
        self._tail = self.power_images[seed][1:]
        self._expanded = 1
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

    def _checked_length(self, length: int) -> int:
        length = integer_in(length, "buffer length", 0)
        if length > self.max_symbols:
            raise BufferLimitError(
                f"requested {length} symbols exceeds the configured cap of {self.max_symbols}"
            )
        return length

    def ensure(self, min_len: int) -> "WordBuffer":
        """Grow the buffer to at least min_len symbols (no-op if long enough).

        The buffer holds τ^j of the fixed point's first ``_expanded``
        symbols, cut at its length, and ``_tail`` the cut-off rest
        (``_expand``), so each symbol is expanded once over the life of the
        buffer.  ``min_len`` must be an integer >= 0.  Growth checks the
        length again, grows and stores under the buffer's lock, so it never
        shrinks.
        """
        min_len = self._checked_length(min_len)
        if min_len <= len(self._symbols):
            return self
        with self._growth:
            if min_len <= len(self._symbols):  # grown while this call waited
                return self
            self._symbols, self._tail, self._expanded = _expand(
                self.power_images, self._symbols, self._tail, self._expanded, min_len)
            return self

    def blocks(self, n: int) -> list[bytes]:
        """The first n symbols of the fixed point as consecutive blocks:
        the ``power_images`` of its first symbols, in order, the last one
        cut at n.  The fixed point is its own τ^j image, so the buffer grows
        only to those first symbols, a small fraction of n.  ``n`` is
        refused as ``ensure`` refuses it, before any growth."""
        n = self._checked_length(n)
        blocks, size, k = [], 0, 0
        while size < n:
            if k == len(self._symbols):
                self.ensure(max(min(2 * k, n), k + 1))  # doubling, up to n
            image = self.power_images[self._symbols[k]]
            if size + len(image) > n:
                image = image[: n - size]
            blocks.append(image)
            size += len(image)
            k += 1
        return blocks

    @property
    def prefix_counts(self) -> np.ndarray:
        """Read-only int32 array of shape (alphabet_size, len + 1); entry
        [a, N] counts the letter a among the first N symbols: one block of
        ``prefix_count_blocks``, counted on each read.  A buffer of
        ``PREFIX_COUNTS_LIMIT`` (2**31) symbols or more raises
        ``BufferLimitError``."""
        columns = len(self) + 1
        ((_, counts),) = prefix_count_blocks(self, columns, columns)
        counts.flags.writeable = False
        return counts

    def slice(self, start: int, length: int) -> bytes:
        """The factor occurring at position start (the buffer is not grown)."""
        start = integer_in(start, "window start", None)
        length = integer_in(length, "window length", None)
        if start < 0 or length < 0 or start + length > len(self._symbols):
            raise RangeError(
                f"window [{start}, {start + length}) outside buffer of length {len(self._symbols)}"
            )
        return self._symbols[start : start + length]


def _expand(images: tuple[bytes, ...], symbols: bytes, tail: bytes, expanded: int,
            min_len: int) -> tuple[bytes, bytes, int]:
    """``(symbols, tail, expanded)`` of a buffer grown to min_len symbols.

    The buffer holds the images of its first ``expanded`` symbols, cut at
    its length, and ``tail`` the cut-off rest.  The images of the next
    symbols are appended whole until they reach min_len, and the last one
    is cut there; all of it is joined once.  The next symbols are read from
    ``symbols``, and, only if those run out (a buffer short next to its
    growth), from everything joined so far.  A word that stops growing
    raises ``ConfigurationError``.
    """
    parts, size, source = [symbols, tail], len(symbols) + len(tail), symbols
    while size < min_len:
        if expanded == len(source):
            source = b"".join(parts)
            parts = [source]
            if expanded == len(source):
                raise ConfigurationError("morphism does not grow the buffer; cannot reach requested length")
        image = images[source[expanded]]
        parts.append(image)
        size += len(image)
        expanded += 1
    last = parts[-1]
    cut = len(last) - (size - min_len)
    parts[-1] = last[:cut]
    return b"".join(parts), last[cut:], expanded


def prefix_count_blocks(buffer: WordBuffer, stop: int, block: int,
                        letters: Sequence[int] | None = None,
                        dtype=np.int32) -> Iterator[tuple[int, np.ndarray]]:
    """The per-letter prefix counts of the buffer's first ``stop`` columns,
    as an iterator of ``(start, counts)``: arrays of ``block`` columns (the
    last one shorter), row i of a block for ``letters[i]`` (every letter by
    default), entry [i, j] the count of ``letters[i]`` among the first
    start + j symbols: the package's one count of letters along the word.

    Each block is counted from its own symbols plus the last column of the
    block before, so no more than one block of counts exists at a time.
    int32 counts (the default) of ``PREFIX_COUNTS_LIMIT`` (2**31) symbols
    or more raise ``BufferLimitError``; unsigned counts, and the carry
    between blocks, wrap modulo 2**bits, so their differences up to the
    type's maximum stay exact.  ``stop`` is at most ``len(buffer) + 1``;
    the arguments are checked on the call, before the first block.
    """
    stop = integer_in(stop, "prefix count columns", 0, len(buffer) + 1)
    block = integer_in(block, "block columns", 1)
    m = buffer.alphabet_size
    letters = range(m) if letters is None else [integer_in(a, "letter", 0, m - 1) for a in letters]
    types = map(np.dtype, (np.int32, np.uint8, np.uint16, np.uint32, np.uint64))
    count_type = next((t for t in types if t == dtype), None)
    if count_type is None:
        raise InvalidInputError(f"prefix counts are int32 or unsigned, not {dtype!r}")
    if count_type == np.int32 and stop - 1 >= PREFIX_COUNTS_LIMIT:
        raise BufferLimitError(
            f"{stop - 1} symbols reach the int32 prefix count limit of {PREFIX_COUNTS_LIMIT}")
    data = np.frombuffer(buffer.symbols, dtype=np.uint8)
    return _count_blocks(data, stop, block, letters, count_type)


def _count_blocks(data: np.ndarray, stop: int, block: int, letters: Sequence[int],
                  dtype: np.dtype) -> Iterator[tuple[int, np.ndarray]]:
    carry, wrap = [0] * len(letters), int(np.iinfo(dtype).max)
    for start in range(0, stop, block):
        counts = np.empty((len(letters), min(block, stop - start)), dtype=dtype)
        # Column 0 counts the symbols before start: the previous block's
        # last column counts all but the one just before start.  An
        # unsigned carry wraps (wrap is 2**bits - 1); int32 never reaches it.
        symbols = data[start : start + counts.shape[1] - 1]
        before = int(data[start - 1]) if start else -1
        for i, a in enumerate(letters):
            row = counts[i]
            row[0] = (carry[i] + (before == a)) & wrap
            np.equal(symbols, a, out=row[1:])
            np.cumsum(row, dtype=dtype, out=row)
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
