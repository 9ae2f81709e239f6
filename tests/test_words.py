import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_parikh, concat_images, count_prefixes, incidence_matrix
from tribalance import words
from tribalance import (
    BufferLimitError,
    ConfigurationError,
    InvalidInputError,
    Morphism,
    RangeError,
    WordBuffer,
    apply_morphism,
    as_word,
    fixed_point_prefix,
    mbonacci_morphism,
    mbonacci_word,
    tribonacci_morphism,
    tribonacci_number,
    tribonacci_word,
    word_to_text,
)


def test_tribonacci_images():
    tau = tribonacci_morphism()
    assert [word_to_text(im) for im in tau.images] == ["01", "02", "0"]


def test_apply_morphism_examples():
    tau = tribonacci_morphism()
    assert word_to_text(apply_morphism(tau, "0")) == "01"
    assert apply_morphism(tau, "") == b""
    assert word_to_text(apply_morphism(tau, "01")) == "0102"


def test_apply_morphism_rejects_bad_symbol():
    tau = tribonacci_morphism()
    with pytest.raises(InvalidInputError):
        apply_morphism(tau, [3])


# m-bonacci for m = 2..6, Thue-Morse, images of length 3 and 4, an empty image.
_MORPHISMS = [mbonacci_morphism(m) for m in range(2, 7)] + [
    Morphism(["01", "10"]),
    Morphism(["012", "2", "1200"]),
    Morphism(["01", "", "2210"]),
]


@settings(max_examples=100)
@given(st.sampled_from(_MORPHISMS), st.data())
def test_apply_morphism_matches_concatenation(morphism, data):
    word = data.draw(st.lists(st.integers(0, morphism.alphabet_size - 1), max_size=300))
    assert apply_morphism(morphism, word) == concat_images(morphism, word)
    assert apply_morphism(morphism, bytes(word)) == concat_images(morphism, word)


def test_apply_morphism_edge_words():
    for morphism in _MORPHISMS:
        m = morphism.alphabet_size
        assert apply_morphism(morphism, b"") == b""
        every = bytes(range(m))
        assert apply_morphism(morphism, every) == concat_images(morphism, every)
        with pytest.raises(InvalidInputError):
            apply_morphism(morphism, [0, m])
        with pytest.raises(InvalidInputError):
            apply_morphism(morphism, [300])


def test_grown_prefixes_match_goldens():
    # sha256 of the symbols as grown by joining the images one by one.
    goldens = [
        (tribonacci_word(1_000_001),
         "3eb38e480ca76bf45f6bf5e9765f890d1beffb81e08da4831cdf36fc0d318f6d"),
        (mbonacci_word(4, 200_000),
         "c2d98fa263ad5275b6bb246e2c8653f883c6565b80556bb439fc08864c2b0dca"),
        (mbonacci_word(6, 200_000),
         "cb9c6981cb79f8ea97221e7000dbba5180f864132c1d9ee4593fa510eff1f587"),
    ]
    for buf, digest in goldens:
        assert hashlib.sha256(buf.symbols).hexdigest() == digest


def test_as_word_rejects_symbols_outside_a_byte():
    assert as_word([0, 255]) == b"\x00\xff"
    for bad in ([300], [-1], [0, 1, 256]):
        with pytest.raises(InvalidInputError):
            as_word(bad)


def test_mbonacci_examples():
    assert [word_to_text(im) for im in mbonacci_morphism(3).images] == ["01", "02", "0"]
    assert [word_to_text(im) for im in mbonacci_morphism(2).images] == ["01", "0"]
    assert [word_to_text(im) for im in mbonacci_morphism(4).images] == ["01", "02", "03", "0"]
    with pytest.raises(InvalidInputError):
        mbonacci_morphism(1)


def test_word_text_is_one_digit_per_symbol():
    assert word_to_text(bytes(range(10))) == "0123456789"
    assert word_to_text(b"") == ""
    assert as_word(word_to_text([9, 0, 3])) == bytes([9, 0, 3])
    # Symbol 10 would print as "10", which reads back as 1, 0.
    for bad in ([0, 10], [255], bytes([1, 2, 63])):
        with pytest.raises(InvalidInputError, match=r"symbol \d+ has no one-digit text form"):
            word_to_text(bad)


def test_morphism_repr_covers_any_alphabet():
    assert repr(tribonacci_morphism()) == "Morphism([[0, 1], [0, 2], [0]])"
    big = mbonacci_morphism(12)
    assert "[0, 10]" in repr(big)
    assert eval(repr(big), {"Morphism": Morphism}) == big


def test_incidence_matrix_tribonacci():
    mat = incidence_matrix(tribonacci_morphism())
    assert mat.tolist() == [[1, 1, 1], [1, 0, 0], [0, 1, 0]]


def test_incidence_matrix_identity():
    ident = Morphism([[0], [1], [2]])
    assert incidence_matrix(ident).tolist() == np.eye(3, dtype=int).tolist()


def test_incidence_matrix_4bonacci():
    mat = incidence_matrix(mbonacci_morphism(4))
    assert mat[0].tolist() == [1, 1, 1, 1]
    for i in range(1, 4):
        assert mat[i].tolist() == [1 if j == i - 1 else 0 for j in range(4)]


def test_incidence_column_sums_are_image_lengths():
    for m in (2, 3, 4, 7):
        mo = mbonacci_morphism(m)
        mat = incidence_matrix(mo)
        assert mat.sum(axis=0).tolist() == [len(im) for im in mo.images]


def test_fixed_point_prefix_examples(tribo):
    assert word_to_text(tribo.slice(0, 14)) == "01020100102010"
    assert word_to_text(tribo.slice(0, 1)) == "0"
    assert word_to_text(tribo.slice(0, 7)) == "0102010"


def test_fibonacci_prefix(fibo):
    assert word_to_text(fibo.slice(0, 8)) == "01001010"


def test_slice_examples(tribo):
    assert tribo.slice(0, 0) == b""
    assert word_to_text(tribo.slice(3, 4)) == "2010"
    with pytest.raises(RangeError):
        tribo.slice(-1, 2)
    with pytest.raises(RangeError):
        tribo.slice(len(tribo), 1)


def test_fixed_point_coherence(tribo):
    # Iterating the morphism from the seed must reproduce prefixes.
    tau = tribo.morphism
    w = b"\x00"
    while len(w) <= 20_000:
        assert tribo.slice(0, len(w)) == w
        w = apply_morphism(tau, w)


def test_iterate_lengths_are_tribonacci_numbers():
    tau = tribonacci_morphism()
    w = b"\x00"
    for k in range(21):
        assert len(w) == tribonacci_number(k)
        w = apply_morphism(tau, w)


def test_prefix_counts_match_direct_count(tribo):
    pc = tribo.prefix_counts
    rng = random.Random(7)
    for n in [0, 1, 2, 3] + [rng.randrange(4, 10_000) for _ in range(50)]:
        direct = brute_parikh(tribo.slice(0, n), 3)
        assert tuple(int(pc[a, n]) for a in range(3)) == direct
    assert pc[:, len(tribo)].sum() == len(tribo)


def test_prefix_counts_are_published_int32(tribo):
    # Counted on each read and kept nowhere: two reads are equal arrays.
    pc = tribo.prefix_counts
    assert pc.dtype == np.int32
    assert not pc.flags.writeable
    assert pc.nbytes == 4 * 3 * (len(tribo) + 1)
    again = tribo.prefix_counts
    assert np.array_equal(again, pc)
    assert not again.flags.writeable


def test_prefix_count_steps(tribo):
    pc = tribo.prefix_counts
    steps = pc[:, 1:2000] - pc[:, 0:1999]
    assert set(np.unique(steps)) <= {0, 1}
    assert (steps.sum(axis=0) == 1).all()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("block, length", [(1, 300), (3, 1000), (2**14, 70_000),
                                           (2**16, 200_000)])
def test_prefix_count_blocks_match_prefix_counts(m, block, length):
    # A buffer of exactly length symbols: stop = length + 1 is every column,
    # as the discrepancy command asks for them; the last block then ends
    # at the buffer's end and must read no symbol past it.
    buf = mbonacci_word(m, length)
    assert len(buf) == length
    pc = count_prefixes(buf.symbols, m)
    assert np.array_equal(buf.prefix_counts, pc)
    for stop in (1, 2, length, length + 1):
        for letters in (None, [m - 1], [1, 0]):
            rows = list(range(m)) if letters is None else letters
            starts, blocks = zip(*words.prefix_count_blocks(buf, stop, block, letters))
            assert starts == tuple(range(0, stop, block))
            assert all(b.dtype == np.int32 and b.shape[0] == len(rows) for b in blocks)
            assert np.array_equal(np.concatenate(blocks, axis=1), pc[rows, :stop])


@pytest.mark.parametrize("dtype, length, sizes", [
    (np.uint8, 5_000, [1, 2, 3, 255, 256, 257, 4096]),
    (np.uint16, 140_000, [255, 256, 4096, 65536]),
], ids=["uint8", "uint16"])
def test_narrow_prefix_counts_wrap(dtype, length, sizes):
    # Unsigned counts wrap modulo 2**bits instead of raising, and so does
    # the carry from one block to the next: one block size starts a block
    # just past the 2**bits-th 0, whose first column wraps to 0.
    buf = tribonacci_word(length)
    modulus = int(np.iinfo(dtype).max) + 1
    expected = count_prefixes(buf.symbols, 3) % modulus
    wrapped = int(np.flatnonzero(np.frombuffer(buf.symbols, dtype=np.uint8) == 0)[modulus - 1])
    for block in sizes + [wrapped + 1, length + 1]:
        for letters in (None, [2, 0]):
            rows = [0, 1, 2] if letters is None else letters
            blocks = [counts for _, counts in words.prefix_count_blocks(
                buf, length + 1, block, letters, dtype=dtype)]
            assert all(b.dtype == dtype for b in blocks)
            assert np.array_equal(np.concatenate(blocks, axis=1), expected[rows])


def test_prefix_count_blocks_refuse_bad_arguments(tribo):
    # Checked on the call, before the first block.
    for stop, block, letters in [(len(tribo) + 2, 10, None), (-1, 10, None), (5, 0, None),
                                 (5, 10, [3]), (5, 10, [-1])]:
        with pytest.raises(InvalidInputError):
            words.prefix_count_blocks(tribo, stop, block, letters)
    assert list(words.prefix_count_blocks(tribo, 0, 10)) == []


def test_prefix_counts_refuse_past_int32(monkeypatch, capsys):
    # The guard is the int32 counts': with its limit lowered, the
    # whole-buffer property, the block generator and the discrepancy
    # command (which counts n_max symbols of its one letter) refuse, and
    # the CLI exits 3 naming the limit.  Unsigned counts wrap, so the
    # window pass, which counts its region in one, has no such limit.
    from tribalance.cli import main

    monkeypatch.setattr(words, "PREFIX_COUNTS_LIMIT", 100)
    with pytest.raises(BufferLimitError):
        mbonacci_word(3, 100).prefix_counts
    assert mbonacci_word(3, 99).prefix_counts.shape == (3, 100)
    with pytest.raises(BufferLimitError, match="int32 prefix count limit of 100"):
        words.prefix_count_blocks(mbonacci_word(3, 100), 101, 16)
    assert len(list(words.prefix_count_blocks(mbonacci_word(3, 100), 100, 16))) == 7
    assert len(list(words.prefix_count_blocks(mbonacci_word(3, 200), 201, 16, dtype=np.uint8))) == 13
    assert main(["discrepancy", "0", "200"]) == 3
    assert "int32 prefix count limit of 100" in capsys.readouterr().err


def test_ones_and_twos_preceded_by_zero(tribo):
    sym = tribo.symbols
    for p in range(1, 50_000):
        if sym[p] in (1, 2):
            assert sym[p - 1] == 0


def test_incidence_parikh_identity(tribo):
    # parikh(image of w) = matrix @ parikh(w) on 1000 random factors.
    tau = tribo.morphism
    mat = incidence_matrix(tau)
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randrange(0, 200)
        start = rng.randrange(0, len(tribo) - n)
        w = tribo.slice(start, n)
        expected = mat @ np.array(brute_parikh(w, 3))
        assert brute_parikh(apply_morphism(tau, w), 3) == tuple(expected.tolist())


def test_growth_is_append_only(tribo):
    head = tribo.slice(0, 1000)
    tribo.ensure(len(tribo) + 1)
    assert tribo.slice(0, 1000) == head


def iterate_images(morphism, seed: int, n: int) -> bytes:
    """The first n symbols of the fixed point, by re-joining the images of
    the whole word until it is long enough."""
    w = bytes((seed,))
    while len(w) < n:
        grown = concat_images(morphism, w)
        assert len(grown) > len(w)
        w = grown
    return w[:n]


@pytest.mark.parametrize("images", [["01", "10"], ["001", "10"], ["01", "12", "20"],
                                    ["0120", "1", "22"], ["0102", "", "2"]])
def test_stepwise_growth_matches_the_iterates(images):
    morphism = Morphism(images)
    whole = iterate_images(morphism, 0, 5000)
    rng = random.Random(7)
    buf = WordBuffer(morphism, 0)
    for n in sorted(rng.sample(range(1, 5001), 40)) + [5000]:
        assert buf.ensure(n).symbols == whole[:n]


def test_each_symbol_is_expanded_once(monkeypatch):
    # The buffer holds the τ^j images of its first k symbols, cut at its
    # length, with the rest as its tail.  Each growth expands the symbols
    # from k on, so the expanded ranges follow each other without overlap,
    # and 10^5 symbols take no more of them than the shortest τ^j image
    # divides into 10^5.
    expanded = []
    original = words._expand

    def recording(images, symbols, tail, k, min_len):
        grown, rest, k_after = original(images, symbols, tail, k, min_len)
        assert b"".join(images[s] for s in grown[:k_after]) == grown + rest
        expanded.append((k, k_after))
        return grown, rest, k_after

    monkeypatch.setattr(words, "_expand", recording)
    buf = tribonacci_word(1)
    for n in range(1, 100_001, 997):
        buf.ensure(n)
    assert len(expanded) == 100
    assert expanded[0][0] == 1
    assert all(after == k for (_, after), (k, _) in zip(expanded, expanded[1:]))
    assert expanded[-1][1] <= 100_000 // min(map(len, buf.power_images)) + 1


@pytest.mark.parametrize("images", [["01", "10"], ["001", "10"], ["01", "12", "20"],
                                    ["0120", "1", "22"], ["0102", "", "2"], ["01", ""],
                                    ["1", "10"], mbonacci_morphism(5).images,
                                    mbonacci_morphism(256).images])
def test_power_images_take_the_largest_power_within_the_limits(images):
    # τ applied one step at a time: the images of the largest power whose
    # images all fit the limits, where for an erasing morphism the powers
    # stop once their total length stops growing.  On 256 letters the total
    # limit binds first.
    morphism = Morphism(images)
    power, step = morphism.images, morphism.images
    while True:
        step = tuple(concat_images(morphism, im) for im in step)
        if (max(map(len, step)) > words.IMAGE_LIMIT
                or sum(map(len, step)) > words.IMAGES_TOTAL_LIMIT
                or sum(map(len, step)) <= sum(map(len, power))):
            break
        power = step
    assert words.power_images(morphism) == power


def test_tribonacci_power_images_are_tau_17():
    images = words.power_images(tribonacci_morphism())
    assert [len(im) for im in images] == [35890, 30122, 19513]
    assert images[0] == tribonacci_word(35890).symbols


def test_linear_growth_reaches_the_limit():
    # τ^j(0) = 0 1^j grows by one symbol a step: j = 65535, reached by
    # squaring and lifting, not by 65535 compositions.
    assert words.power_images(Morphism(["01", "1"])) == (b"\x00" + b"\x01" * 65535, b"\x01")


@pytest.mark.parametrize("images, seed", [(["01", "10"], 0), (["0102", "", "2"], 0),
                                          (["1", "10"], 1), (["01", "12", "20"], 0)])
def test_blocks_join_to_the_prefix_from_a_short_buffer(images, seed):
    morphism = Morphism(images)
    whole = iterate_images(morphism, seed, 300_000)
    for n in (1, 2, 17, 65_536, 65_537, 300_000):
        buf = WordBuffer(morphism, seed)
        blocks = buf.blocks(n)
        assert b"".join(blocks) == whole[:n]
        # The buffer holds the symbols whose images the blocks are.
        assert len(buf) < max(len(blocks), 2) * 2
    with pytest.raises(BufferLimitError):
        WordBuffer(morphism, seed, max_symbols=10).blocks(11)


def test_counts_of_a_buffer_that_grew_during_the_count_are_not_kept(monkeypatch):
    # The first cumsum of the count grows the buffer: the counts returned
    # are of the symbols the count read, and the buffer keeps none of them.
    buf = tribonacci_word(1000)

    class GrowingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def cumsum(self, *args, **kwargs):
            monkeypatch.setattr(words, "np", np)
            buf.ensure(2000)
            return np.cumsum(*args, **kwargs)

    monkeypatch.setattr(words, "np", GrowingNumpy())
    assert buf.prefix_counts.shape == (3, 1001)
    assert len(buf) == 2000
    counts = buf.prefix_counts
    assert counts.shape == (3, 2001)
    assert [int(counts[a, 2000]) for a in range(3)] == [buf.symbols.count(a) for a in range(3)]


def test_erasing_morphism_that_stops_growing_is_refused():
    stalled = Morphism(["01", ""])  # the fixed point from 0 is 01
    buf = WordBuffer(stalled, 0)
    assert buf.ensure(2).symbols == b"\x00\x01"
    with pytest.raises(ConfigurationError):
        buf.ensure(3)


def test_non_prolongable_rejected():
    backwards = Morphism(["10", "0"])  # image of 0 does not start with 0
    with pytest.raises(ConfigurationError):
        fixed_point_prefix(backwards, 0, 10)


def test_prolongable_at_other_seed():
    swapped = Morphism(["1", "10"])  # prolongable at 1, not at 0
    buf = fixed_point_prefix(swapped, 1, 10)
    # fixed point from 1: 1 -> 10 -> 101 -> 10110 -> ...
    assert word_to_text(buf.slice(0, 5)) == "10110"
    with pytest.raises(ConfigurationError):
        fixed_point_prefix(swapped, 0, 10)


def test_buffer_cap_is_hard_error():
    with pytest.raises(BufferLimitError):
        fixed_point_prefix(tribonacci_morphism(), 0, 1 << 20, max_symbols=1 << 10)
    buf = fixed_point_prefix(tribonacci_morphism(), 0, 10, max_symbols=1 << 10)
    with pytest.raises(BufferLimitError):
        buf.ensure((1 << 10) + 1)


def test_alphabet_byte_limit():
    with pytest.raises(InvalidInputError):
        mbonacci_morphism(257)
    assert mbonacci_morphism(256).alphabet_size == 256


def test_min_len_validation():
    with pytest.raises(InvalidInputError):
        fixed_point_prefix(tribonacci_morphism(), 0, 0)
