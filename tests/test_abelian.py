import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_factors,
    brute_parikh,
    brute_parikh_set,
    cap_positions,
    desubstitute,
    unique_profile,
)
from tribalance import (
    InvalidInputError,
    RangeError,
    SaturationError,
    abelian_complexity,
    abelian_profile,
    apply_morphism,
    as_word,
    imbalance_witness_search,
    mbonacci_word,
    parikh_set,
    prefix_balance_check,
    prefix_balance_profile,
    tribonacci_morphism,
    tribonacci_word,
    verify_witness,
    window_parikh,
)
from tribalance import abelian
from tribalance.abelian import _block_rows
from tribalance.factors import FactorIndex, factor_index, scan_distinct_factors
from tribalance.synchronized import synchronized_profile


def test_parikh_examples(tribo):
    assert brute_parikh(as_word("0102010"), 3) == window_parikh(tribo, 0, 7) == (4, 2, 1)
    assert brute_parikh(b"", 3) == (0, 0, 0)
    assert brute_parikh(as_word("01010"), 3) == (3, 2, 0)


def test_window_parikh_examples(tribo):
    assert window_parikh(tribo, 0, 7) == (4, 2, 1)
    assert window_parikh(tribo, 123, 0) == (0, 0, 0)
    assert window_parikh(tribo, 1, 2) == (1, 1, 0)  # window "10"
    with pytest.raises(RangeError):
        window_parikh(tribo, len(tribo) - 3, 10)


@settings(max_examples=200)
@given(st.integers(0, 5000), st.integers(0, 400))
def test_window_parikh_agrees_with_slice(tribo, start, length):
    assert window_parikh(tribo, start, length) == brute_parikh(tribo.slice(start, length), 3)


def test_window_parikh_agreement_bulk(tribo):
    rng = random.Random(23)
    for _ in range(10_000):
        length = rng.randrange(0, 300)
        start = rng.randrange(0, len(tribo) - length)
        assert window_parikh(tribo, start, length) == brute_parikh(
            tribo.slice(start, length), 3
        )


def test_parikh_set_small(tribo):
    assert parikh_set(tribo, 1) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert factor_index(tribo, 1).factor_count(1) == 3

    assert parikh_set(tribo, 2) == {(2, 0, 0), (1, 1, 0), (1, 0, 1)}
    assert factor_index(tribo, 2).factor_count(2) == 5

    assert len(parikh_set(tribo, 3)) == 4


def test_parikh_set_matches_brute_force(tribo):
    for n in (1, 2, 3, 4, 7, 20, 55):
        oracle = brute_parikh_set(tribo.symbols[:20_000], n, 3)
        assert parikh_set(tribo, n) == oracle


def test_parikh_set_sums(tribo):
    for n in (1, 5, 31):
        for v in parikh_set(tribo, n):
            assert sum(v) == n


@pytest.mark.parametrize("n_from, n_to", [(0, 5), (5, 4)])
def test_abelian_profile_refuses_bad_range(tribo, n_from, n_to):
    with pytest.raises(InvalidInputError, match="(first|last) length must be an integer >= "):
        abelian_profile(tribo, n_from, n_to)


def test_abelian_complexity_extremal_values(tribo):
    assert abelian_complexity(tribo, 30) == 5
    assert abelian_complexity(tribo, 342) == 6


def test_abelian_complexity_range(tribo):
    # Complexity stays in 3..7 at every certified length.
    rows = abelian_profile(tribo, 1, 2000)
    assert all(3 <= row.rho <= 7 for row in rows)
    for value in (3, 4, 5, 6):
        assert any(row.rho == value for row in rows)
    # Oracle: the Parikh vectors of every window of the whole buffer, which
    # holds all 2n + 1 factors of each length checked.
    for n in (17, 170, 1700):
        assert len(brute_factors(tribo.symbols, n)) == 2 * n + 1
        assert rows[n - 1].rho == len(brute_parikh_set(tribo.symbols, n, 3))
        assert abelian_complexity(tribo, n) == rows[n - 1].rho


def test_profile_matches_brute_parikh_sets(tribo):
    rows = abelian_profile(tribo, 1, 60, collect_vectors=True)
    for row in rows:
        if row.n % 7 == 0:
            assert set(row.vectors) == brute_parikh_set(tribo.symbols[:20_000], row.n, 3)


@pytest.mark.parametrize("m, n_max", [(3, 600), (2, 200), (4, 200), (5, 200), (6, 200),
                                      (8, 50), (10, 60)])
def test_dense_profile_matches_sorting_oracle(m, n_max):
    oracle = unique_profile(mbonacci_word(m), n_max)
    buf = mbonacci_word(m)
    rows = abelian_profile(buf, 1, n_max, collect_vectors=True)
    # Vectors compare as tuples, so they must also be in lexicographic order.
    assert [(r.n, r.rho, r.max_imbalance, r.vectors) for r in rows] == \
        [(n, rho, imbalance, tuple(sorted(vectors))) for n, rho, imbalance, vectors in oracle]
    plain = abelian_profile(buf, 1, n_max, threads=3)
    assert [(r.n, r.rho, r.max_imbalance, r.vectors) for r in plain] == \
        [(n, rho, imbalance, None) for n, rho, imbalance, _ in oracle]
    # Key spaces of at most 32 values take the bitmask route, wider ones
    # np.bincount: m <= 4 never leaves the first, every m >= 5 reaches the
    # second, and every row of m = 8 and m = 10 takes it.
    sizes = [math.prod(s + 1 for s in r.max_imbalance[:-1]) for r in plain]
    if m <= 4:
        assert max(sizes) <= 27
    else:
        assert max(sizes) > 32
    if m >= 8:
        assert min(sizes) > 32


def _window_classes(counts: np.ndarray, vectors: bool):
    """The one-row form of ``_block_rows``: (imbalance, rho, vectors) of
    the window columns of counts, each of which sums to the same length."""
    (row,) = _block_rows(counts[:, None, :], int(counts[:, 0].sum()), vectors)
    return row.max_imbalance, row.rho, row.vectors


def test_window_classes_key_space_wider_than_the_windows():
    # Windows of length 10 over 3 letters: the key range 11 * 11 of the
    # first two letters exceeds the 5 columns, and np.bincount counts the
    # 121 keys all the same.
    counts = np.array([[0, 10, 5, 0, 3], [10, 0, 5, 10, 3], [0, 0, 0, 0, 4]])
    span, rho, vectors = _window_classes(counts, True)
    assert math.prod(s + 1 for s in span[:-1]) > counts.shape[1]
    assert span == (10, 10, 4)
    assert rho == 4
    assert vectors == ((0, 10, 0), (3, 3, 4), (5, 5, 0), (10, 0, 0))
    span, rho, vectors = _window_classes(counts, False)
    assert (rho, vectors) == (4, None)


def test_block_rows_key_each_length_on_its_own():
    # Three lengths in one block: a narrow row on the bitmask and two rows
    # on np.bincount, one of 7 * 6 keys and one whose 11 * 11 keys exceed
    # its 48 windows.  Each row is keyed by its own minima and radix, and
    # matches its one-row form.
    rng = np.random.default_rng(5)
    rows = []
    for n, spans in ((40, (1, 1)), (41, (6, 5)), (42, (10, 10))):
        head = np.column_stack([np.zeros(2, dtype=int), spans,
                                rng.integers(0, np.array(spans)[:, None] + 1, size=(2, 46))])
        head += np.array([[3], [4]])
        rows.append(np.vstack([head, n - head.sum(axis=0)]))
    block = np.stack(rows, axis=1)
    got = _block_rows(block, 40, True)
    assert [row.n for row in got] == [40, 41, 42]
    for row, counts in zip(got, rows):
        assert (row.max_imbalance, row.rho, row.vectors) == _window_classes(counts, True)
        assert row.vectors == tuple(sorted(set(map(tuple, counts.T.tolist()))))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(lambda m: st.lists(
           st.lists(st.integers(0, 3), min_size=m - 1, max_size=m - 1),
           min_size=1, max_size=40)),
       st.booleans())
def test_window_classes_match_dict_oracle(columns, want_vectors):
    # Both routes, the bitmask and np.bincount (also on short, spread
    # matrices whose key space exceeds their columns), against a
    # first-occurrence dict; every column sums to the same length.
    n = 3 * len(columns[0])
    counts = np.array([c + [n - sum(c)] for c in columns], dtype=np.int64).T
    firsts: dict[tuple[int, ...], int] = {}
    for i, column in enumerate(counts.T.tolist()):
        firsts.setdefault(tuple(column), i)
    span, rho, vectors = _window_classes(counts, want_vectors)
    assert span == tuple(counts.max(axis=1) - counts.min(axis=1))
    assert rho == len(firsts)
    assert vectors == (tuple(sorted(firsts)) if want_vectors else None)


def _span_shapes(free: int) -> list[tuple[int, ...]]:
    """Spans of the ``free`` keyed letters whose key spaces have 27, 32
    (the widest bitmask), 33 (the narrowest np.bincount) and more values;
    np.bincount takes every key space past 32, however few the columns."""
    def pad(*spans):
        return spans + (0,) * (free - len(spans))
    shapes = [pad(30), pad(31), pad(32), pad(40)]
    if free >= 2:
        shapes += [pad(1, 15), pad(3, 7), pad(2, 10), pad(6, 6)]
    if free >= 3:
        shapes += [pad(2, 2, 2), pad(1, 1, 7), pad(2, 2, 3)]
    if free >= 5:
        shapes += [pad(1, 1, 1, 1, 1), pad(1, 1, 1, 1, 2)]
    return shapes


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(
           lambda m: st.sampled_from(_span_shapes(m - 1)).flatmap(st.permutations)),
       st.integers(0, 30), st.integers(0, 2**32 - 1),
       st.sampled_from([np.int32, np.int64]), st.booleans())
def test_window_classes_key_space_routes(spans, extra, seed, dtype, want_vectors):
    # At least as many columns as keys, so most keys occur; the zero and
    # the full-span columns pin every keyed letter's span exactly.  The
    # vectors decoded from the keys are the distinct columns, sorted.
    spans = np.array(spans)
    size = math.prod(int(s) + 1 for s in spans)
    rng = np.random.default_rng(seed)
    keyed = np.column_stack([np.zeros_like(spans), spans,
                             rng.integers(0, spans[:, None] + 1, size=(len(spans), size + extra))])
    n = int(spans.sum()) + 5
    counts = np.vstack([keyed, n - keyed.sum(axis=0)]).astype(dtype)
    span, rho, vectors = _window_classes(counts, want_vectors)
    assert span[:-1] == tuple(spans)
    assert span == tuple(counts.max(axis=1) - counts.min(axis=1))
    distinct = tuple(sorted(set(map(tuple, counts.T.tolist()))))
    assert rho == len(distinct)
    assert vectors == (distinct if want_vectors else None)


def record_blocks(monkeypatch) -> list[tuple[int, int]]:
    """(lengths, windows) of every block whose counts the window pass reads."""
    shapes = []
    counts = abelian._Block.counts

    def recording(self, letters=slice(None)):
        out = counts(self, letters)
        shapes.append(out.shape[1:])
        return out

    monkeypatch.setattr(abelian._Block, "counts", recording)
    return shapes


def window_answers(m: int, n_to: int):
    """Everything the window pass answers on the m-bonacci word up to
    n_to: the profile with and without vectors, a witness search per
    letter and a sample of prefix-balance checks."""
    buf = mbonacci_word(m)
    return (abelian_profile(buf, 1, n_to, collect_vectors=True), abelian_profile(buf, 1, n_to),
            [imbalance_witness_search(buf, a, 2, n_to) for a in range(m)],
            [prefix_balance_check(buf, n) for n in range(1, n_to + 1, 7)])


@pytest.mark.parametrize("m, n_to", [(2, 300), (3, 600), (4, 400), (5, 200), (6, 150)])
def test_blocks_of_one_length_change_nothing(monkeypatch, m, n_to):
    shapes = record_blocks(monkeypatch)
    blocks = window_answers(m, n_to)
    assert max(lengths for lengths, _ in shapes) > 1
    shapes.clear()
    monkeypatch.setattr(abelian, "_BLOCK_WINDOWS", 1)
    assert window_answers(m, n_to) == blocks
    assert {lengths for lengths, _ in shapes} == {1}


@pytest.mark.parametrize("n_to", [255, 256, 2**16 - 1, 2**16])
def test_count_dtype_follows_the_last_length(tribo, n_to):
    # The counts are copied to the narrowest unsigned type holding n_to:
    # uint8, uint16 or uint32 on either side of 2**8 and 2**16.  Each
    # agrees with the synchronized digit automaton, which reads no window.
    expected = list(synchronized_profile(n_to - 1, n_to))
    assert abelian_profile(tribo, n_to - 1, n_to) == expected
    (block, *_) = abelian._certified_windows(tribo, n_to, n_to)
    assert block.counts().dtype == np.min_scalar_type(n_to)


def test_blocks_of_one_walk_share_their_counts_buffer(tribo):
    # One buffer per walk: a fresh array per block let the allocator trim
    # and regrow its heap on every block.  Each block's counts are read
    # before the next block writes its own.
    first, second, *_ = abelian._certified_windows(tribo, 1, 200)
    a = first.counts()
    expected = a.copy()
    b = second.counts()
    assert np.shares_memory(a, b)
    assert first.counts().tolist() == expected.tolist()


@functools.lru_cache(maxsize=None)
def sorted_oracle(m: int) -> list:
    """``unique_profile`` to 200 with each row's vectors sorted."""
    return [(n, rho, imbalance, tuple(sorted(vectors)))
            for n, rho, imbalance, vectors in unique_profile(mbonacci_word(m), 200)]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, 200), st.integers(0, 199))
def test_profile_of_any_range_matches_sorting_oracle(m, n_from, extra):
    # Blocks start at n_from, so every range cuts them differently.
    n_to = min(200, n_from + extra)
    rows = abelian_profile(mbonacci_word(m), n_from, n_to, collect_vectors=True)
    assert [(r.n, r.rho, r.max_imbalance, r.vectors) for r in rows] == \
        sorted_oracle(m)[n_from - 1 : n_to]


def test_profile_reads_about_one_window_per_factor(tribo, monkeypatch):
    # Each length is read at the first occurrences of the last length of
    # its block: 2n + 1 windows, plus at most about 1/64 for the block.
    # The windows 0..certify(n) the pass once read come to 1.85 times more.
    shapes = record_blocks(monkeypatch)
    abelian_profile(tribo, 1, 2000)
    factors_total = sum(2 * n + 1 for n in range(1, 2001))
    assert sum(lengths * windows for lengths, windows in shapes) <= 1.02 * factors_total
    bounds = sum(factor_index(tribo, 2000).certify(n) + 1 for n in range(1, 2001))
    assert bounds > 1.8 * factors_total


def test_balance_profile_values(tribo):
    rows = abelian_profile(tribo, 1, 50)
    assert rows[0].max_imbalance == (1, 1, 1)  # single letters differ by <= 1
    assert all(max(r.max_imbalance) <= 2 for r in rows)
    assert any(max(r.max_imbalance) == 2 for r in rows)


def test_balance_profile_threads_agree(tribo):
    # ``threads`` is accepted and changes nothing.
    one = abelian_profile(tribo, 1, 80, threads=1, collect_vectors=True)
    eight = abelian_profile(tribo, 1, 80, threads=8, collect_vectors=True)
    assert one == eight


def test_fourbonacci_witness(fourbo):
    w = verify_witness(fourbo, 1, 2663, 9048, 3305)
    assert (w.count_u, w.count_v) == (891, 888)
    assert w.diff == 3


def test_witness_trivial_cases(tribo):
    w = verify_witness(tribo, 0, 17, 17, 100)
    assert w.diff == 0
    w = verify_witness(tribo, 0, 0, 1, 3)  # "010" vs "102"
    assert (w.count_u, w.count_v, w.diff) == (2, 1, 1)


def test_witness_search_tribonacci_none(tribo):
    assert imbalance_witness_search(tribo, 0, 3, 200) is None
    assert imbalance_witness_search(tribo, 1, 3, 200) is None
    assert imbalance_witness_search(tribo, 2, 3, 200) is None


def test_witness_search_finds_fourbonacci_imbalance(monkeypatch):
    # Certified at every length from 1, so the first witness is the
    # shortest: no length below 3305 reaches imbalance 3.  One index, the
    # one that covers 3305, certifies every length of the walk.
    regions = []
    init = FactorIndex.__init__

    def counting_init(self, buffer, region_len):
        regions.append(region_len)
        init(self, buffer, region_len)

    monkeypatch.setattr(FactorIndex, "__init__", counting_init)
    buf = mbonacci_word(4)
    w = imbalance_witness_search(buf, 1, 3, 3305)
    assert regions == [2**4 * 3306 + 1024]
    assert w is not None
    assert w.diff >= 3
    assert w.length == 3305
    # The witness recomputes against the buffer.
    check = verify_witness(buf, 1, w.pos_u, w.pos_v, w.length)
    assert check.diff == w.diff


def test_witness_search_from_known_length(fourbo):
    # The balance profile proves no length below 3305 reaches imbalance 3,
    # so a search started there finds the same first witness.
    w = imbalance_witness_search(fourbo, 1, 3, 3305, n_from=3305)
    assert (w.letter, w.length, w.pos_u, w.pos_v, w.count_u, w.count_v) == \
        (1, 3305, 2663, 9048, 891, 888)
    assert imbalance_witness_search(fourbo, 1, 1, 20, n_from=7).length == 7
    # An empty range of lengths is refused, as by every window query.
    with pytest.raises(InvalidInputError):
        imbalance_witness_search(fourbo, 1, 3, 3304, n_from=3305)
    with pytest.raises(InvalidInputError):
        imbalance_witness_search(fourbo, 1, 3, 10, n_from=0)


def test_witness_search_certifies_lazily(monkeypatch):
    # Twenty window starts certify lengths 1 to 4 but not length 5, whose
    # last new factor starts at 23, so the search must return at its first
    # witnessing length without certifying the lengths after it.
    cap_positions(monkeypatch, 20)
    buf = tribonacci_word()
    w = imbalance_witness_search(buf, 0, 1, 50)
    assert (w.letter, w.length, w.pos_u, w.pos_v, w.count_u, w.count_v) == (0, 1, 0, 1, 1, 0)
    with pytest.raises(SaturationError):
        imbalance_witness_search(buf, 0, 3, 50)


def test_witness_search_trivial(tribo):
    w = imbalance_witness_search(tribo, 0, 1, 1)
    assert w is not None and w.length == 1 and w.diff == 1


def test_prefix_balance_examples(tribo):
    assert prefix_balance_check(tribo, 1)
    assert prefix_balance_check(tribo, 184)
    assert not prefix_balance_check(tribo, 185)
    assert prefix_balance_profile(tribo, 1, 185) == [True] * 184 + [False]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_prefix_balance_profile_matches_the_vectors(m):
    # A length passes when each of its distinct Parikh vectors is within 1
    # of the prefix's in every letter; any range cuts the blocks anew.
    buf = mbonacci_word(m)
    rows = abelian_profile(buf, 1, 300, collect_vectors=True)
    expected = [all(max(abs(a - b) for a, b in zip(v, window_parikh(buf, 0, r.n))) <= 1
                    for v in r.vectors) for r in rows]
    assert prefix_balance_profile(buf, 1, 300) == expected
    assert prefix_balance_profile(buf, 57, 123) == expected[56:123]
    assert [prefix_balance_check(buf, n) for n in range(1, 301, 13)] == expected[::13]


# -- desubstitution ----------------------------------------------------------

def reconstruct(u: bytes, dropped: bool, appended: bool) -> bytes:
    return apply_morphism(tribonacci_morphism(), u)[dropped:] + b"\x00" * appended


def test_desubstitute_examples():
    assert desubstitute(as_word("0102")) == (b"\x00\x01", False, False)
    assert desubstitute(as_word("1020")) == (b"\x00\x01", True, True)
    assert desubstitute(as_word("0")) == (b"", False, True)
    assert desubstitute(as_word("102")) == (b"\x00\x01", True, False)


def test_desubstitute_parikh_identity(tribo):
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(1, 400)
        start = rng.randrange(0, 10_000)
        U = tribo.slice(start, n)
        u, dropped, appended = desubstitute(U)
        assert brute_parikh(U, 3) == (len(u) + appended - dropped, u.count(0), u.count(1))
        if n >= 3:
            assert len(u) < n


def test_desubstitute_round_trip_exhaustive(tribo):
    # Every factor of length <= 200, from the certified factor sets.
    for n in range(1, 201):
        scan = scan_distinct_factors(tribo, n)
        for p in scan.first_positions:
            U = tribo.slice(p, n)
            assert reconstruct(*desubstitute(U)) == U


def test_desubstitute_round_trip_long(tribo):
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randrange(200, 501)
        U = tribo.slice(rng.randrange(0, 30_000), n)
        u, dropped, appended = desubstitute(U)
        assert reconstruct(u, dropped, appended) == U
        assert len(u) < n


def test_desubstitution_pair_schema(tribo):
    # The two-factor lemma (count_0(V) = count_0(U) + 2 and count_i(U) =
    # count_i(V) + 3 imply len(u) <= len(v) and count_{i-1}(u) =
    # count_{i-1}(v) + 3) rests entirely on three facts checked here on
    # 1000 random factor pairs: delta = appended - dropped stays in
    # {-1, 0, 1}, the letter-0 count determines the preimage length via
    # count_0(U) = len(u) + delta, and counts of 1 and 2 pass through
    # exactly (count_i(U) = count_{i-1}(u)).  Given those, the hypothesis
    # forces len(u) = len(v) + delta_v - delta_u - 2 <= len(v)
    # arithmetically.
    rng = random.Random(17)
    for _ in range(1000):
        nu, nv = rng.randrange(1, 200), rng.randrange(1, 200)
        U = tribo.slice(rng.randrange(0, 20_000), nu)
        V = tribo.slice(rng.randrange(0, 20_000), nv)
        du, dv = desubstitute(U), desubstitute(V)
        for w, (p, dropped, appended) in ((U, du), (V, dv)):
            c = brute_parikh(w, 3)
            assert appended - dropped in (-1, 0, 1)
            assert c[0] == len(p) + appended - dropped
            assert c[1] == p.count(0) and c[2] == p.count(1)
        (u, *_), (v, *_) = du, dv
        cu, cv = brute_parikh(U, 3), brute_parikh(V, 3)
        for i in (1, 2):
            if cv[0] == cu[0] + 2 and cu[i] == cv[i] + 3:
                assert len(u) <= len(v)
                assert u.count(i - 1) == v.count(i - 1) + 3


def test_pair_schema_hypothesis_is_never_realized(tribo):
    # In the 2-balanced word the lemma's hypothesis cannot hold between
    # actual factors: it forces |V| = |U| - 1 with both windows at opposite
    # count extremes at once.  Certify emptiness over all vector pairs of
    # adjacent lengths up to 2000 (the lemma operates on hypothetical
    # factors inside a descent argument, not on realized ones).
    rows = abelian_profile(tribo, 1, 2000, collect_vectors=True)
    vecs = {r.n: r.vectors for r in rows}
    for n in range(2, 2001):
        for a in vecs[n]:
            for b in list(vecs[n]) + list(vecs[n - 1]):
                for i in (1, 2):
                    assert not (b[0] == a[0] + 2 and a[i] == b[i] + 3)
