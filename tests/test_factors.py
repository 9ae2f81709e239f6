import random
import re
import tracemalloc
from itertools import cycle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FixedWord,
    brute_factors,
    cap_positions,
    dictionary_scan,
    digits,
    flat_suffix_automaton,
    full_region_index,
    iterate_images,
    online_suffix_links,
    standard_episturmian,
)
from tribalance import (
    BufferLimitError,
    InvalidInputError,
    InvariantViolationError,
    SaturationError,
    abelian_complexity,
    abelian_profile,
    factor_index,
    imbalance_witness_search,
    mbonacci_word,
    parikh_set,
    prefix_balance_check,
    right_special_factor,
    scan_distinct_factors,
    tribonacci_word,
    twelve_vector_geometry,
    verify_equivalences,
)
from tribalance.factors import FactorIndex, _suffix_automaton, default_target, position_cap
from tribalance.special import right_special_parikh


def test_defaults():
    assert position_cap(3, 10) == 64 * 10 + 4096
    assert position_cap(10, 10) == 1024 * 10 + 4096
    assert default_target(3, 10) == 21
    assert default_target(2, 10) == 11


def test_scan_counts_match_brute_force(tribo):
    for n in (1, 2, 3, 5, 8, 13, 40, 100):
        scan = scan_distinct_factors(tribo, n)
        oracle = brute_factors(tribo.symbols[: scan.last_new_position + n + 64 * n], n)
        assert scan.count == 2 * n + 1
        assert scan.count == len(oracle)
        firsts = {tribo.symbols[p : p + n] for p in scan.first_positions}
        assert firsts == oracle


def test_scan_first_positions_are_first(tribo):
    scan = scan_distinct_factors(tribo, 9)
    sym = tribo.symbols
    for p in scan.first_positions:
        w = sym[p : p + 9]
        assert sym.find(w) == p


def test_scan_certification_stops_at_target(tribo):
    scan = scan_distinct_factors(tribo, 50)
    assert scan.count == 101
    # Every factor first occurs at or before the recorded last-new position.
    assert max(scan.first_positions) == scan.last_new_position


def test_scan_extension_finds_nothing_new(tribo):
    # The oracle's extended scan stops extend_after positions past the last
    # new factor, not at the position cap (131,008 positions for n = 1983).
    for n in (7, 31, 200, 1983):
        scan = dictionary_scan(tribo, n, extend_after=10 * n)
        assert scan.count == 2 * n + 1
        assert scan.positions_scanned == scan.last_new_position + 10 * n + 1


def test_scan_cap_failure_reports_position(monkeypatch):
    cap_positions(monkeypatch, 30)
    with pytest.raises(SaturationError) as excinfo:
        dictionary_scan(tribonacci_word(), 100)
    err = excinfo.value
    assert err.n == 100
    assert err.positions_scanned <= 30


def test_scan_grows_up_to_the_buffer_cap_and_no_further():
    # The oracle reads windows up to start positions_scanned - 1, so a cap
    # of exactly that many symbols suffices, and one fewer raises.
    need = dictionary_scan(tribonacci_word(), 50, extend_after=500).positions_scanned + 49
    scan = dictionary_scan(tribonacci_word(max_symbols=need), 50, extend_after=500)
    assert scan.positions_scanned + 49 == need
    with pytest.raises(BufferLimitError):
        dictionary_scan(tribonacci_word(max_symbols=need - 1), 50, extend_after=500)


def fixed_point(images: list[str], n: int) -> "FixedWord":
    """The first n symbols of the fixed point from 0 of the morphism with
    these images, written as digit strings."""
    images = tuple(map(digits, images))
    return FixedWord(iterate_images(images, n), len(images))


def thue_morse():
    # Two letters with more than n + 1 factors of length n >= 2: outside
    # the Arnoux-Rauzy family the complexity target assumes.  2**14 symbols
    # hold every index region and scan the tests here ask for.
    return fixed_point(["01", "10"], 1 << 14)


def test_scan_detects_wrong_complexity_target():
    # The oracle reaches the target n + 1 early; the extension window then
    # exposes the excess instead of certifying it.
    with pytest.raises(InvariantViolationError, match="exceeding the complexity target 11"):
        dictionary_scan(thue_morse(), 10, extend_after=2000)


def test_index_certify_rejects_excess_factors(tribo):
    # Thue-Morse has more than n + 1 factors of length n >= 2, and its
    # index is refused at the build.  No index that builds holds more than
    # the target (test_index_counts_never_exceed_the_target), so certify's
    # excess branch guards against a fault in the counts: tampered here.
    with pytest.raises(InvariantViolationError, match="not standard episturmian"):
        abelian_complexity(thue_morse(), 10)
    index = FactorIndex(tribo, 2_000)
    index.counts[10] += 1
    with pytest.raises(InvariantViolationError, match="22 distinct factors of length 10, "
                                                      "exceeding the complexity target 21"):
        index.certify(10)


@pytest.mark.parametrize("query", [
    lambda b: parikh_set(b, 50),
    lambda b: abelian_complexity(b, 50),
    lambda b: abelian_profile(b, 1, 50),
    lambda b: prefix_balance_check(b, 50),
    lambda b: imbalance_witness_search(b, 0, 3, 50),
    lambda b: right_special_factor(b, 50),
    lambda b: right_special_parikh(b, factor_index(b, 50), 50),
    lambda b: twelve_vector_geometry(b, 50),
    lambda b: verify_equivalences(b, 50),
    lambda b: scan_distinct_factors(b, 50),
], ids=["parikh_set", "abelian_complexity", "abelian_profile",
        "prefix_balance_check", "imbalance_witness_search",
        "right_special_factor", "right_special_parikh", "twelve_vector_geometry",
        "verify_equivalences", "scan_distinct_factors"])
def test_certifying_queries_honour_the_buffer_cap(monkeypatch, query):
    # Length 50 has 101 factors, which 20 window starts cannot hold.
    cap_positions(monkeypatch, 20)
    with pytest.raises(SaturationError):
        query(tribonacci_word())


@pytest.mark.parametrize("extend", [0, 10])
@pytest.mark.parametrize("n", [1, 2, 7, 40, 150])
@pytest.mark.parametrize("m", [2, 4])
def test_scan_matches_index_on_other_alphabets(m, n, extend):
    buf = mbonacci_word(m)
    scan = dictionary_scan(buf, n, extend_after=extend * n)
    index = factor_index(buf, n)
    assert scan.count == default_target(m, n) == index.factor_count(n)
    assert scan.last_new_position == index.certify(n)
    assert scan.positions_scanned == scan.last_new_position + extend * n + 1
    scanned = buf.symbols[: scan.positions_scanned + n - 1]
    firsts = [scanned[p : p + n] for p in scan.first_positions]
    assert [scanned.find(w) for w in firsts] == scan.first_positions
    assert set(firsts) == brute_factors(scanned, n)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_scan_view_equals_the_dictionary_oracle(m):
    # The view reads the index; the oracle counts windows in a dictionary.
    # They agree field for field: count, first starts, the last of them and
    # the window starts up to it.
    buf = mbonacci_word(m)
    for n in [*range(1, 120), 200, 333, 500, 1000, 2000]:
        assert scan_distinct_factors(buf, n) == dictionary_scan(buf, n)


def test_scan_reads_the_index(monkeypatch, tribo):
    def refuse(self, n):
        raise AssertionError("first_runs was read")

    monkeypatch.setattr(FactorIndex, "first_runs", refuse)
    with pytest.raises(AssertionError, match="first_runs was read"):
        scan_distinct_factors(tribo, 10)


def test_scan_refuses_what_every_certified_query_refuses():
    with pytest.raises(InvalidInputError, match="factor length must be an integer >= 1, got 0"):
        scan_distinct_factors(tribonacci_word(), 0)
    # The index's start region for n = 50 is 8 * 51 + 1024 = 1432 symbols;
    # the oracle grows only as far as it reads (198 symbols here).
    assert dictionary_scan(tribonacci_word(max_symbols=198), 50).count == 101
    assert scan_distinct_factors(tribonacci_word(max_symbols=1432), 50).count == 101
    with pytest.raises(BufferLimitError, match="index region of 1432 symbols"):
        scan_distinct_factors(tribonacci_word(max_symbols=1431), 50)


@pytest.mark.parametrize("images", [["01", "10"], ["001", "10"], ["01", "12", "20"]])
def test_flat_automaton_clone_first_ends_match_brute_force(images):
    # The index refuses every word that clones a state, and the oracle
    # tells where from its clones, so the oracle's clone rule of the first
    # ends is checked here on words that clone.  Brute force takes each
    # distinct factor's first end from the region itself; the states whose
    # length interval holds n carry the same first ends, one per factor.
    data = fixed_point(images, 600).symbols
    flat = flat_suffix_automaton(data, len(images))
    assert flat["clones"]
    shortest, longest, first_end = flat["shortest"], flat["length"], flat["first_end"]
    cover = 0
    for n in range(1, 41):
        ends = sorted(data.find(w) + n for w in brute_factors(data, n))
        cover = max(cover, ends[-1])
        assert flat["counts"][n] == len(ends)
        assert flat["cover_end"][n] == cover
        assert sorted(first_end[(shortest <= n) & (n <= longest)].tolist()) == ends


def check_right_special_end(index: FactorIndex, flat: dict, n_max: int) -> list[int]:
    """``right_special_end(n)`` for every n <= n_max against the oracle's
    count of right-special factors of length n: where it is one, the first
    end, degree and left count of the one right-special state whose
    lengths hold n; elsewhere an ``InvariantViolationError`` that names
    the count.  Returns the counts."""
    special = np.flatnonzero(flat["outdeg"] >= 2)
    counts = flat["special"][: n_max + 1].tolist()
    for n, count in enumerate(counts):
        if count != 1:
            with pytest.raises(InvariantViolationError,
                               match=f"one right-special factor of length {n}, found {count}$"):
                index.right_special_end(n)
            continue
        (s,) = special[(flat["shortest"][special] <= n) & (n <= flat["length"][special])]
        left = 1 if n < flat["length"][s] else flat["children"][s]
        assert index.right_special_end(n) == (flat["first_end"][s], flat["outdeg"][s], left)
    return counts


def first_starts(data: bytes, n: int) -> list[int]:
    """Every start whose length-n window occurs at no earlier start."""
    seen, firsts = set(), []
    for s in range(len(data) - n + 1):
        if data[s : s + n] not in seen:
            seen.add(data[s : s + n])
            firsts.append(s)
    return firsts


def check_against_flat_automaton(data: bytes, m: int, n_max: int = 40) -> FactorIndex:
    """The index against ``flat_suffix_automaton``.  A word that the oracle
    clones is refused, with a message that names the prefix and the suffix
    of the first clone; the index over the longest prefix that makes no
    clone (the whole of a word that makes none) is returned.  Checked over
    that prefix: the per-state rows, every per-length table,
    ``right_special_end`` through length n_max against the oracle, and
    ``first_runs`` through n_max against the first occurrences in it."""
    clones = flat_suffix_automaton(data, m)["clones"]
    if clones:
        prefix, suffix = clones[0]
        text = "".join(map(str, data[prefix - suffix : prefix]))
        assert suffix <= 20  # so the message shows the whole suffix
        with pytest.raises(InvariantViolationError, match=re.escape(
                f"the prefix of length {prefix} ends with {text} (length {suffix}), ")):
            FactorIndex(FixedWord(data, m), len(data))
        data = data[: prefix - 1]
    R = len(data)
    index = FactorIndex(FixedWord(data, m), R)
    flat = flat_suffix_automaton(data, m)
    assert not flat["clones"]
    link, outdeg = _suffix_automaton(data, m)
    assert index.n_states == len(link) == len(flat["length"]) == R + 1
    assert index.counts.tolist() == flat["counts"].tolist()
    assert index.cover_end.tolist() == flat["cover_end"].tolist()
    check_right_special_end(index, flat, min(R, n_max))
    # State i is the prefix of length i: its longest length and first end.
    state = np.arange(R + 1)
    ours = zip(state.tolist(), (link + 1).tolist(), state.tolist(), outdeg.tolist(),
               np.bincount(link[1:], minlength=R + 1).tolist())
    theirs = zip(*(flat[k].tolist() for k in ("length", "shortest", "first_end", "outdeg",
                                              "children")))
    assert sorted(ours) == sorted(theirs)
    for n in range(1, min(R, n_max) + 1):
        assert expand(index.first_runs(n)) == first_starts(data, n)
    return index


@pytest.mark.parametrize("m, size", [(2, 300), (2, 1500), (3, 1000), (4, 800), (7, 500)])
def test_index_matches_flat_automaton_on_random_words(m, size):
    # A random word makes a clone within a few symbols, so its index is
    # refused, and only a short prefix is checked.
    rng = random.Random(1000 * m + size)
    for _ in range(3):
        data = bytes(rng.randrange(m) for _ in range(size))
        assert check_against_flat_automaton(data, m).region_len < size


@pytest.mark.parametrize("images", [["01", "10"], ["001", "10"], ["01", "12", "20"]])
def test_index_matches_flat_automaton_on_cloning_words(images):
    buf = fixed_point(images, 3000)
    assert check_against_flat_automaton(buf.symbols, buf.alphabet_size).region_len < 3000


@pytest.mark.parametrize("data, m", [
    (thue_morse().symbols[:1000], 2),
    (bytes(random.Random(30).choices(range(3), k=1000)), 3),
], ids=["thue_morse", "random_ternary"])
def test_right_special_end_requires_exactly_one(data, m):
    # Off the Arnoux-Rauzy family a length may have no right-special
    # factor or several.  Several come with a clone, so the index refuses
    # these words at the build; over the prefix it accepts, it must refuse
    # each length without exactly one, and only those, with the exact count.
    assert flat_suffix_automaton(data, m)["special"].max() >= 2
    index = check_against_flat_automaton(data, m)
    prefix = data[: index.region_len]
    counts = check_right_special_end(index, flat_suffix_automaton(prefix, m), 40)
    assert 1 in counts
    assert set(counts) - {1}


def arnoux_rauzy_directive(m: int, rng: random.Random, blocks: int) -> list[int]:
    """A directive of ``blocks`` blocks of m letters, each block a random
    order of all m letters."""
    return [a for _ in range(blocks) for a in rng.sample(range(m), m)]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_index_matches_oracles_on_standard_episturmian_words(m):
    # Every left special factor of a standard episturmian word is a prefix
    # (Droubay-Justin-Pirillo 2001), so its automaton needs no clone.  On
    # random Arnoux-Rauzy directives the index accepts the word and agrees
    # with both oracles: the flat automaton, and brute force for the first
    # occurrences and a few counts.
    rng = random.Random(m)
    for _ in range(8):
        data = standard_episturmian(arnoux_rauzy_directive(m, rng, 40), 2_500)
        index = check_against_flat_automaton(data, m, n_max=60)
        assert index.region_len == len(data)
        for n in (1, 2, 7, 30, 120):
            assert index.factor_count(n) == len(brute_factors(data, n))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5).flatmap(lambda m: st.tuples(
           st.just(m), st.lists(st.integers(0, m - 1), min_size=1, max_size=12))),
       st.integers(1, 4_000))
def test_index_counts_never_exceed_the_target(order_directive, size):
    # At most one left special factor per length, with at most m left
    # extensions, so p(n + 1) - p(n) <= m - 1: no standard episturmian word
    # on m letters, Arnoux-Rauzy or not, holds more than (m - 1)n + 1
    # factors of length n, and certify's excess branch is never reached.
    m, directive = order_directive
    data = standard_episturmian(cycle(directive), size)
    index = FactorIndex(FixedWord(data, m), size)
    n = np.arange(size + 1)
    assert (index.counts <= (m - 1) * n + 1).all()


def check_against_online_links(data: bytes, m: int) -> None:
    """``_suffix_automaton`` against the per-symbol build: the same int32
    ``(link, outdeg)``, or the same refusal, word for word."""
    try:
        expected = online_suffix_links(data, m)
    except InvariantViolationError as refusal:
        with pytest.raises(InvariantViolationError, match=f"^{re.escape(str(refusal))}$"):
            _suffix_automaton(data, m)
        return
    for ours, theirs in zip(_suffix_automaton(data, m), expected):
        assert ours.dtype == np.int32
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("m, size", [(3, 132_990), (4, 53_920), (2, 20_000), (5, 20_000)])
def test_automaton_runs_match_the_per_symbol_build(m, size):
    # The saturation claim's Tribonacci region and the m = 4 balance
    # region: every run of trivial steps is taken at once, and the few
    # steps at a mismatch store the same edges.
    check_against_online_links(mbonacci_word(m).ensure(size).symbols[:size], m)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_automaton_runs_match_on_standard_episturmian_words(m):
    # Arnoux-Rauzy directives, and directives that leave letters out or
    # repeat them, whose words are standard episturmian all the same.
    rng = random.Random(50 + m)
    for _ in range(6):
        check_against_online_links(
            standard_episturmian(cycle(arnoux_rauzy_directive(m, rng, 4)), 5_000), m)
        directive = [rng.randrange(m) for _ in range(rng.randrange(1, 9))]
        check_against_online_links(standard_episturmian(cycle(directive), 5_000), m)


@pytest.mark.parametrize("data, m", [
    (thue_morse().symbols, 2),
    *((fixed_point(images, 3000).symbols, len(images)) for images in (["001", "10"],
                                                                    ["01", "12", "20"])),
    *((bytes(random.Random(seed).choices(range(3), k=500)), 3) for seed in range(5)),
], ids=["thue_morse", "001_10", "01_12_20", *(f"random_{i}" for i in range(5))])
def test_automaton_refuses_where_the_per_symbol_build_does(data, m):
    # A word that needs a clone is refused with the same message, which
    # names the prefix and the suffix; a run may end just before it.
    check_against_online_links(data, m)
    with pytest.raises(InvariantViolationError, match="not standard episturmian"):
        _suffix_automaton(data, m)


def test_index_arrays_are_int32(tribo):
    index = FactorIndex(tribo, 5000)
    for array in (index.counts, index.cover_end, index._lrs,
                  *_suffix_automaton(tribo.symbols[:5000], 3)):
        assert array.dtype == np.int32


def test_index_build_memory(tribo):
    # The saturation claim's region, whose build traces 3.7 MB: the
    # automaton's two per-state arrays and the per-length bincounts.  With
    # clones, and longest-length and first-end arrays beside the links, it
    # traced 5.3 MB; with m stored transition rows and one Python int per
    # state, 10.2 MB.
    tracemalloc.start()
    try:
        FactorIndex(tribo, 132_990)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.2 * 10**6


def test_index_holds_its_per_length_tables_only(tribo):
    # counts, cover_end and the longest-repeated-suffix table, R + 1
    # entries each, and a few rows of right-special states (18 here): it
    # holds 1.60 MB, and 5.32 MB when the per-state arrays of the clone
    # build stayed too.  The suffix links are the third table.
    region = 132_990
    tracemalloc.start()
    try:
        index = FactorIndex(tribo, region)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 3 * index.counts.itemsize * (region + 1) + 64 * 1024


def test_index_counts_match_scanner(tribo):
    index = factor_index(tribo, 300)
    for n in range(1, 301):
        assert index.factor_count(n) == 2 * n + 1
    # Dual route: the dictionary oracle agrees with the automaton.
    rng = random.Random(1)
    for n in [1, 2, 299] + [rng.randrange(3, 299) for _ in range(10)]:
        assert dictionary_scan(tribo, n).count == index.factor_count(n)


def test_index_counts_match_brute_force_small(tribo):
    region = 400
    index = FactorIndex(tribo, region)
    sym = tribo.symbols[:region]
    for n in range(1, 40):
        assert index.factor_count(n) == len(brute_factors(sym, n))


def test_index_cover_bound_is_sound_and_tight(tribo):
    index = factor_index(tribo, 200)
    sym = tribo.symbols
    for n in (1, 2, 5, 17, 60, 200):
        bound = index.certify(n)
        window_set = {sym[p : p + n] for p in range(bound + 1)}
        assert len(window_set) == 2 * n + 1  # covers everything
        if bound > 0:
            shy = {sym[p : p + n] for p in range(bound)}
            assert len(shy) == 2 * n  # and is minimal


def test_index_cover_matches_scanner_saturation(tribo):
    index = factor_index(tribo, 500)
    for n in (3, 10, 50, 137, 499):
        scan = dictionary_scan(tribo, n)
        assert index.certify(n) == scan.last_new_position


def test_index_certify_failure_outside_region(tribo):
    index = FactorIndex(tribo, 64)
    with pytest.raises(SaturationError):
        index.certify(60)  # 60 cannot saturate in 64 symbols


@pytest.mark.parametrize("cap, region", [(None, 2_000), (20, 2_000), (300, 5_000), (None, 64)])
def test_first_refused_agrees_with_certify(monkeypatch, tribo, cap, region):
    # The window walk certifies its lengths with one comparison and lets
    # certify raise at the first length refused: both must refuse the same
    # lengths, whether the count misses the target (short regions, and
    # lengths past the region), exceeds it (tampered) or the bound passes
    # the position cap.
    if cap is not None:
        cap_positions(monkeypatch, cap)
    index = FactorIndex(tribo, region)

    def refused(n: int) -> bool:
        try:
            index.certify(n)
        except (SaturationError, InvariantViolationError):
            return True
        return False

    def first(n_from: int, n_to: int) -> int:
        return next((n for n in range(n_from, n_to + 1) if refused(n)), n_to + 1)

    for n_from, n_to in [(1, 1), (1, 40), (1, region + 5), (5, 9), (region, region + 2)]:
        assert index.first_refused(n_from, n_to) == first(n_from, n_to)
    index.counts[3] += 1
    assert index.first_refused(1, 40) == first(1, 40) == 3


def test_index_cache_reuse(tribo):
    small = factor_index(tribo, 10)
    again = factor_index(tribo, 5)
    assert again is small


def test_index_cache_accepts_covering_index(monkeypatch):
    buf = tribonacci_word()
    index = factor_index(buf, 300)
    # The region grows from 8(n_max + 1) + 1024 symbols, far short of the
    # capped region, yet it serves every length it covers.
    assert index.region_len == 8 * 301 + 1024
    assert index.region_len < position_cap(buf.alphabet_size, 201) + 201
    assert factor_index(buf, 200) is index

    builds = []
    init = FactorIndex.__init__

    def counting_init(self, buffer, region_len):
        builds.append(region_len)
        init(self, buffer, region_len)

    monkeypatch.setattr(FactorIndex, "__init__", counting_init)
    for n in (1, 200, 300, 301):
        assert factor_index(buf, n) is index
    # The window queries read their bounds off the same index.
    assert imbalance_witness_search(buf, 0, 3, 301) is None
    assert prefix_balance_check(buf, 301)
    assert len(abelian_profile(buf, 1, 301)) == 301
    assert builds == []


@pytest.mark.parametrize("m, n_max", [(4, 3305), (5, 1000)])
def test_index_built_once_for_larger_alphabets(monkeypatch, m, n_max):
    # The start region 2**m * (n_max + 1) + 1024 already covers, so the
    # doubling fallback never throws a build away.
    regions = []
    init = FactorIndex.__init__

    def counting_init(self, buffer, region_len):
        regions.append(region_len)
        init(self, buffer, region_len)

    monkeypatch.setattr(FactorIndex, "__init__", counting_init)
    index = factor_index(mbonacci_word(m), n_max)
    assert regions == [2**m * (n_max + 1) + 1024]
    assert index.covers(n_max + 1)


def test_index_covers_needs_saturation_and_margin():
    end = int(factor_index(tribonacci_word(), 100).cover_end[100])
    assert FactorIndex(tribonacci_word(), end + 100).covers(100)
    # Saturated, but without n symbols past the bound.
    assert not FactorIndex(tribonacci_word(), end + 99).covers(100)
    # One length-100 factor first ends at ``end``.
    assert not FactorIndex(tribonacci_word(), end - 1).covers(100)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 400))
@example(6, 251)
def test_adaptive_index_agrees_with_full_region(m, n_max):
    buf = mbonacci_word(m)
    index = factor_index(buf, n_max)
    full = full_region_index(mbonacci_word(m), n_max)
    k_max = n_max + 1
    assert index.region_len <= full.region_len
    assert index.covers(k_max)
    assert (index.counts[: k_max + 1] == full.counts[: k_max + 1]).all()
    assert (index.cover_end[: k_max + 1] == full.cover_end[: k_max + 1]).all()
    for k in range(1, k_max + 1):
        assert index.certify(k) == full.certify(k)
    # The extension degree at k needs every factor of length k + 1, so the
    # right-special table is promised through n_max only (at m = 6,
    # n_max = 251 the adaptive region misses one extension at k_max).
    for k in range(n_max + 1):
        assert index.right_special_end(k) == full.right_special_end(k)
    region = buf.symbols[: index.region_len]
    for k in {1, k_max // 2 + 1, k_max}:
        assert index.factor_count(k) == len(brute_factors(region, k)) == default_target(m, k)


# -- first-occurrence runs ----------------------------------------------------

def expand(runs) -> list[int]:
    return [s for start, stop in runs for s in range(start, stop)]


def check_first_runs(buf, region: int, n_max: int) -> None:
    """``first_runs`` against the region itself: every start it lists is
    the first occurrence of its window (``data.find``), and there are as
    many as the region has distinct factors, so none is missing."""
    index = FactorIndex(buf, region)
    data = buf.symbols[:region]
    for n in range(1, n_max + 1):
        runs = index.first_runs(n)
        assert all(a < b for a, b in runs)
        assert all(b < a for (_, b), (a, _) in zip(runs, runs[1:]))  # disjoint, not adjacent
        starts = expand(runs)
        assert all(data.find(data[s : s + n]) == s for s in starts)
        assert len(starts) == len(brute_factors(data, n))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_first_runs_match_first_occurrences(m):
    check_first_runs(mbonacci_word(m), 12_000, 150)


def test_first_runs_check_their_total(tribo):
    # A first-occurrence table that disagrees with the factor count is an
    # internal fault, not an answer.
    index = FactorIndex(tribo, 2_000)
    assert len(expand(index.first_runs(10))) == 21
    index._lrs = np.zeros_like(index._lrs)  # every window would hold a new factor
    bound = int(index.cover_end[10]) - 10
    with pytest.raises(InvariantViolationError,
                       match=f"found {bound + 1} first occurrences of length 10, but the region "
                             "holds 21 distinct factors"):
        index.first_runs(10)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_first_occurrences_form_at_most_m_runs(m):
    # A performance property, not a correctness one: the window pass reads
    # one strided view per run, so few runs keep it free of gathers.  The
    # first occurrences of the factors of a standard episturmian word come
    # in at most m runs, and some length needs all m (measured: 3 for
    # every n <= 7199 at m = 3, 4 for every n <= 3305 at m = 4).
    index = factor_index(mbonacci_word(m), 1000)
    assert max(len(index.first_runs(n)) for n in range(1, 1001)) == m
