import random
from collections import Counter

import pytest

from conftest import brute_factors, brute_parikh
from tribalance import (
    InvalidInputError,
    InvariantViolationError,
    abelian_profile,
    apply_morphism,
    factor_index,
    is_min_complexity_length,
    min_complexity_lengths,
    parikh_set,
    right_special_factor,
    tribonacci_word,
    twelve_vector_geometry,
    verify_equivalences,
    word_to_text,
)
from tribalance.special import (
    CLIQUE_SIZES,
    EXTRA_CLIQUES,
    NEIGHBORHOOD,
    REGIONS,
    boundary_vectors,
    central_vectors,
    right_special_parikh,
)


def central(buffer, n: int) -> set[tuple[int, ...]]:
    """The central triple at length n, over the right special factor of
    length n - 1."""
    return set(central_vectors(right_special_factor(buffer, n - 1).parikh))


def boundary(buffer, n: int) -> set[tuple[int, ...]]:
    """The boundary triple at length n."""
    return set(boundary_vectors(right_special_factor(buffer, n - 1).parikh))


def bispecial_lengths(max_len: int) -> list[int]:
    """The closed form (T_m + T_{m+2} - 3) / 2 up to max_len: one less than
    each minimal-complexity length (T_m + T_{m+2} - 1) / 2 past 1."""
    return [n - 1 for n in min_complexity_lengths(max_len + 1) if n > 1]


def successor_length(buffer, n: int) -> int:
    """The length n is mapped to by the substitution: the image of the
    right special factor of length n - 1, extended by 0, is again right
    special, and n maps to its length plus one."""
    image = apply_morphism(buffer.morphism, right_special_factor(buffer, n - 1).word)
    return len(image + b"\x00") + 1


def test_right_special_small(tribo):
    r0 = right_special_factor(tribo, 0)
    assert r0.word == b"" and r0.parikh == (0, 0, 0) and r0.is_bispecial

    r1 = right_special_factor(tribo, 1)
    assert word_to_text(r1.word) == "0" and r1.is_bispecial

    r3 = right_special_factor(tribo, 3)
    assert word_to_text(r3.word) == "010" and r3.is_bispecial

    r2 = right_special_factor(tribo, 2)
    assert not r2.is_bispecial


def test_right_special_matches_brute_force(fibo, tribo, fourbo):
    # Oracle: group every factor of length n+1 of a long prefix by its
    # length-n prefix (right extensions) and by its length-n suffix (left
    # extensions).  The prefix holds all (m-1)(n+1)+1 factors, so the
    # oracle sees the whole factor set.
    for m, buf in ((2, fibo), (3, tribo), (4, fourbo)):
        sym = buf.symbols[:12_000]
        for n in range(0, 121):
            factors = brute_factors(sym, n + 1)
            assert len(factors) == (m - 1) * (n + 1) + 1
            right: dict[bytes, set[int]] = {}
            left: dict[bytes, set[int]] = {}
            for w in factors:
                right.setdefault(w[:n], set()).add(w[-1])
                left.setdefault(w[1:], set()).add(w[0])
            specials = [w for w, s in right.items() if len(s) >= 2]
            assert len(specials) == 1
            (word,) = specials
            record = right_special_factor(buf, n)
            assert record.word == word
            assert len(right[word]) == m
            assert record.left_extensions == len(left[word])
            assert record.is_bispecial == (len(left[word]) >= 2)


def test_right_special_extension_degree(tribo):
    # Oracle: every letter follows the record's word somewhere in a long
    # prefix.
    sym = tribo.symbols[:20_000]
    for n in range(1, 40):
        word = right_special_factor(tribo, n).word
        followers = {w[-1] for w in brute_factors(sym, n + 1) if w[:n] == word}
        assert followers == {0, 1, 2}


@pytest.mark.parametrize("query", [
    lambda b: right_special_factor(b, -1),
    lambda b: is_min_complexity_length(0),
], ids=["right_special_factor", "is_min_complexity_length"])
def test_length_checks(tribo, query):
    with pytest.raises(InvalidInputError, match="length must be an integer >= "):
        query(tribo)


def test_right_special_index_route_agrees(tribo):
    # Oracle: the one length-n word with two right extensions among all
    # 2(n + 1) + 1 factors of length n + 1 of a long prefix.
    index = factor_index(tribo, 300)
    sym = tribo.symbols[:20_000]
    rng = random.Random(11)
    for n in [0, 1, 2, 3] + [rng.randrange(4, 300) for _ in range(25)]:
        factors = brute_factors(sym, n + 1)
        assert len(factors) == 2 * (n + 1) + 1
        prefixes = Counter(w[:n] for w in factors)
        (word,) = [w for w, count in prefixes.items() if count >= 2]
        assert right_special_parikh(tribo, index, n) == brute_parikh(word, 3)
        assert right_special_factor(tribo, n).parikh == brute_parikh(word, 3)


def test_bispecial_lengths_closed_form(tribo):
    assert bispecial_lengths(30) == [1, 3, 7, 14, 27]
    assert bispecial_lengths(0) == []
    assert all(right_special_factor(tribo, n).is_bispecial for n in bispecial_lengths(30))


def test_bispecial_lengths_are_palindromic_prefixes(tribo):
    for length in bispecial_lengths(200):
        prefix = tribo.slice(0, length)
        assert prefix == prefix[::-1]


def test_bispecial_flags_match_closed_form(tribo):
    # The empty word is trivially bispecial; the closed form starts at
    # length 1 (its n=1 case is carved out separately in the five-way
    # characterization).
    listed = set(bispecial_lengths(60)) | {0}
    for n in range(0, 61):
        assert right_special_factor(tribo, n).is_bispecial == (n in listed)


def test_central_set_examples(tribo):
    base = right_special_factor(tribo, 0).parikh
    assert central_vectors(base) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert boundary_vectors(base) == ((-1, 1, 1), (1, -1, 1), (1, 1, -1))


def test_central_contained_in_realized(tribo):
    for n in (1, 2, 7, 30, 100):
        assert central(tribo, n) <= parikh_set(tribo, n)


def test_boundary_meets_realized_iff_not_min(tribo):
    for n in range(1, 80):
        realized = parikh_set(tribo, n)
        b = boundary(tribo, n)
        assert (len(realized) == 3) == (not (b & realized))


def test_boundary_disjoint_at_min_length(tribo):
    assert not (boundary(tribo, 4) & parikh_set(tribo, 4))


def test_twelve_vector_geometry(tribo):
    g = twelve_vector_geometry(tribo, 10)
    assert g.n == 10 and g.base == right_special_factor(tribo, 9).parikh
    assert len(NEIGHBORHOOD) == 12
    sizes = sorted((len(r.vectors) for r in REGIONS), reverse=True)
    assert sizes == [7, 7, 7, 6, 6, 6]
    assert g.containing
    # The full enumeration finds one extra maximal set: the triangle of
    # the three boundary offsets.
    assert CLIQUE_SIZES == (7, 7, 7, 6, 6, 6, 6)
    (extra,) = EXTRA_CLIQUES
    assert set(boundary_vectors((0, 0, 0))) <= extra
    assert boundary(tribo, 10) == {
        tuple(b + d for b, d in zip(g.base, off)) for off in boundary_vectors((0, 0, 0))
    }


def test_neighborhood_structure_is_constant():
    # Built once at import, relative to the special factor's Parikh vector.
    assert isinstance(NEIGHBORHOOD, tuple) and isinstance(REGIONS, tuple)
    assert len(NEIGHBORHOOD) == 12 and all(sum(d) == 1 for d in NEIGHBORHOOD)
    assert [(r.kind, r.anchor_letter) for r in REGIONS] == \
        [("hexagon", 0), ("hexagon", 1), ("hexagon", 2),
         ("triangle", 0), ("triangle", 1), ("triangle", 2)]
    assert [len(r.vectors) for r in REGIONS] == [7, 7, 7, 6, 6, 6]
    assert CLIQUE_SIZES == (7, 7, 7, 6, 6, 6, 6)
    (extra,) = EXTRA_CLIQUES
    assert len(extra) == 6
    assert {(-1, 1, 1), (1, -1, 1), (1, 1, -1)} <= extra


def test_geometry_from_given_vectors_matches_default(tribo):
    index = factor_index(tribo, 300)
    rows = abelian_profile(tribo, 1, 300, collect_vectors=True)
    for n in (1, 2, 4, 30, 31, 177, 300):
        base = right_special_parikh(tribo, index, n - 1)
        given = twelve_vector_geometry(tribo, n, vectors=rows[n - 1].vectors, base=base)
        assert given == twelve_vector_geometry(tribo, n)


def test_twelve_vector_geometry_refuses_non_tribonacci(fourbo):
    with pytest.raises(InvalidInputError):
        twelve_vector_geometry(fourbo, 10)


def test_geometry_at_full_complexity(tribo):
    g = twelve_vector_geometry(tribo, 3914)
    assert g.containing
    assert all(REGIONS[i].kind == "hexagon" for i in g.containing)
    assert len(parikh_set(tribo, 3914)) == 7


def test_geometry_region_membership_counts():
    # Hexagons are unit balls around the central offsets; each of the 12
    # offsets belongs to at least one region and the union is everything.
    union = set()
    for r in REGIONS:
        union |= r.vectors
    assert union == set(NEIGHBORHOOD)


def test_geometry_matches_absolute_regions(tribo):
    # Oracle: rebuild the six regions in absolute coordinates, base + offset,
    # at every length, and test the realized vectors against them directly.
    index = factor_index(tribo, 2000)
    for row in abelian_profile(tribo, 1, 2000, collect_vectors=True):
        base = right_special_parikh(tribo, index, row.n - 1)
        g = twelve_vector_geometry(tribo, row.n, vectors=row.vectors, base=base)

        def absolute(off):
            return tuple(b + d for b, d in zip(base, off))

        realized = set(row.vectors)
        assert realized <= {absolute(d) for d in NEIGHBORHOOD}
        expected = tuple(i for i, r in enumerate(REGIONS)
                         if realized <= {absolute(d) for d in r.vectors})
        assert g.containing == expected, row.n


def test_geometry_refuses_escaping_and_unfit_sets(tribo):
    base = right_special_factor(tribo, 9).parikh

    def absolute(offsets):
        return [tuple(b + d for b, d in zip(base, off)) for off in offsets]

    with pytest.raises(InvariantViolationError):
        twelve_vector_geometry(tribo, 10, vectors=absolute([(3, -1, -1)]), base=base)
    # The boundary triangle is maximal but not a region.
    (extra,) = EXTRA_CLIQUES
    with pytest.raises(InvariantViolationError):
        twelve_vector_geometry(tribo, 10, vectors=absolute(extra), base=base)


def test_min_complexity_closed_form():
    assert is_min_complexity_length(1)
    assert is_min_complexity_length(2)  # (1 + 4 - 1) / 2
    assert not is_min_complexity_length(30)
    assert min_complexity_lengths(30) == [1, 2, 4, 8, 15, 28]
    assert min_complexity_lengths(5000) == [
        1, 2, 4, 8, 15, 28, 52, 96, 177, 326, 600, 1104, 2031, 3736,
    ]


def test_successor_length_examples(tribo):
    assert successor_length(tribo, 1) == 2
    assert successor_length(tribo, 2) == 4  # image of "0" plus 0 is "010"


def test_successor_maps_min_complexity_into_itself(tribo):
    for n in min_complexity_lengths(600):
        assert is_min_complexity_length(successor_length(tribo, n))


def test_successor_formula(tribo):
    for n in range(1, 120):
        value = successor_length(tribo, n)
        i, j, _ = right_special_factor(tribo, n - 1).parikh
        assert value == n + i + j + 1


def test_boundary_propagation(tribo):
    # If the realized set meets the boundary triple at n, it does so again
    # at the successor length.
    tribo.ensure(250_000)
    index = factor_index(tribo, 1300)
    rows = abelian_profile(tribo, 1, 1300, collect_vectors=True)
    vecs = {r.n: set(r.vectors) for r in rows}

    def meets_boundary(n: int) -> bool:
        i, j, k = right_special_parikh(tribo, index, n - 1)
        b = {(i - 1, j + 1, k + 1), (i + 1, j - 1, k + 1), (i + 1, j + 1, k - 1)}
        return bool(b & vecs[n])

    def successor(n: int) -> int:
        i, j, _ = right_special_parikh(tribo, index, n - 1)
        return n + i + j + 1

    for n in range(1, 501):
        if meets_boundary(n):
            assert meets_boundary(successor(n))


def test_imbalance_forces_complexity(tribo):
    # If some factor of length n carries at least two more leading-letter
    # occurrences than the right special factor of length n-1, the abelian
    # complexity at n exceeds 3.
    index = factor_index(tribo, 600)
    rows = abelian_profile(tribo, 1, 500, collect_vectors=True)
    for row in rows:
        i, j, _ = right_special_parikh(tribo, index, row.n - 1)
        max_zero = max(v[0] for v in row.vectors)
        max_one = max(v[1] for v in row.vectors)
        if max_zero >= i + 2 or max_one >= j + 2:
            assert row.rho > 3


def test_equivalences(tribo):
    rows = verify_equivalences(tribo, 60)
    agree_set = {r.n for r in rows if r.complexity_is_min}
    assert agree_set & set(range(1, 31)) == {1, 2, 4, 8, 15, 28}
    for r in rows:
        assert r.all_agree()


def test_equivalences_bispecial_at_15(tribo):
    rows = verify_equivalences(tribo, 15)
    assert rows[14].bispecial_exists  # length-14 bispecial factor exists
    assert 14 in bispecial_lengths(14)
