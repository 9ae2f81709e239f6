"""Right/left special factors and the Parikh-vector geometry they pin down.

A factor is right (left) special when at least two letters extend it on
the right (left) inside the word; the Tribonacci word has exactly one
right special factor of each length, extendable by all three letters.
Its Parikh vector (i, j, k) generates two distinguished vector triples
for each length n:

  central(n)  = {(i+1,j,k), (i,j+1,k), (i,j,k+1)}   -- always realized
  boundary(n) = {(i-1,j+1,k+1), (i+1,j-1,k+1), (i+1,j+1,k-1)}

The realized Parikh set at length n always contains central(n), and it
meets boundary(n) exactly when the abelian complexity exceeds 3.  All
realized vectors live in the twelve-point lattice neighborhood of
central(n), whose admissible regions (pairwise max-norm distance <= 2)
bound the abelian complexity by 7.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import takewhile

from .abelian import ParikhVector, abelian_profile, parikh_set, window_parikh
from .errors import (
    InvalidInputError,
    InvariantViolationError,
    VerificationFailureError,
    integer_in,
)
from .factors import factor_index
from .numeration import tribonacci_number
from .words import WordBuffer


@dataclass
class SpecialFactorRecord:
    """The unique right special factor of one length, with its left
    extension count; every letter extends it on the right."""

    length: int
    word: bytes
    parikh: ParikhVector
    left_extensions: int
    is_bispecial: bool


def right_special_factor(buffer: WordBuffer, length: int) -> SpecialFactorRecord:
    """The unique right special factor of the given length, read off the
    factor index with saturation certified through ``length + 1``.

    Exactly one factor with at least two right extensions may exist, and it
    must be extendable by every letter; anything else signals a word
    outside the certified family.
    """
    length = integer_in(length, "length")
    return _special_record(buffer, factor_index(buffer, length), length)


def _special_record(buffer: WordBuffer, index, length: int) -> SpecialFactorRecord:
    m = buffer.alphabet_size
    index.certify(length)
    index.certify(length + 1)
    end, deg, left = index.right_special_end(length)
    if deg != m:
        raise InvariantViolationError(
            f"right special factor of length {length} extends by {deg} letters, expected {m}"
        )
    return SpecialFactorRecord(
        length=length,
        word=buffer.symbols[end - length : end],
        parikh=window_parikh(buffer, end - length, length),
        left_extensions=left,
        is_bispecial=left >= 2,
    )


def _require_tribonacci(buffer: WordBuffer, what: str) -> None:
    if buffer.alphabet_size != 3:
        raise InvalidInputError(
            f"{what} applies to the 3-letter Tribonacci word, "
            f"got a {buffer.alphabet_size}-letter buffer"
        )


def _closed_form_lengths() -> Iterator[int]:
    """The increasing lengths (T_m + T_{m+2} - 1) / 2 for m = 0, 1, 2, ..."""
    m = 0
    while True:
        yield (tribonacci_number(m) + tribonacci_number(m + 2) - 1) // 2
        m += 1


def central_vectors(base: ParikhVector) -> tuple[ParikhVector, ...]:
    """The central triple over the special factor's Parikh vector ``base``."""
    i, j, k = base
    return ((i + 1, j, k), (i, j + 1, k), (i, j, k + 1))


def boundary_vectors(base: ParikhVector) -> tuple[ParikhVector, ...]:
    """The boundary triple over the special factor's Parikh vector ``base``."""
    i, j, k = base
    return ((i - 1, j + 1, k + 1), (i + 1, j - 1, k + 1), (i + 1, j + 1, k - 1))


# ---------------------------------------------------------------------------
# Twelve-vector neighborhood geometry

def _max_norm(u: ParikhVector, v: ParikhVector) -> int:
    return max(abs(a - b) for a, b in zip(u, v))


@dataclass(frozen=True)
class GeometryRegion:
    """One admissible region: a maximal set of pairwise max-norm-<=2
    offsets from the special factor's Parikh vector, shaped as a hexagon
    (7 points) or a triangle (6 points)."""

    kind: str  # "hexagon" or "triangle"
    anchor_letter: int
    vectors: frozenset[ParikhVector]


@dataclass(frozen=True)
class GeometryClassification:
    """Which regions of ``REGIONS`` hold the realized Parikh set of length
    n once it is shifted by -``base``; ``containing`` indexes ``REGIONS``."""

    n: int
    base: ParikhVector
    containing: tuple[int, ...]


def _maximal_cliques(vectors: list[ParikhVector]) -> list[frozenset[ParikhVector]]:
    """All maximal subsets with pairwise max-norm distance <= 2, by bitmask
    enumeration (the vertex count is 12, so 4096 subsets)."""
    k = len(vectors)
    adj = []
    for a in range(k):
        mask = 0
        for b in range(k):
            if a != b and _max_norm(vectors[a], vectors[b]) <= 2:
                mask |= 1 << b
        adj.append(mask)
    valid = [False] * (1 << k)
    valid[0] = True
    for s in range(1, 1 << k):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        valid[s] = valid[rest] and (adj[v] & rest) == rest
    cliques = []
    for s in range(1, 1 << k):
        if not valid[s]:
            continue
        if any(not (s >> v) & 1 and (adj[v] & s) == s for v in range(k)):
            continue
        cliques.append(frozenset(vectors[v] for v in range(k) if (s >> v) & 1))
    return cliques


_CENTRAL_OFFSETS = central_vectors((0, 0, 0))


def _offset_structure():
    """The neighborhood relative to the special factor's Parikh vector and
    its region decomposition.  The structure is translation invariant, so
    it is built once, when the module is imported.

    Returns (offsets, regions, extra_cliques, clique_sizes).  The offsets
    are the twelve vectors with coordinate sum 1 lying within max-norm 2 of
    every central offset.  The hexagon anchored at letter c is the closed
    unit max-norm ball around the central offset incrementing c; the
    triangle anchored at c holds the offsets whose only negative coordinate
    can be c.  Each region must be a maximal pairwise-<=2 subset of the
    neighborhood.
    """
    offsets = []
    for d0 in range(-2, 3):
        for d1 in range(-2, 3):
            d = (d0, d1, 1 - d0 - d1)
            if all(_max_norm(d, c) <= 2 for c in _CENTRAL_OFFSETS):
                offsets.append(d)
    offsets = tuple(sorted(offsets))
    if len(offsets) != 12:
        raise InvariantViolationError(
            f"expected a twelve-vector neighborhood, found {len(offsets)}"
        )
    regions = []
    for c in (0, 1, 2):
        ball = frozenset(v for v in offsets if _max_norm(v, _CENTRAL_OFFSETS[c]) <= 1)
        regions.append(GeometryRegion("hexagon", c, ball))
    for c in (0, 1, 2):
        tri = frozenset(
            v for v in offsets if all(v[a] >= 0 for a in (0, 1, 2) if a != c)
        )
        regions.append(GeometryRegion("triangle", c, tri))
    cliques = _maximal_cliques(list(offsets))
    clique_sets = set(cliques)
    for region in regions:
        if region.vectors not in clique_sets:
            raise InvariantViolationError(
                f"{region.kind} region at letter {region.anchor_letter} is not a maximal subset"
            )
    region_sets = {region.vectors for region in regions}
    extra = tuple(cl for cl in cliques if cl not in region_sets)
    sizes = tuple(sorted((len(cl) for cl in cliques), reverse=True))
    return offsets, tuple(regions), extra, sizes


# The one copy of the geometry, in offsets from the special factor's
# Parikh vector: the twelve neighborhood offsets, the six regions, the
# maximal pairwise-<=2 subsets that are not regions, and the sizes of all
# maximal subsets.
NEIGHBORHOOD, REGIONS, EXTRA_CLIQUES, CLIQUE_SIZES = _offset_structure()


def twelve_vector_geometry(buffer: WordBuffer, n: int,
                           vectors: Iterable[ParikhVector] | None = None,
                           base: ParikhVector | None = None) -> GeometryClassification:
    """Classify the realized Parikh set of length n inside its admissible
    neighborhood.

    The realized vectors -- ``vectors`` when given (the length's realized
    Parikh vectors, as in ``ProfileRow.vectors``), else ``parikh_set`` --
    are shifted by -``base``, the Parikh vector of the right special factor
    of length n - 1 (looked up when not given).  The offsets must lie in
    ``NEIGHBORHOOD`` and the result lists the regions of ``REGIONS`` that
    hold them all.  A set that escapes the neighborhood, or fits none of
    the three hexagons and three triangles (and so would need the extra
    maximal triangle of ``EXTRA_CLIQUES``, spanned by the boundary
    offsets), raises ``InvariantViolationError``.  Only the 3-letter
    Tribonacci word is accepted.
    """
    _require_tribonacci(buffer, "twelve_vector_geometry")
    realized = parikh_set(buffer, n) if vectors is None else vectors
    if base is None:
        base = right_special_factor(buffer, n - 1).parikh
    i, j, k = base
    offsets = {(a - i, b - j, c - k) for a, b, c in realized}
    if not offsets.issubset(NEIGHBORHOOD):
        raise InvariantViolationError(
            f"realized Parikh set at n={n} escapes the twelve-vector neighborhood"
        )
    containing = tuple(
        idx for idx, region in enumerate(REGIONS) if offsets <= region.vectors
    )
    if not containing:
        raise InvariantViolationError(
            f"realized Parikh set at n={n} fits no hexagon or triangle region"
        )
    return GeometryClassification(n=n, base=base, containing=containing)


def right_special_parikh(buffer: WordBuffer, index, length: int) -> ParikhVector:
    """Parikh vector of the unique right special factor, from a given
    factor index whose region saturates ``length`` and ``length + 1``."""
    return _special_record(buffer, index, length).parikh


# ---------------------------------------------------------------------------
# Lengths of minimal abelian complexity

def is_min_complexity_length(n: int) -> bool:
    """Closed-form membership: n = 1 or n = (T_m + T_{m+2} - 1) / 2."""
    n = integer_in(n, "length", 1)
    return n == 1 or n == next(v for v in _closed_form_lengths() if v >= n)


def min_complexity_lengths(max_len: int) -> list[int]:
    """All lengths up to max_len with minimal (= 3) abelian complexity."""
    out = {1} if max_len >= 1 else set()
    out.update(takewhile(lambda v: v <= max_len, _closed_form_lengths()))
    return sorted(out)


# ---------------------------------------------------------------------------
# Five-way characterization

@dataclass
class EquivalenceRow:
    """Truth values of the five equivalent predicates at one length."""

    n: int
    one_balanced: bool
    complexity_is_min: bool
    boundary_disjoint: bool
    bispecial_exists: bool
    closed_form: bool

    def all_agree(self) -> bool:
        return len({self.one_balanced, self.complexity_is_min,
                    self.boundary_disjoint, self.bispecial_exists,
                    self.closed_form}) == 1


def verify_equivalences(buffer: WordBuffer, n_max: int) -> list[EquivalenceRow]:
    """Check, for every n up to n_max, that the five characterizations of
    minimal abelian complexity agree; raises ``VerificationFailureError``
    naming the first disagreeing length."""
    _require_tribonacci(buffer, "verify_equivalences")
    rows = []
    if n_max < 1:
        return rows
    for prow in abelian_profile(buffer, 1, n_max, collect_vectors=True):
        n = prow.n
        record = right_special_factor(buffer, n - 1)
        row = EquivalenceRow(
            n=n,
            one_balanced=max(prow.max_imbalance) <= 1,
            complexity_is_min=prow.rho == 3,
            boundary_disjoint=set(prow.vectors).isdisjoint(boundary_vectors(record.parikh)),
            bispecial_exists=record.is_bispecial,
            closed_form=is_min_complexity_length(n),
        )
        if not row.all_agree():
            raise VerificationFailureError(
                f"five-way characterization disagrees at n={n}: {row}"
            )
        rows.append(row)
    return rows
