"""Weighted perfect-matching covers and their exact invariants.

A cover assigns a nonzero rational coefficient to each of a set of distinct
perfect matchings so that every edge id is covered with total weight exactly
one.  Coefficients live in ``fractions.Fraction``; the serialized form stores
2x as an integer, which is lossless for the integer-or-half class produced by
the solvers.

Construction is deliberately two-tier: ``CoverSolution`` itself validates only
structure (ids in range, coefficients nonzero), so a verifier can load
untrusted term data and report on it; ``exact_cover`` is the strict factory
the solvers use, which additionally demands that each term is a perfect
matching, that no matching repeats, and that the per-edge sums are exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graphs import MultiGraph
from .linalg import rank
from .matchings import incidence_rows, validate_perfect_matching

HALF = Fraction(1, 2)


def to_twice(value: Fraction) -> int:
    """The integer 2*value; rejects anything outside halves of integers."""
    doubled = 2 * value
    if doubled.denominator != 1:
        raise ValueError(f"coefficient {value} is not a half of an integer")
    return int(doubled)


def from_twice(twice_value: int) -> Fraction:
    if twice_value == 0:
        raise ValueError("coefficient must be nonzero")
    return Fraction(twice_value, 2)


@dataclass(frozen=True)
class CoverSolution:
    """Terms (matching edge ids, coefficient) over a host graph."""

    graph: MultiGraph
    terms: tuple[tuple[frozenset[int], Fraction], ...]

    def __post_init__(self) -> None:
        for edge_ids, coefficient in self.terms:
            if coefficient == 0:
                raise ValueError("zero coefficient in cover term")
            for e in edge_ids:
                if not 0 <= e < self.graph.m:
                    raise ValueError(f"term references unknown edge id {e}")

    @property
    def matchings(self) -> tuple[frozenset[int], ...]:
        return tuple(edge_ids for edge_ids, _ in self.terms)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(c for _, c in self.terms)

    @property
    def support(self) -> int:
        return len(self.terms)

    def coverage(self) -> list[Fraction]:
        """Total coefficient landing on each edge id."""
        sums = [Fraction(0)] * self.graph.m
        for edge_ids, coefficient in self.terms:
            for e in edge_ids:
                sums[e] += coefficient
        return sums

    def coefficient_sum(self) -> Fraction:
        return sum(self.coefficients, Fraction(0))

    def inf_norm(self) -> Fraction:
        return max((abs(c) for c in self.coefficients), default=Fraction(0))

    def fractional_coefficients(self) -> list[Fraction]:
        return [c for c in self.coefficients if c.denominator != 1]

    @property
    def halves_count(self) -> int:
        """Coefficients equal to +1/2; any other fraction fails halves_exact instead."""
        return sum(1 for c in self.coefficients if c == HALF)

    def halves_exact(self) -> bool:
        """Every non-integral coefficient is exactly +1/2."""
        return all(c == HALF for c in self.fractional_coefficients())


def terms_independent(graph: MultiGraph, matchings: Sequence[frozenset[int]]) -> bool:
    """Whether the edge sets' 0/1 incidence vectors are linearly independent.

    The edge sets are not validated as perfect matchings, so a verifier can
    report on any terms: the rank of 0/1 vectors is always defined.
    """
    if not matchings:
        return True
    return rank(incidence_rows(graph, matchings)) == len(matchings)


def exact_cover(
    graph: MultiGraph, terms: Iterable[tuple[frozenset[int], Fraction]]
) -> CoverSolution:
    """Strict constructor: terms must be distinct perfect matchings summing to 1 per edge."""
    normalized = tuple((frozenset(edge_ids), Fraction(c)) for edge_ids, c in terms)
    sol = CoverSolution(graph, normalized)
    seen: set[frozenset[int]] = set()
    for edge_ids, _ in normalized:
        validate_perfect_matching(graph, edge_ids)
        if edge_ids in seen:
            raise ValueError("duplicated matching in cover")
        seen.add(edge_ids)
    for e, total in enumerate(sol.coverage()):
        if total != 1:
            raise ValueError(f"edge {e} covered with total weight {total}, expected 1")
    return sol
