"""Weighted perfect-matching covers and their exact invariants.

A cover assigns a nonzero coefficient to each of a set of distinct perfect
matchings so that every edge id is covered with total weight exactly one.
Every coefficient x is stored doubled, as the Python int t = 2x, in memory
as in the certificate's ``twice_value``.  The paper's class, integers or
+1/2, is then the ints t with t even or t == 1, so every check is an int
comparison: each edge sums to 2, and the coefficients of an r-graph's cover
sum to 2r.

Construction is deliberately two-tier: ``CoverSolution`` itself validates only
structure (ids in range, coefficients nonzero), so a verifier can load
untrusted term data and report on it; ``exact_cover`` is the strict factory
the solvers and the merge use, which additionally demands that each term is
a perfect matching with a coefficient in the class, that no matching
repeats, and that the per-edge sums are exactly 2.  Every leaf cover and
every merged cover is built through it, so the class is checked there once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import MultiGraph
from .linalg import Echelon, ModEchelon
from .matchings import incidence_mask, incidence_row, validate_perfect_matching


def in_class(twice: int) -> bool:
    """Whether the doubled coefficient ``twice`` is an integer or exactly +1/2."""
    return twice % 2 == 0 or twice == 1


@dataclass(frozen=True)
class CoverSolution:
    """Terms (matching edge ids, doubled coefficient) over a host graph.

    A term (M, t) puts weight t/2 on every edge of M; t is a nonzero int.
    """

    graph: MultiGraph
    terms: tuple[tuple[frozenset[int], int], ...]

    def __post_init__(self) -> None:
        for edge_ids, twice in self.terms:
            if twice == 0:
                raise ValueError("zero coefficient in cover term")
            for e in edge_ids:
                if not 0 <= e < self.graph.m:
                    raise ValueError(f"term references unknown edge id {e}")

    @property
    def matchings(self) -> tuple[frozenset[int], ...]:
        return tuple(edge_ids for edge_ids, _ in self.terms)

    @property
    def coefficients(self) -> tuple[int, ...]:
        return tuple(t for _, t in self.terms)

    @property
    def support(self) -> int:
        return len(self.terms)

    def coverage(self) -> list[int]:
        """Doubled total coefficient landing on each edge id; 2 on a cover."""
        sums = [0] * self.graph.m
        for edge_ids, twice in self.terms:
            for e in edge_ids:
                sums[e] += twice
        return sums

    def coefficient_sum(self) -> int:
        """Doubled sum of the coefficients; 2r on a cover of an r-graph."""
        return sum(self.coefficients)

    def inf_norm(self) -> int:
        """Doubled largest coefficient magnitude."""
        return max((abs(t) for t in self.coefficients), default=0)

    @property
    def halves_count(self) -> int:
        """Coefficients equal to +1/2; any other non-integer fails halves_exact instead."""
        return sum(1 for t in self.coefficients if t == 1)

    def halves_exact(self) -> bool:
        """Every coefficient is an integer or exactly +1/2."""
        return all(in_class(t) for t in self.coefficients)


def terms_independent(graph: MultiGraph, matchings: Sequence[frozenset[int]]) -> bool:
    """Whether the edge sets' 0/1 incidence vectors are linearly independent over Q.

    Independence mod 2, else mod 3, certifies it (see ``linalg``); only rows
    dependent mod both primes, dependent ones among them, pay for an exact
    ``Echelon``, grown the same way, one row at a time.  The edge sets are
    not validated as perfect matchings, so a verifier can report on any
    terms: the rank of 0/1 vectors is always defined.  Their ids must lie in range(graph.m), as ``CoverSolution``
    checks.
    """
    masks = [incidence_mask(pm) for pm in matchings]
    for p in (2, 3):
        echelon = ModEchelon(p)
        if all(echelon.add(mask) for mask in masks):
            return True
    exact = Echelon(graph.m)
    return all(exact.add(incidence_row(graph, pm)) for pm in matchings)


def exact_cover(
    graph: MultiGraph, terms: Iterable[tuple[frozenset[int], int]]
) -> CoverSolution:
    """Strict constructor: distinct perfect matchings, in-class coefficients, 2 per edge."""
    normalized = tuple((frozenset(edge_ids), twice) for edge_ids, twice in terms)
    sol = CoverSolution(graph, normalized)
    seen: set[frozenset[int]] = set()
    for edge_ids, twice in normalized:
        if not in_class(twice):
            raise ValueError(f"coefficient {twice}/2 is neither integral nor +1/2")
        validate_perfect_matching(graph, edge_ids)
        if edge_ids in seen:
            raise ValueError("duplicated matching in cover")
        seen.add(edge_ids)
    for e, total in enumerate(sol.coverage()):
        if total != 2:
            raise ValueError(
                f"edge {e} covered with doubled total weight {total}, expected 2"
            )
    return sol
