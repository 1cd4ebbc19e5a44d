"""Combining child covers across a tight cut, and the full recursive solve.

Both contractions of a tight cut come back with covers y and t of their own
edge sets.  For each cut edge e, the child matchings through e form a group
with coefficient sum 1 on both sides, and any coefficient assignment to the
pairwise unions whose row and column marginals reproduce y and t yields a
cover of the parent.

Coefficients are doubled ints, as in ``cover``: a group sums to 2, +1/2 is
1, and every prefix sum below is an int.  Doubling is monotone, so sorting
doubled values orders terms exactly as sorting the coefficients would.

The classical assignment multiplies coefficients; it can leave the
integer-or-+1/2 class, e.g. two half/half groups produce quarters.  It is
kept as a test oracle in ``tests/oracles.py``, with the checks of the
preserved merge properties on a solved tree.  The solve instead pairs sorted
coefficient sequences by prefix sums: negatives are first balanced to equal
mass by splitting one positive entry, then positives pair with positives and
negatives with negatives segment by segment.  Pairing preserves the class
(equal sums force equally many halves mod 2, so every segment is a half or
an integer), adds at most one term per merged entry, never exceeds the
unaugmented side's largest coefficient, and walks the index pairs
monotonically, which keeps the union matchings linearly independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .cover import CoverSolution, exact_cover, in_class
from .decomposition import ContractionMap, DecompositionTree, LeafClass, decompose
from .graphs import Cut, MultiGraph
from .leaf_solvers import brace_solve, brick_solve, petersen_solve

Term = tuple[frozenset[int], int]


@dataclass(frozen=True)
class SignedSequences:
    """One side of an edge group, split by sign and sorted non-decreasingly.

    Positives carry doubled coefficient values, so halves (1) sort first;
    negatives carry doubled magnitudes, always even for in-class covers.
    """

    positives: tuple[Term, ...]
    negatives: tuple[Term, ...]

    @property
    def negative_mass(self) -> int:
        return sum(v for _, v in self.negatives)


def _sort_key(term: Term) -> tuple[int, tuple[int, ...]]:
    return term[1], tuple(sorted(term[0]))


def signed_split(terms: Sequence[Term]) -> SignedSequences:
    """Split group terms by sign; rejects coefficients outside integers and +1/2."""
    positives: list[Term] = []
    negatives: list[Term] = []
    for matching, twice in terms:
        if not in_class(twice):
            raise ValueError(f"coefficient {twice}/2 is neither integral nor +1/2")
        if twice > 0:
            positives.append((matching, twice))
        else:
            negatives.append((matching, -twice))
    total = sum(v for _, v in positives) - sum(v for _, v in negatives)
    if total != 2:
        raise ValueError(f"group coefficients sum to {total}/2, expected 1")
    return SignedSequences(
        tuple(sorted(positives, key=_sort_key)), tuple(sorted(negatives, key=_sort_key))
    )


def _augment(side: SignedSequences, delta: int) -> SignedSequences:
    """Add doubled ``delta`` of negative mass without changing any matching's total.

    The largest positive entry s is split as (s + delta) - delta when s is
    an integer.  When every positive is a half, splitting would create an
    out-of-class half above 1/2, so a fresh +delta/-delta pair on the largest
    half's matching is appended instead.
    """
    if not side.positives:
        raise ValueError("cannot balance a group with no positive coefficients")
    key, value = side.positives[-1]
    if value % 2 == 0:
        positives = side.positives[:-1] + ((key, value + delta),)
    else:
        positives = side.positives + ((key, delta),)
    negatives = side.negatives + ((key, delta),)
    return SignedSequences(
        tuple(sorted(positives, key=_sort_key)), tuple(sorted(negatives, key=_sort_key))
    )


def balance_negatives(
    left: SignedSequences, right: SignedSequences
) -> tuple[SignedSequences, SignedSequences]:
    """Equalize the negative mass of the two sides; at most one side changes."""
    l1 = left.negative_mass
    l2 = right.negative_mass
    if l1 == l2:
        return left, right
    if l1 < l2:
        return _augment(left, l2 - l1), right
    return left, _augment(right, l1 - l2)


def pair_sequences(a: Sequence[int], b: Sequence[int]) -> list[tuple[int, int, int]]:
    """Pair two sorted sequences of doubled values of equal sum by prefix-sum segments.

    Emits (i, j, value) with 1-based indices: for each segment between
    consecutive marked prefix sums, i and j are the minimal indices whose
    prefixes reach the segment's right end.  Marginals are exact (entry a_i
    receives total a_i across its triples, likewise b_j), at most
    len(a) + len(b) - 1 triples appear, and with entries from {1} (a half)
    and the positive even ints (integers) every emitted value stays in that
    class.
    """
    for name, seq in (("a", a), ("b", b)):
        if not seq:
            raise ValueError(f"sequence {name} is empty")
        if any(v <= 0 or not in_class(v) for v in seq):
            raise ValueError(f"sequence {name} has an entry outside {{1/2}} and the positive integers")
        if any(x > y for x, y in zip(seq, seq[1:])):
            raise ValueError(f"sequence {name} is not sorted non-decreasingly")
    prefix_a = list(accumulate(a))
    prefix_b = list(accumulate(b))
    if prefix_a[-1] != prefix_b[-1]:
        raise ValueError(f"sums differ: {prefix_a[-1]} vs {prefix_b[-1]}")
    marks = sorted(set(prefix_a) | set(prefix_b))
    out: list[tuple[int, int, int]] = []
    prev = 0
    i = j = 0
    for mark in marks:
        while prefix_a[i] < mark:
            i += 1
        while prefix_b[j] < mark:
            j += 1
        value = mark - prev
        if not in_class(value):
            raise AssertionError(f"segment value {value}/2 left the coefficient class")
        out.append((i + 1, j + 1, value))
        prev = mark
    return out


def _paired_terms(
    left_entries: tuple[Term, ...],
    right_entries: tuple[Term, ...],
    left_map: ContractionMap,
    right_map: ContractionMap,
    sign: int,
) -> list[Term]:
    triples = pair_sequences(
        [v for _, v in left_entries], [v for _, v in right_entries]
    )
    out: list[Term] = []
    for i, j, value in triples:
        union = left_map.lift_edges(left_entries[i - 1][0]) | right_map.lift_edges(
            right_entries[j - 1][0]
        )
        out.append((union, sign * value))
    return out


def _merge_group(
    left_terms: Sequence[Term],
    right_terms: Sequence[Term],
    left_map: ContractionMap,
    right_map: ContractionMap,
) -> list[Term]:
    """Merge the two sides of one cut edge's group into parent terms."""
    left, right = balance_negatives(signed_split(left_terms), signed_split(right_terms))
    merged = _paired_terms(left.positives, right.positives, left_map, right_map, 1)
    if left.negatives:
        merged.extend(_paired_terms(left.negatives, right.negatives, left_map, right_map, -1))
    return merged


def _group_by_cut_edge(
    solution: CoverSolution, cmap: ContractionMap, cut: Cut
) -> dict[int, list[Term]]:
    """Partition child terms by the cut edge their matching crosses."""
    at_contracted = set(solution.graph.incident_ids[cmap.contracted_vertex])
    groups: dict[int, list[Term]] = {e: [] for e in sorted(cut.edge_ids)}
    for matching, twice in solution.terms:
        crossing = [e for e in matching if e in at_contracted]
        if len(crossing) != 1:
            raise ValueError("child matching must cross the contracted vertex once")
        parent_edge = cmap.child_to_parent[crossing[0]]
        groups[parent_edge].append((matching, twice))
    return groups


def improved_merge(
    g: MultiGraph,
    cut: Cut,
    left_solution: CoverSolution,
    right_solution: CoverSolution,
    left_map: ContractionMap,
    right_map: ContractionMap,
) -> CoverSolution:
    """Combine child covers with the pairing rule; stays in the coefficient class.

    Only the parent cover is validated.  The solve builds each child through
    ``exact_cover``, and a bad child still cannot yield an unchecked cover: a
    group that leaves the class or does not sum to 1 fails in
    ``signed_split``, and any other fault carries into the parent's terms or
    edge sums, which ``exact_cover`` checks.
    """
    left_groups = _group_by_cut_edge(left_solution, left_map, cut)
    right_groups = _group_by_cut_edge(right_solution, right_map, cut)
    combined: dict[frozenset[int], int] = {}
    emitted = 0
    for parent_edge in sorted(cut.edge_ids):
        if not left_groups[parent_edge] or not right_groups[parent_edge]:
            raise ValueError(f"no child matching crosses cut edge {parent_edge}")
        for matching, twice in _merge_group(
            left_groups[parent_edge],
            right_groups[parent_edge],
            left_map,
            right_map,
        ):
            emitted += 1
            combined[matching] = combined.get(matching, 0) + twice
    if emitted != len(combined):
        raise AssertionError("distinct group pairings produced the same union matching")
    terms = [(m, c) for m, c in combined.items() if c != 0]
    for _, twice in terms:
        if not in_class(twice):
            raise AssertionError(f"merged coefficient {twice}/2 left the class")
    return exact_cover(g, terms)


def _solve_leaf(leaf: DecompositionTree) -> CoverSolution:
    if leaf.leaf_class is LeafClass.BRACE:
        return brace_solve(leaf.graph)
    if leaf.leaf_class is LeafClass.PETERSEN_BRICK:
        return petersen_solve(leaf.graph)
    return brick_solve(leaf.graph)


def _fold(node: DecompositionTree) -> CoverSolution:
    if node.is_leaf:
        node.solution = _solve_leaf(node)
        return node.solution
    assert node.left is not None and node.right is not None
    assert node.cut is not None and node.left_map is not None and node.right_map is not None
    node.solution = improved_merge(
        node.graph,
        node.cut,
        _fold(node.left),
        _fold(node.right),
        node.left_map,
        node.right_map,
    )
    return node.solution


def solve_r_graph(g: MultiGraph) -> tuple[CoverSolution, DecompositionTree]:
    """Decompose, solve every leaf, and fold the tree back up.

    ``decompose`` rejects an input that is not an r-graph.  Each cover is
    validated once, by ``exact_cover``, when its leaf solver or merge builds it.
    """
    tree = decompose(g)
    return _fold(tree), tree
