"""Combining child covers across a tight cut, and the full recursive solve.

Both contractions of a tight cut come back with covers y and t of their own
edge sets.  A perfect matching crosses a tight cut exactly once (Lovasz
1987), so for each cut edge e the child matchings through e form a group
with coefficient sum 1 on both sides, and any coefficient assignment to the
pairwise unions whose row and column marginals reproduce y and t yields a
cover of the parent.

Coefficients are doubled ints, as in ``cover``: a group sums to 2, +1/2 is
1, and every prefix sum below is an int.  Doubling is monotone, so sorting
doubled values orders terms exactly as sorting the coefficients would.
Child matchings are lifted into parent edge ids as they are grouped.  A
contraction keeps the parent's relative edge order, so lifting is increasing
and the lifted terms sort exactly as the child terms would.

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
monotonically, which keeps the union matchings linearly independent.  The
merge itself checks none of this: ``exact_cover`` checks the class, the
distinctness of the matchings and the edge sums of every cover it builds,
leaf and merged alike.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate
from typing import Sequence

from .cover import CoverSolution, exact_cover, in_class
from .decomposition import ContractionMap, DecompositionTree, LeafClass, decompose
from .graphs import Cut, MultiGraph
from .leaf_solvers import brace_solve, brick_solve, petersen_solve

Term = tuple[frozenset[int], int]


def _sort_key(term: Term) -> tuple[int, tuple[int, ...]]:
    return term[1], tuple(sorted(term[0]))


def signed_split(terms: Sequence[Term]) -> tuple[list[Term], list[Term]]:
    """Positive terms and negated negative terms, each sorted non-decreasingly.

    Values stay doubled, so halves (1) sort first among the positives; the
    negatives carry doubled magnitudes.
    """
    positives = sorted((t for t in terms if t[1] > 0), key=_sort_key)
    negatives = sorted(((m, -twice) for m, twice in terms if twice < 0), key=_sort_key)
    return positives, negatives


def _augment(positives: list[Term], negatives: list[Term], delta: int) -> None:
    """Add doubled ``delta`` of negative mass without changing any matching's total.

    The largest positive entry s is split as (s + delta) - delta when s is
    an integer.  When every positive is a half, splitting would create an
    out-of-class half above 1/2, so a fresh +delta/-delta pair on the largest
    half's matching is appended instead.  Both lists are updated in place.
    """
    if not positives:
        raise ValueError("cannot balance a group with no positive coefficients")
    key, value = positives[-1]
    if value % 2 == 0:
        positives[-1] = (key, value + delta)
    else:
        positives.append((key, delta))
    negatives.append((key, delta))
    positives.sort(key=_sort_key)
    negatives.sort(key=_sort_key)


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
        out.append((i + 1, j + 1, mark - prev))
        prev = mark
    return out


def _merge_group(left_terms: Sequence[Term], right_terms: Sequence[Term]) -> list[Term]:
    """Merge the two sides of one cut edge's group, both in parent edge ids."""
    left_pos, left_neg = signed_split(left_terms)
    right_pos, right_neg = signed_split(right_terms)
    delta = sum(v for _, v in right_neg) - sum(v for _, v in left_neg)
    if delta > 0:
        _augment(left_pos, left_neg, delta)
    elif delta < 0:
        _augment(right_pos, right_neg, -delta)
    merged: list[Term] = []
    for sign, left, right in ((1, left_pos, right_pos), (-1, left_neg, right_neg)):
        if left or right:
            triples = pair_sequences([v for _, v in left], [v for _, v in right])
            merged.extend(
                (left[i - 1][0] | right[j - 1][0], sign * value) for i, j, value in triples
            )
    return merged


def _group_by_cut_edge(
    solution: CoverSolution, cmap: ContractionMap
) -> defaultdict[int, list[Term]]:
    """Child terms lifted into parent edge ids, keyed by the cut edge they cross."""
    at_contracted = set(solution.graph.incident_ids[cmap.contracted_vertex])
    groups: defaultdict[int, list[Term]] = defaultdict(list)
    for matching, twice in solution.terms:
        (crossing,) = [e for e in matching if e in at_contracted]
        groups[cmap.child_to_parent[crossing]].append((cmap.lift_edges(matching), twice))
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

    Child matchings are lifted into parent edge ids as they are grouped;
    lifting is increasing, so each group sorts as its child terms would.  The
    groups' merged terms are concatenated in ascending cut-edge order.
    Only the parent cover is validated, by ``exact_cover``, which checks the
    class, that no union matching repeats and that every edge sums to 1.  The
    solve builds each child through ``exact_cover`` too, and a bad child
    still cannot yield an unchecked cover: a matching that does not cross
    the cut once, or a group that cannot be paired, raises ``ValueError``,
    and any other fault carries into the parent's terms.
    """
    left_groups = _group_by_cut_edge(left_solution, left_map)
    right_groups = _group_by_cut_edge(right_solution, right_map)
    terms = [
        term
        for e in sorted(cut.edge_ids)
        for term in _merge_group(left_groups[e], right_groups[e])
    ]
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
