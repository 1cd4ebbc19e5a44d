"""Brute-force oracles, independent of the library's algorithms.

Perfect matchings are enumerated here by pairing vertices (not by walking
edge ids), tight cuts by checking every matching against the definition,
minimum odd cuts and minimum s-t cuts by sweeping shores, 2-separations by
a component search per vertex pair, the Gallai-Edmonds sets by removing
one vertex at a time, and the Petersen graph by a backtracking isomorphism
search.
All of that is exponential and only meant for small graphs.  For larger
ones, ``is_tight_cut`` tests a cut with one perfect-matching search per
disjoint pair of cut edges; the library builds its cuts tight and never
tests them, so this is the check of every cut of a solved tree.  Rank and
coordinates are computed in Fractions, not by the library's fraction-free
integer elimination.

The reference contraction, ``contract_one_side``, builds one side of a
tight cut per call and checks the regularity of the child it built; the
library builds both sides in one pass and counts the crossing edges.

The library searches G minus a vertex set in place, warm from a matching
of G.  The reference for that is the library's cold ``maximum_matching`` on
a filtered copy of the adjacency, where a removed vertex keeps its label but
no edges.  The matching-covered check below completes each edge that way,
so it does not call the completion it checks.

The merge oracles at the end re-check a solved decomposition tree node by
node with the library's public checks (r-graph test, perfect-matching
search, rank), plus the classical product rule for merging child covers,
which is exact but can leave the integer-or-+1/2 class.  The library keeps
coefficients doubled, as ints; the oracles halve them into Fractions and
check edge sums of 1, so a quarter from the product rule stays
representable and the sums are not checked in the library's own units.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Optional, Sequence

from pmcover import (
    ContractionMap,
    CoverSolution,
    Cut,
    DecompositionTree,
    MultiGraph,
    build_graph,
    is_r_graph,
    perfect_matching_without,
    regular_degree,
    terms_independent,
)
from pmcover.graphs import components_without, cut_from_shore
from pmcover.matchings import maximum_matching

from corpus import PETERSEN_PAIRS


def vertex_pairings(g: MultiGraph) -> list[tuple[tuple[int, int], ...]]:
    """All partitions of the vertices into adjacent pairs."""
    pairs = set(g.pair_ids)

    def recurse(remaining: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
        if not remaining:
            return [()]
        v = remaining[0]
        rest = remaining[1:]
        out = []
        for w in rest:
            if (v, w) not in pairs and (w, v) not in pairs:
                continue
            for tail in recurse(tuple(u for u in rest if u != w)):
                out.append(((v, w),) + tail)
        return out

    return recurse(tuple(range(g.vertex_count)))


def all_pms(g: MultiGraph) -> list[frozenset[int]]:
    """Every perfect matching as an edge-id set, parallel copies expanded."""
    out = []
    for pairing in vertex_pairings(g):
        id_choices = []
        for v, w in pairing:
            key = (v, w) if v < w else (w, v)
            id_choices.append(g.pair_ids[key])
        for combo in product(*id_choices):
            out.append(frozenset(combo))
    return out


def odd_shores(g: MultiGraph, nontrivial: bool = False) -> list[frozenset[int]]:
    """All odd shores containing vertex 0 (one per complementary pair)."""
    n = g.vertex_count
    if n % 2 != 0:
        return []
    lower = 3 if nontrivial else 1
    out = []
    for size in range(lower, n - lower + 1, 2):
        for rest in combinations(range(1, n), size - 1):
            out.append(frozenset((0,) + rest))
    return out


def is_tight(g: MultiGraph, cut: Cut, matchings: list[frozenset[int]]) -> bool:
    return all(len(m & cut.edge_ids) == 1 for m in matchings)


def is_tight_cut(g: MultiGraph, cut: Cut, matching: Sequence[int]) -> bool:
    """Whether no perfect matching crosses the odd cut more than once.

    Two cut edges can only appear in one matching if they are vertex-disjoint,
    so it suffices to test, per disjoint pair, whether the graph minus the
    four endpoints still has a perfect matching.  Every test is
    ``perfect_matching_without`` the four ends, grown from ``matching``, a
    mate array of a matching of G; ``assert_solved_tree`` passes one
    maximum matching per node.
    """
    if not cut.odd:
        raise ValueError("tightness is defined for odd cuts only")
    ids = sorted(cut.edge_ids)
    for a in range(len(ids)):
        u1, v1 = g.edges[ids[a]]
        for b in range(a + 1, len(ids)):
            u2, v2 = g.edges[ids[b]]
            if len({u1, v1, u2, v2}) < 4:
                continue
            if perfect_matching_without(g, (u1, v1, u2, v2), matching) is not None:
                return False
    return True


def contract_one_side(
    g: MultiGraph, cut: Cut, keep_side: frozenset[int]
) -> tuple[MultiGraph, ContractionMap]:
    """The contraction that keeps ``keep_side``, one of the cut's two shores.

    The library's ``contract_shore`` builds both contractions in one pass;
    this builds one per call, with a pass of its own over the parent's edges
    and a regularity check of the child it built.  Kept vertices are
    relabelled 0..k-1 in ascending order, the collapsed shore is vertex k,
    and child edges keep the parent's relative order.
    """
    complement = frozenset(range(g.vertex_count)) - cut.shore
    if keep_side == cut.shore:
        collapsed = complement
    elif keep_side == complement:
        collapsed = cut.shore
    else:
        raise ValueError("keep_side must be one of the cut's two shores")
    if not cut.odd:
        raise ValueError("only odd cuts are contracted")
    if min(len(cut.shore), len(complement)) < 2:
        raise ValueError("contracting across a trivial cut changes nothing")
    kept = tuple(sorted(keep_side))
    index = {p: i for i, p in enumerate(kept)}
    new_vertex = len(kept)
    child_edges: list[tuple[int, int]] = []
    child_to_parent: list[int] = []
    for parent_id, (a, b) in enumerate(g.edges):
        a_in = a in collapsed
        b_in = b in collapsed
        if a_in and b_in:
            continue
        if a_in:
            child_edges.append((new_vertex, index[b]))
        elif b_in:
            child_edges.append((index[a], new_vertex))
        else:
            child_edges.append((index[a], index[b]))
        child_to_parent.append(parent_id)
    child = build_graph(new_vertex + 1, child_edges)
    r = regular_degree(g)
    if r is None or regular_degree(child) != r:
        raise ValueError("contraction did not yield an r-graph; the cut is not tight")
    return child, ContractionMap(
        child_to_parent=tuple(child_to_parent),
        contracted_vertex=new_vertex,
        kept_vertices=kept,
    )


def exhaustive_tight_shores(g: MultiGraph) -> list[frozenset[int]]:
    """Shores of all nontrivial tight cuts, found by definition."""
    matchings = all_pms(g)
    out = []
    for shore in odd_shores(g, nontrivial=True):
        cut = cut_from_shore(g, shore)
        if is_tight(g, cut, matchings):
            out.append(shore)
    return out


def two_separation_shores(g: MultiGraph) -> list[frozenset[int]]:
    """Shores K + u and K + v of even components K of G - u - v, for every
    separating pair {u, v} in lexicographic order, by a search per pair."""
    out = []
    for u, v in combinations(range(g.vertex_count), 2):
        comps = components_without(g, (u, v))
        if len(comps) < 2:
            continue
        for comp in comps:
            if len(comp) % 2 == 0:
                out.extend(comp | {anchor} for anchor in (u, v))
    return out


def min_odd_cut_size(g: MultiGraph) -> int:
    return min(cut_from_shore(g, shore).size for shore in odd_shores(g))


def min_st_cut_sizes(g: MultiGraph) -> dict[tuple[int, int], int]:
    """Minimum s-t cut size for every pair s < t, by sweeping all shores.

    The pair's value is the least cut over every shore holding s and not t;
    a shore and its complement share a cut, so shores holding vertex 0
    cover both orientations.
    """
    n = g.vertex_count
    best: dict[tuple[int, int], int] = {}
    for size in range(1, n):
        for rest in combinations(range(1, n), size - 1):
            shore = frozenset((0,) + rest)
            value = cut_from_shore(g, shore).size
            for s in shore:
                for t in range(n):
                    if t not in shore:
                        key = (min(s, t), max(s, t))
                        best[key] = min(best.get(key, value), value)
    return best


def max_matching_size(g: MultiGraph, removed: frozenset[int] = frozenset()) -> int:
    """Branch-and-bound over vertices; independent of the blossom search."""
    pairs = sorted(set(g.pair_ids))

    def recurse(available: frozenset[int]) -> int:
        candidates = [p for p in pairs if p[0] in available and p[1] in available]
        if not candidates:
            return 0
        v = min(min(p) for p in candidates)
        best = recurse(available - {v})
        for a, b in candidates:
            if v == a:
                best = max(best, 1 + recurse(available - {a, b}))
        return best

    return recurse(frozenset(range(g.vertex_count)) - removed)


def filtered_adjacency(g: MultiGraph, removed: frozenset[int]) -> list[tuple[int, ...]]:
    """G - removed as a copy on all n labels: a removed vertex keeps no edges."""
    return [
        () if v in removed else tuple(w for w in g.adjacency[v] if w not in removed)
        for v in range(g.vertex_count)
    ]


def maximum_matching_on_copy(g: MultiGraph, removed: frozenset[int] = frozenset()) -> list[int]:
    """The library's matching search on the filtered copy, nothing removed in place."""
    return maximum_matching(g.vertex_count, filtered_adjacency(g, removed))


def matching_size_on_copy(g: MultiGraph, removed: frozenset[int] = frozenset()) -> int:
    return sum(1 for w in maximum_matching_on_copy(g, removed) if w != -1) // 2


def pm_containing_edges_on_copy(g: MultiGraph, edge_ids) -> Optional[frozenset[int]]:
    """``pm_containing_edges`` completed on the filtered copy; the edges must be a matching."""
    forced = frozenset(edge_ids)
    covered = frozenset(v for e in forced for v in g.edges[e])
    mate = maximum_matching_on_copy(g, covered)
    if any(v not in covered and mate[v] == -1 for v in range(g.vertex_count)):
        return None
    return forced | {
        g.pair_ids[(v, w)][0] for v, w in enumerate(mate) if v not in covered and v < w
    }


def gallai_edmonds(
    g: MultiGraph, removed: frozenset[int] = frozenset(), size=max_matching_size
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """(D, A, C) of G minus ``removed``, by definition.

    D holds the vertices w with nu(G - w) = nu(G), A = N(D) - D, and C is the
    rest; matching sizes come from ``size``, by default the branch-and-bound
    above.
    """
    gone = frozenset(removed)
    nu = size(g, gone)
    d = frozenset(
        w for w in range(g.vertex_count)
        if w not in gone and size(g, gone | {w}) == nu
    )
    a = frozenset(y for w in d for y in g.adjacency[w] if y not in d and y not in gone)
    return d, a, frozenset(range(g.vertex_count)) - gone - d - a


def petersen_embedding(g: MultiGraph) -> Optional[tuple[int, ...]]:
    """A vertex map from ``corpus.petersen()`` onto g's simple graph, or None.

    Entry i is the g-vertex playing Petersen vertex i.  Backtracking assigns
    vertices in order, pruning on adjacency and non-adjacency; with both
    graphs cubic on 15 vertex pairs this is an isomorphism test.
    """
    if g.vertex_count != 10 or len(g.simple_pairs) != 15:
        return None
    if any(len(nbrs) != 3 for nbrs in g.adjacency):
        return None
    canon_adj = [set(a) for a in build_graph(10, PETERSEN_PAIRS).adjacency]
    graph_adj = [set(a) for a in g.adjacency]
    assignment: list[int] = []

    def extend() -> bool:
        i = len(assignment)
        if i == 10:
            return True
        for candidate in range(10):
            if candidate in assignment:
                continue
            if all(
                (j in canon_adj[i]) == (assignment[j] in graph_adj[candidate])
                for j in range(i)
            ):
                assignment.append(candidate)
                if extend():
                    return True
                assignment.pop()
        return False

    return tuple(assignment) if extend() else None


def fraction_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by Gaussian elimination in Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, len(a)):
            factor = a[i][c] / a[rank][c]
            a[i] = [x - factor * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank



def mod_rank(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p), p prime, by Gaussian elimination on lists of residues."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inverse = pow(a[rank][c], -1, p)
        for i in range(rank + 1, len(a)):
            factor = a[i][c] * inverse % p
            a[i] = [(x - factor * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank

def fraction_coordinates(
    rows: list[list[int]], target: list[int]
) -> Optional[tuple[list[int], int]]:
    """The target in independent rows by Gauss-Jordan elimination in Fractions.

    Returns integer numerators over their least positive common denominator,
    or None when the target is outside the span; ragged or dependent rows
    raise ValueError.
    """
    width = len(target)
    if any(len(row) != width for row in rows):
        raise ValueError("ragged rows")
    # one equation per column: sum_i c_i rows[i][col] = target[col]
    a = [[Fraction(row[col]) for row in rows] + [Fraction(target[col])] for col in range(width)]
    k = len(rows)
    for c in range(k):
        pivot = next((i for i in range(c, width) if a[i][c] != 0), None)
        if pivot is None:
            raise ValueError("dependent rows")
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(width):
            if i != c and a[i][c] != 0:
                factor = a[i][c]
                a[i] = [x - factor * y for x, y in zip(a[i], a[c])]
    if any(a[i][k] != 0 for i in range(k, width)):
        return None
    coeffs = [a[i][k] for i in range(k)]
    den = lcm(*(c.denominator for c in coeffs))
    return [int(c * den) for c in coeffs], den


def assert_matching_covered(g: MultiGraph) -> None:
    """Every edge must lie in some perfect matching; r-graphs always do."""
    for e in range(g.m):
        if pm_containing_edges_on_copy(g, (e,)) is None:
            raise RuntimeError(f"edge {e} lies in no perfect matching")


def halved(terms) -> list[tuple[frozenset[int], Fraction]]:
    """The library's (matching, doubled coefficient) terms with the true coefficients."""
    return [(matching, Fraction(twice, 2)) for matching, twice in terms]


def edge_sums_are_one(g: MultiGraph, terms) -> bool:
    """Whether the (matching, coefficient) terms put total weight 1 on every edge."""
    sums = [Fraction(0)] * g.m
    for matching, coeff in terms:
        for e in matching:
            sums[e] += coeff
    return all(x == 1 for x in sums)


def _terms_by_cut_edge(
    solution: CoverSolution, cmap: ContractionMap, cut: Cut
) -> dict[int, list[tuple[frozenset[int], Fraction]]]:
    """Child terms, with true coefficients, grouped by the one parent cut edge each uses."""
    groups: dict[int, list[tuple[frozenset[int], Fraction]]] = {e: [] for e in cut.edge_ids}
    for matching, coeff in halved(solution.terms):
        crossing = cmap.lift_edges(matching) & cut.edge_ids
        assert len(crossing) == 1, "a child matching must use exactly one cut edge"
        groups[min(crossing)].append((matching, coeff))
    return groups


def product_merge(
    cut: Cut,
    left_solution: CoverSolution,
    right_solution: CoverSolution,
    left_map: ContractionMap,
    right_map: ContractionMap,
) -> list[tuple[frozenset[int], Fraction]]:
    """The classical product rule: exact, but not class-preserving.

    Every pair of child matchings through the same cut edge becomes one
    parent matching whose coefficient is the product of theirs.  The terms
    carry true coefficients, quarters included; ``edge_sums_are_one``
    checks them.
    """
    left_groups = _terms_by_cut_edge(left_solution, left_map, cut)
    right_groups = _terms_by_cut_edge(right_solution, right_map, cut)
    combined: dict[frozenset[int], Fraction] = {}
    for parent_edge in sorted(cut.edge_ids):
        for left_matching, y in left_groups[parent_edge]:
            for right_matching, t in right_groups[parent_edge]:
                union = left_map.lift_edges(left_matching) | right_map.lift_edges(
                    right_matching
                )
                combined[union] = combined.get(union, Fraction(0)) + y * t
    return [(m, c) for m, c in combined.items() if c != 0]


def assert_solved_tree(tree: DecompositionTree) -> int:
    """Re-check every node of a tree from ``solve_r_graph``; returns the internal count.

    At every node the graph is an r-graph and matching covered, and its
    cover sums to 1 on every edge, uses independent matchings and has
    coefficient sum r.  At every internal node the cut is tight, by
    ``is_tight_cut`` from the node's ``maximum_matching``, the product rule
    gives an exact cover, and the merged cover's support, infinity norm and
    count of halves are at most the children's combined support, larger
    norm and combined count.
    """
    internal = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        g, cover = node.graph, node.solution
        assert is_r_graph(g).ok, "a decomposition node is not an r-graph"
        assert_matching_covered(g)
        assert edge_sums_are_one(g, halved(cover.terms)), "a node cover misses an edge sum"
        assert cover.coefficient_sum() == 2 * regular_degree(g), "coefficient sum is not r"
        if not node.is_leaf:
            mate = maximum_matching(g.vertex_count, g.adjacency)
            assert is_tight_cut(g, node.cut, mate), "an internal cut is not tight"
            left, right = node.left.solution, node.right.solution
            assert cover.support <= left.support + right.support, "support grew in the merge"
            assert cover.inf_norm() <= max(left.inf_norm(), right.inf_norm()), (
                "infinity norm grew in the merge"
            )
            assert cover.halves_count <= left.halves_count + right.halves_count, (
                "count of halves grew in the merge"
            )
            product_rule = product_merge(node.cut, left, right, node.left_map, node.right_map)
            assert edge_sums_are_one(g, product_rule), "the product rule is not exact"
            internal += 1
            stack.extend((node.left, node.right))
        assert terms_independent(g, cover.matchings), "a node cover is dependent"
    return internal
