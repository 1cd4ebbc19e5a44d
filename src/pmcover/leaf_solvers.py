"""Exact covers on decomposition leaves.

Three solvers, one per leaf class:

* braces: an r-regular bipartite multigraph splits into r pairwise-disjoint
  perfect matchings (Hall's condition survives deleting a perfect matching),
  giving an all-ones cover that partitions the edge ids.
* Petersen bricks: the six perfect matchings of the Petersen graph are
  linearly independent, every edge lies in exactly two of them, and any two
  share exactly one edge.  None of this depends on a labelling, so the
  matchings are enumerated on the host's own 15 simple pairs, in
  ``simple_pairs`` order.  A multiplicity vector w in their span has the
  closed-form representation 2 alpha_k = (5 w(M_k) - w(E)) / 10, where
  w(M_k) is the weight on the edges of M_k and w(E) the total weight.  Its
  entries are all integral or all half-integral; the integral case expands
  into parallel copies directly, the half case first spends +1/2 on each of
  the six matchings over one chosen copy of every underlying edge and
  expands the integer remainder.
* other bricks: the all-ones vector is an integer combination of perfect
  matchings.  Starting from a greedy basis (each matching grabs the lowest
  uncovered edge id), a Hermite-normal-form solve finds an integer solution;
  further matchings are enumerated into the column set, eight at a time,
  until the solve yields one whose support columns are linearly independent.
  The columns also grow an exact ``Echelon``, and the Hermite solve runs only
  once they span the all-ones vector over Q.  The lattice of the columns lies
  inside their rational span (Lovasz 1987), so every skipped solve would have
  returned None; the same matchings are pulled and the same solves run, and
  the cover does not change.

Coefficients are doubled ints, as everywhere in the package: a brace term
is 2, a brick term 2x for the integer x of the lattice solve, a Petersen
half 1.  Every solver returns through the strict cover constructor, so
per-edge sums are rechecked exactly.
"""

from __future__ import annotations

from typing import Sequence

from .cover import CoverSolution, exact_cover, terms_independent
from .decomposition import is_petersen
from .graphs import MultiGraph, bipartition, build_graph, regular_degree
from .linalg import Echelon, hnf_solve
from .matchings import (
    enumerate_pms,
    incidence_rows,
    iter_pms,
    maximum_matching,
    pm_containing_edges,
)


class ClassificationError(RuntimeError):
    """Exhaustive solving failed where brick structure guarantees success."""


def brace_solve(g: MultiGraph) -> CoverSolution:
    """Peel r pairwise-disjoint perfect matchings off a regular bipartite multigraph.

    Each peeled pair consumes its lowest remaining parallel copy, so the
    matchings partition the edge ids deterministically.
    """
    if bipartition(g) is None:
        raise ValueError("peeling requires a bipartite graph")
    r = regular_degree(g)
    if r is None or r < 1:
        raise ValueError("peeling requires a regular graph of positive degree")
    remaining: dict[tuple[int, int], list[int]] = {
        pair: list(ids) for pair, ids in g.pair_ids.items()
    }
    terms: list[tuple[frozenset[int], int]] = []
    for _ in range(r):
        nbrs: list[list[int]] = [[] for _ in range(g.vertex_count)]
        for (a, b), ids in remaining.items():
            if ids:
                nbrs[a].append(b)
                nbrs[b].append(a)
        mate = maximum_matching(g.vertex_count, [tuple(sorted(x)) for x in nbrs])
        ids = []
        for v in range(g.vertex_count):
            w = mate[v]
            if w == -1:
                raise ValueError("no perfect matching left to peel; input is not regular bipartite")
            if w < v:
                continue
            ids.append(remaining[(v, w)].pop(0))
        terms.append((frozenset(ids), 2))
    if any(ids for ids in remaining.values()):
        raise AssertionError("peeling left edge ids unconsumed")
    return exact_cover(g, terms)


def _petersen_weight_alpha(
    weights: Sequence[int], mats: Sequence[frozenset[int]]
) -> tuple[int, ...]:
    """The unique alpha with sum_k alpha_k chi(M_k) = weights, doubled.

    ``mats`` are the six perfect matchings of the Petersen graph on edge ids
    0..14 and ``weights`` an integer vector on the same ids.  Every edge lies
    in two of the matchings, so w(E) = 5 sum(alpha), and any two share one
    edge, so w(M_k) = 4 alpha_k + sum(alpha); hence
    2 alpha_k = (5 w(M_k) - w(E)) / 10.  Rebuilding the weights from alpha
    catches a vector outside the span, and nothing else needs checking:

    * if the rebuilt weights equal 2w, then w is in the span, so the closed
      form holds and the division was exact;
    * the edge shared by M_i and M_j has weight alpha_i + alpha_j, so integer
      weights force all six entries integral or all six half-integral.
    """
    total = sum(weights)
    twice_alpha = [(5 * sum(weights[e] for e in mk) - total) // 10 for mk in mats]
    rebuilt = [sum(t for t, mk in zip(twice_alpha, mats) if e in mk) for e in range(15)]
    if rebuilt != [2 * w for w in weights]:
        raise ValueError("weights are outside the span of the six matchings")
    if any(t < 0 for t in twice_alpha):
        raise ValueError(f"negative entry in doubled alpha {twice_alpha}")
    return tuple(twice_alpha)


def petersen_solve(g: MultiGraph) -> CoverSolution:
    """Cover a Petersen brick: either all-integer terms or exactly six at +1/2.

    Pair i is ``g.simple_pairs[i]``.  Parallel copies of each pair are
    consumed in ascending edge id order; in the half case the six +1/2
    matchings live on the lowest copy of every pair and the remainder
    expands integrally.
    """
    if not is_petersen(g):
        raise ValueError("the underlying simple graph is not the Petersen graph")
    copies = [g.pair_ids[pair] for pair in g.simple_pairs]
    mats = enumerate_pms(build_graph(10, g.simple_pairs))
    twice_alpha = _petersen_weight_alpha([len(ids) for ids in copies], mats)
    consumed = [0] * 15
    terms: list[tuple[frozenset[int], int]] = []
    if twice_alpha[0] % 2:
        for mk in mats:
            terms.append((frozenset(copies[e][0] for e in mk), 1))
        consumed = [1] * 15
        twice_alpha = tuple(t - 1 for t in twice_alpha)
    for k, mk in enumerate(mats):
        for _ in range(twice_alpha[k] // 2):
            ids = []
            for e in mk:
                ids.append(copies[e][consumed[e]])
                consumed[e] += 1
            terms.append((frozenset(ids), 2))
    if any(consumed[e] != len(copies[e]) for e in range(15)):
        raise AssertionError("expansion did not consume every parallel copy")
    return exact_cover(g, terms)


def greedy_basis(g: MultiGraph) -> list[tuple[frozenset[int], int]]:
    """Matchings picked so each contains the lowest edge id its predecessors miss.

    Returns (matching, private edge id) pairs; the private ids certify that
    each matching added a previously uncovered edge, so no matching repeats.
    """
    covered: set[int] = set()
    basis: list[tuple[frozenset[int], int]] = []
    for e in range(g.m):
        if e in covered:
            continue
        pm = pm_containing_edges(g, (e,))
        if pm is None:
            raise ValueError(f"edge {e} lies in no perfect matching")
        basis.append((pm, e))
        covered.update(pm)
    return basis


def brick_solve(g: MultiGraph) -> CoverSolution:
    """All-integer cover of a non-Petersen brick by independent matchings.

    Each round solves M x = 1 over the integers, M the incidence columns of
    the matchings so far, and pulls eight more matchings when there is no
    solution or its support is dependent.  Every column also enters an
    ``Echelon``, and a round whose columns do not span the all-ones vector
    over Q skips the Hermite solve: the lattice of the columns lies inside
    their rational span, so that solve could only have returned None.  The
    skipped rounds pull the same matchings, so the cover is the same.
    """
    if bipartition(g) is not None:
        raise ValueError("bipartite graphs are solved by peeling, not the brick path")
    if is_petersen(g):
        raise ValueError("the Petersen brick requires the half-integral solver")
    columns = [pm for pm, _ in greedy_basis(g)]
    known = set(columns)
    span = Echelon(g.m)
    for pm in columns:
        span.add([1 if e in pm else 0 for e in range(g.m)])
    ones = [1] * g.m
    source = iter_pms(g)
    while True:
        if ones in span:
            x = hnf_solve(incidence_rows(g, columns), ones)
            if x is not None:
                support = [j for j, c in enumerate(x) if c != 0]
                if terms_independent(g, [columns[j] for j in support]):
                    return exact_cover(g, [(columns[j], 2 * x[j]) for j in support])
        added = 0
        for pm in source:
            if pm not in known:
                known.add(pm)
                columns.append(pm)
                span.add([1 if e in pm else 0 for e in range(g.m)])
                added += 1
                if added == 8:
                    break
        if added == 0:
            raise ClassificationError(
                "all perfect matchings enumerated without an independent integral "
                "cover; the graph is not a non-Petersen brick"
            )
