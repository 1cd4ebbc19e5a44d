"""Exact covers on decomposition leaves.

Three solvers, one per leaf class:

* braces: an r-regular bipartite multigraph splits into r pairwise-disjoint
  perfect matchings (Hall's condition survives deleting a perfect matching),
  giving an all-ones cover that partitions the edge ids.
* Petersen bricks: the six perfect matchings of the Petersen graph are
  linearly independent, every edge lies in exactly two of them, and any two
  share exactly one edge.  They are read off the 5-cycles through vertex 0,
  with no enumeration and no labelling.  ``is_petersen`` has checked girth 5
  and one common neighbour for every non-adjacent pair, so each path
  0-a-b-c closes to a unique 5-cycle through the one common neighbour of 0
  and c: twelve paths, two per cycle, so six cycles.  Each cycle C is
  induced, and its complement has five vertices, five edges (15 less the
  five of C and the five of the cut, one per vertex of C) and girth at least
  5, so it is a 5-cycle too.  Every vertex thus has one edge in the cut
  delta(C), which is a perfect matching.  The complement of C misses vertex
  0, so the six cuts are distinct, and they are all six matchings.  They
  are taken on the host's own 15 simple pairs, in ``simple_pairs`` order.
  A multiplicity vector w in their span has the closed-form
  representation 2 alpha_k = (5 w(M_k) - w(E)) / 10, where
  w(M_k) is the weight on the edges of M_k and w(E) the total weight.  Its
  entries are all integral or all half-integral; the integral case expands
  into parallel copies directly, the half case first spends +1/2 on each of
  the six matchings over one chosen copy of every underlying edge and
  expands the integer remainder.
* other bricks: the all-ones vector is an integer combination of linearly
  independent perfect matchings.  lin(PM) of a brick has dimension
  m - n + 1 (Edmonds, Lovasz and Pulleyblank 1982), and off the Petersen
  graph its matching lattice is the integer points of lin(PM) (Lovasz
  1987), so for a basis B of perfect matchings the unique rational c with
  B c = 1 is the cover whenever it is integral.  The basis comes from a
  walk that completes a perfect matching through every edge, then through
  every vertex-disjoint edge pair, in lexicographic order, and never
  repeats a matching.  Which completion it takes is free, since the basis
  needs only independent matchings, so each is grown warm from one
  ``maximum_matching`` of the brick, found once: dropping its edges at the
  ends of the forced edges leaves at most four vertices to augment from.
  Its first pass skips the edges and pairs that an earlier matching of the
  walk holds, so it opens with the greedy basis (each matching grabs the
  lowest uncovered edge id); its second pass, run only when the first
  falls short, skips nothing.  A matching is kept only
  when it raises the rank mod 2, one XOR on a ``linalg.ModEchelon``.  That
  is enough: the matching lattice is saturated, so its image mod 2 has
  dimension m - n + 1, and some m - n + 1 perfect matchings are
  independent mod 2; any such set is independent over Q, and the index of
  its lattice in the matching lattice is odd, so c has an odd denominator.
  When c is not integral the walk goes on, and a later matching whose
  coordinate d_j in the basis has 0 < |d_j| < 1 replaces basis matching j;
  that multiplies the index of the basis lattice in the matching lattice
  by |d_j| < 1, so there are finitely many swaps.  One ``linalg.Basis`` per
  basis answers every coordinate query, and only a swap rebuilds it.  If
  the walk runs out first, ``ClassificationError`` says so.  The support is
  at most m - n + 1 by construction.

Coefficients are doubled ints, as everywhere in the package: a brace term
is 2, a brick term 2x for the integer coordinate x, a Petersen half 1.
Every solver returns through the strict cover constructor, so per-edge sums
are rechecked exactly.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .cover import CoverSolution, exact_cover
from .decomposition import is_petersen
from .graphs import MultiGraph, regular_degree
from .linalg import Basis, ModEchelon
from .matchings import incidence_mask, incidence_row, maximum_matching, pm_containing_edges


class ClassificationError(RuntimeError):
    """The brick solver failed where brick structure guarantees success.

    Two causes: the pair walk ended below rank m - n + 1 mod 2, or it ended
    before the exchange brought the all-ones vector into the lattice of the
    basis.  On a regular non-Petersen brick either one is a shortfall of the
    walk, not of the brick, which always has m - n + 1 perfect matchings
    independent mod 2 and such a cover (Lovasz 1987).
    """


def brace_solve(g: MultiGraph) -> CoverSolution:
    """Peel r pairwise-disjoint perfect matchings off a regular bipartite multigraph.

    Each peeled pair consumes its lowest remaining parallel copy, so the
    matchings partition the edge ids deterministically.
    """
    if g.bipartition is None:
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

    Pair i is ``g.simple_pairs[i]``.  The six perfect matchings are the cuts
    around the six 5-cycles through vertex 0, each closed from a path
    0-a-b-c through the one common neighbour of 0 and c (module docstring),
    listed in lexicographic order of their sorted pair indices.  Parallel
    copies of each pair are consumed in ascending edge id order; in the
    half case the six +1/2 matchings live on the lowest copy of every pair
    and the remainder expands integrally.
    """
    if not is_petersen(g):
        raise ValueError("the underlying simple graph is not the Petersen graph")
    copies = [g.pair_ids[pair] for pair in g.simple_pairs]
    adj = [set(nbrs) for nbrs in g.adjacency]
    cycles = {
        frozenset((0, a, b, c, *(adj[0] & adj[c])))
        for a in adj[0]
        for b in adj[a] - {0}
        for c in adj[b] - {a}
    }
    mats = sorted(
        (
            frozenset(k for k, (x, y) in enumerate(g.simple_pairs) if (x in cyc) != (y in cyc))
            for cyc in cycles
        ),
        key=sorted,
    )
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
    return exact_cover(g, terms)


def _forced_sets(
    g: MultiGraph, holders: Sequence[int], skip_held: bool
) -> Iterator[tuple[int, ...]]:
    """Every edge, then every vertex-disjoint edge pair (e, f), e < f, in lexicographic order.

    With ``skip_held`` a set is left out when its ``holders`` masks meet,
    read as the walk updates them.
    """
    for e in range(g.m):
        if not (skip_held and holders[e]):
            yield (e,)
    for e in range(g.m):
        u, v = g.edges[e]
        for f in range(e + 1, g.m):
            if u in g.edges[f] or v in g.edges[f] or skip_held and holders[e] & holders[f]:
                continue
            yield (e, f)


def _pair_walk(g: MultiGraph) -> Iterator[frozenset[int]]:
    """A perfect matching through each edge and each disjoint edge pair, none twice.

    Two passes over ``_forced_sets``, each set completed by
    ``pm_containing_edges`` from one ``maximum_matching`` of G, found on
    entry, so a completion costs a few alternating searches from the ends
    of the forced edges, not a matching search.  The first pass skips held
    sets; the second, run only when the caller asks for more, skips none.  ``holders[e]`` has bit i set
    when the i-th yielded matching contains e, and a completion is yielded
    only when the AND of its edges' masks is 0: a matching holding all its
    edges would equal it.  So the first pass is the greedy basis (each
    matching holds the lowest edge id its predecessors miss) and one
    matching through each pair none of them holds, and after the second the
    completion of every edge and disjoint pair in a perfect matching has
    been yielded.
    """
    mate = maximum_matching(g.vertex_count, g.adjacency)
    holders = [0] * g.m
    bit = 1
    for skip_held in (True, False):
        for forced in _forced_sets(g, holders, skip_held):
            pm = pm_containing_edges(g, forced, mate)
            if pm is None:
                continue
            common = -1
            for x in pm:
                common &= holders[x]
            if common:
                continue
            for x in pm:
                holders[x] |= bit
            bit <<= 1
            yield pm


def brick_solve(g: MultiGraph) -> CoverSolution:
    """All-integer cover of a non-Petersen brick by independent matchings.

    One loop over the pair walk.  Below rank m - n + 1 a matching joins the
    basis when it raises the rank mod 2 of a ``ModEchelon``, so each
    candidate costs one reduction by XOR, and the basis is independent over
    Q, as ``Basis`` needs.  From full rank on, each candidate is read off a
    ``Basis`` of the basis: one with coordinates d and some 0 < |d_j| < 1
    replaces basis matching j (smallest |d_j|, then lowest j), which
    multiplies the index of the basis lattice by |d_j|.  At full rank and
    after each swap the ``Basis`` is built and the coordinates c of the
    all-ones vector read off it; the first integral c is the cover.  A walk
    that ends first raises ``ClassificationError``, naming the rank mod 2
    when it stayed short.
    """
    if g.bipartition is not None:
        raise ValueError("bipartite graphs are solved by peeling, not the brick path")
    if is_petersen(g):
        raise ValueError("the Petersen brick requires the half-integral solver")

    dim = g.m - g.vertex_count + 1
    span = ModEchelon(2)
    basis: list[frozenset[int]] = []
    rows: list[list[int]] = []
    ones = [1] * g.m
    lattice: Optional[Basis] = None
    for pm in _pair_walk(g):
        if lattice is None:
            if not span.add(incidence_mask(pm)):
                continue
            basis.append(pm)
            rows.append(incidence_row(g, pm))
            if len(basis) < dim:
                continue
        else:
            # dim lin(PM) = m - n + 2 - b <= m - n + 1 on a non-bipartite matching
            # covered graph, so the full-rank basis spans every perfect matching
            row = incidence_row(g, pm)
            d, den = lattice.coordinates(row)
            shrinking = [j for j, x in enumerate(d) if 0 < abs(x) < den]
            if not shrinking:
                continue
            swap = min(shrinking, key=lambda j: abs(d[j]))
            basis[swap], rows[swap] = pm, row
        lattice = Basis(rows)
        solved = lattice.coordinates(ones)
        if solved is not None and solved[1] == 1:
            return exact_cover(g, [(pm, 2 * x) for pm, x in zip(basis, solved[0]) if x])
    raise ClassificationError(
        f"the pair walk ended at rank {len(basis)}, below m - n + 1 = {dim}, in rank "
        "mod 2: a shortfall of the walk, since a regular non-Petersen brick has "
        "m - n + 1 perfect matchings independent mod 2"
        if len(basis) < dim
        else "the pair walk ended before the exchange brought the all-ones vector "
        "into the lattice of the basis: a shortfall of the walk on a regular "
        "non-Petersen brick"
    )
