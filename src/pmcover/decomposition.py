"""Tight cuts, shore contraction, and the brick/brace decomposition tree.

An odd cut is tight when every perfect matching crosses it in exactly one
edge.  Contracting either shore of a tight cut of an r-graph yields a smaller
r-graph, and repeating until no nontrivial tight cut remains produces leaves
that are braces (bipartite) or bricks (3-connected bicritical), with the
Petersen brick singled out because its solver differs.

The input is validated once: ``decompose`` runs the r-graph check (a
``graphs.cut_vertices`` search on a cubic graph, a Gomory-Hu tree otherwise)
on the graph it is given, and its recursion tells each child that it need
not.  Every graph below the root is a contraction across a cut that is
tight by the arguments below, and ``contract_shore`` only checks in O(m)
that the child is r-regular, which for an r-graph parent makes the child
an r-graph too.  The tests re-run the full r-graph check, the
matching-covered check and a tightness check of every cut on every node
of solved trees (``tests/oracles.py``).

Finding a nontrivial tight cut does not sweep all odd shores.  A node whose
underlying simple graph is Petersen is a brick whatever its parallel edges
(bicritical and 3-connected), so ``decompose`` makes it a leaf before any
search; ``is_petersen`` recognises it by its strongly regular parameters,
with no labelling.  For other nodes, shores come from two classical
sources, and every shore either yields is a nontrivial tight cut, so the
search takes the first one and tests none:

* barriers: a vertex set B such that G - B has exactly |B| odd components.
  A perfect matching joins each odd component, which has odd order, to B by
  at least one edge, and these edges end at distinct vertices of B.  There
  are |B| components and |B| vertices, so every perfect matching joins each
  odd component to B by exactly one edge, and the cut around any odd
  component is tight.  In the bipartite case barriers arise as
  neighborhoods N(X) of a side subset X with |N(X)| = |X| + 1.  Given a
  perfect matching M, let D(M) be the digraph on one side U with an arc
  u -> u' whenever u is adjacent to M(u').  Then |N(X)| = |X| + |Out(X)|,
  where Out(X) holds the vertices outside X that X has arcs to, so the
  brace condition |N(X)| >= |X| + 2 (Lovasz 1987) says that
  D(M) - z is strongly connected for every z (Robertson, Seymour and Thomas
  1999), and a witness X is one forward and at most one backward search in
  D(M) - z away.  In the non-bipartite case barriers come from the
  Gallai-Edmonds structure theorem (Lovasz-Plummer, Matching Theory, 1986),
  with D, A and C as in ``matchings.gallai_edmonds``.  G - u - v has a
  perfect matching exactly when v is in D(G - u), so one alternating forest
  per vertex u settles every pair {u, v}: ``matchings.perfect_partners``
  grows it from the partner of u in the node's perfect matching and reads
  the flags off it, building no sets.  Only a failing pair needs its full
  decomposition, from ``gallai_edmonds``: {u, v} + A(G - u - v) is a
  barrier.  The node's perfect matching serves every forest, so a node
  costs one forest per vertex plus one per failing pair.
* 2-separations: if {u, v} disconnects G and K is an even component of
  G - u - v, the shore K + u gives a tight cut.  Its cut lies in
  E(K, v) + delta(u).  A perfect matching has at most one edge at v and
  exactly one at u, so it crosses the cut at most twice, and since the
  shore is odd it crosses an odd number of times: exactly once.  An
  r-graph is 2-connected, so {u, v} separates exactly when v is a cut
  vertex of G - u, and one ``graphs.cut_vertices`` search per vertex u
  finds every separating pair.
  Cubic nodes skip this route, which finds nothing on them (below).

Every shore is odd and nontrivial.  A barrier's shores are its odd
components of at least three vertices; the complement holds the barrier,
of at least two vertices, and at least one more odd component, and it is
odd because n is even.  A 2-separation shore K + u has at least three
vertices, and its complement holds v and another component of G - u - v.

For graphs where neither source produces a shore, no nontrivial tight
cut exists: a connected bipartite r-graph evading the digraph sweep satisfies
the brace condition, and a non-bipartite one evading both non-bipartite
routes is bicritical and 3-connected, hence a brick.  Tests cross-check the
verdict against an exhaustive odd-shore sweep at small orders.  On a cubic
node the barriers alone decide, for three reasons.

* The barrier route is exhausted only on a bicritical node.  An r-graph is
  matching covered (the vector 1/r on every edge lies in the perfect
  matching polytope), and in a matching covered graph a barrier B leaves no
  even component and spans no edge.  If every odd component of G - B were a
  single vertex, G would be bipartite.  So on a non-bipartite node each
  failing pair's barrier {u, v} + A has a nontrivial odd component, whose
  cut is tight, and the search takes it.
* A bicritical graph has no cut of at most two edges around an even shore
  S.  If the cut is {x1 y1, x2 y2} with x1 != x2 in S, then in G - x1 - y2
  the odd set S - x1 is a union of components, so there is no perfect
  matching.  If x1 = x2 = x, remove x and any y outside S instead.  Cuts of
  no edge or one edge fall the same way.
* In a cubic graph |cut(S)| = 3|S| - 2|E(S)| is even when |S| is, so by
  the above a bicritical cubic graph has at least four edges around every
  even shore.  Take a 2-separation {u, v} of a bicritical cubic node:
  G - u - v has a perfect matching, so it splits into nonempty even parts
  K and L with no edge between them, and every edge leaving K or L ends at
  u or v.  Then 6 = deg u + deg v >= |cut(K)| + |cut(L)| >= 8, a
  contradiction.

So the 2-separation route is entered only at degree 4 and up, where it is
needed: ``k4_pair_two_cut`` in the tests is a bicritical 4-regular graph
whose only tight cuts come from its 2-separation.

Each piece of work is done once.  One matching search runs per
decomposition, at the root; every tight cut is crossed once by every
perfect matching, so the parent's matching, relabelled, is a perfect
matching of each contraction, and every node inherits one; every route
and every verdict below starts from it (see ``find_nontrivial_tight_cut``).
No cut is tested for tightness: each is tight by the arguments above.  A
barrier with k nontrivial odd components K1..Kk gives k tight cuts that do
not cross one another.  When K1 wins, the contraction that keeps K2..Kk
receives them, relabelled, as carried shores: a tight cut that does not
cross the contracted cut stays tight in the contraction that keeps it
(Lovasz 1987), and a shore inside the kept side stays odd and nontrivial
there.  They are the child's first group, ahead of every route; a route is
entered only when none is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from .cover import CoverSolution
from .graphs import (
    Cut,
    MultiGraph,
    bipartition,
    build_graph,
    components_without,
    cut_from_shore,
    cut_vertices,
    is_r_graph,
    regular_degree,
)
from .matchings import gallai_edmonds, maximum_matching, perfect_partners


@unique
class LeafClass(Enum):
    BRACE = "Brace"
    PETERSEN_BRICK = "PetersenBrick"
    OTHER_BRICK = "OtherBrick"


@dataclass(frozen=True)
class ContractionMap:
    """Edge and vertex bookkeeping for one shore contraction.

    ``child_to_parent[e]`` is the parent edge id of child edge e; the map is
    total because only edges inside the collapsed shore disappear.  Cut edges
    keep their identity and end at ``contracted_vertex`` in the child.
    """

    child_to_parent: tuple[int, ...]
    contracted_vertex: int
    kept_vertices: tuple[int, ...]

    def lift_edges(self, child_edge_ids: Iterable[int]) -> frozenset[int]:
        return frozenset(self.child_to_parent[e] for e in child_edge_ids)


@dataclass
class DecompositionTree:
    """Recursive tight cut decomposition of an r-graph.

    A leaf carries its class; an internal node carries the tight cut, the
    two contractions, and their subtrees.  ``solution`` is filled in by the
    solving pass, bottom up.
    """

    graph: MultiGraph
    leaf_class: Optional[LeafClass] = None
    cut: Optional[Cut] = None
    left: Optional["DecompositionTree"] = None
    right: Optional["DecompositionTree"] = None
    left_map: Optional[ContractionMap] = None
    right_map: Optional[ContractionMap] = None
    solution: Optional[CoverSolution] = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf_class is not None

    def leaves(self) -> Iterator["DecompositionTree"]:
        if self.is_leaf:
            yield self
        else:
            assert self.left is not None and self.right is not None
            yield from self.left.leaves()
            yield from self.right.leaves()

    def internal_nodes(self) -> Iterator["DecompositionTree"]:
        if not self.is_leaf:
            assert self.left is not None and self.right is not None
            yield self
            yield from self.left.internal_nodes()
            yield from self.right.internal_nodes()

    @property
    def petersen_count(self) -> int:
        return sum(1 for leaf in self.leaves() if leaf.leaf_class is LeafClass.PETERSEN_BRICK)


def _odd_components(g: MultiGraph, barrier: frozenset[int]) -> list[frozenset[int]]:
    """The odd components of G - barrier with at least three vertices."""
    return [
        comp for comp in components_without(g, barrier) if len(comp) >= 3 and len(comp) % 2 == 1
    ]


def _reach(arcs: Sequence[Sequence[int]], root: int, avoid: int) -> set[int]:
    """The vertices that ``root`` reaches along ``arcs`` without passing ``avoid``."""
    seen = {root, avoid}
    stack = [root]
    while stack:
        for w in arcs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    seen.discard(avoid)
    return seen


def _bipartite_barrier_shores(
    g: MultiGraph, mate: Sequence[int]
) -> Iterator[list[frozenset[int]]]:
    """The odd components left by the barrier N(X) of each X with |N(X)| = |X| + 1.

    U is the side of vertex 0 and M the perfect matching ``mate``, the one
    the node inherits; any perfect matching of G will do.  The digraph D on
    U has an arc u -> M(w) for each neighbour w != M(u) of u, so
    N(X) = M(X) + M(Out(X)), where Out(X) is the set of vertices outside X
    that X has arcs to, and |N(X)| = |X| + |Out(X)|.  For each z of U in
    ascending order, with root the least vertex of U - z, X is the forward
    reach of the root in D - z when that misses part of U - z, and otherwise
    the vertices of U - z that cannot reach the root; either way nothing
    leaves X in D - z, so Out(X) = {z} (G is connected), the barrier is
    N(X) = M(X + z), and 1 <= |X| <= |U| - 2.  Conversely any such X leaves
    D - z not strongly connected, so some X is found exactly when one exists.

    That is enough.  A matching covered bipartite graph has |N(Y)| >= |Y| + 1
    for every nonempty proper subset Y of U.  A nontrivial tight cut has a
    shore S holding one more vertex of U than of the other side W.  No edge
    joins S - U to U - S, for a perfect matching through it would cross the
    cut at least three times, and every edge lies in one.  So X = U - S has N(X)
    inside W - S, |N(X)| = |X| + 1 and 1 <= |X| <= |U| - 2, and one side is
    enough.  G - N(X) has |X| + 1 odd components (Tutte): the vertices of X,
    each alone, and exactly one more, O.  O is not a single vertex u, for
    N(X + u) would have only |X + u| vertices.  So each X yields one
    candidate shore.  Each z costs one forward and at most one backward
    search.
    """
    sides = bipartition(g)
    assert sides is not None
    u_side = sorted(sides[0])
    forward: list[list[int]] = [[] for _ in range(g.vertex_count)]
    backward: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u in u_side:
        for w in g.adjacency[u]:
            if w != mate[u]:
                forward[u].append(mate[w])
                backward[mate[w]].append(u)
    for z in u_side:
        root = u_side[1] if z == u_side[0] else u_side[0]
        x = _reach(forward, root, z)
        if len(x) == len(u_side) - 1:
            x = set(u_side) - _reach(backward, root, z) - {z}
        if x:
            yield _odd_components(g, frozenset(mate[u] for u in x) | {mate[z]})


def _nonbipartite_barrier_shores(
    g: MultiGraph, mate: Sequence[int]
) -> Iterator[list[frozenset[int]]]:
    """Odd components left by the barrier of each pair {u, v} with no perfect matching.

    G has a perfect matching, so G - u misses exactly one vertex in a maximum
    matching, and G - u - v has a perfect matching exactly when v is in
    D(G - u).  For a failing pair, {u, v} + A(G - u - v) leaves exactly as
    many odd components as it has vertices, so it is a barrier.  Pairs are
    visited in lexicographic order, and each barrier's odd components with
    at least three vertices come as one list, when there are any.

    One perfect matching M of G, ``mate``, serves every forest.  M minus the
    edge at u is maximum in G - u, which has odd order, so
    ``perfect_partners`` reads D(G - u) off one forest grown from the partner
    of u.  For a failing pair, M minus the edges at u and v is maximum in
    G - u - v, which has even order and no perfect matching, and
    ``gallai_edmonds`` grows one forest for its A.  No matching search runs.
    """
    for u in range(g.vertex_count - 1):
        matchable = perfect_partners(g, u, mate)
        for v in range(u + 1, g.vertex_count):
            if matchable[v]:
                continue
            barrier = frozenset((u, v)) | gallai_edmonds(g, (u, v), mate).a
            comps = _odd_components(g, barrier)
            if comps:
                yield comps


def _two_separation_shores(g: MultiGraph) -> Iterator[frozenset[int]]:
    """Even components K of G - u - v, as shores K + u and K + v.

    G - u is connected, so {u, v} separates G exactly when v is a cut vertex
    of G - u: one ``graphs.cut_vertices`` search per u replaces a component
    search per pair.  Pairs are visited in lexicographic order.
    """
    for u in range(g.vertex_count - 1):
        for v in sorted(w for w in cut_vertices(g, u) if w > u):
            for comp in components_without(g, (u, v)):
                if len(comp) % 2 != 0:
                    continue
                for anchor in (u, v):
                    yield comp | {anchor}


def find_nontrivial_tight_cut(
    g: MultiGraph, matching: Sequence[int], carried: Sequence[frozenset[int]] = ()
) -> Optional[tuple[Cut, Sequence[frozenset[int]]]]:
    """A nontrivial tight cut and the shores after it, or None for a brick or brace.

    G must already be an r-graph (``decompose`` checks its input once), and
    ``matching`` is a perfect matching of G as a mate array, the node's
    inherited one.  Shores come in groups: ``carried`` first, then the
    routes of the module docstring, generated deterministically: a
    bipartite node's barriers; or a non-bipartite node's barriers, then,
    unless the node is cubic, its 2-separations.  A cubic node that no
    barrier splits is bicritical and has no 2-separation (module
    docstring), so it is called a brick without the low-link sweep.  Every
    shore of every group is odd, nontrivial and tight: the odd components
    of a barrier, by the barrier count; a 2-separation shore K + u, since a
    perfect matching crosses its cut once at u or once at v; a carried
    shore, since it crosses no cut contracted above it (Lovasz 1987).  So
    the first shore of the first nonempty group is the cut, and the shores
    after it in its group come back with it: the odd components of one
    barrier, or the carried shores, none crossing the cut.  No route runs
    a matching search.  The bipartite route reads its shores off D(M) for
    the inherited M, so which cut it finds first depends on M, while the
    Gallai-Edmonds sets and the 2-separations do not.  The inherited
    matching is fixed by the root's search and the cuts above, so the cut,
    and the certificate, are still deterministic.
    """
    if g.vertex_count < 6:
        return None  # a nontrivial odd cut needs two shores of size >= 3
    if bipartition(g) is not None:
        routes: tuple[Iterator[Sequence[frozenset[int]]], ...] = (
            _bipartite_barrier_shores(g, matching),
        )
    else:
        routes = (_nonbipartite_barrier_shores(g, matching),)
        if regular_degree(g) != 3:  # a cubic node the barriers miss has no 2-separation
            routes += (([shore] for shore in _two_separation_shores(g)),)
    for group in chain((carried,), *routes):
        if group:
            return cut_from_shore(g, group[0]), group[1:]
    return None


def contract_shore(
    g: MultiGraph, cut: Cut, keep_side: frozenset[int]
) -> tuple[MultiGraph, ContractionMap]:
    """Collapse the non-kept shore of a tight cut to a single new vertex.

    Kept vertices are relabeled 0..k-1 in ascending order, the collapsed
    shore becomes vertex k, and child edges keep the parent's relative order,
    so the contraction is deterministic.  The parent must be an r-graph.  The
    child is checked to be r-regular, that is, the cut has exactly r edges;
    then every odd cut of the child is an odd cut of the parent, so the child
    is an r-graph too.  A tight cut of an r-graph always has r edges.
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


def is_petersen(g: MultiGraph) -> bool:
    """Whether the underlying simple graph of g is the Petersen graph.

    Petersen is the only strongly regular graph with parameters (10, 3, 0, 1)
    (Hoffman-Singleton, 1960): ten vertices, cubic, no common neighbour for
    adjacent vertices and exactly one for non-adjacent ones.
    """
    if g.vertex_count != 10 or any(len(nbrs) != 3 for nbrs in g.adjacency):
        return False
    adj = [set(nbrs) for nbrs in g.adjacency]
    return all(
        len(adj[u] & adj[v]) == (0 if v in adj[u] else 1)
        for u in range(10)
        for v in range(u + 1, 10)
    )


def classify_leaf(g: MultiGraph) -> LeafClass:
    """Brace if bipartite, PetersenBrick if the simple graph is Petersen, else OtherBrick.

    This is the class G has as a leaf; only a Petersen graph is known to be
    a leaf before the tight-cut search.
    """
    if bipartition(g) is not None:
        return LeafClass.BRACE
    if is_petersen(g):
        return LeafClass.PETERSEN_BRICK
    return LeafClass.OTHER_BRICK


Carried = tuple[list[int], tuple[frozenset[int], ...]]


def _handed_down(
    mate: Sequence[int], shores: Iterable[frozenset[int]], cmap: ContractionMap
) -> Carried:
    """The parent's perfect matching and the shores inside the kept side, in the child's labels.

    The matching crosses the contracted tight cut in exactly one edge, so the
    kept vertex matched across the cut is matched to the contracted vertex;
    every other pair keeps its partner.
    """
    index = {p: i for i, p in enumerate(cmap.kept_vertices)}
    child_mate = [index.get(mate[p], cmap.contracted_vertex) for p in cmap.kept_vertices]
    child_mate.append(child_mate.index(cmap.contracted_vertex))
    kept = tuple(
        frozenset(index[v] for v in shore) for shore in shores if all(v in index for v in shore)
    )
    return child_mate, kept


def decompose(g: MultiGraph, *, carried: Optional[Carried] = None) -> DecompositionTree:
    """Recursive tight cut decomposition down to classified brick/brace leaves.

    ``carried`` is None for an input graph, which is then checked to be an
    r-graph and given a perfect matching, once.  Each contracted child, an
    r-graph by construction, carries from its parent, relabelled: that
    perfect matching, which the tight cut restricts to one of the child, and
    the sibling odd components of the barrier behind an ancestor's cut,
    still tight here (Lovasz 1987).  Every other node calls
    ``find_nontrivial_tight_cut`` once, with those shores as its first
    group; the shores after the winner go on to the child that keeps them.
    A Petersen node is a leaf without a search.
    """
    if carried is None:
        check = is_r_graph(g)
        if not check.ok:
            if check.witness is None:
                raise ValueError("not an r-graph: disconnected, irregular, or odd order")
            raise ValueError(
                f"not an r-graph: odd cut of size {check.witness.size} at shore "
                f"{sorted(check.witness.shore)}"
            )
        carried = (maximum_matching(g.vertex_count, g.adjacency), ())
    mate, shores = carried
    kind = classify_leaf(g)
    if kind is LeafClass.PETERSEN_BRICK:
        return DecompositionTree(graph=g, leaf_class=kind)
    found = find_nontrivial_tight_cut(g, mate, shores)
    if found is None:
        return DecompositionTree(graph=g, leaf_class=kind)
    cut, onward = found
    complement = frozenset(range(g.vertex_count)) - cut.shore
    left_graph, left_map = contract_shore(g, cut, cut.shore)
    right_graph, right_map = contract_shore(g, cut, complement)
    return DecompositionTree(
        graph=g,
        cut=cut,
        left=decompose(left_graph, carried=_handed_down(mate, onward, left_map)),
        right=decompose(right_graph, carried=_handed_down(mate, onward, right_map)),
        left_map=left_map,
        right_map=right_map,
    )
