"""Tight cuts, shore contraction, and the brick/brace decomposition tree.

An odd cut is tight when every perfect matching crosses it in exactly one
edge.  Contracting either shore of a tight cut of an r-graph yields a smaller
r-graph, and repeating until no nontrivial tight cut remains produces leaves
that are braces (bipartite) or bricks (3-connected bicritical), with the
Petersen brick singled out because its solver differs.

The input is validated once: ``decompose`` runs the r-graph check (a
Gomory-Hu tree) on the graph it is given, and its recursion tells each child
that it need not.  Every graph below the root is a contraction across a cut
that ``is_tight_cut`` has confirmed, and ``contract_shore`` only checks in
O(m) that the child is r-regular, which for an r-graph parent makes the
child an r-graph too.  The tests re-run the full r-graph check and the
matching-covered check on every node of solved trees (``tests/oracles.py``).

Finding a nontrivial tight cut does not sweep all odd shores.  A node whose
underlying simple graph is Petersen is a brick whatever its parallel edges
(bicritical and 3-connected), so ``decompose`` makes it a leaf before any
search; ``is_petersen`` recognises it by its strongly regular parameters,
with no labelling.  For other nodes, candidates come from two classical
sources, each validated by the definitional check before being returned:

* barriers: a vertex set B such that G - B has exactly |B| odd components.
  Every perfect matching must match each odd component to B through a single
  edge, so the cut around any odd component is tight.  In the bipartite case
  barriers arise as neighborhoods N(X) of a side subset X with |N(X)| =
  |X| + 1, found by a max-flow surplus sweep.  In the non-bipartite case
  they come from the Gallai-Edmonds structure theorem (Lovasz-Plummer,
  Matching Theory, 1986), with D, A and C as in ``matchings.gallai_edmonds``.
  G - u - v has a perfect matching exactly when v is in D(G - u), so one
  decomposition per vertex u settles every pair {u, v}; for a failing pair,
  {u, v} + A(G - u - v) is a barrier.  One perfect matching of the node
  serves every decomposition, so each is one alternating forest: one per
  vertex plus one per failing pair, and one matching search per node.
* 2-separations: if {u, v} disconnects G and K is an even component of
  G - u - v, the shore K + u gives a tight cut.  An r-graph is 2-connected,
  so {u, v} separates exactly when v is a cut vertex of G - u, and one
  low-link depth-first search per vertex u finds every separating pair.

For graphs where neither source produces a verified cut, no nontrivial tight
cut exists: a connected bipartite r-graph evading the surplus sweep satisfies
the brace condition, and a non-bipartite one evading both non-bipartite
routes is bicritical and 3-connected, hence a brick.  Tests cross-check the
verdict against an exhaustive odd-shore sweep at small orders.

Each piece of work is done once per barrier.  A barrier with k nontrivial
odd components K1..Kk gives k tight cuts that do not cross one another.
When K1 wins, the contraction that keeps K2..Kk receives them, relabelled,
as carried shores: a tight cut that does not cross the contracted cut stays
tight in the contraction that keeps it (Lovasz 1987).  The child tries
them in order before any search, and each still passes the search's own
checks (nontrivial, odd, ``is_tight_cut``); the search runs only when none
is accepted.  ``is_tight_cut`` tests each disjoint pair of cut edges from a
warm start, one perfect matching per cut (the node's own during a search),
so a pair costs a few alternating searches, not a matching search.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Iterable, Iterator, Optional, Sequence

from .cover import CoverSolution
from .graphs import (
    Cut,
    MultiGraph,
    _flow_network,
    _max_flow,
    bipartition,
    build_graph,
    components_without,
    cut_from_shore,
    is_r_graph,
    regular_degree,
)
from .matchings import gallai_edmonds, has_perfect_matching, maximum_matching


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

    A leaf carries its class; an internal node carries the verified cut, the
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


def is_tight_cut(
    g: MultiGraph, cut: Cut, matching: Optional[Sequence[int]] = None
) -> bool:
    """Whether no perfect matching crosses the odd cut more than once.

    Two cut edges can only appear in one matching if they are vertex-disjoint,
    so it suffices to test, per disjoint pair, whether the graph minus the
    four endpoints still has a perfect matching.  Every test warm-starts
    ``has_perfect_matching`` from one matching of G: ``matching``, a mate
    array such as the node's own perfect matching, or else one maximum
    matching found here, once per cut.
    """
    if not cut.odd:
        raise ValueError("tightness is defined for odd cuts only")
    mate = matching
    ids = sorted(cut.edge_ids)
    for a in range(len(ids)):
        u1, v1 = g.edges[ids[a]]
        for b in range(a + 1, len(ids)):
            u2, v2 = g.edges[ids[b]]
            if len({u1, v1, u2, v2}) < 4:
                continue
            if mate is None:
                mate = maximum_matching(g.vertex_count, g.adjacency)
            if has_perfect_matching(g, (u1, v1, u2, v2), mate):
                return False
    return True


def _neighborhood(g: MultiGraph, vertices: Iterable[int]) -> frozenset[int]:
    inside = set(vertices)
    out: set[int] = set()
    for v in inside:
        out.update(g.adjacency[v])
    return frozenset(out - inside)


def _low_surplus_sets(
    g: MultiGraph, u_side: frozenset[int], w_side: frozenset[int]
) -> Iterator[frozenset[int]]:
    """Subsets X of u_side with |N(X)| = |X| + 1 and 1 <= |X| <= |u_side| - 2.

    For each excluded vertex w and forced vertex u, a unit-capacity flow
    network realizes min |N(X)| - |X| over X containing u and avoiding w in
    its neighborhood; the minimal source side of a minimum cut recovers X.
    Its arcs are directed (source to U', U' to N(U'), N(U') to sink), and one
    network serves every forced vertex of an excluded one: only the forced
    vertex's source arc changes capacity.  In a connected regular bipartite
    graph the surplus of a proper subset is at least 1, so any witness of
    the non-brace condition is found this way.
    """
    u_list = sorted(u_side)
    if len(u_list) < 3:
        return
    neighbor_sets = [set(a) for a in g.adjacency]
    source = g.vertex_count
    sink = g.vertex_count + 1
    infinite = 4 * g.vertex_count + 4
    seen: set[frozenset[int]] = set()
    for w_excl in sorted(w_side):
        u_prime = [u for u in u_list if w_excl not in neighbor_sets[u]]
        reached = sorted({w for u in u_prime for w in g.adjacency[u]})
        arc_pairs = [(source, u, 1, 0) for u in u_prime]  # arc 2i leaves for u_prime[i]
        arc_pairs += [(u, w, infinite, 0) for u in u_prime for w in g.adjacency[u]]
        arc_pairs += [(w, sink, 1, 0) for w in reached]
        net = _flow_network(g.vertex_count + 2, arc_pairs)
        for i in range(len(u_prime)):
            capacity = list(net.capacity)
            capacity[2 * i] = infinite
            _, side = _max_flow(net._replace(capacity=capacity), source, sink)
            x = frozenset(u for u in u_prime if u in side)
            if x in seen:
                continue
            seen.add(x)
            if 1 <= len(x) <= len(u_list) - 2 and len(_neighborhood(g, x)) == len(x) + 1:
                yield x


def _odd_components(g: MultiGraph, barrier: frozenset[int]) -> list[frozenset[int]]:
    """The odd components of G - barrier with at least three vertices."""
    return [
        comp for comp in components_without(g, barrier) if len(comp) >= 3 and len(comp) % 2 == 1
    ]


def _bipartite_barrier_shores(g: MultiGraph) -> Iterator[list[frozenset[int]]]:
    sides = bipartition(g)
    assert sides is not None
    for u_side, w_side in (sides, (sides[1], sides[0])):
        for x in _low_surplus_sets(g, u_side, w_side):
            yield _odd_components(g, _neighborhood(g, x))


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

    One perfect matching M of G, ``mate``, serves every decomposition.  M
    minus the edge at u is maximum in G - u, which has odd order.  For a
    failing pair, M minus the edges at u and v is maximum in G - u - v, which
    has even order and no perfect matching.  So each decomposition grows one
    alternating forest and runs no matching search.
    """
    for u in range(g.vertex_count - 1):
        matchable = gallai_edmonds(g, (u,), mate).d
        for v in range(u + 1, g.vertex_count):
            if v in matchable:
                continue
            barrier = frozenset((u, v)) | gallai_edmonds(g, (u, v), mate).a
            comps = _odd_components(g, barrier)
            if comps:
                yield comps


def _cut_vertices_without(g: MultiGraph, u: int) -> set[int]:
    """The cut vertices of G - u, from one iterative low-link DFS.

    G - u must be connected; an r-graph is 2-connected, since the odd
    component left by a cut vertex would have fewer than r boundary edges.
    """
    disc = [0] * g.vertex_count  # discovery time from 1; 0 while unvisited
    low = [0] * g.vertex_count
    root = 1 if u == 0 else 0
    disc[root] = low[root] = clock = 1
    root_children = 0
    cut: set[int] = set()
    stack = [(root, -1, iter(g.adjacency[root]))]
    while stack:
        v, parent, neighbors = stack[-1]
        for w in neighbors:
            if w == u:
                continue
            if disc[w]:
                low[v] = min(low[v], disc[w])
            else:
                clock += 1
                disc[w] = low[w] = clock
                stack.append((w, v, iter(g.adjacency[w])))
                break
        else:
            stack.pop()
            if parent == root:
                root_children += 1
            elif parent != -1:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    cut.add(parent)
    assert clock == g.vertex_count - 1, "G - u is disconnected; G is not an r-graph"
    if root_children >= 2:
        cut.add(root)
    return cut


def _two_separation_shores(g: MultiGraph) -> Iterator[frozenset[int]]:
    """Even components K of G - u - v, as shores K + u and K + v.

    G - u is connected, so {u, v} separates G exactly when v is a cut vertex
    of G - u; one DFS per u replaces a component search per pair.  Pairs are
    visited in lexicographic order.
    """
    for u in range(g.vertex_count - 1):
        for v in sorted(w for w in _cut_vertices_without(g, u) if w > u):
            for comp in components_without(g, (u, v)):
                if len(comp) % 2 != 0:
                    continue
                for anchor in (u, v):
                    yield comp | {anchor}


def find_nontrivial_tight_cut(
    g: MultiGraph, *, siblings: Optional[list[frozenset[int]]] = None
) -> Optional[Cut]:
    """A verified nontrivial tight cut, or None when G is a brick or brace.

    G must already be an r-graph (``decompose`` checks its input once); this
    is not re-checked.  Candidate shores are generated deterministically (see
    module docstring) and each is validated with is_tight_cut; the first
    survivor wins.  A non-bipartite node finds one perfect matching of G,
    which serves both its barrier sweep and every tightness check.

    When the winner is an odd component of a barrier and ``siblings`` is a
    list, the odd components of that barrier listed after it, each with at
    least three vertices, are appended to it.  Their cuts are tight and do
    not cross the winner's.
    """
    if g.vertex_count < 6:
        return None  # a nontrivial odd cut needs two shores of size >= 3
    mate: Optional[list[int]] = None  # bipartite: is_tight_cut finds one per cut
    if bipartition(g) is not None:
        routes: Iterable[Iterator[list[frozenset[int]]]] = (_bipartite_barrier_shores(g),)
    else:
        mate = maximum_matching(g.vertex_count, g.adjacency)
        routes = (
            _nonbipartite_barrier_shores(g, mate),
            ([shore] for shore in _two_separation_shores(g)),
        )
    tried: set[frozenset[int]] = set()
    for route in routes:
        for group in route:
            for i, shore in enumerate(group):
                if shore in tried:
                    continue
                tried.add(shore)
                if not 3 <= len(shore) <= g.vertex_count - 3:
                    continue
                cut = cut_from_shore(g, shore)
                if cut.odd and is_tight_cut(g, cut, mate):
                    if siblings is not None:
                        siblings.extend(group[i + 1:])
                    return cut
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


def _carried_cut(
    g: MultiGraph, carried: Sequence[frozenset[int]]
) -> tuple[Optional[Cut], Sequence[frozenset[int]]]:
    """The first carried shore that passes the search's own checks, and the shores after it."""
    for i, shore in enumerate(carried):
        if 3 <= len(shore) <= g.vertex_count - 3:
            cut = cut_from_shore(g, shore)
            if cut.odd and is_tight_cut(g, cut):
                return cut, carried[i + 1:]
    return None, ()


def _kept_shores(
    shores: Iterable[frozenset[int]], cmap: ContractionMap
) -> tuple[frozenset[int], ...]:
    """The shores inside a contraction's kept side, in the child's labels."""
    index = {p: i for i, p in enumerate(cmap.kept_vertices)}
    return tuple(
        frozenset(index[v] for v in shore)
        for shore in shores
        if all(v in index for v in shore)
    )


def decompose(
    g: MultiGraph, *, carried: Optional[Sequence[frozenset[int]]] = None
) -> DecompositionTree:
    """Recursive tight cut decomposition down to classified brick/brace leaves.

    ``carried`` is None for an input graph, which is then checked to be an
    r-graph once.  The recursion passes each contracted child, an r-graph by
    construction, the shores it carries: the sibling odd components of the
    barrier behind an ancestor's cut, relabelled.  Their cuts were tight and
    do not cross the contracted cut, so they stay tight here (Lovasz 1987).
    The node tries them in order, each still checked to be nontrivial, odd
    and accepted by ``is_tight_cut``; the first accepted is its cut, the
    rest go on to the child that keeps them, and only when none is accepted
    does the node call ``find_nontrivial_tight_cut``.  A node whose simple
    graph is Petersen is a brick whatever its parallel edges, so it becomes
    a leaf without a search.
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
        carried = ()
    kind = classify_leaf(g)
    if kind is LeafClass.PETERSEN_BRICK:
        return DecompositionTree(graph=g, leaf_class=kind)
    cut, onward = _carried_cut(g, carried)
    if cut is None:
        siblings: list[frozenset[int]] = []
        cut = find_nontrivial_tight_cut(g, siblings=siblings)
        onward = siblings
    if cut is None:
        return DecompositionTree(graph=g, leaf_class=kind)
    complement = frozenset(range(g.vertex_count)) - cut.shore
    left_graph, left_map = contract_shore(g, cut, cut.shore)
    right_graph, right_map = contract_shore(g, cut, complement)
    return DecompositionTree(
        graph=g,
        cut=cut,
        left=decompose(left_graph, carried=_kept_shores(onward, left_map)),
        right=decompose(right_graph, carried=_kept_shores(onward, right_map)),
        left_map=left_map,
        right_map=right_map,
    )
