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
search.  For other nodes, candidates come from two classical sources, each
validated by the definitional check before being returned:

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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Iterable, Iterator, Optional

from .cover import CoverSolution
from .graphs import (
    Cut,
    MultiGraph,
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
    shore: frozenset[int]
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


def is_tight_cut(g: MultiGraph, cut: Cut) -> bool:
    """Whether no perfect matching crosses the odd cut more than once.

    Two cut edges can only appear in one matching if they are vertex-disjoint,
    so it suffices to test, per disjoint pair, whether the graph minus the
    four endpoints still has a perfect matching.
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
            if has_perfect_matching(g, (u1, v1, u2, v2)):
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
    In a connected regular bipartite graph the surplus of a proper subset is
    at least 1, so any witness of the non-brace condition is found this way.
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
        for u_keep in u_prime:
            capacity: list[dict[int, int]] = [dict() for _ in range(g.vertex_count + 2)]
            for u in u_prime:
                capacity[source][u] = infinite if u == u_keep else 1
                for w in g.adjacency[u]:
                    capacity[u][w] = infinite
                    capacity[w][sink] = 1
            _, side = _max_flow(capacity, source, sink)
            x = frozenset(u for u in u_prime if u in side)
            if x in seen:
                continue
            seen.add(x)
            if 1 <= len(x) <= len(u_list) - 2 and len(_neighborhood(g, x)) == len(x) + 1:
                yield x


def _bipartite_barrier_shores(g: MultiGraph) -> Iterator[frozenset[int]]:
    sides = bipartition(g)
    assert sides is not None
    for u_side, w_side in (sides, (sides[1], sides[0])):
        for x in _low_surplus_sets(g, u_side, w_side):
            barrier = _neighborhood(g, x)
            for comp in components_without(g, barrier):
                if len(comp) >= 3 and len(comp) % 2 == 1:
                    yield comp


def _nonbipartite_barrier_shores(g: MultiGraph) -> Iterator[frozenset[int]]:
    """Odd components left by the barrier of each pair {u, v} with no perfect matching.

    G has a perfect matching, so G - u misses exactly one vertex in a maximum
    matching, and G - u - v has a perfect matching exactly when v is in
    D(G - u).  For a failing pair, {u, v} + A(G - u - v) leaves exactly as
    many odd components as it has vertices, so it is a barrier.  Pairs are
    visited in lexicographic order.

    One perfect matching M of G serves every decomposition.  M minus the edge
    at u is maximum in G - u, which has odd order.  For a failing pair, M
    minus the edges at u and v is maximum in G - u - v, which has even order
    and no perfect matching.  So each decomposition grows one alternating
    forest and runs no matching search.
    """
    mate = maximum_matching(g.vertex_count, g.adjacency)
    for u in range(g.vertex_count - 1):
        matchable = gallai_edmonds(g, (u,), mate).d
        for v in range(u + 1, g.vertex_count):
            if v in matchable:
                continue
            barrier = frozenset((u, v)) | gallai_edmonds(g, (u, v), mate).a
            for comp in components_without(g, barrier):
                if len(comp) >= 3 and len(comp) % 2 == 1:
                    yield comp


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


def find_nontrivial_tight_cut(g: MultiGraph) -> Optional[Cut]:
    """A verified nontrivial tight cut, or None when G is a brick or brace.

    G must already be an r-graph (``decompose`` checks its input once); this
    is not re-checked.  Candidate shores are generated deterministically (see
    module docstring) and each is validated with is_tight_cut; the first
    survivor wins.
    """
    if g.vertex_count < 6:
        return None  # a nontrivial odd cut needs two shores of size >= 3
    if bipartition(g) is not None:
        routes: Iterable[Iterator[frozenset[int]]] = (_bipartite_barrier_shores(g),)
    else:
        routes = (_nonbipartite_barrier_shores(g), _two_separation_shores(g))
    tried: set[frozenset[int]] = set()
    for route in routes:
        for shore in route:
            if shore in tried:
                continue
            tried.add(shore)
            if not 3 <= len(shore) <= g.vertex_count - 3:
                continue
            cut = cut_from_shore(g, shore)
            if cut.odd and is_tight_cut(g, cut):
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
        shore=collapsed,
        kept_vertices=kept,
    )


_PETERSEN_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
)


def canonical_petersen() -> MultiGraph:
    """The Petersen graph in a fixed labeling: outer 5-cycle, spokes, pentagram."""
    return build_graph(10, _PETERSEN_EDGES)


def petersen_embedding(g: MultiGraph) -> Optional[tuple[int, ...]]:
    """A vertex map from the canonical Petersen onto g's underlying simple graph.

    Entry i is the g-vertex playing canonical vertex i.  Backtracking assigns
    vertices in canonical order, pruning on adjacency and non-adjacency; with
    both graphs 3-regular on 15 vertex pairs this is an isomorphism test.
    """
    if g.vertex_count != 10 or len(g.simple_pairs) != 15:
        return None
    if any(len(nbrs) != 3 for nbrs in g.adjacency):
        return None
    canon = canonical_petersen()
    canon_adj = [set(a) for a in canon.adjacency]
    graph_adj = [set(a) for a in g.adjacency]
    assignment: list[int] = []
    used = [False] * 10

    def extend() -> bool:
        i = len(assignment)
        if i == 10:
            return True
        for candidate in range(10):
            if used[candidate]:
                continue
            if all(
                (j in canon_adj[i]) == (assignment[j] in graph_adj[candidate])
                for j in range(i)
            ):
                assignment.append(candidate)
                used[candidate] = True
                if extend():
                    return True
                assignment.pop()
                used[candidate] = False
        return False

    return tuple(assignment) if extend() else None


def classify_leaf(g: MultiGraph) -> LeafClass:
    """Brace if bipartite, PetersenBrick if the simple graph is Petersen, else OtherBrick.

    This is the class G has as a leaf; only a Petersen graph is known to be
    a leaf before the tight-cut search.
    """
    if bipartition(g) is not None:
        return LeafClass.BRACE
    if petersen_embedding(g) is not None:
        return LeafClass.PETERSEN_BRICK
    return LeafClass.OTHER_BRICK


def decompose(g: MultiGraph, *, checked: bool = False) -> DecompositionTree:
    """Recursive tight cut decomposition down to classified brick/brace leaves.

    The input is checked to be an r-graph unless ``checked`` says the caller
    has done so.  The recursion passes ``checked=True`` for every contracted
    child, which is an r-graph by construction, so one solve runs the r-graph
    check once.  A node whose simple graph is Petersen is a brick whatever
    its parallel edges, so it becomes a leaf without a search.
    """
    if not checked:
        check = is_r_graph(g)
        if not check.ok:
            if check.witness is None:
                raise ValueError("not an r-graph: disconnected, irregular, or odd order")
            raise ValueError(
                f"not an r-graph: odd cut of size {check.witness.size} at shore "
                f"{sorted(check.witness.shore)}"
            )
    kind = classify_leaf(g)
    cut = None if kind is LeafClass.PETERSEN_BRICK else find_nontrivial_tight_cut(g)
    if cut is None:
        return DecompositionTree(graph=g, leaf_class=kind)
    complement = frozenset(range(g.vertex_count)) - cut.shore
    left_graph, left_map = contract_shore(g, cut, cut.shore)
    right_graph, right_map = contract_shore(g, cut, complement)
    return DecompositionTree(
        graph=g,
        cut=cut,
        left=decompose(left_graph, checked=True),
        right=decompose(right_graph, checked=True),
        left_map=left_map,
        right_map=right_map,
    )
