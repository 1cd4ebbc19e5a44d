"""Loopless multigraphs with positional edge identity, cuts, and r-graph checks.

Vertices are integers 0..n-1.  An edge is an unordered pair (u, v); its
identity is its position in the edge tuple, so parallel copies of the same
pair are distinct objects with distinct ids.  All graph surgery elsewhere in
the package (contraction, matching enumeration, certificates) speaks in these
edge ids, never in endpoint pairs.

An r-graph is an r-regular graph on an even number of vertices in which every
odd cut (both shores of odd cardinality) has at least r edges.  The minimum
odd cut is computed from a Gomory-Hu tree of pairwise edge connectivities:
some minimum odd cut is always induced by a tree edge whose removal splits the
tree into two odd-sized components, so scanning the n-1 fundamental cuts
suffices.  Tests compare against a brute-force sweep over all odd shores.

Cubic graphs need no flow.  Each edge with both ends in a shore S uses two
of the 3|S| edge ends in S, so |cut(S)| = 3|S| - 2|E(S)|, parallel edges
included, and the cut has the parity of |S|: every odd cut is odd-sized, and
the only odd cut below 3 is a single edge, a bridge.  Conversely the far
side of a bridge is odd, since its cut has size 1, so it is an odd shore
(the order is even).  A cubic graph is thus a 3-graph exactly when it has no
bridge, and, being loopless, exactly when it has no cut vertex: each end of
a bridge is a cut vertex, since its two other edges stay on its own side,
and a cut vertex v sends one of its three edges alone into some component
of G - v, and that edge is a bridge.  ``is_r_graph`` decides it with
``cut_vertices``, one low-link depth-first search (Tarjan 1972), the same
search that the tight-cut search runs on G - u to find 2-separations.
Every other input, irregular or of any other degree, still takes the
Gomory-Hu tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence


@dataclass(frozen=True)
class MultiGraph:
    """A loopless multigraph; ``edges[i]`` is the endpoint pair of edge id i.

    The graph is immutable, so every derived view (degrees, adjacency,
    incident ids, parallel copies, simple pairs, bipartition) is computed on
    first use and cached on the object.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted simple-graph neighbor lists (parallel edges collapsed)."""
        nbr: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            nbr[u].add(v)
            nbr[v].add(u)
        return tuple(tuple(sorted(s)) for s in nbr)

    @cached_property
    def incident_ids(self) -> tuple[tuple[int, ...], ...]:
        """Ascending edge ids incident to each vertex."""
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append(i)
            inc[v].append(i)
        return tuple(tuple(ids) for ids in inc)

    @cached_property
    def pair_ids(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Normalized endpoint pair -> ascending ids of its parallel copies."""
        out: dict[tuple[int, int], list[int]] = {}
        for i, (u, v) in enumerate(self.edges):
            out.setdefault((min(u, v), max(u, v)), []).append(i)
        return {p: tuple(ids) for p, ids in out.items()}

    @cached_property
    def simple_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pair_ids))

    @cached_property
    def bipartition(self) -> Optional[tuple[frozenset[int], frozenset[int]]]:
        """2-coloring of a connected graph: (side of vertex 0, other side), or None.

        One breadth-first search per graph object, so the classification, the
        tight-cut search and the leaf solver of a decomposition node share it.
        """
        if self.vertex_count == 0:
            return None
        color = [-1] * self.vertex_count
        color[0] = 0
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in self.adjacency[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
        if -1 in color:
            return None  # disconnected: no canonical bipartition
        left = frozenset(v for v in range(self.vertex_count) if color[v] == 0)
        return left, frozenset(range(self.vertex_count)) - left

    def other_end(self, edge_id: int, vertex: int) -> int:
        u, v = self.edges[edge_id]
        if vertex == u:
            return v
        if vertex == v:
            return u
        raise ValueError(f"vertex {vertex} is not an endpoint of edge {edge_id}")


@dataclass(frozen=True)
class Cut:
    """The edge set between a vertex shore and its complement."""

    shore: frozenset[int]
    edge_ids: frozenset[int]
    odd: bool

    @property
    def size(self) -> int:
        return len(self.edge_ids)


class RGraphCheck(NamedTuple):
    ok: bool
    r: Optional[int]
    witness: Optional[Cut]
    min_odd_cut: Optional[int] = None  # None when odd cuts are undefined


def build_graph(vertex_count: int, edge_list: Sequence[tuple[int, int]]) -> MultiGraph:
    """Validate endpoints and assign edge ids 0..m-1 in input order."""
    if vertex_count < 0:
        raise ValueError(f"vertex count must be nonnegative, got {vertex_count}")
    edges = []
    for pos, (u, v) in enumerate(edge_list):
        if u == v:
            raise ValueError(f"edge {pos} is a loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(
                f"edge {pos} endpoint out of range: ({u}, {v}) with n={vertex_count}"
            )
        edges.append((u, v))
    return MultiGraph(vertex_count, tuple(edges))


def regular_degree(g: MultiGraph) -> Optional[int]:
    """The common degree, or None if the graph is not regular or empty."""
    if g.vertex_count == 0:
        return None
    degs = set(g.degrees)
    return degs.pop() if len(degs) == 1 else None


def is_connected(g: MultiGraph) -> bool:
    return len(components_without(g, ())) == 1


def components_without(g: MultiGraph, removed: Iterable[int]) -> list[frozenset[int]]:
    """Connected components of G minus a vertex set, ordered by least vertex."""
    gone = set(removed)
    seen = set(gone)
    comps = []
    for start in range(g.vertex_count):
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    return comps


def cut_vertices(g: MultiGraph, removed: Optional[int] = None) -> set[int]:
    """The cut vertices of G, or of G - removed, from one iterative low-link DFS.

    Tarjan's depth-first search (1972) over ``g.adjacency``: a non-root v is
    a cut vertex when some child's subtree reaches no vertex discovered
    before v, low[child] >= disc[v], and the root is one when it has two
    children.  Parallel edges change neither test.  The graph searched must
    be nonempty and connected; an r-graph is 2-connected, since the odd
    component left by a cut vertex would have fewer than r boundary edges,
    so G - u is connected for every vertex u.
    """
    disc = [0] * g.vertex_count  # discovery time from 1; 0 while unvisited
    low = [0] * g.vertex_count
    root = 1 if removed == 0 else 0
    disc[root] = low[root] = clock = 1
    root_children = 0
    cut: set[int] = set()
    stack = [(root, -1, iter(g.adjacency[root]))]
    while stack:
        v, parent, neighbors = stack[-1]
        for w in neighbors:
            if w == removed:
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
    searched = g.vertex_count - (removed is not None)
    assert clock == searched, "the searched graph is disconnected; G is not an r-graph"
    if root_children >= 2:
        cut.add(root)
    return cut


def cut_from_shore(g: MultiGraph, shore: Iterable[int]) -> Cut:
    """The cut around a proper nonempty vertex subset."""
    s = frozenset(shore)
    if not s or len(s) >= g.vertex_count:
        raise ValueError("shore must be a proper nonempty subset of the vertices")
    if not all(0 <= v < g.vertex_count for v in s):
        raise ValueError("shore contains a vertex out of range")
    ids = frozenset(
        i for i, (u, v) in enumerate(g.edges) if (u in s) != (v in s)
    )
    odd = len(s) % 2 == 1 and (g.vertex_count - len(s)) % 2 == 1
    return Cut(shore=s, edge_ids=ids, odd=odd)


def _max_flow(
    heads: list[int], arcs: list[list[int]], capacity: list[int], source: int, sink: int
) -> tuple[int, set[int]]:
    """Edmonds-Karp over arc arrays; returns (value, source side).

    Arc a enters ``heads[a]``, and arc ``a ^ 1`` is its reverse, so the tail
    of a is ``heads[a ^ 1]``; ``arcs[v]`` lists the arcs leaving v.  The
    residual capacities live in a copy of ``capacity``, so the arrays serve
    many flows.  The source side is the set reachable from the source in the
    final residual graph.  That set is the same for every maximum flow: it is
    the least source shore among all minimum cuts (Ford-Fulkerson), so it
    does not depend on which augmenting paths the search happened to take.
    """
    residual = list(capacity)
    n = len(arcs)
    flow = 0
    while True:
        via = [-1] * n  # the arc that first reached each vertex
        via[source] = -2
        queue = [source]
        for v in queue:
            for a in arcs[v]:
                w = heads[a]
                if via[w] == -1 and residual[a] > 0:
                    via[w] = a
                    queue.append(w)
            if via[sink] != -1:
                break
        else:
            return flow, set(queue)
        bottleneck = residual[via[sink]]
        w = sink
        while w != source:
            a = via[w]
            bottleneck = min(bottleneck, residual[a])
            w = heads[a ^ 1]
        w = sink
        while w != source:
            a = via[w]
            residual[a] -= bottleneck
            residual[a ^ 1] += bottleneck
            w = heads[a ^ 1]
        flow += bottleneck


def gomory_hu_tree(g: MultiGraph) -> tuple[list[int], list[int]]:
    """Gusfield's Gomory-Hu cut tree: (parent, weight) arrays rooted at 0.

    The fundamental partition of every tree edge realizes a minimum cut
    between its endpoints, which is what the odd-cut extraction needs.  The
    n - 1 flows share one undirected network, built once: each adjacent
    pair gives an arc and its reverse, both with capacity the pair's count
    of parallel copies, and each vertex lists its arcs by head.  Each flow's
    source side is the least minimum-cut shore, which no choice of
    augmenting paths changes, so neither does the tree.
    """
    if not is_connected(g):
        raise ValueError("Gomory-Hu tree requires a connected graph")
    n = g.vertex_count
    heads: list[int] = []
    capacity: list[int] = []
    arcs: list[list[int]] = [[] for _ in range(n)]
    for (u, v), ids in g.pair_ids.items():
        arcs[u].append(len(heads))
        arcs[v].append(len(heads) + 1)
        heads += [v, u]
        capacity += [len(ids), len(ids)]
    for leaving in arcs:
        leaving.sort(key=heads.__getitem__)
    parent = [0] * n
    parent[0] = -1
    weight = [0] * n
    for i in range(1, n):
        t = parent[i]
        value, side = _max_flow(heads, arcs, capacity, i, t)
        weight[i] = value
        for j in range(n):
            if j != i and j in side and parent[j] == t:
                parent[j] = i
        if parent[t] != -1 and parent[t] in side:
            parent[i] = parent[t]
            parent[t] = i
            weight[i] = weight[t]
            weight[t] = value
    return parent, weight


def min_odd_cut(g: MultiGraph) -> tuple[int, Cut]:
    """Minimum-size cut with both shores odd, with a witness shore.

    Every fundamental cut of the Gomory-Hu tree is a minimum cut between the
    ends of its tree edge, of size the edge's weight, and some fundamental
    cut is a minimum odd cut (Padberg and Rao 1982).  So the sizes are read
    off the weights: the witness is the first subtree, in vertex order, of
    odd size and least weight, and only its cut is built, and checked to
    have that size.  A disconnected graph raises ValueError in
    ``gomory_hu_tree``.
    """
    if g.vertex_count == 0 or g.vertex_count % 2 != 0:
        raise ValueError("odd cuts require an even, positive vertex count")
    parent, weight = gomory_hu_tree(g)
    children: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for v in range(1, g.vertex_count):
        children[parent[v]].append(v)
    order = [0]  # parents before children
    for v in order:
        order.extend(children[v])
    size = [1] * g.vertex_count
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    # a leaf edge of the tree always gives an odd split
    best = min((v for v in range(1, g.vertex_count) if size[v] % 2), key=weight.__getitem__)
    # shore = subtree rooted at best once the edge to parent[best] is removed
    shore = [best]
    for x in shore:
        shore.extend(children[x])
    cut = cut_from_shore(g, shore)
    if cut.size != weight[best]:
        raise AssertionError("a fundamental cut differs from its Gomory-Hu weight")
    return cut.size, cut


def is_r_graph(g: MultiGraph) -> RGraphCheck:
    """Connected, r-regular, even order, and every odd cut has >= r edges.

    Returns (ok, r, witness, min_odd_cut); the witness is a violating odd cut
    when that is the failure, None for structural failures (irregular, odd
    order, ...).  min_odd_cut is the minimum odd cut size, computed whenever
    the graph is connected and of even order, so also for irregular graphs.

    A cubic graph is checked by a cut-vertex search alone.  In it every cut
    has the parity of its shore, |cut(S)| = 3|S| - 2|E(S)|, so an odd cut
    has size 1 or at least 3, and a vertex's own cut has size 3: the minimum
    odd cut is 3 when there is no bridge and 1 when there is one.  A bridge
    exists exactly when a cut vertex does (module docstring).  Then the
    least cut vertex v sends a single edge into some component of G - v;
    the first such component, of cut size 1, is an odd shore and the
    witness.
    Irregular graphs and every other degree take ``min_odd_cut``, which
    builds a Gomory-Hu tree.
    """
    if g.vertex_count == 0 or not is_connected(g):
        return RGraphCheck(False, None, None)
    r = regular_degree(g)
    if g.vertex_count % 2 != 0:
        return RGraphCheck(False, r, None)
    if r == 3:
        separators = cut_vertices(g)
        if not separators:
            return RGraphCheck(True, 3, None, 3)
        around = (cut_from_shore(g, s) for s in components_without(g, (min(separators),)))
        return RGraphCheck(False, 3, next(c for c in around if c.size == 1), 1)
    size, witness = min_odd_cut(g)
    if r is None:
        return RGraphCheck(False, r, None, size)
    if size < r:
        return RGraphCheck(False, r, witness, size)
    return RGraphCheck(True, r, None, size)
