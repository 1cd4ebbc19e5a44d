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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence


@dataclass(frozen=True)
class MultiGraph:
    """A loopless multigraph; ``edges[i]`` is the endpoint pair of edge id i."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return self.vertex_count

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
    if g.vertex_count == 0:
        return False
    seen = [False] * g.vertex_count
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.vertex_count


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


def bipartition(g: MultiGraph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """2-coloring of a connected graph: (side of vertex 0, other side), or None."""
    if g.vertex_count == 0:
        return None
    color = [-1] * g.vertex_count
    color[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if color[w] == -1:
                color[w] = 1 - color[v]
                queue.append(w)
            elif color[w] == color[v]:
                return None
    if any(c == -1 for c in color):
        return None  # disconnected: no canonical bipartition
    left = frozenset(v for v in range(g.vertex_count) if color[v] == 0)
    right = frozenset(range(g.vertex_count)) - left
    return left, right


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


class _FlowNetwork(NamedTuple):
    """Arc arrays of a flow network.

    Arc a enters ``heads[a]``, and arc ``a ^ 1`` is its reverse, so the tail
    of a is ``heads[a ^ 1]``.  ``arcs[v]`` lists the arcs leaving v, sorted by
    head once, and ``capacity[a]`` is the capacity of arc a.
    """

    heads: list[int]
    arcs: list[list[int]]
    capacity: list[int]


def _flow_network(
    vertex_count: int, arc_pairs: Iterable[tuple[int, int, int, int]]
) -> _FlowNetwork:
    """A network from (u, v, capacity u -> v, capacity v -> u) tuples.

    An undirected edge gives both directions its capacity; a directed arc
    gives its reverse capacity 0.
    """
    heads: list[int] = []
    capacity: list[int] = []
    arcs: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v, forward, backward in arc_pairs:
        arcs[u].append(len(heads))
        heads.append(v)
        capacity.append(forward)
        arcs[v].append(len(heads))
        heads.append(u)
        capacity.append(backward)
    for leaving in arcs:
        leaving.sort(key=heads.__getitem__)
    return _FlowNetwork(heads, arcs, capacity)


def _max_flow(net: _FlowNetwork, source: int, sink: int) -> tuple[int, set[int]]:
    """Edmonds-Karp over arc arrays; returns (value, source side).

    The residual capacities live in one list, a copy of ``net.capacity``, so
    the network can serve many flows.  The source side is the set reachable
    from the source in the final residual graph.  That set is the same for
    every maximum flow: it is the least source shore among all minimum cuts
    (Ford-Fulkerson), so it does not depend on which augmenting paths the
    search happened to take.
    """
    heads, arcs = net.heads, net.arcs
    residual = list(net.capacity)
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
    n - 1 flows share one network, built once with one arc pair per
    adjacent pair whose capacity counts its parallel copies.  Each flow's
    source side is the least minimum-cut shore, which no choice of
    augmenting paths changes, so neither does the tree.
    """
    if not is_connected(g):
        raise ValueError("Gomory-Hu tree requires a connected graph")
    n = g.vertex_count
    parent = [0] * n
    parent[0] = -1
    weight = [0] * n
    net = _flow_network(n, ((u, v, len(ids), len(ids)) for (u, v), ids in g.pair_ids.items()))
    for i in range(1, n):
        t = parent[i]
        value, side = _max_flow(net, i, t)
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

    Scans the fundamental cuts of a Gomory-Hu tree; cut sizes are recomputed
    from the shore so correctness rests only on the tree's partition property.
    """
    if g.vertex_count == 0 or g.vertex_count % 2 != 0:
        raise ValueError("odd cuts require an even, positive vertex count")
    if not is_connected(g):
        raise ValueError("min_odd_cut requires a connected graph")
    parent, _ = gomory_hu_tree(g)
    children: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for v in range(g.vertex_count):
        if parent[v] != -1:
            children[parent[v]].append(v)
    best: Optional[Cut] = None
    for v in range(1, g.vertex_count):
        # shore = subtree rooted at v once the edge to parent[v] is removed
        shore = set()
        stack = [v]
        while stack:
            x = stack.pop()
            shore.add(x)
            stack.extend(children[x])
        if len(shore) % 2 == 1:
            cut = cut_from_shore(g, shore)
            if best is None or cut.size < best.size:
                best = cut
    assert best is not None  # a leaf edge of the tree always gives an odd split
    return best.size, best


def is_r_graph(g: MultiGraph) -> RGraphCheck:
    """Connected, r-regular, even order, and every odd cut has >= r edges.

    Returns (ok, r, witness, min_odd_cut); the witness is a violating odd cut
    when that is the failure, None for structural failures (irregular, odd
    order, ...).  min_odd_cut is the minimum odd cut size, computed whenever
    the graph is connected and of even order, so also for irregular graphs.
    """
    if g.vertex_count == 0 or not is_connected(g):
        return RGraphCheck(False, None, None)
    r = regular_degree(g)
    if g.vertex_count % 2 != 0:
        return RGraphCheck(False, r, None)
    size, witness = min_odd_cut(g)
    if r is None:
        return RGraphCheck(False, r, None, size)
    if size < r:
        return RGraphCheck(False, r, witness, size)
    return RGraphCheck(True, r, None, size)
