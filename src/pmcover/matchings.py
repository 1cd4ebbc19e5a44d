"""Perfect matching search, enumeration, and incidence structure.

Existence and extraction run on the simplified graph through an
augmenting-path search with blossom contraction, so non-bipartite graphs are
handled exactly.  ``maximum_matching`` searches from scratch.  Every
question about G minus a vertex set X starts warm instead, from a matching
of G with its edges at X dropped, and grows alternating forests in place,
never entering a vertex of X: ``perfect_matching_without`` completes it to
a perfect matching of G - X, and ``gallai_edmonds`` reads D(G - X), and
from it A and C, off one forest.  ``iter_pms`` lists every perfect matching
for ``pmcover enumerate``; nothing on the solve path enumerates.  It
backtracks over the lowest-indexed uncovered vertex, branching over
incident edges in ascending edge-id order; parallel copies of a pair
therefore yield distinct matchings, listed deterministically.

A perfect matching is represented as a frozenset of edge ids.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .graphs import MultiGraph


def maximum_matching(n: int, adjacency: Sequence[Sequence[int]]) -> list[int]:
    """Maximum matching of a simple graph; mate array, -1 = exposed.

    Classic O(V^3) augmenting-path search with blossom contraction (bases are
    tracked per vertex and collapsed at the least common base), after a
    greedy seed.  Deterministic for a fixed adjacency order.
    """
    mate = [-1] * n
    for v in range(n):  # cheap greedy seed
        if mate[v] == -1:
            for w in adjacency[v]:
                if mate[w] == -1:
                    mate[v] = w
                    mate[w] = v
                    break
    for v in range(n):
        if mate[v] == -1:
            _grow_forest(adjacency, mate, (v,), frozenset())
    return mate


def _grow_forest(
    adjacency: Sequence[Sequence[int]], mate: list[int], roots: Sequence[int], removed: frozenset[int]
) -> Optional[list[bool]]:
    """Grow alternating trees from exposed roots of G - removed, contracting blossoms.

    Removed vertices are never entered, and ``mate`` must leave them exposed.
    As soon as an edge reaches an exposed vertex outside the forest, ``mate``
    is augmented along the path and None is returned.  Otherwise the forest
    is grown to the end and its outer flags are returned: the roots, the
    mates of inner vertices, and every vertex of a contracted blossom.
    """
    n = len(adjacency)
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    queue = deque(roots)
    for root in roots:
        outer[root] = True

    def least_common_base(a: int, b: int) -> int:
        seen = [False] * n
        x = a
        while True:
            x = base[x]
            seen[x] = True
            if mate[x] == -1:
                break
            x = parent[mate[x]]
        y = b
        while True:
            y = base[y]
            if seen[y]:
                return y
            if mate[y] == -1:
                raise AssertionError(
                    "outer vertices of two trees are adjacent; the matching is not maximum"
                )
            y = parent[mate[y]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    while queue:
        v = queue.popleft()
        for to in adjacency[v]:
            if base[v] == base[to] or mate[v] == to or to in removed:
                continue
            if outer[to]:
                # v and to are both outer: contract the blossom
                b = least_common_base(v, to)
                in_blossom = [False] * n
                mark_path(v, b, to)
                mark_path(to, b, v)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = b
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if mate[to] == -1:
                    # augment along the alternating path ending at `to`
                    u = to
                    while u != -1:
                        pv = parent[u]
                        nxt = mate[pv]
                        mate[u] = pv
                        mate[pv] = u
                        u = nxt
                    return None
                outer[mate[to]] = True
                queue.append(mate[to])
    return outer


def _dropped(matching: Sequence[int], gone: frozenset[int]) -> list[int]:
    """A copy of the mate array of a matching without its edges at the removed vertices."""
    mate = list(matching)
    for v in gone:
        if mate[v] != -1:
            mate[mate[v]] = mate[v] = -1
    return mate


class GallaiEdmonds(NamedTuple):
    """D: vertices missed by some maximum matching; A = N(D) - D; C: the rest."""

    d: frozenset[int]
    a: frozenset[int]
    c: frozenset[int]


def gallai_edmonds(
    g: MultiGraph, removed: Iterable[int], matching: Sequence[int]
) -> GallaiEdmonds:
    """The Gallai-Edmonds decomposition of G minus the given vertices.

    ``matching`` is a mate array of a matching of G, such as the perfect
    matching a decomposition node inherits; it is left as it is.  Its edges
    at removed vertices are dropped, and the rest must be a maximum matching
    of G minus ``removed``.  It is when ``matching`` is perfect and one
    vertex u is removed, and then the partner of u is the one exposed
    vertex.  One
    alternating forest is grown from every exposed vertex at once,
    contracting blossoms as in the matching search.  With the matching
    maximum, no edge joins outer vertices of two trees, so the forest never
    augments, and the outer vertices (those at even distance from an exposed
    vertex along some alternating path, blossoms included) are exactly D.  A
    matching that is not maximum shows up as adjacent outer vertices of two
    trees, and an AssertionError is raised.  When every vertex left is
    outer, as at every vertex of a bicritical graph, a brick among them, A
    and C are empty and no adjacency is scanned for them.
    """
    gone = frozenset(removed)
    mate = _dropped(matching, gone)
    exposed = [v for v, w in enumerate(mate) if w == -1 and v not in gone]
    outer = _grow_forest(g.adjacency, mate, exposed, gone)
    assert outer is not None  # every exposed vertex is a root: nothing to augment to
    d = frozenset(v for v in range(g.vertex_count) if outer[v])
    if len(d) + len(gone) == g.vertex_count:
        return GallaiEdmonds(d, frozenset(), frozenset())
    a = frozenset(w for v in d for w in g.adjacency[v] if not outer[w] and w not in gone)
    c = frozenset(range(g.vertex_count)) - gone - d - a
    return GallaiEdmonds(d, a, c)


def perfect_matching_without(
    g: MultiGraph, removed: Iterable[int], matching: Sequence[int]
) -> Optional[list[int]]:
    """A perfect matching of G minus the given vertices, grown from a matching of G.

    ``matching`` is a mate array of any matching of G: the node's perfect
    matching during a decomposition, a maximum matching of a brick leaf, or
    ``[-1] * n`` for a cold start; it is left as it is.  Its edges at
    removed vertices are dropped, and one alternating search grows from
    each vertex left exposed.  The first search that cannot augment settles
    the answer as None, since a vertex with no augmenting path from it is
    missed by some maximum matching.  Otherwise the mate array is returned,
    -1 at removed vertices.  From a perfect matching of G, removing k
    vertices leaves at most k exposed vertices, so the answer costs a few
    searches, not a matching search.
    """
    gone = frozenset(removed)
    if (g.vertex_count - len(gone)) % 2 != 0:
        return None
    mate = _dropped(matching, gone)
    stuck = any(
        mate[v] == -1 and v not in gone and _grow_forest(g.adjacency, mate, (v,), gone) is not None
        for v in range(g.vertex_count)
    )
    return None if stuck else mate


def pm_containing_edges(
    g: MultiGraph, edge_ids: Iterable[int], matching: Sequence[int]
) -> Optional[frozenset[int]]:
    """A perfect matching containing exactly the given edges, or None.

    The forced edges must themselves form a matching.  The rest is
    ``perfect_matching_without`` their ends, grown from ``matching``, a mate
    array of any matching of G; each matched pair maps to its lowest edge id.
    """
    forced = sorted(set(edge_ids))
    covered: set[int] = set()
    for e in forced:
        if not 0 <= e < g.m:
            raise ValueError(f"edge id {e} out of range")
        u, v = g.edges[e]
        if u in covered or v in covered:
            raise ValueError(f"forced edges are not a matching: vertex clash at edge {e}")
        covered.update((u, v))
    mate = perfect_matching_without(g, covered, matching)
    if mate is None:
        return None
    return frozenset(forced).union(g.pair_ids[(v, w)][0] for v, w in enumerate(mate) if v < w)


def iter_pms(g: MultiGraph) -> Iterator[frozenset[int]]:
    """All perfect matchings as edge-id sets, in deterministic backtracking order."""
    if g.vertex_count % 2 != 0:
        return
    covered = [False] * g.vertex_count
    chosen: list[int] = []

    def backtrack(start: int) -> Iterator[frozenset[int]]:
        v = start
        while v < g.vertex_count and covered[v]:
            v += 1
        if v == g.vertex_count:
            yield frozenset(chosen)
            return
        covered[v] = True
        for e in g.incident_ids[v]:
            w = g.other_end(e, v)
            if covered[w]:
                continue
            covered[w] = True
            chosen.append(e)
            yield from backtrack(v + 1)
            chosen.pop()
            covered[w] = False
        covered[v] = False

    yield from backtrack(0)


def validate_perfect_matching(g: MultiGraph, edge_ids: Iterable[int]) -> None:
    """Raise with the offending vertex unless the edges cover each vertex once."""
    m, edges = g.m, g.edges
    times = [0] * g.vertex_count
    for e in edge_ids:
        if not 0 <= e < m:
            raise ValueError(f"edge id {e} out of range")
        u, v = edges[e]
        times[u] += 1
        times[v] += 1
    if times.count(1) == len(times):
        return
    for v, t in enumerate(times):
        if t == 0:
            raise ValueError(f"vertex {v} is uncovered")
        if t > 1:
            raise ValueError(f"vertex {v} is covered {t} times")


def incidence_row(g: MultiGraph, edge_ids: frozenset[int]) -> list[int]:
    """The 0/1 incidence vector of an edge set over the edge ids; not validated."""
    return [1 if e in edge_ids else 0 for e in range(g.m)]


def incidence_mask(edge_ids: Iterable[int]) -> int:
    """The incidence vector of a set of edge ids as an int, bit e for edge e; not validated."""
    return sum(1 << e for e in edge_ids)
