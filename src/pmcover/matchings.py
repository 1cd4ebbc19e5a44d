"""Perfect matching search, enumeration, and incidence structure.

Existence and extraction run on the simplified graph through an
augmenting-path search with blossom contraction, so non-bipartite graphs are
handled exactly.  Enumeration backtracks over the lowest-indexed uncovered
vertex, branching over incident edges in ascending edge-id order; parallel
copies of a pair therefore yield distinct matchings, listed deterministically.

A perfect matching is represented as a frozenset of edge ids.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .graphs import MultiGraph


class EnumerationOverflow(RuntimeError):
    """Raised when enumeration exceeds its limit; carries the matchings found so far."""

    def __init__(self, limit: int, found: Sequence[frozenset[int]] = ()):
        super().__init__(f"perfect matching enumeration exceeded limit {limit}")
        self.limit = limit
        self.found = list(found)


def maximum_matching(n: int, adjacency: Sequence[Sequence[int]]) -> list[int]:
    """Maximum cardinality matching on a simple graph; mate array, -1 = exposed.

    Classic O(V^3) augmenting-path search with blossom contraction (bases are
    tracked per vertex and collapsed at the least common base).  Deterministic
    for a fixed adjacency order.
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
            _grow_forest(adjacency, mate, (v,))
    return mate


def _grow_forest(
    adjacency: Sequence[Sequence[int]], mate: list[int], roots: Sequence[int]
) -> Optional[list[bool]]:
    """Grow alternating trees from exposed roots, contracting blossoms.

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
            if base[v] == base[to] or mate[v] == to:
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


def _filtered_adjacency(g: MultiGraph, removed: frozenset[int]) -> list[tuple[int, ...]]:
    return [
        ()
        if v in removed
        else tuple(w for w in g.adjacency[v] if w not in removed)
        for v in range(g.vertex_count)
    ]


class GallaiEdmonds(NamedTuple):
    """D: vertices missed by some maximum matching; A = N(D) - D; C: the rest."""

    d: frozenset[int]
    a: frozenset[int]
    c: frozenset[int]


def gallai_edmonds(
    g: MultiGraph, removed: Iterable[int] = (), matching: Optional[Sequence[int]] = None
) -> GallaiEdmonds:
    """The Gallai-Edmonds decomposition of G minus the given vertices.

    One maximum matching, then one alternating forest grown from every
    exposed vertex at once, contracting blossoms as in the matching search.
    With the matching maximum, no edge joins outer vertices of two trees, and
    the outer vertices (those at even distance from an exposed vertex along
    some alternating path, blossoms included) are exactly D.

    ``matching``, a mate array of a matching of G, replaces the matching
    search: its edges at removed vertices are dropped, and the rest must be
    a maximum matching of G minus ``removed``.  Every exposed vertex is a
    root, so the forest never augments; a matching that is not maximum shows
    up as adjacent outer vertices of two trees, and an AssertionError is
    raised.
    """
    gone = frozenset(removed)
    adjacency = _filtered_adjacency(g, gone)
    if matching is None:
        mate = maximum_matching(g.vertex_count, adjacency)
    else:
        mate = [-1 if v in gone or w in gone else w for v, w in enumerate(matching)]
    exposed = [v for v in range(g.vertex_count) if v not in gone and mate[v] == -1]
    outer = _grow_forest(adjacency, mate, exposed)
    assert outer is not None  # every exposed vertex is a root: nothing to augment to
    d = frozenset(v for v in range(g.vertex_count) if outer[v])
    a = frozenset(w for v in d for w in adjacency[v] if not outer[w])
    c = frozenset(range(g.vertex_count)) - gone - d - a
    return GallaiEdmonds(d, a, c)


def has_perfect_matching(
    g: MultiGraph, removed: Iterable[int] = (), matching: Optional[Sequence[int]] = None
) -> bool:
    """Whether G minus the given vertices has a perfect matching.

    One alternating search grows from each vertex left exposed, starting
    from the empty matching or, when ``matching`` (a mate array of any
    matching of G) is given, from that matching minus its edges at removed
    vertices, as in ``gallai_edmonds``.  The first search that cannot
    augment settles the answer as no, since a vertex with no augmenting path
    from it is missed by some maximum matching.  From a perfect matching of
    G, removing k vertices leaves at most k exposed vertices, so the test
    costs a few searches instead of a whole matching search.
    """
    gone = frozenset(removed)
    if (g.vertex_count - len(gone)) % 2 != 0:
        return False
    adjacency = _filtered_adjacency(g, gone)
    if matching is None:
        mate = [-1] * g.vertex_count
    else:
        mate = [-1 if v in gone or w in gone else w for v, w in enumerate(matching)]
    return all(
        v in gone or mate[v] != -1 or _grow_forest(adjacency, mate, (v,)) is None
        for v in range(g.vertex_count)
    )


def pm_containing_edges(g: MultiGraph, edge_ids: Iterable[int]) -> Optional[frozenset[int]]:
    """A perfect matching containing exactly the given edges, or None.

    The forced edges must themselves form a matching.  The completion on the
    remaining vertices maps each matched pair to its lowest edge id.
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
    mate = maximum_matching(g.vertex_count, _filtered_adjacency(g, frozenset(covered)))
    if any(v not in covered and mate[v] == -1 for v in range(g.vertex_count)):
        return None
    result = set(forced)
    for v in range(g.vertex_count):
        if v in covered or mate[v] < v:
            continue
        result.add(g.pair_ids[(v, mate[v])][0])
    return frozenset(result)


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


def enumerate_pms(g: MultiGraph, limit: Optional[int] = None) -> list[frozenset[int]]:
    """Every perfect matching, or EnumerationOverflow past ``limit``."""
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    out: list[frozenset[int]] = []
    for pm in iter_pms(g):
        if limit is not None and len(out) == limit:
            raise EnumerationOverflow(limit, out)
        out.append(pm)
    return out


def validate_perfect_matching(g: MultiGraph, edge_ids: Iterable[int]) -> None:
    """Raise with the offending vertex unless the edges cover each vertex once."""
    times = [0] * g.vertex_count
    for e in edge_ids:
        if not 0 <= e < g.m:
            raise ValueError(f"edge id {e} out of range")
        u, v = g.edges[e]
        times[u] += 1
        times[v] += 1
    for v, t in enumerate(times):
        if t == 0:
            raise ValueError(f"vertex {v} is uncovered")
        if t > 1:
            raise ValueError(f"vertex {v} is covered {t} times")


def incidence_rows(g: MultiGraph, columns: Sequence[frozenset[int]]) -> list[list[int]]:
    """Edge-by-column 0/1 integer rows; the columns are not validated."""
    return [[1 if e in pm else 0 for pm in columns] for e in range(g.m)]
