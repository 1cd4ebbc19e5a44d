"""Seeded input generators for the benchmark workloads.

Standard library only, and deliberately independent of ``pmcover``: a change
to the program (its CLI generator included) cannot change what the benchmark
feeds it.  Every instance is drawn from its own ``random.Random`` keyed by
(workload, seed, index), so instance i is the same whichever other instances
a run gets to.

Graph files use the program's text format: ``rgraph <n> <m>`` followed by
one ``e <u> <v>`` line per edge, edge ids in file order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

Edges = list[tuple[int, int]]

# Outer 5-cycle, spokes, pentagram.  Vertex 0's neighbours are 1, 4 and 5.
PETERSEN_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
)
PETERSEN_PORTS = (1, 4, 5)


def is_connected(n: int, edges: Edges) -> bool:
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _random_matching(items: list[int], rng: random.Random) -> Edges:
    order = items[:]
    rng.shuffle(order)
    return list(zip(order[0::2], order[1::2]))


def matching_union(n: int, r: int, rng: random.Random) -> Edges:
    """Union of r random perfect matchings of K_n, resampled until connected.

    Every perfect matching crosses every odd cut, so each odd cut has at
    least r edges and a connected union is an r-graph.  Parallel edges stay.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be even and at least 2")
    while True:
        edges = [
            (min(u, v), max(u, v))
            for _ in range(r)
            for u, v in _random_matching(list(range(n)), rng)
        ]
        if is_connected(n, edges):
            return edges


def barrier_blowup(k: int, rng: random.Random) -> Edges:
    """A cubic r-graph on 10k vertices whose tight cut tree has k Petersen leaves.

    H is a connected bipartite cubic multigraph on sides A and B (k vertices
    each), the union of three random bijections A -> B.  Each vertex of A is
    replaced by a Petersen graph minus one vertex, whose three degree-2
    vertices take over its three H-edges.  B is then a barrier with k odd
    components, so the cut around each piece is tight and contracts to a
    Petersen brick.  Labels and edge order are shuffled.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    while True:
        h_edges = [(a, b) for _ in range(3) for a, b in enumerate(rng.sample(range(k), k))]
        if is_connected(2 * k, [(a, k + b) for a, b in h_edges]):
            break
    b_vertex = 9 * k  # B side occupies 9k .. 10k-1; piece a occupies 9a .. 9a+8

    def piece_vertex(a: int, p: int) -> int:
        return 9 * a + p - 1  # Petersen vertex 0 is the one removed

    edges: Edges = [
        (piece_vertex(a, u), piece_vertex(a, v))
        for a in range(k)
        for u, v in PETERSEN_EDGES
        if u != 0 and v != 0
    ]
    next_port = [0] * k
    for a, b in h_edges:
        edges.append((piece_vertex(a, PETERSEN_PORTS[next_port[a]]), b_vertex + b))
        next_port[a] += 1
    n = 10 * k
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for u, v in edges]
    rng.shuffle(edges)
    return edges


def format_graph(n: int, edges: Edges) -> str:
    lines = [f"rgraph {n} {len(edges)}"]
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    """A seeded family of graphs of one size."""

    name: str
    why: str
    make: Callable[[random.Random], tuple[int, Edges]]
    pool_rate: float  # inputs generated in set-up, per second of --seconds
    trace_rate: float  # instances in a traced run, per second of --seconds

    def instance(self, seed: int, index: int) -> tuple[int, Edges]:
        return self.make(random.Random(f"{self.name}:{seed}:{index}"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="brick",
            why="unions of 4 perfect matchings: one brick leaf, time in brick_solve and HNF",
            make=lambda rng: (18, matching_union(18, 4, rng)),
            pool_rate=20.0,
            trace_rate=3.0,
        ),
        Workload(
            name="cubic",
            why="random cubic graphs: the pair sweep of the tight-cut search dominates, then brick leaves",
            make=lambda rng: (36, matching_union(36, 3, rng)),
            pool_rate=12.0,
            trace_rate=2.0,
        ),
        Workload(
            name="blowup",
            why="barrier blow-ups: many tight cuts, k Petersen leaves, contractions and merges, no brick_solve",
            make=lambda rng: (60, barrier_blowup(6, rng)),
            pool_rate=8.0,
            trace_rate=1.5,
        ),
    )
}
