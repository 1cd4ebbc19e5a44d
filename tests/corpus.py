"""Named fixture graphs shared across the test modules."""

from __future__ import annotations

import random

from pmcover import MultiGraph, build_graph
from pmcover.cli import gen_r_graph
from pmcover.graphs import is_connected

PETERSEN_PAIRS = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
]

# Petersen minus vertex 0, old labels k -> k - 1; stubs at 0, 3, 4
PETERSEN_STUB_PAIRS = [
    (0, 1), (1, 2), (2, 3), (0, 5), (1, 6), (2, 7),
    (3, 8), (4, 6), (6, 8), (8, 5), (5, 7), (7, 4),
]


def petersen() -> MultiGraph:
    return build_graph(10, PETERSEN_PAIRS)


def k4() -> MultiGraph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def c4() -> MultiGraph:
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def c6() -> MultiGraph:
    return build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


def prism() -> MultiGraph:
    return build_graph(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )


def k33() -> MultiGraph:
    return build_graph(
        6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]
    )


def cube() -> MultiGraph:
    return build_graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )


def parallel_pair(r: int) -> MultiGraph:
    return build_graph(2, [(0, 1)] * r)


def doubled_c4() -> MultiGraph:
    """C4 with every edge doubled: a 4-regular brace with parallel edges."""
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return build_graph(4, pairs + pairs)


def triangle_expanded_petersen() -> MultiGraph:
    """Petersen with vertex 0 blown into a triangle: a brick, not a tight splice."""
    pairs = list(PETERSEN_STUB_PAIRS)
    pairs += [(9, 0), (10, 3), (11, 4), (9, 10), (10, 11), (11, 9)]
    return build_graph(12, pairs)


def k33_petersen_splice() -> MultiGraph:
    """(K3,3 - v) joined to (Petersen - u) by 3 edges; the joint is a tight cut."""
    pairs = list(PETERSEN_STUB_PAIRS)
    pairs += [(9, 11), (9, 12), (9, 13), (10, 11), (10, 12), (10, 13)]
    pairs += [(11, 0), (12, 3), (13, 4)]
    return build_graph(14, pairs)


def k33_brick_splice() -> MultiGraph:
    """(K3,3 - v) joined to the triangle-expanded brick minus its vertex 0."""
    pairs = [(0, 1), (1, 2), (0, 5), (1, 6), (2, 7), (3, 5), (5, 7), (7, 4),
             (4, 6), (6, 3), (9, 2), (10, 3), (8, 9), (9, 10), (10, 8)]
    pairs += [(11, 13), (11, 14), (11, 15), (12, 13), (12, 14), (12, 15)]
    pairs += [(13, 0), (14, 4), (15, 8)]
    return build_graph(16, pairs)


def double_petersen_splice() -> MultiGraph:
    """One K3,3 with two vertices replaced by Petersen copies; p = 2."""
    pairs = list(PETERSEN_STUB_PAIRS)
    pairs += [(u + 9, v + 9) for u, v in PETERSEN_STUB_PAIRS]
    pairs += [(18, 19), (18, 20), (18, 21)]
    pairs += [(19, 0), (20, 3), (21, 4)]
    pairs += [(19, 9), (20, 12), (21, 13)]
    return build_graph(22, pairs)


def k4_pair_two_cut() -> MultiGraph:
    """Two K4s, each joined to u = 8 and v = 9 by two edges: a 4-regular
    bicritical r-graph whose only tight cuts come from the 2-cut {u, v}."""
    block = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    pairs = list(block) + [(a + 4, b + 4) for a, b in block]
    pairs += [(0, 8), (1, 8), (2, 9), (3, 9), (4, 8), (5, 8), (6, 9), (7, 9)]
    return build_graph(10, pairs)


def bridged_cubic() -> MultiGraph:
    """Cubic with a bridge: min odd cut 1, not an r-graph."""
    block = [(0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (3, 4), (3, 4)]
    pairs = list(block)
    pairs += [(u + 5, v + 5) for u, v in block]
    pairs.append((0, 5))
    return build_graph(10, pairs)


def bridged_cubic_pair(seed: int) -> MultiGraph:
    """Two cubic pieces joined by a bridge: a cubic multigraph with min odd cut 1.

    Each piece is a seeded union of three perfect matchings on 2 to 10
    vertices, often with parallel edges (on 2 vertices, a triple edge), with
    one edge subdivided; a bridge joins the two subdivision vertices.  Odd
    seeds put a doubled edge in the middle of the bridge, which makes it two
    bridges.  Vertices get a seeded random labelling and edges a seeded
    order, so a search from vertex 0 starts anywhere.
    """
    rng = random.Random(f"bridged_cubic_pair:{seed}")
    pairs: list[tuple[int, int]] = []
    ends = []
    n = 0
    for _ in range(2):
        piece = gen_r_graph(rng.choice((2, 4, 6, 8, 10)), 3, rng.randrange(1000))
        edges = [(n + u, n + v) for u, v in piece.edges]
        a, b = edges.pop(rng.randrange(len(edges)))
        n += piece.vertex_count
        pairs += edges + [(a, n), (n, b)]
        ends.append(n)
        n += 1
    if seed % 2:
        pairs += [(ends[0], n), (n, n + 1), (n, n + 1), (n + 1, ends[1])]
        n += 2
    else:
        pairs.append((ends[0], ends[1]))
    label = list(range(n))
    rng.shuffle(label)
    rng.shuffle(pairs)
    return build_graph(n, [(label[u], label[v]) for u, v in pairs])


def barrier_blowup(k: int, seed: int) -> MultiGraph:
    """A cubic r-graph on 10k vertices whose barrier leaves k Petersen pieces.

    H is a cubic bipartite multigraph on sides A and B of k vertices each:
    three random perfect matchings between them, redrawn until H is
    connected.  Each vertex of A becomes a copy of Petersen minus a vertex
    (``PETERSEN_STUB_PAIRS``, on 9 vertices) whose three degree-2 vertices
    take over its three H-edges.  B is then a barrier with the k pieces as
    its odd components, so every piece's cut is tight and contracts to a
    Petersen brick.  Vertices get a seeded random labelling.  Not part of
    ``structured_instances``, whose certificates are pinned.
    """
    rng = random.Random(f"barrier_blowup:{k}:{seed}")
    while True:
        h_pairs = [(a, b) for _ in range(3) for a, b in enumerate(rng.sample(range(k), k))]
        if is_connected(build_graph(2 * k, [(a, k + b) for a, b in h_pairs])):
            break
    pairs = [(9 * a + u, 9 * a + v) for a in range(k) for u, v in PETERSEN_STUB_PAIRS]
    stubs_used = [0] * k
    for a, b in h_pairs:
        pairs.append((9 * a + (0, 3, 4)[stubs_used[a]], 9 * k + b))
        stubs_used[a] += 1
    label = list(range(10 * k))
    rng.shuffle(label)
    return build_graph(10 * k, [(label[u], label[v]) for u, v in pairs])


def structured_instances() -> list[tuple[str, MultiGraph]]:
    return [
        ("petersen", petersen()),
        ("k4", k4()),
        ("c4", c4()),
        ("c6", c6()),
        ("prism", prism()),
        ("k33", k33()),
        ("cube", cube()),
        ("parallel3", parallel_pair(3)),
        ("doubled_c4", doubled_c4()),
        ("tri_expanded", triangle_expanded_petersen()),
        ("pet_splice", k33_petersen_splice()),
        ("brick_splice", k33_brick_splice()),
        ("double_splice", double_petersen_splice()),
        ("k4_pair", k4_pair_two_cut()),
    ]


def random_instances(
    ns=(4, 6, 8, 10, 12, 14), rs=(2, 3, 4, 5), seeds=range(3)
) -> list[tuple[str, MultiGraph]]:
    out = []
    for n in ns:
        for r in rs:
            for seed in seeds:
                try:
                    g = gen_r_graph(n, r, seed)
                except ValueError:
                    continue
                out.append((f"gen_n{n}_r{r}_s{seed}", g))
    return out
