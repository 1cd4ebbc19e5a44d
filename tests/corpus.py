"""Named fixture graphs shared across the test modules."""

from __future__ import annotations

from pmcover import MultiGraph, build_graph
from pmcover.cli import gen_r_graph

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
