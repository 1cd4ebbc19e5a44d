from __future__ import annotations

import random

import pytest

from pmcover import build_graph
from pmcover.matchings import (
    EnumerationOverflow,
    enumerate_pms,
    has_perfect_matching,
    iter_pms,
    max_matching_size,
    maximum_matching,
    pm_containing_edges,
    validate_perfect_matching,
)

import corpus
import oracles


def test_maximum_matching_small_cases():
    # triangle: one matched pair
    mate = maximum_matching(3, [(1, 2), (0, 2), (0, 1)])
    assert sum(1 for v in mate if v != -1) == 2
    # odd cycle C5 with a chord forcing blossom handling
    adjacency = [[1, 4], [0, 2], [1, 3], [2, 4], [3, 0, 2]]
    adjacency[2] = [1, 3, 4]
    mate = maximum_matching(5, adjacency)
    assert sum(1 for v in mate if v != -1) == 4


def test_maximum_matching_agrees_with_brute_force():
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randrange(2, 9)
        pairs = set()
        for _ in range(rng.randrange(0, 2 * n)):
            u, v = rng.sample(range(n), 2)
            pairs.add((min(u, v), max(u, v)))
        if not pairs:
            continue
        g = build_graph(n, sorted(pairs))
        assert max_matching_size(g) == oracles.max_matching_size(g), sorted(pairs)


def test_has_perfect_matching():
    assert has_perfect_matching(corpus.petersen())
    assert has_perfect_matching(corpus.c6())
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not has_perfect_matching(star)
    assert has_perfect_matching(corpus.petersen(), removed=(0, 5))
    assert not has_perfect_matching(corpus.petersen(), removed=(0,))


def test_enumeration_counts_frozen():
    assert len(enumerate_pms(corpus.petersen())) == 6
    assert len(enumerate_pms(corpus.k4())) == 3
    assert len(enumerate_pms(corpus.c6())) == 2
    assert len(enumerate_pms(corpus.k33())) == 6
    assert len(enumerate_pms(corpus.prism())) == 4
    assert len(enumerate_pms(corpus.cube())) == 9
    assert len(enumerate_pms(corpus.parallel_pair(3))) == 3
    assert len(enumerate_pms(corpus.doubled_c4())) == 8


def test_enumeration_matches_oracle():
    for name, g in corpus.structured_instances():
        if g.vertex_count > 12:
            continue
        mine = sorted(enumerate_pms(g), key=sorted)
        theirs = sorted(oracles.all_pms(g), key=sorted)
        assert mine == theirs, name


def test_enumeration_limit_carries_partial():
    with pytest.raises(EnumerationOverflow) as info:
        enumerate_pms(corpus.petersen(), limit=2)
    assert info.value.limit == 2
    assert len(info.value.found) == 2
    for m in info.value.found:
        validate_perfect_matching(corpus.petersen(), m)


def test_iter_pms_is_deterministic():
    first = list(iter_pms(corpus.cube()))
    second = list(iter_pms(corpus.cube()))
    assert first == second


def test_pm_containing_edges():
    g = corpus.k4()
    pm = pm_containing_edges(g, [0])
    assert pm == frozenset({0, 5})
    g6 = corpus.c6()
    pm = pm_containing_edges(g6, [0, 2])
    assert pm == frozenset({0, 2, 4})
    # edges sharing a vertex are not a matching
    with pytest.raises(ValueError):
        pm_containing_edges(g6, [0, 1])


def test_pm_containing_edges_none_when_impossible():
    g = corpus.c6()
    # fixing two edges at distance two forces an uncoverable vertex
    assert pm_containing_edges(g, [0, 3]) is None


def test_validate_perfect_matching_errors():
    g = corpus.c6()
    with pytest.raises(ValueError, match="uncovered"):
        validate_perfect_matching(g, [0])
    with pytest.raises(ValueError, match="covered 2 times"):
        validate_perfect_matching(g, [0, 1, 3])
    with pytest.raises(ValueError, match="out of range"):
        validate_perfect_matching(g, [99])
    validate_perfect_matching(g, [0, 2, 4])
