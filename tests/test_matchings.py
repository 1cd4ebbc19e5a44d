from __future__ import annotations

import itertools
import random

import pytest

from pmcover import build_graph
from pmcover.matchings import (
    EnumerationOverflow,
    enumerate_pms,
    gallai_edmonds,
    has_perfect_matching,
    iter_pms,
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
        mate = maximum_matching(n, g.adjacency)
        matched = [v for v in range(n) if mate[v] != -1]
        assert all(mate[v] in g.adjacency[v] and mate[mate[v]] == v for v in matched)
        assert len(matched) // 2 == oracles.max_matching_size(g), sorted(pairs)


def test_has_perfect_matching():
    assert has_perfect_matching(corpus.petersen())
    assert has_perfect_matching(corpus.c6())
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not has_perfect_matching(star)
    assert has_perfect_matching(corpus.petersen(), removed=(0, 5))
    assert not has_perfect_matching(corpus.petersen(), removed=(0,))


def _greedy_matching_minus_one_edge(g, rng):
    """A mate array that is not a maximum matching: greedy, then one edge dropped."""
    mate = [-1] * g.vertex_count
    order = list(range(g.vertex_count))
    rng.shuffle(order)
    for v in order:
        for w in g.adjacency[v]:
            if mate[v] == -1 and mate[w] == -1:
                mate[v], mate[w] = w, v
    v = next(v for v in order if mate[v] != -1)
    mate[mate[v]] = -1
    mate[v] = -1
    return mate


def test_has_perfect_matching_warm_start_agrees_with_the_cold_call():
    rng = random.Random(2)
    instances = corpus.structured_instances() + corpus.random_instances(
        ns=(4, 6, 8, 10), seeds=range(2)
    )
    outcomes = {True: 0, False: 0}
    for name, g in instances:
        if g.vertex_count > 10:
            continue
        seeds = [
            maximum_matching(g.vertex_count, g.adjacency),
            _greedy_matching_minus_one_edge(g, rng),
        ]
        assert -1 not in seeds[0] and -1 in seeds[1], name
        unchanged = [list(mate) for mate in seeds]
        for size in (2, 4):
            for removed in itertools.combinations(range(g.vertex_count), size):
                cold = has_perfect_matching(g, removed)
                left = g.vertex_count - size
                assert cold == (2 * oracles.max_matching_size(g, frozenset(removed)) == left), (
                    name, removed,
                )
                outcomes[cold] += 1
                for mate in seeds:
                    assert has_perfect_matching(g, removed, mate) == cold, (name, removed)
        assert seeds == unchanged, name
    assert min(outcomes.values()) >= 500, outcomes


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


def _random_multigraph(rng: random.Random, n: int):
    """A multigraph on n vertices with a few parallel copies; often unmatchable."""
    edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(0, 2 * n + 1))]
    edges += rng.sample(edges, min(len(edges), rng.randrange(0, 4)))
    return build_graph(n, edges)


def test_gallai_edmonds_matches_oracle():
    cases = []
    for name, g in corpus.structured_instances():
        if g.vertex_count > 14:
            continue
        cases.append((name, g, ()))
        cases.extend((name, g, (v,)) for v in range(g.vertex_count))
        cases.append((name, g, (0, g.vertex_count - 1)))
    rng = random.Random(11)
    for trial in range(300):
        n = rng.randrange(2, 15)
        removed = tuple(rng.sample(range(n), rng.randrange(0, min(3, n) + 1)))
        cases.append((f"random {trial}", _random_multigraph(rng, n), removed))
    kinds = {"parallel": 0, "no_pm": 0, "removed": 0}
    for name, g, removed in cases:
        got = gallai_edmonds(g, removed)
        assert tuple(got) == oracles.gallai_edmonds(g, frozenset(removed)), (name, removed)
        kinds["parallel"] += len(g.pair_ids) < g.m
        kinds["no_pm"] += not has_perfect_matching(g, removed)
        kinds["removed"] += bool(removed)
    assert min(kinds.values()) >= 20, kinds


def test_gallai_edmonds_decides_every_pair():
    instances = corpus.structured_instances() + corpus.random_instances(
        ns=(6, 8, 10, 12), rs=(2, 3, 4), seeds=range(2)
    )
    for name, g in instances:
        for u in range(g.vertex_count):
            d = gallai_edmonds(g, (u,)).d
            for v in range(g.vertex_count):
                if v != u:
                    assert (v in d) == has_perfect_matching(g, (u, v)), (name, u, v)


def test_gallai_edmonds_from_a_perfect_matching_matches_oracle():
    instances = corpus.structured_instances() + corpus.random_instances(
        ns=(6, 8, 10), rs=(2, 3, 4), seeds=range(2)
    )
    failing_pairs = 0
    for name, g in instances:
        if g.vertex_count > 12:
            continue
        mate = maximum_matching(g.vertex_count, g.adjacency)
        assert -1 not in mate, name
        for u in range(g.vertex_count):
            got = gallai_edmonds(g, (u,), mate)
            assert tuple(got) == oracles.gallai_edmonds(g, frozenset({u})), (name, u)
            for v in range(g.vertex_count):
                if v == u or v in got.d:
                    continue
                failing_pairs += 1
                pair = gallai_edmonds(g, (u, v), mate)
                assert tuple(pair) == oracles.gallai_edmonds(g, frozenset({u, v})), (
                    name, u, v,
                )
    assert failing_pairs >= 100, failing_pairs
    with pytest.raises(AssertionError, match="not maximum"):
        gallai_edmonds(corpus.c4(), (), [1, 0, -1, -1])
