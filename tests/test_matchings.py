from __future__ import annotations

import itertools
import random

import pytest

from pmcover import build_graph
from pmcover.matchings import (
    gallai_edmonds,
    iter_pms,
    maximum_matching,
    perfect_matching_without,
    pm_containing_edges,
    validate_perfect_matching,
)

from pmcover import decompose, matchings
from pmcover.cli import gen_r_graph

import corpus
import oracles


def _cold(g):
    """The empty matching, a valid start for ``perfect_matching_without``."""
    return [-1] * g.vertex_count


def maximum_matching_of(g):
    return maximum_matching(g.vertex_count, g.adjacency)


def _has_pm(g, removed, matching):
    """Whether G - removed has a perfect matching, by the completion from
    ``matching``; a completion must be a perfect matching of G - removed."""
    mate = perfect_matching_without(g, removed, matching)
    if mate is None:
        return False
    for v, w in enumerate(mate):
        if v in removed:
            assert w == -1, (v, w)
        else:
            assert w not in removed and w in g.adjacency[v] and mate[w] == v, (v, w)
    return True


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


def test_perfect_matching_without():
    petersen = corpus.petersen()
    assert _has_pm(petersen, (), _cold(petersen))
    assert _has_pm(corpus.c6(), (), _cold(corpus.c6()))
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not _has_pm(star, (), _cold(star))
    assert _has_pm(petersen, (0, 5), _cold(petersen))
    assert not _has_pm(petersen, (0,), _cold(petersen))
    # the edges at removed vertices are dropped; the rest is kept where it can be
    c6 = corpus.c6()
    assert perfect_matching_without(c6, (0, 1), [1, 0, 3, 2, 5, 4]) == [-1, -1, 3, 2, 5, 4]
    assert perfect_matching_without(c6, (1, 2), [1, 0, 3, 2, 5, 4]) == [5, -1, -1, 4, 3, 0]


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


def test_perfect_matching_without_warm_start_agrees_with_the_cold_call():
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
                cold = _has_pm(g, removed, _cold(g))
                left = g.vertex_count - size
                assert cold == (2 * oracles.max_matching_size(g, frozenset(removed)) == left), (
                    name, removed,
                )
                outcomes[cold] += 1
                for mate in seeds:
                    assert _has_pm(g, removed, mate) == cold, (name, removed)
        assert seeds == unchanged, name
    assert min(outcomes.values()) >= 500, outcomes


def test_enumeration_counts_frozen():
    assert len(list(iter_pms(corpus.petersen()))) == 6
    assert len(list(iter_pms(corpus.k4()))) == 3
    assert len(list(iter_pms(corpus.c6()))) == 2
    assert len(list(iter_pms(corpus.k33()))) == 6
    assert len(list(iter_pms(corpus.prism()))) == 4
    assert len(list(iter_pms(corpus.cube()))) == 9
    assert len(list(iter_pms(corpus.parallel_pair(3)))) == 3
    assert len(list(iter_pms(corpus.doubled_c4()))) == 8


def test_enumeration_matches_oracle():
    for name, g in corpus.structured_instances():
        if g.vertex_count > 12:
            continue
        mine = sorted(iter_pms(g), key=sorted)
        theirs = sorted(oracles.all_pms(g), key=sorted)
        assert mine == theirs, name


def test_iter_pms_is_deterministic():
    first = list(iter_pms(corpus.cube()))
    second = list(iter_pms(corpus.cube()))
    assert first == second


def test_pm_containing_edges():
    g = corpus.k4()
    g6 = corpus.c6()
    for start in (_cold, maximum_matching_of):
        assert pm_containing_edges(g, [0], start(g)) == frozenset({0, 5})
        assert pm_containing_edges(g6, [0, 2], start(g6)) == frozenset({0, 2, 4})
        # edges sharing a vertex are not a matching
        with pytest.raises(ValueError):
            pm_containing_edges(g6, [0, 1], start(g6))
    # the completion keeps what it can of the matching it starts from
    assert pm_containing_edges(g6, [0], [1, 0, 3, 2, 5, 4]) == frozenset({0, 2, 4})
    assert pm_containing_edges(g6, [1], [1, 0, 3, 2, 5, 4]) == frozenset({1, 3, 5})


def test_pm_containing_edges_none_when_impossible():
    g = corpus.c6()
    # fixing two edges at distance two forces an uncoverable vertex
    assert pm_containing_edges(g, [0, 3], maximum_matching_of(g)) is None
    assert pm_containing_edges(g, [0, 3], _cold(g)) is None


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
        mate = oracles.maximum_matching_on_copy(g, frozenset(removed))
        got = gallai_edmonds(g, removed, mate)
        assert tuple(got) == oracles.gallai_edmonds(g, frozenset(removed)), (name, removed)
        kinds["parallel"] += len(g.pair_ids) < g.m
        kinds["no_pm"] += not _has_pm(g, removed, _cold(g))
        kinds["removed"] += bool(removed)
    assert min(kinds.values()) >= 20, kinds


def test_gallai_edmonds_decides_every_pair():
    instances = corpus.structured_instances() + corpus.random_instances(
        ns=(6, 8, 10, 12), rs=(2, 3, 4), seeds=range(2)
    )
    for name, g in instances:
        for u in range(g.vertex_count):
            mate = oracles.maximum_matching_on_copy(g, frozenset({u}))
            d = gallai_edmonds(g, (u,), mate).d
            for v in range(g.vertex_count):
                if v != u:
                    assert (v in d) == _has_pm(g, (u, v), _cold(g)), (name, u, v)


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


def test_one_forest_per_vertex_matches_the_oracle():
    # D(G - u) from one forest grown from a perfect matching of G, counted
    # by definition: the branch-and-bound matching sizes up to 12 vertices,
    # the library's cold search on a filtered copy above
    instances = corpus.structured_instances() + corpus.random_instances(
        ns=(6, 8, 10, 12, 14), rs=(2, 3, 4, 5), seeds=range(2)
    )
    blossoms = {}
    for name, g in instances:
        n = g.vertex_count
        size = oracles.max_matching_size if n <= 12 else oracles.matching_size_on_copy
        mate = maximum_matching(n, g.adjacency)
        before = list(mate)
        for u in range(n):
            d = gallai_edmonds(g, (u,), mate).d
            assert mate == before, (name, u)
            assert d == oracles.gallai_edmonds(g, frozenset({u}), size)[0], (name, u)
            # one tree grown to the end has two adjacent outer vertices
            # exactly when it contracted a blossom
            if any(a in d and b in d for a, b in g.edges if u not in (a, b)):
                blossoms[name] = blossoms.get(name, 0) + 1
    assert blossoms.get("petersen") == 10 and len(blossoms) >= 20, blossoms
    with pytest.raises(AssertionError, match="not maximum"):
        gallai_edmonds(corpus.c4(), (0,), [1, 0, -1, -1])


def _starts(g, rng):
    """Matchings of G to complete from: a maximum one, the empty one, and,
    when G has an edge, one that is not maximum."""
    starts = [maximum_matching_of(g), _cold(g)]
    if g.m:
        starts.append(_greedy_matching_minus_one_edge(g, rng))
    return starts


def _assert_warm_completion_agrees(g, forced, starts):
    """Each start completes the forced edges exactly when the cold search on
    a filtered copy does, to a perfect matching holding them, each other
    pair on its lowest edge id; the start is left as it is."""
    cold = oracles.pm_containing_edges_on_copy(g, forced)
    for start in starts:
        before = list(start)
        pm = pm_containing_edges(g, forced, start)
        assert start == before, (g.edges, forced)
        assert (pm is None) == (cold is None), (g.edges, forced, start)
        if pm is not None:
            validate_perfect_matching(g, pm)
            assert set(forced) <= pm, (g.edges, forced, start)
            assert all(
                e in forced or g.pair_ids[tuple(sorted(g.edges[e]))][0] == e for e in pm
            ), (g.edges, forced, start)
    return cold is not None


def _small_leaves():
    """The leaves of seeded ``gen_r_graph`` draws with at most 14 vertices."""
    rng = random.Random(31)
    for _ in range(30):
        n, r, seed = rng.choice((8, 10, 12, 14)), rng.randint(3, 5), rng.randrange(10**6)
        for leaf in decompose(gen_r_graph(n, r, seed)).leaves():
            if leaf.graph.vertex_count <= 14:
                yield f"gen_n{n}_r{r}_s{seed}", leaf.graph


def test_warm_completion_matches_the_completion_on_a_copy():
    # every edge and every disjoint edge pair, completed from a perfect
    # matching, from nothing and from a matching that is not maximum
    rng = random.Random(29)
    instances = [
        (name, g) for name, g in corpus.structured_instances() + corpus.random_instances()
        if g.vertex_count <= 14
    ]
    instances += list(_small_leaves())
    outcomes = {True: 0, False: 0}
    for name, g in instances:
        starts = _starts(g, rng)
        assert -1 not in starts[0], name
        for e in range(g.m):
            outcomes[_assert_warm_completion_agrees(g, (e,), starts)] += 1
            for f in range(e + 1, g.m):
                if set(g.edges[e]).isdisjoint(g.edges[f]):
                    outcomes[_assert_warm_completion_agrees(g, (e, f), starts)] += 1
    assert min(outcomes.values()) >= 1000, outcomes


def test_search_in_place_matches_the_search_on_a_copy(monkeypatch):
    # removed vertices used to be cut out of a copy of the adjacency; the
    # in-place searches, warm from any matching of G, must agree with the
    # cold search on the copy: the same perfect matching verdicts,
    # completions and Gallai-Edmonds sets
    real_grow_forest = matchings._grow_forest

    def no_removed_root(adjacency, mate, roots, removed):
        assert not removed.intersection(roots), "a forest grew from a removed vertex"
        return real_grow_forest(adjacency, mate, roots, removed)

    monkeypatch.setattr(matchings, "_grow_forest", no_removed_root)
    rng = random.Random(23)
    completions = {True: 0, False: 0}
    for trial in range(400):
        n = rng.randrange(2, 17)
        g = _random_multigraph(rng, n)
        removed = frozenset(rng.sample(range(n), rng.randrange(0, min(4, n) + 1)))
        mate = oracles.maximum_matching_on_copy(g, removed)
        assert tuple(gallai_edmonds(g, removed, mate)) == oracles.gallai_edmonds(
            g, removed, oracles.matching_size_on_copy
        ), (trial, g.edges, removed)
        perfect = 2 * oracles.matching_size_on_copy(g, removed) == n - len(removed)
        starts = _starts(g, rng)
        for start in starts:
            assert _has_pm(g, removed, start) == perfect, (trial, g.edges, removed, start)
        forced: list[int] = []
        ends: set[int] = set()
        for e in rng.sample(range(g.m), min(g.m, rng.randrange(0, 4))):
            if ends.isdisjoint(g.edges[e]):
                forced.append(e)
                ends.update(g.edges[e])
        completions[_assert_warm_completion_agrees(g, forced, starts)] += 1
    assert min(completions.values()) >= 20, completions
