from __future__ import annotations

import random

import pytest

from pmcover import graphs
from pmcover.cli import gen_r_graph
from pmcover.graphs import (
    bipartition,
    build_graph,
    components_without,
    cut_from_shore,
    cut_vertices,
    gomory_hu_tree,
    is_connected,
    is_r_graph,
    min_odd_cut,
    regular_degree,
)

import corpus
import oracles


def test_build_graph_basics():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert g.vertex_count == 4
    assert g.m == 5
    assert g.degrees == (3, 2, 3, 2)
    assert g.adjacency[0] == (1, 2, 3)
    assert g.pair_ids[(0, 2)] == (4,)
    assert g.other_end(4, 0) == 2


def test_build_graph_parallel_edges():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 3
    assert g.pair_ids[(0, 1)] == (0, 1, 2)
    assert g.degrees == (3, 3)


def test_build_graph_rejects_loop():
    with pytest.raises(ValueError, match="edge 1"):
        build_graph(3, [(0, 1), (2, 2)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="edge 0"):
        build_graph(2, [(0, 5)])


def test_regular_degree():
    assert regular_degree(corpus.petersen()) == 3
    assert regular_degree(corpus.parallel_pair(4)) == 4
    assert regular_degree(build_graph(3, [(0, 1)])) is None


def test_connectivity():
    assert is_connected(corpus.c6())
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert not is_connected(build_graph(3, [(0, 1)]))


def test_components_without():
    g = corpus.c6()
    comps = components_without(g, {0, 3})
    assert sorted(sorted(c) for c in comps) == [[1, 2], [4, 5]]


def test_bipartition():
    left, right = bipartition(corpus.c6())
    assert {frozenset(left), frozenset(right)} == {
        frozenset({0, 2, 4}),
        frozenset({1, 3, 5}),
    }
    assert bipartition(corpus.k4()) is None
    assert bipartition(corpus.petersen()) is None


def test_cut_from_shore():
    g = corpus.c6()
    cut = cut_from_shore(g, {0, 1, 2})
    assert cut.edge_ids == {2, 5}
    assert cut.size == 2
    assert cut.odd


def _tree_path_min(parent, weight, s, t):
    ancestors = []
    v = s
    while v != -1:
        ancestors.append(v)
        v = parent[v]
    best = None
    v = t
    while v not in ancestors:
        best = weight[v] if best is None else min(best, weight[v])
        v = parent[v]
    for u in ancestors:
        if u == v:
            break
        best = weight[u] if best is None else min(best, weight[u])
    return best


def _dropped_edge_graphs(instances, rng):
    """Connected irregular graphs made by deleting edges, as ``pmcover validate`` accepts."""
    out = []
    for name, g in instances:
        for trial in range(2):
            edges = list(g.edges)
            for _ in range(rng.randrange(1, 4)):
                if len(edges) > g.vertex_count:
                    edges.pop(rng.randrange(len(edges)))
            h = build_graph(g.vertex_count, edges)
            if is_connected(h) and regular_degree(h) is None:
                out.append((f"{name}_dropped{trial}", h))
    return out


def test_gomory_hu_tree_is_flow_equivalent():
    instances = [
        (name, g)
        for name, g in corpus.structured_instances() + corpus.random_instances()
        if g.vertex_count <= 10
    ]
    irregular = _dropped_edge_graphs(instances, random.Random(3))
    assert len(irregular) >= 40, len(irregular)
    for name, g in instances + irregular:
        parent, weight = gomory_hu_tree(g)
        for (s, t), value in oracles.min_st_cut_sizes(g).items():
            assert _tree_path_min(parent, weight, s, t) == value, (name, s, t)


def test_min_odd_cut_matches_brute_force():
    instances = corpus.structured_instances() + corpus.random_instances(
        ns=(4, 6, 8, 10), seeds=range(2)
    )
    for name, g in instances:
        if g.vertex_count > 10:
            continue
        size, cut = min_odd_cut(g)
        assert size == oracles.min_odd_cut_size(g), name
        assert cut.size == size, name
        assert len(cut.shore) % 2 == 1, name
    with pytest.raises(ValueError, match="connected"):
        min_odd_cut(build_graph(4, [(0, 1), (2, 3)]))


def test_is_r_graph_accepts_structured():
    for name, g in corpus.structured_instances():
        check = is_r_graph(g)
        assert check.ok, name
        assert check.r == regular_degree(g), name


def test_is_r_graph_rejects_bridge():
    check = is_r_graph(corpus.bridged_cubic())
    assert not check.ok
    assert check.r == 3
    assert check.witness is not None
    assert check.witness.size == 1
    assert len(check.witness.shore) % 2 == 1


def _cubic_instances():
    """Cubic corpus graphs, small matching unions and bridged pairs, by name."""
    named = corpus.structured_instances() + corpus.random_instances(rs=(3,))
    named += [(f"blowup_k{k}", corpus.barrier_blowup(k, seed=0)) for k in (1, 2, 3)]
    named.append(("bridged", corpus.bridged_cubic()))
    named = [(name, g) for name, g in named if regular_degree(g) == 3]
    named += [
        (f"union_n{n}_s{seed}", gen_r_graph(n, 3, seed))
        for n in range(2, 22, 2)
        for seed in range(20)
    ]
    named += [(f"bridged_pair_s{seed}", corpus.bridged_cubic_pair(seed)) for seed in range(60)]
    return named


def test_cubic_r_graph_check_matches_gomory_hu_and_brute_force(monkeypatch):
    instances = _cubic_instances()
    reference = {name: min_odd_cut(g)[0] for name, g in instances}

    def no_tree(g):
        raise AssertionError("a cubic graph took the Gomory-Hu path")

    monkeypatch.setattr(graphs, "gomory_hu_tree", no_tree)
    counts = {"multigraph": 0, "bridged": 0, "brute_force": 0}
    for name, g in instances:
        check = is_r_graph(g)
        size = reference[name]
        assert (check.r, check.min_odd_cut, check.ok) == (3, size, size == 3), name
        if g.vertex_count <= 12:
            assert size == oracles.min_odd_cut_size(g), name
            counts["brute_force"] += 1
        if check.ok:
            assert check.witness is None, name
        else:
            shore = check.witness.shore
            assert check.witness.odd and len(shore) % 2 == 1, name
            assert cut_from_shore(g, shore).edge_ids == check.witness.edge_ids, name
            assert check.witness.size == size == 1, name
            counts["bridged"] += 1
        counts["multigraph"] += len(g.pair_ids) < g.m
    assert counts["bridged"] >= 61, counts
    assert counts["multigraph"] >= 200, counts
    assert counts["brute_force"] >= 150, counts


def test_cut_vertices_match_brute_force():
    named = corpus.structured_instances() + corpus.random_instances()
    named.append(("bridged", corpus.bridged_cubic()))
    named += [(f"bridged_pair_s{seed}", corpus.bridged_cubic_pair(seed)) for seed in range(20)]
    named += [(f"blowup_k{k}", corpus.barrier_blowup(k, seed=0)) for k in (1, 2, 3)]
    named += [
        (f"union_n{n}_r{r}_s{seed}", gen_r_graph(n, r, seed))
        for n in range(2, 18, 2)
        for r in (3, 4, 5)
        for seed in range(3)
    ]
    counts = {"graphs": 0, "searches": 0, "cut_vertices": 0, "of_g": 0}
    for name, g in named:
        if not is_connected(g):
            continue
        counts["graphs"] += 1
        for removed in (None, *range(g.vertex_count)):
            gone = set() if removed is None else {removed}
            if len(components_without(g, gone)) != 1:
                continue  # the search needs a connected graph
            brute = {
                v
                for v in range(g.vertex_count)
                if v not in gone and len(components_without(g, gone | {v})) > 1
            }
            assert cut_vertices(g, removed) == brute, (name, removed)
            counts["searches"] += 1
            counts["cut_vertices"] += len(brute)
            counts["of_g"] += removed is None and bool(brute)
    assert counts["graphs"] >= 180 and counts["of_g"] >= 21, counts
    assert counts["searches"] >= 1900 and counts["cut_vertices"] >= 2900, counts


def test_is_r_graph_rejects_structural():
    assert not is_r_graph(build_graph(4, [(0, 1), (2, 3)])).ok
    assert not is_r_graph(build_graph(3, [(0, 1), (1, 2), (2, 0)])).ok
    path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not is_r_graph(path).ok


def test_generated_instances_are_r_graphs():
    for name, g in corpus.random_instances(seeds=range(2)):
        assert is_r_graph(g).ok, name
