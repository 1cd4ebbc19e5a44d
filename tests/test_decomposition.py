from __future__ import annotations

import random
from functools import cached_property
from itertools import chain

import pytest

from pmcover import build_graph, solve_r_graph, verify_cover
from pmcover import decomposition, leaf_solvers
from pmcover.cli import gen_r_graph
from pmcover.decomposition import (
    LeafClass,
    _bipartite_barrier_shores,
    _nonbipartite_barrier_shores,
    _two_separation_shores,
    classify_leaf,
    contract_shore,
    decompose,
    find_nontrivial_tight_cut,
    is_petersen,
)
from pmcover.graphs import (
    Cut,
    MultiGraph,
    cut_from_shore,
    is_connected,
    is_r_graph,
    regular_degree,
)
from pmcover.matchings import (
    gallai_edmonds,
    iter_pms,
    maximum_matching,
    validate_perfect_matching,
)
from pmcover.merge import _fold

import corpus
import oracles
from oracles import is_tight_cut


def _mate(g):
    """A maximum matching of g as a mate array; perfect when g has one."""
    return maximum_matching(g.vertex_count, g.adjacency)


def test_is_tight_cut_agrees_with_definition():
    instances = corpus.structured_instances() + corpus.random_instances(
        ns=(4, 6, 8), rs=(2, 3), seeds=range(2)
    )
    for name, g in instances:
        if g.vertex_count > 10:
            continue
        matchings = oracles.all_pms(g)
        mate = _mate(g)
        for shore in oracles.odd_shores(g):
            cut = cut_from_shore(g, shore)
            assert is_tight_cut(g, cut, mate) == oracles.is_tight(g, cut, matchings), (
                name,
                sorted(shore),
            )


def test_is_tight_cut_rejects_even_cut():
    g = corpus.c6()
    with pytest.raises(ValueError):
        is_tight_cut(g, cut_from_shore(g, {0, 1}), _mate(g))


def test_find_tight_cut_c6_frozen():
    cut, onward = find_nontrivial_tight_cut(corpus.c6(), _mate(corpus.c6()))
    assert onward == []
    shore = cut.shore if 0 in cut.shore else frozenset(range(6)) - cut.shore
    assert shore == frozenset({0, 4, 5})
    assert cut.edge_ids == frozenset({0, 3})


def test_find_tight_cut_verdict_matches_exhaustive_sweep():
    instances = corpus.structured_instances() + corpus.random_instances(
        ns=(6, 8, 10), rs=(2, 3), seeds=range(2)
    )
    for name, g in instances:
        if g.vertex_count > 12 or not is_r_graph(g).ok:
            continue
        exhaustive = oracles.exhaustive_tight_shores(g)
        mate = _mate(g)
        found = find_nontrivial_tight_cut(g, mate)
        assert (found is not None) == (len(exhaustive) > 0), name
        if found is not None:
            cut, onward = found
            assert is_tight_cut(g, cut, mate), name
            assert 3 <= len(cut.shore) <= g.vertex_count - 3, name
            # the rest of the winning barrier's odd components are tight too
            for shore in onward:
                assert is_tight_cut(g, cut_from_shore(g, shore), mate), name


def test_bricks_and_braces_have_no_nontrivial_tight_cut():
    for g in (corpus.petersen(), corpus.k4(), corpus.k33(), corpus.prism(),
              corpus.cube(), corpus.triangle_expanded_petersen()):
        assert find_nontrivial_tight_cut(g, _mate(g)) is None


def _random_bipartite_r_graph(rng):
    """A union of r random perfect matchings between two sides of 3 to 6
    vertices, r from 2 to 4, randomly labelled and redrawn until connected."""
    while True:
        half, r = rng.randint(3, 6), rng.randint(2, 4)
        bijections = [rng.sample(range(half), half) for _ in range(r)]
        pairs = [(a, half + b) for bijection in bijections for a, b in enumerate(bijection)]
        label = list(range(2 * half))
        rng.shuffle(label)
        g = build_graph(2 * half, [(label[u], label[v]) for u, v in pairs])
        if is_connected(g):
            return g


def _perfect_mates(g):
    """Every perfect matching of g as a mate array, parallel copies as one."""
    mates = set()
    for pm in oracles.all_pms(g):
        mate = [-1] * g.vertex_count
        for e in pm:
            u, v = g.edges[e]
            mate[u], mate[v] = v, u
        mates.add(tuple(mate))
    return sorted(mates)


def _assert_bipartite_route_matches(g, exhaustive, mate, label):
    # every witness leaves exactly one nontrivial odd component, tight, and
    # some witness exists exactly when a nontrivial tight cut does
    groups = list(_bipartite_barrier_shores(g, g.bipartition[0], mate))
    assert all(len(group) == 1 for group in groups), label
    for (shore,) in groups:
        assert shore in exhaustive or frozenset(range(g.vertex_count)) - shore in exhaustive, label
        assert is_tight_cut(g, cut_from_shore(g, shore), mate), label
    assert bool(groups) == bool(exhaustive), label
    found = find_nontrivial_tight_cut(g, mate)
    assert (found is not None) == bool(exhaustive), label
    if found is not None:
        cut, _ = found
        assert is_tight_cut(g, cut, mate), label
        assert 3 <= len(cut.shore) <= g.vertex_count - 3, label


def test_bipartite_route_matches_exhaustive_sweep():
    # the route reads D(M) off the perfect matching a node inherits, so it
    # runs from every perfect matching: on every draw and every bipartite
    # corpus graph large enough to be searched
    rng = random.Random(17)
    instances = [(f"trial {trial}", _random_bipartite_r_graph(rng)) for trial in range(180)]
    instances += [
        (name, g) for name, g in corpus.structured_instances() + corpus.random_instances()
        if 6 <= g.vertex_count <= 14 and g.bipartition is not None and is_r_graph(g).ok
    ]
    non_braces = matchings = 0
    for name, g in instances:
        exhaustive = set(oracles.exhaustive_tight_shores(g))
        non_braces += bool(exhaustive)
        for mate in _perfect_mates(g):
            matchings += 1
            _assert_bipartite_route_matches(g, exhaustive, list(mate), (name, g.edges, mate))
    assert 0 < non_braces < len(instances) and matchings >= 1000, (non_braces, matchings)


def _leaf_list(tree):
    return sorted((leaf.leaf_class.value, leaf.graph.vertex_count, leaf.graph.m)
                  for leaf in tree.leaves())


def test_leaves_do_not_depend_on_the_labelling():
    # the bricks and braces of the decomposition are the same whichever
    # tight cuts it picks (Lovasz 1987), so relabelling cannot change them
    rng = random.Random(19)
    instances = corpus.structured_instances() + corpus.random_instances()
    instances += [
        (f"blowup_{k}_{seed}", corpus.barrier_blowup(k, seed))
        for k in range(1, 5)
        for seed in range(3)
    ]
    for name, g in instances:
        expected = _leaf_list(decompose(g))
        for _ in range(3):
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            h = build_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])
            assert _leaf_list(decompose(h)) == expected, (name, perm)


def test_two_separation_shores_match_the_pair_sweep():
    instances = corpus.structured_instances() + corpus.random_instances()
    for name, g in instances:
        assert list(_two_separation_shores(g)) == oracles.two_separation_shores(g), name


def test_two_cut_graph_takes_the_two_separation_route():
    g = corpus.k4_pair_two_cut()
    mate = _mate(g)
    assert list(_nonbipartite_barrier_shores(g, mate)) == []
    cut, onward = find_nontrivial_tight_cut(g, mate)
    assert onward == []
    assert cut.shore == frozenset({0, 1, 2, 3, 8})
    assert cut.shore in set(_two_separation_shores(g))
    tree = decompose(g)
    assert [(leaf.leaf_class, leaf.graph.vertex_count) for leaf in tree.leaves()] == [
        (LeafClass.OTHER_BRICK, 6),
        (LeafClass.OTHER_BRICK, 6),
    ]
    sol, tree = solve_r_graph(g)
    assert verify_cover(g, sol, tree).mandatory_ok
    assert oracles.assert_solved_tree(tree) == 1


def _cubic_nodes():
    """Every non-bipartite node of the decomposition trees of cubic inputs: the
    corpus, small blow-ups, seeded draws up to 24 vertices, and the three
    pinned draws behind the walk's regressions (``SHORTFALL_INPUTS`` in
    ``test_leaf_solvers``)."""
    inputs = [g for _, g in corpus.structured_instances() + corpus.random_instances()]
    inputs += [corpus.barrier_blowup(k, seed) for k in (1, 2, 3) for seed in range(2)]
    inputs += [gen_r_graph(n, 3, seed) for n in range(6, 26, 2) for seed in range(10)]
    inputs += [gen_r_graph(n, 3, seed) for n, seed in ((24, 2266), (24, 10936), (36, 6345))]
    for g in inputs:
        if regular_degree(g) != 3 or not is_r_graph(g).ok:
            continue
        tree = decompose(g)
        for node in chain(tree.internal_nodes(), tree.leaves()):
            if node.graph.bipartition is None:
                yield node.graph


def test_cubic_nodes_the_barriers_miss_have_no_two_separation():
    # the lemma behind skipping the sweep on cubic nodes: when no failing pair
    # leaves a nontrivial odd component, the node is bicritical, and a
    # bicritical cubic graph has no 2-separation; when one does, every shore
    # of its group is a nontrivial tight cut, so the search takes the first
    missed = split = 0
    for g in _cubic_nodes():
        mate = _mate(g)
        groups = list(_nonbipartite_barrier_shores(g, mate))
        if not groups:
            missed += 1
            assert oracles.two_separation_shores(g) == [], g.edges
            continue
        split += 1
        for shore in groups[0]:
            assert 3 <= len(shore) <= g.vertex_count - 3, g.edges
            assert is_tight_cut(g, cut_from_shore(g, shore), mate), g.edges
    assert missed >= 100 and split >= 50, (missed, split)


def test_every_failing_pair_has_the_barrier_of_its_first_vertex():
    # the lemmas behind one forest per vertex, by definition: in an r-graph
    # C(G - u) is empty, and for every v outside D(G - u) the barrier
    # {u, v} + A(G - u - v) of the failing pair is {u} + A(G - u)
    instances = [
        (name, g) for name, g in corpus.structured_instances() + corpus.random_instances()
        if g.vertex_count <= 14 and is_r_graph(g).ok
    ]
    failing = 0
    for name, g in instances:
        n = g.vertex_count
        size = oracles.max_matching_size if n <= 12 else oracles.matching_size_on_copy
        mate = _mate(g)
        for u in range(n):
            d, _, c = oracles.gallai_edmonds(g, frozenset({u}), size)
            assert c == frozenset(), (name, u)
            barrier = gallai_edmonds(g, (u,), mate).a | {u}
            for v in sorted(frozenset(range(n)) - d - {u}):
                failing += 1
                a = oracles.gallai_edmonds(g, frozenset({u, v}), size)[1]
                assert a | {u, v} == barrier, (name, u, v)
    assert failing >= 1000, failing


def test_only_nodes_above_degree_three_enter_the_two_separation_sweep(monkeypatch):
    entered = []

    def spied(h):
        entered.append(h)
        yield from _two_separation_shores(h)

    monkeypatch.setattr(decomposition, "_two_separation_shores", spied)
    for g in (corpus.prism(), corpus.triangle_expanded_petersen()):
        tree = decompose(g)
        assert tree.leaf_class is LeafClass.OTHER_BRICK
        assert entered == []
    g = corpus.k4_pair_two_cut()
    cut, _ = find_nontrivial_tight_cut(g, _mate(g))
    assert entered == [g]
    assert cut.shore == frozenset({0, 1, 2, 3, 8})


@pytest.mark.parametrize("copies", [1, 2])
def test_petersen_node_is_a_leaf_without_a_search(monkeypatch, copies):
    spokes = [(i, i + 5) for i in range(5)]
    g = build_graph(10, list(corpus.PETERSEN_PAIRS) + spokes * copies)
    assert regular_degree(g) == 3 + copies

    def no_search(*_, **__):
        raise AssertionError("a Petersen node was searched for a tight cut")

    calls = []

    def counted(h):
        calls.append(h)
        return is_petersen(h)

    monkeypatch.setattr(decomposition, "find_nontrivial_tight_cut", no_search)
    monkeypatch.setattr(decomposition, "is_petersen", counted)
    tree = decompose(g)
    assert tree.leaf_class is LeafClass.PETERSEN_BRICK
    assert len(calls) == 1


def _count_searches(monkeypatch):
    """Record the graph of each entry into a barrier route of the search.

    A node whose carried shores give its cut enters no route, and a node of
    fewer than six vertices none either.
    """
    searched = []

    def entered(route):
        def counted(h, *args):
            searched.append(h)
            yield from route(h, *args)

        return counted

    monkeypatch.setattr(
        decomposition, "_bipartite_barrier_shores", entered(_bipartite_barrier_shores)
    )
    monkeypatch.setattr(
        decomposition, "_nonbipartite_barrier_shores", entered(_nonbipartite_barrier_shores)
    )
    return searched


def test_double_petersen_splice_carries_the_second_piece(monkeypatch):
    searched = _count_searches(monkeypatch)
    tree = decompose(corpus.double_petersen_splice())
    assert tree.petersen_count == 2
    assert len(searched) == 2  # the root and the K3,3 brace; the second piece is carried


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_barrier_blowup_searches_once_per_barrier(monkeypatch, k):
    matching_searches = []

    def counted_matching(n, adjacency, *args):
        matching_searches.append(n)
        return maximum_matching(n, adjacency, *args)

    monkeypatch.setattr(decomposition, "maximum_matching", counted_matching)
    for seed in range(3):
        searched = _count_searches(monkeypatch)
        matching_searches.clear()
        g = corpus.barrier_blowup(k, seed)
        _, tree = solve_r_graph(g)
        assert tree.petersen_count == k
        oracles.assert_solved_tree(tree)
        nonbipartite_internal = sum(
            1 for node in tree.internal_nodes() if node.graph.bipartition is None
        )
        nonbipartite_searched = sum(1 for h in searched if h.bipartition is None)
        assert nonbipartite_searched == nonbipartite_internal - (k - 1), (k, seed)
        # one matching search, at the root: every route, the bipartite one
        # included, starts from the perfect matching a node inherits
        assert matching_searches == [g.vertex_count], (k, seed)


def test_every_node_inherits_a_perfect_matching(monkeypatch):
    handed = []

    def spied_search(h, matching, carried):
        handed.append((h, matching))
        return find_nontrivial_tight_cut(h, matching, carried)

    monkeypatch.setattr(decomposition, "find_nontrivial_tight_cut", spied_search)
    instances = corpus.structured_instances() + corpus.random_instances()
    instances += [
        (f"blowup_{k}_{seed}", corpus.barrier_blowup(k, seed))
        for k in range(1, 6)
        for seed in range(3)
    ]
    contracted = 0
    for name, g in instances:
        if not is_r_graph(g).ok:
            continue
        handed.clear()
        decompose(g)
        for h, mate in handed:
            assert len(mate) == h.vertex_count, name
            edge_ids = [h.pair_ids[(v, w)][0] for v, w in enumerate(mate) if v < w]
            validate_perfect_matching(h, edge_ids)
            contracted += h is not g
    assert contracted >= 100, contracted


def test_contract_shore_c6_frozen():
    g = corpus.c6()
    cut = cut_from_shore(g, {0, 1, 2})
    (child, cmap), (other, other_map) = contract_shore(g, cut)
    assert child.vertex_count == 4
    assert cmap.contracted_vertex == 3
    assert cmap.child_to_parent == (0, 1, 2, 5)
    assert cmap.kept_vertices == (0, 1, 2)
    assert regular_degree(child) == 2
    assert cmap.lift_edges(frozenset({0, 3})) == frozenset({0, 5})
    assert other.edges == ((3, 0), (0, 1), (1, 2), (2, 3))
    assert other_map.child_to_parent == (2, 3, 4, 5)
    assert other_map.kept_vertices == (3, 4, 5)
    assert other_map.contracted_vertex == 3


def test_contract_shore_rejections():
    g = corpus.c6()
    with pytest.raises(ValueError, match="only odd cuts"):
        contract_shore(g, cut_from_shore(g, {0, 1}))
    with pytest.raises(ValueError, match="trivial cut"):
        contract_shore(g, cut_from_shore(g, {0}))
    # contracting across a non-tight odd cut breaks regularity
    g8 = corpus.cube()
    loose = cut_from_shore(g8, {0, 1, 2})
    with pytest.raises(ValueError, match="not tight"):
        contract_shore(g8, loose)


def test_contract_shore_counts_the_edges_that_cross_the_shore():
    # five edges leave {0, 1, 2} in the cube; a Cut naming three of them,
    # r of them, still describes the shore, whose contractions are not cubic
    g = corpus.cube()
    loose = cut_from_shore(g, {0, 1, 2})
    forged = Cut(shore=loose.shore, edge_ids=frozenset(sorted(loose.edge_ids)[:3]), odd=True)
    assert forged.size == regular_degree(g) == 3 and loose.size == 5
    with pytest.raises(ValueError, match="not tight"):
        contract_shore(g, forged)
    for keep_side in (loose.shore, frozenset(range(8)) - loose.shore):
        with pytest.raises(ValueError, match="not tight"):
            oracles.contract_one_side(g, forged, keep_side)


def test_contract_shore_matches_the_one_side_reference():
    instances = (
        corpus.structured_instances()
        + corpus.random_instances()
        + [(f"blowup_k{k}_s{seed}", corpus.barrier_blowup(k, seed))
           for k in range(2, 6) for seed in range(3)]
    )
    cuts = 0
    for name, g in instances:
        for node in decompose(g).internal_nodes():
            h, cut = node.graph, node.cut
            complement = frozenset(range(h.vertex_count)) - cut.shore
            expected = (
                oracles.contract_one_side(h, cut, cut.shore),
                oracles.contract_one_side(h, cut, complement),
            )
            assert contract_shore(h, cut) == expected, name
            assert ((node.left.graph, node.left_map), (node.right.graph, node.right_map)) == (
                expected
            ), name
            cuts += 1
    assert cuts >= 100, cuts


def test_decompose_contracts_each_cut_once(monkeypatch):
    calls = []

    def counting(g, cut):
        calls.append(cut)
        return contract_shore(g, cut)

    monkeypatch.setattr(decomposition, "contract_shore", counting)
    for name, g in corpus.structured_instances() + [("blowup", corpus.barrier_blowup(4, 1))]:
        calls.clear()
        tree = decompose(g)
        assert calls == [node.cut for node in tree.internal_nodes()], name


def _relabelled(pairs, rng, extra_copies=0):
    """The pairs under a random vertex permutation, with some pairs repeated
    and the edge order shuffled; the simple graph is only relabelled."""
    perm = list(range(10))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in pairs]
    edges += [rng.choice(edges) for _ in range(extra_copies)]
    rng.shuffle(edges)
    return build_graph(10, edges)


def _edge_switches(pairs, rng, steps):
    """Cubic simple graphs reached from ``pairs`` by random degree-preserving
    switches ab, cd -> ac, bd that keep the graph simple."""
    edges = list(pairs)
    for _ in range(steps):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], rng.choice([edges[j], edges[j][::-1]])
        present = {frozenset(e) for e in edges}
        if len({a, b, c, d}) < 4 or {frozenset((a, c)), frozenset((b, d))} & present:
            continue
        edges[i], edges[j] = (a, c), (b, d)
    return edges


def test_is_petersen():
    assert is_petersen(corpus.petersen())
    assert not is_petersen(corpus.prism())
    assert not is_petersen(corpus.cube())
    assert not is_petersen(corpus.triangle_expanded_petersen())
    # the star K1,9 also gives adjacent pairs 0 and other pairs 1 common
    # neighbour; only the degree test rejects it
    assert not is_petersen(build_graph(10, [(0, v) for v in range(1, 10)]))
    # relabeled copy is still recognised, and the oracle maps every edge
    relabel = {v: (v * 3) % 10 for v in range(10)}
    pairs = [(relabel[u], relabel[v]) for u, v in corpus.PETERSEN_PAIRS]
    host = build_graph(10, pairs)
    assert is_petersen(host)
    mapped = oracles.petersen_embedding(host)
    assert mapped is not None
    host_pairs = {frozenset(p) for p in host.edges}
    for u, v in corpus.PETERSEN_PAIRS:
        assert frozenset((mapped[u], mapped[v])) in host_pairs


def test_is_petersen_with_parallel_edges():
    pairs = list(corpus.PETERSEN_PAIRS) + list(corpus.PETERSEN_PAIRS[:3])
    g = build_graph(10, pairs)
    assert is_petersen(g)


def test_is_petersen_agrees_with_the_embedding_oracle():
    rng = random.Random(13)
    verdicts = []
    for trial in range(300):
        pairs = _edge_switches(corpus.PETERSEN_PAIRS, rng, steps=trial % 4)
        g = _relabelled(pairs, rng, extra_copies=rng.randint(0, 3))
        verdict = is_petersen(g)
        assert verdict == (oracles.petersen_embedding(g) is not None), (trial, g.edges)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


class _Handed(Exception):
    """Raised by a spy with the matchings handed to it."""


def test_petersen_matchings_are_the_cuts_around_the_5_cycles(monkeypatch):
    # on every Petersen draw of the generator above, ``petersen_solve`` hands
    # the closed form the matchings that enumeration on the simple pairs
    # lists, in the same order, so each term takes the same parallel copy;
    # most draws are irregular hosts, so the spy stops the solve
    def spied(weights, mats):
        raise _Handed(list(mats))

    monkeypatch.setattr(leaf_solvers, "_petersen_weight_alpha", spied)
    rng = random.Random(13)
    drawn = 0
    for trial in range(300):
        pairs = _edge_switches(corpus.PETERSEN_PAIRS, rng, steps=trial % 4)
        g = _relabelled(pairs, rng, extra_copies=rng.randint(0, 3))
        if not is_petersen(g):
            continue
        with pytest.raises(_Handed) as handed:
            leaf_solvers.petersen_solve(g)
        assert handed.value.args[0] == list(iter_pms(build_graph(10, g.simple_pairs))), trial
        drawn += 1
    assert drawn >= 75


def test_each_node_is_two_coloured_once(monkeypatch):
    # the classification, the tight-cut search and the leaf solver of a node
    # all read the one bipartition cached on its graph
    computed = []
    colour = MultiGraph.bipartition.func

    def counted(g):
        computed.append(g)
        return colour(g)

    spied = cached_property(counted)
    spied.__set_name__(MultiGraph, "bipartition")
    monkeypatch.setattr(MultiGraph, "bipartition", spied)
    instances = corpus.structured_instances() + corpus.random_instances()
    instances += [(f"blowup_{k}", corpus.barrier_blowup(k, 0)) for k in range(2, 6)]
    nodes_seen = 0
    for name, g in instances:
        computed.clear()
        _, tree = solve_r_graph(g)
        nodes = [node.graph for node in chain(tree.internal_nodes(), tree.leaves())]
        assert sorted(map(id, computed)) == sorted(map(id, nodes)), name
        nodes_seen += len(nodes)
    assert nodes_seen >= 300, nodes_seen


def test_classify_leaf():
    assert classify_leaf(corpus.k33()) is LeafClass.BRACE
    assert classify_leaf(corpus.cube()) is LeafClass.BRACE
    assert classify_leaf(corpus.petersen()) is LeafClass.PETERSEN_BRICK
    host = _relabelled(corpus.PETERSEN_PAIRS, random.Random(3), extra_copies=2)
    assert classify_leaf(host) is LeafClass.PETERSEN_BRICK
    assert classify_leaf(corpus.k4()) is LeafClass.OTHER_BRICK
    assert classify_leaf(corpus.prism()) is LeafClass.OTHER_BRICK
    assert classify_leaf(corpus.triangle_expanded_petersen()) is LeafClass.OTHER_BRICK


def test_assert_matching_covered():
    oracles.assert_matching_covered(corpus.petersen())
    # C4 plus a chord: the chord lies in no perfect matching
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(RuntimeError, match="edge"):
        oracles.assert_matching_covered(g)


def test_decompose_c6():
    tree = decompose(corpus.c6())
    assert not tree.is_leaf
    leaves = list(tree.leaves())
    assert [leaf.leaf_class for leaf in leaves] == [LeafClass.BRACE, LeafClass.BRACE]
    assert all(leaf.graph.vertex_count == 4 for leaf in leaves)
    assert tree.petersen_count == 0


def test_decompose_single_leaves():
    assert decompose(corpus.petersen()).leaf_class is LeafClass.PETERSEN_BRICK
    assert decompose(corpus.petersen()).petersen_count == 1
    assert decompose(corpus.k4()).leaf_class is LeafClass.OTHER_BRICK
    assert decompose(corpus.k33()).leaf_class is LeafClass.BRACE


def test_decompose_splices():
    tree = decompose(corpus.k33_petersen_splice())
    kinds = sorted(leaf.leaf_class.value for leaf in tree.leaves())
    assert kinds == ["Brace", "PetersenBrick"]
    assert tree.petersen_count == 1

    tree = decompose(corpus.k33_brick_splice())
    kinds = sorted(leaf.leaf_class.value for leaf in tree.leaves())
    assert kinds == ["Brace", "OtherBrick"]

    tree = decompose(corpus.double_petersen_splice())
    kinds = sorted(leaf.leaf_class.value for leaf in tree.leaves())
    assert kinds == ["Brace", "PetersenBrick", "PetersenBrick"]
    assert tree.petersen_count == 2


def test_decompose_internal_cuts_are_tight():
    instances = corpus.structured_instances() + corpus.random_instances(
        ns=(6, 8, 10), seeds=range(2)
    )
    for name, g in instances:
        tree = decompose(g)
        for node in tree.internal_nodes():
            assert node.cut is not None
            if node.graph.vertex_count <= 12:
                matchings = oracles.all_pms(node.graph)
                assert oracles.is_tight(node.graph, node.cut, matchings), name
            # child graphs are r-graphs of the same degree
            for child in (node.left, node.right):
                assert child is not None
                assert is_r_graph(child.graph).ok, name
                assert regular_degree(child.graph) == regular_degree(node.graph), name


def test_solved_tree_check_rejects_a_cut_that_is_not_tight(monkeypatch):
    # the cut around the triangle {9, 10, 11} is odd with 3 edges, so
    # contract_shore accepts it and the fold solves both sides, but a perfect
    # matching can use all three edges: the tree claims a Petersen leaf of a
    # brick that has none, and only the tightness check sees it
    g = corpus.triangle_expanded_petersen()
    cut = cut_from_shore(g, {9, 10, 11})
    assert cut.odd and cut.size == 3
    (left, left_map), (right, right_map) = contract_shore(g, cut)
    tree = decomposition.DecompositionTree(
        graph=g,
        cut=cut,
        left=decomposition.DecompositionTree(graph=left, leaf_class=classify_leaf(left)),
        right=decomposition.DecompositionTree(graph=right, leaf_class=classify_leaf(right)),
        left_map=left_map,
        right_map=right_map,
    )
    cover = _fold(tree)
    assert tree.petersen_count == 1 and cover.halves_count == 6
    assert decompose(g).petersen_count == 0
    with pytest.raises(AssertionError, match="an internal cut is not tight"):
        oracles.assert_solved_tree(tree)
    monkeypatch.setattr(oracles, "is_tight_cut", lambda *_: True)
    assert oracles.assert_solved_tree(tree) == 1


def test_decompose_rejects_non_r_graph():
    with pytest.raises(ValueError):
        decompose(corpus.bridged_cubic())
