from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmcover import (
    LeafClass,
    build_graph,
    decompose,
    enumerate_pms,
    leaf_solvers,
    solve_r_graph,
    terms_independent,
    verify_cover,
)
from pmcover.cli import gen_r_graph
from pmcover.linalg import Basis, ModEchelon
from pmcover.leaf_solvers import (
    ClassificationError,
    _pair_walk,
    _petersen_weight_alpha,
    brace_solve,
    brick_solve,
    petersen_solve,
)
from pmcover.matchings import incidence_mask, pm_containing_edges

import corpus
import oracles

# the Petersen pairs in simple_pairs order, and its six perfect matchings on them
PAIRS = corpus.petersen().simple_pairs
MATCHINGS = enumerate_pms(build_graph(10, PAIRS))


def test_brace_solve_peels_unit_coefficients():
    for g, r in ((corpus.c6(), 2), (corpus.k33(), 3), (corpus.cube(), 3),
                 (corpus.doubled_c4(), 4), (corpus.parallel_pair(5), 5)):
        sol = brace_solve(g)
        assert len(sol.terms) == r
        assert all(c == 2 for _, c in sol.terms)
        assert sol.coverage() == [2] * g.m


def test_brace_solve_c6_frozen():
    sol = brace_solve(corpus.c6())
    assert sorted(sorted(m) for m, _ in sol.terms) == [[0, 2, 4], [1, 3, 5]]


def test_brace_solve_rejects_non_bipartite():
    with pytest.raises(ValueError):
        brace_solve(corpus.k4())


def test_petersen_matchings_structure():
    perm = [3, 7, 0, 9, 4, 1, 8, 2, 6, 5]
    relabelled = [(perm[u], perm[v]) for u, v in reversed(corpus.PETERSEN_PAIRS)]
    for g in (corpus.petersen(), build_graph(10, relabelled)):
        matchings = petersen_solve(g).matchings
        assert len(matchings) == 6
        for m in matchings:
            assert len(m) == 5
        # every edge lies in exactly two of the six
        for e in range(15):
            assert sum(1 for m in matchings if e in m) == 2
        # any two share exactly one edge
        for i in range(6):
            for j in range(i + 1, 6):
                assert len(matchings[i] & matchings[j]) == 1


def test_petersen_alpha_simple_graph_is_all_halves():
    assert _petersen_weight_alpha([1] * 15, MATCHINGS) == (1,) * 6


def _twice_weights(twice_alpha):
    """sum_k alpha_k chi(M_k) on the ids of PAIRS, doubled, from doubled alpha."""
    return [sum(t for t, m in zip(twice_alpha, MATCHINGS) if e in m) for e in range(15)]


def _petersen_weights(twice_alpha):
    twice = _twice_weights(twice_alpha)
    assert all(w % 2 == 0 for w in twice)
    return [w // 2 for w in twice]


def _petersen_host(twice_alpha):
    """Multigraph with edge multiplicities given by sum of alpha over matchings."""
    pairs = []
    for pair, weight in zip(PAIRS, _petersen_weights(twice_alpha)):
        pairs.extend([pair] * weight)
    return build_graph(10, pairs)


def test_petersen_alpha_integral_host():
    twice_alpha = [4, 2, 2, 2, 2, 2]
    g = _petersen_host(twice_alpha)
    weights = [len(g.pair_ids[pair]) for pair in g.simple_pairs]
    assert list(_petersen_weight_alpha(weights, MATCHINGS)) == twice_alpha


# +1 on edges 1-2 and 1-6, -1 on edges 0-4 and 0-5: orthogonal to all six
# matchings, so adding it leaves every w(M_k) and the total weight unchanged
ORTHOGONAL = [{(1, 2): 1, (1, 6): 1, (0, 4): -1, (0, 5): -1}.get(pair, 0) for pair in PAIRS]


def test_petersen_weight_alpha_closed_form_sweep():
    rng = random.Random(7)
    rows = [[1 if e in m else 0 for m in MATCHINGS] for e in range(15)]
    assert all(sum(ORTHOGONAL[e] for e in m) == 0 for m in MATCHINGS)
    for _ in range(300):
        shift = rng.choice([0, 1])
        alpha = [2 * rng.randint(0, 5) + shift for _ in range(6)]
        assert _petersen_weight_alpha(_petersen_weights(alpha), MATCHINGS) == tuple(alpha)

        # the closed form maps this to the valid alpha above; only rebuilding
        # the weights can reject it
        off_span = [w + d for w, d in zip(_petersen_weights(alpha), ORTHOGONAL)]
        with pytest.raises(ValueError, match="outside the span"):
            _petersen_weight_alpha(off_span, MATCHINGS)

        negative = list(alpha)
        negative[rng.randrange(6)] = -2 - shift
        with pytest.raises(ValueError, match="negative"):
            _petersen_weight_alpha(_petersen_weights(negative), MATCHINGS)

        # any two matchings share exactly one edge, whose weight is the sum
        # of their alphas, so the weights are integers exactly when the six
        # doubled alphas have one parity
        mixed = [rng.randint(0, 11) for _ in range(6)]
        integral = all(w % 2 == 0 for w in _twice_weights(mixed))
        assert integral == (len({t % 2 for t in mixed}) == 1)

        # a random integer vector is almost never in the six-dimensional span
        weights = [rng.randint(0, 6) for _ in range(15)]
        if oracles.fraction_rank([row + [w] for row, w in zip(rows, weights)]) == 6:
            continue
        with pytest.raises(ValueError, match="outside the span"):
            _petersen_weight_alpha(weights, MATCHINGS)


def test_petersen_alpha_rejects_non_petersen():
    with pytest.raises(ValueError, match="not the Petersen graph"):
        petersen_solve(corpus.prism())


def test_petersen_solve_simple():
    sol = petersen_solve(corpus.petersen())
    assert len(sol.terms) == 6
    assert all(c == 1 for _, c in sol.terms)
    assert sol.coverage() == [2] * 15


def test_petersen_solve_integral_host():
    g = _petersen_host([4, 2, 2, 2, 2, 2])
    sol = petersen_solve(g)
    assert len(sol.terms) == 7
    assert all(c == 2 for _, c in sol.terms)
    assert sol.coverage() == [2] * g.m
    assert sol.halves_count == 0


def test_petersen_solve_half_host():
    g = _petersen_host([3, 1, 1, 1, 1, 1])
    sol = petersen_solve(g)
    assert sol.halves_count == 6
    integral = [(m, c) for m, c in sol.terms if c % 2 == 0]
    assert len(integral) == 1 and integral[0][1] == 2
    assert sol.coverage() == [2] * g.m


def _petersen_root(rng, copies, extra):
    """Petersen with every pair ``copies`` times plus ``extra`` random perfect
    matchings, under a random relabelling and edge order."""
    perm = list(range(10))
    rng.shuffle(perm)
    simple = build_graph(10, [(perm[u], perm[v]) for u, v in corpus.PETERSEN_PAIRS])
    matchings = oracles.all_pms(simple)
    edges = list(simple.edges) * copies
    for _ in range(extra):
        edges += [simple.edges[e] for e in rng.choice(matchings)]
    rng.shuffle(edges)
    return build_graph(10, edges)


def test_relabelled_petersen_roots_solve_and_verify():
    # one copy of every pair gives alpha in 1/2 + Z (six halves), two copies
    # alpha in Z (no halves); matchings added on top keep the class
    rng = random.Random(11)
    for trial in range(48):
        copies, extra = 1 + trial % 2, trial // 2 % 4
        g = _petersen_root(rng, copies, extra)
        sol, tree = solve_r_graph(g)
        assert tree.leaf_class is LeafClass.PETERSEN_BRICK, trial
        assert verify_cover(g, sol, tree).mandatory_ok, trial
        assert sol.halves_count == (6 if copies == 1 else 0), trial
        assert oracles.assert_solved_tree(tree) == 0, trial


def test_pair_walk_prism_frozen():
    g = corpus.prism()
    walk = list(_pair_walk(g))
    assert [sorted(m) for m in walk[:3]] == [[0, 3, 8], [1, 4, 6], [2, 5, 7]]
    # until every edge is held, each matching holds the lowest edge id its
    # predecessors miss: the walk opens with the greedy basis
    k = 0
    while set().union(*walk[:k]) != set(range(g.m)):
        assert min(set(range(g.m)) - set().union(*walk[:k])) in walk[k]
        k += 1
    assert k == 3


def test_brick_solve_rejects_an_uncoverable_edge():
    # edge 4 = (0, 2) lies in no perfect matching; the two matchings give
    # rank 2 = m - n + 1, but the all-ones vector is outside their span
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(ClassificationError, match="before the exchange"):
        brick_solve(g)
    # a second copy of the edge leaves the rank at 2, below m - n + 1 = 3
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (0, 2)])
    with pytest.raises(ClassificationError, match="ended at rank 2, below m - n \\+ 1 = 3"):
        brick_solve(g)


def test_brick_solve_k4():
    sol = brick_solve(corpus.k4())
    assert sorted(sorted(m) for m, _ in sol.terms) == [[0, 5], [1, 4], [2, 3]]
    assert all(c == 2 for _, c in sol.terms)


def test_brick_solve_prism():
    sol = brick_solve(corpus.prism())
    assert len(sol.terms) == 3
    assert all(c == 2 for _, c in sol.terms)
    assert sol.coverage() == [2] * 9


def test_brick_solve_triangle_expanded():
    g = corpus.triangle_expanded_petersen()
    sol = brick_solve(g)
    assert sol.coverage() == [2] * g.m
    assert all(c % 2 == 0 for c in sol.coefficients)
    # support stays within the independent budget
    assert sol.support <= g.m - g.vertex_count + 1
    assert terms_independent(g, sol.matchings)


def _other_brick_leaf(n, r, seed):
    tree = decompose(gen_r_graph(n, r, seed=seed))
    return [leaf.graph for leaf in tree.leaves() if leaf.leaf_class is LeafClass.OTHER_BRICK]


def _small_bricks():
    """The corpus bricks, then the brick leaves of seeded random r-graphs, n <= 12."""
    bricks = [
        pytest.param(corpus.k4(), id="k4"),
        pytest.param(corpus.prism(), id="prism"),
        pytest.param(corpus.petersen(), id="petersen"),
        pytest.param(corpus.triangle_expanded_petersen(), id="tri_expanded"),
    ]
    rng = random.Random(19)
    for _ in range(60):
        n, r, seed = rng.choice((6, 8, 10, 12)), rng.randint(3, 5), rng.randrange(10**6)
        for k, g in enumerate(_other_brick_leaf(n, r, seed)):
            bricks.append(pytest.param(g, id=f"gen_n{n}_r{r}_s{seed}_leaf{k}"))
    return bricks


SMALL_BRICKS = _small_bricks()

# inputs whose brick leaf the first pass of the walk alone cannot solve: it
# ends at rank 10 of 11 on the first, before the exchange closes on the others
SHORTFALL_INPUTS = [(24, 3, 2266), (24, 3, 10936), (36, 3, 6345)]

WALK_GRAPHS = SMALL_BRICKS + [
    pytest.param(g, id=f"gen_n{n}_r{r}_s{seed}_leaf{k}")
    for n, r, seed in SHORTFALL_INPUTS
    for k, g in enumerate(_other_brick_leaf(n, r, seed))
]


@pytest.mark.parametrize("n, r, seed", SHORTFALL_INPUTS)
def test_walk_shortfall_inputs_solve_and_verify(n, r, seed):
    g = gen_r_graph(n, r, seed=seed)
    sol, tree = solve_r_graph(g)
    assert verify_cover(g, sol, tree).mandatory_ok


@pytest.mark.parametrize("g", WALK_GRAPHS)
def test_pair_walk_never_repeats_a_matching(g):
    # run to its end, the walk yields no matching twice
    walk = list(_pair_walk(g))
    assert len(set(walk)) == len(walk)


@pytest.mark.parametrize("g", WALK_GRAPHS)
def test_pair_walk_covers_every_pair_in_a_perfect_matching(g):
    # every vertex-disjoint pair of edges that lies in some perfect matching
    # (by brute force) lies in some matching of the walk
    def pairs(pms):
        return {(e, f) for pm in pms for e in pm for f in pm if e < f}

    assert pairs(enumerate_pms(g)) <= pairs(_pair_walk(g))


@pytest.mark.parametrize("g", WALK_GRAPHS)
def test_pair_walk_holds_every_completion_at_full_rank(g):
    # the walk yields the completion of every edge and every disjoint edge
    # pair that lies in a perfect matching, and spans lin(PM), of dimension
    # m - n + 1 on a brick
    walk = set(_pair_walk(g))
    for e in range(g.m):
        for f in range(e, g.m):
            forced = (e,) if e == f else (e, f)
            if e != f and set(g.edges[e]) & set(g.edges[f]):
                continue
            pm = pm_containing_edges(g, forced)
            assert pm is None or pm in walk, forced
    rows = [[1 if e in pm else 0 for e in range(g.m)] for pm in walk]
    assert oracles.fraction_rank(rows) == g.m - g.vertex_count + 1


# a degree-4 leaf whose basis, filled mod 2, holds the all-ones vector only
# at denominator 3; one swap brings it into the basis lattice
EXCHANGE_LEAF = (18, 4, 43)


def test_brick_solve_exchange_pins_the_degree_4_leaf(monkeypatch):
    (g,) = _other_brick_leaf(*EXCHANGE_LEAF)
    denominators = []
    real_coordinates = Basis.coordinates

    def recorded(self, target):
        solved = real_coordinates(self, target)
        if list(target) == [1] * g.m:
            denominators.append(solved[1])
        return solved

    monkeypatch.setattr(Basis, "coordinates", recorded)
    sol = brick_solve(g)
    assert denominators == [3, 1]
    assert sol.support <= g.m - g.vertex_count + 1
    text = json.dumps([[sorted(m), c] for m, c in sol.terms])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "28b8fa7c414370fcef25d0eccd2fbdd25d9aeb8fec44bc5724d8cfbb203a899a"
    )


def test_brick_solve_raises_when_the_walk_ends_below_full_rank(monkeypatch):
    # no pair lies in a perfect matching, and every edge's completion is one
    # of the prism's greedy basis: both passes stop at rank 3 of m - n + 1 = 4
    real_pm = leaf_solvers.pm_containing_edges

    def singles_only(g, edge_ids):
        return real_pm(g, edge_ids) if len(edge_ids) == 1 else None

    monkeypatch.setattr(leaf_solvers, "pm_containing_edges", singles_only)
    with pytest.raises(ClassificationError, match="ended at rank 3, below m - n \\+ 1 = 4"):
        brick_solve(corpus.prism())


def test_brick_solve_raises_when_the_walk_ends_before_the_exchange_closes(monkeypatch):
    # the walk stops at full rank mod 2, so the degree-4 leaf keeps its
    # non-integral coordinates
    (g,) = _other_brick_leaf(*EXCHANGE_LEAF)
    real_pm = leaf_solvers.pm_containing_edges
    span = ModEchelon(2)

    def until_full_rank(graph, edge_ids):
        if len(span) == g.m - g.vertex_count + 1:
            return None
        pm = real_pm(graph, edge_ids)
        if pm is not None:
            span.add(incidence_mask(pm))
        return pm

    monkeypatch.setattr(leaf_solvers, "pm_containing_edges", until_full_rank)
    with pytest.raises(ClassificationError, match="before the exchange"):
        brick_solve(g)


def _first_basis(g):
    """brick_solve's cover, with the rows of the first Basis it queries (the
    basis the fill built) and the all-ones vector's denominator in it."""
    first = []
    real_coordinates = Basis.coordinates

    def recorded(self, target):
        solved = real_coordinates(self, target)
        if not first:
            first.append((self.rows, solved[1]))
        return solved

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Basis, "coordinates", recorded)
        sol = brick_solve(g)
    return sol, *first[0]


def _assert_the_fill_is_a_basis_mod_2(g):
    # the fill's basis is independent mod 2, so over Q too, and of full
    # dimension; off the Petersen graph the matching lattice is saturated, so
    # the basis has odd index in it, and the all-ones denominator is odd
    sol, rows, den = _first_basis(g)
    dim = g.m - g.vertex_count + 1
    assert len(rows) == oracles.mod_rank(rows, 2) == oracles.fraction_rank(rows) == dim
    assert den % 2 == 1
    assert all(t % 2 == 0 for t in sol.coefficients)
    assert sol.coverage() == [2] * g.m


CORPUS_BRICKS = [
    pytest.param(leaf.graph, id=f"{name}_leaf{k}")
    for name, g in corpus.structured_instances() + corpus.random_instances()
    for k, leaf in enumerate(decompose(g).leaves())
    if leaf.leaf_class is LeafClass.OTHER_BRICK
]


@pytest.mark.parametrize("g", CORPUS_BRICKS)
def test_brick_fill_is_a_basis_mod_2_on_the_corpus(g):
    _assert_the_fill_is_a_basis_mod_2(g)


@given(st.sampled_from([(18, 4), (36, 3), (12, 5), (20, 5), (24, 3)]), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
@example(EXCHANGE_LEAF[:2], EXCHANGE_LEAF[2])
def test_brick_fill_is_a_basis_mod_2_on_random_leaves(family, seed):
    for g in _other_brick_leaf(*family, seed):
        _assert_the_fill_is_a_basis_mod_2(g)


@given(st.sampled_from([(18, 4), (36, 3)]), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_brick_solve_support_is_an_independent_basis_subset(family, seed):
    # leaves of the benchmark's brick (n=18, r=4) and cubic (n=36, r=3)
    # families: at most m - n + 1 terms, independent by an oracle's rank
    n, r = family
    for g in _other_brick_leaf(n, r, seed):
        sol = brick_solve(g)
        assert sol.support <= g.m - g.vertex_count + 1
        rows = [[1 if e in pm else 0 for e in range(g.m)] for pm in sol.matchings]
        assert oracles.fraction_rank(rows) == sol.support


@pytest.mark.parametrize("n, r", [(32, 5), (40, 5), (20, 7), (80, 3)])
def test_size_and_degree_cliffs_solve_and_verify(n, r):
    g = gen_r_graph(n, r, seed=1)
    sol, tree = solve_r_graph(g)
    assert verify_cover(g, sol, tree).mandatory_ok


def test_brick_solve_rejections():
    with pytest.raises(ValueError):
        brick_solve(corpus.k33())
    with pytest.raises(ValueError):
        brick_solve(corpus.petersen())
