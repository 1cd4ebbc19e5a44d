from __future__ import annotations

import random

import pytest

from pmcover import (
    LeafClass,
    build_graph,
    enumerate_pms,
    leaf_solvers,
    solve_r_graph,
    terms_independent,
    verify_cover,
)
from pmcover.leaf_solvers import (
    ClassificationError,
    _petersen_weight_alpha,
    brace_solve,
    brick_solve,
    greedy_basis,
    petersen_solve,
)

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


def test_greedy_basis_prism_frozen():
    basis = greedy_basis(corpus.prism())
    assert [(sorted(m), e) for m, e in basis[:3]] == [
        ([0, 3, 8], 0),
        ([1, 4, 6], 1),
        ([2, 5, 7], 2),
    ]


def test_greedy_basis_names_uncoverable_edge():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(ValueError, match="edge 4"):
        greedy_basis(g)


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


def test_brick_solve_adds_matchings_when_the_support_is_dependent(monkeypatch):
    g = corpus.prism()
    assert len(greedy_basis(g)) == 3 and len(oracles.all_pms(g)) == 4
    seen = []

    def reject_first(graph, matchings):
        seen.append(matchings)
        return len(seen) > 1 and terms_independent(graph, matchings)

    solves = []
    real_solve = leaf_solvers.hnf_solve

    def counted_solve(matrix, b):
        solves.append(len(matrix[0]))
        return real_solve(matrix, b)

    monkeypatch.setattr(leaf_solvers, "terms_independent", reject_first)
    monkeypatch.setattr(leaf_solvers, "hnf_solve", counted_solve)
    sol = brick_solve(g)
    # one solve over the greedy basis, one after the fourth matching is added
    assert solves == [3, 4]
    assert sol.coverage() == [2] * g.m
    assert terms_independent(g, sol.matchings)


def test_brick_solve_raises_when_no_support_is_independent(monkeypatch):
    monkeypatch.setattr(leaf_solvers, "terms_independent", lambda graph, matchings: False)
    with pytest.raises(ClassificationError, match="all perfect matchings enumerated"):
        brick_solve(corpus.k4())


def test_brick_solve_rejections():
    with pytest.raises(ValueError):
        brick_solve(corpus.k33())
    with pytest.raises(ValueError):
        brick_solve(corpus.petersen())
