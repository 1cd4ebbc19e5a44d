from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pmcover import build_graph, leaf_solvers, terms_independent
from pmcover.leaf_solvers import (
    ClassificationError,
    _canonical_pair_copies,
    _petersen_weight_alpha,
    brace_solve,
    brick_solve,
    greedy_basis,
    petersen_matchings,
    petersen_solve,
)
from pmcover.decomposition import canonical_petersen

import corpus
import oracles


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
    matchings = petersen_matchings()
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
    assert _petersen_weight_alpha([1] * 15) == (1,) * 6


def _petersen_weights(twice_alpha):
    """sum_k alpha_k chi(M_k) on the canonical edge ids, from doubled alpha."""
    matchings = petersen_matchings()
    twice = [sum(t for t, m in zip(twice_alpha, matchings) if e in m) for e in range(15)]
    assert all(w % 2 == 0 for w in twice)
    return [w // 2 for w in twice]


def _petersen_host(twice_alpha):
    """Multigraph with edge multiplicities given by sum of alpha over matchings."""
    pairs = []
    for (u, v), weight in zip(canonical_petersen().edges, _petersen_weights(twice_alpha)):
        pairs.extend([(u, v)] * weight)
    return build_graph(10, pairs)


def test_petersen_alpha_integral_host():
    twice_alpha = [4, 2, 2, 2, 2, 2]
    g = _petersen_host(twice_alpha)
    weights = [len(ids) for ids in _canonical_pair_copies(g)]
    assert list(_petersen_weight_alpha(weights)) == twice_alpha


# +1 on edges 1-2 and 1-6, -1 on edges 0-4 and 0-5: orthogonal to all six
# matchings, so adding it leaves every w(M_k) and the total weight unchanged
ORTHOGONAL = [0, 1, 0, 0, -1, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0]


def test_petersen_weight_alpha_closed_form_sweep():
    rng = random.Random(7)
    matchings = petersen_matchings()
    rows = [[1 if e in m else 0 for m in matchings] for e in range(15)]
    assert all(sum(ORTHOGONAL[e] for e in m) == 0 for m in matchings)
    for _ in range(300):
        shift = rng.choice([0, 1])
        alpha = [2 * rng.randint(0, 5) + shift for _ in range(6)]
        assert _petersen_weight_alpha(_petersen_weights(alpha)) == tuple(alpha)

        # the closed form maps this to the valid alpha above; only rebuilding
        # the weights can reject it
        off_span = [w + d for w, d in zip(_petersen_weights(alpha), ORTHOGONAL)]
        with pytest.raises(ValueError, match="outside the span"):
            _petersen_weight_alpha(off_span)

        negative = list(alpha)
        negative[rng.randrange(6)] = -2 - shift
        with pytest.raises(ValueError, match="negative"):
            _petersen_weight_alpha(_petersen_weights(negative))

        # any two matchings share exactly one edge, whose weight is the sum
        # of their alphas, so integer weights force all six alphas to one
        # parity; only half-integral weights reach the parity check
        mixed = list(alpha)
        mixed[rng.randrange(6)] += 1
        halves = [
            Fraction(sum(t for t, m in zip(mixed, matchings) if e in m), 2)
            for e in range(15)
        ]
        assert any(w.denominator == 2 for w in halves)
        with pytest.raises(ValueError, match="all integral or all half-integral"):
            _petersen_weight_alpha(halves)

        # a random integer vector is almost never in the six-dimensional span
        weights = [rng.randint(0, 6) for _ in range(15)]
        if oracles.fraction_rank([row + [w] for row, w in zip(rows, weights)]) == 6:
            continue
        with pytest.raises(ValueError, match="outside the span"):
            _petersen_weight_alpha(weights)


def test_petersen_alpha_rejects_non_petersen():
    with pytest.raises(ValueError, match="not the Petersen graph"):
        petersen_solve(corpus.prism())


def test_petersen_solve_simple():
    sol = petersen_solve(canonical_petersen())
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
