from __future__ import annotations

import pytest

from pmcover import (
    CoverSolution,
    build_certificate,
    certificate_solution,
    deserialize,
    exact_cover,
    serialize,
    solve_r_graph,
    terms_independent,
)
from pmcover.matchings import enumerate_pms

import corpus


def test_twice_round_trip():
    # the in-memory doubled coefficients are the certificate's twice_value
    for g in (corpus.petersen(), corpus.k33_brick_splice(), corpus.double_petersen_splice()):
        sol, tree = solve_r_graph(g)
        cert = build_certificate(g, sol, tree)
        assert [twice for _, twice in cert.terms] == list(sol.coefficients)
        loaded = certificate_solution(g, deserialize(serialize(cert)))
        assert loaded.terms == sol.terms


def test_twice_rejections():
    g = corpus.petersen()
    pms = enumerate_pms(g)
    with pytest.raises(ValueError, match="zero"):
        CoverSolution(g, ((pms[0], 0),))
    # +1/2 is the one odd doubled value in the class; 3/2 and -1/2 are not
    for twice in (3, -1, -3):
        sol = CoverSolution(g, ((pms[0], twice),) + tuple((pm, 1) for pm in pms[1:]))
        assert not sol.halves_exact(), twice
        assert sol.halves_count == 5
    # passing true coefficients instead of doubled ones misses every edge sum
    with pytest.raises(ValueError, match="expected 2"):
        exact_cover(corpus.k4(), [(pm, 1) for pm in enumerate_pms(corpus.k4())])


def test_exact_cover_k4():
    g = corpus.k4()
    pms = enumerate_pms(g)
    sol = exact_cover(g, [(pm, 2) for pm in pms])
    assert sol.support == 3
    assert all(c % 2 == 0 for c in sol.coefficients)
    assert sol.coefficient_sum() == 6
    assert sol.inf_norm() == 2
    assert sol.coverage() == [2] * g.m


def test_exact_cover_rejects_bad_sums():
    g = corpus.k4()
    pms = enumerate_pms(g)
    with pytest.raises(ValueError, match="cover"):
        exact_cover(g, [(pms[0], 2)])


def test_exact_cover_rejects_non_matching_term():
    g = corpus.k4()
    with pytest.raises(ValueError):
        exact_cover(g, [(frozenset({0, 1}), 2)])


def test_exact_cover_rejects_duplicates():
    g = corpus.parallel_pair(2)
    pm = frozenset({0})
    with pytest.raises(ValueError, match="duplicate"):
        exact_cover(g, [(pm, 1), (pm, 1), (frozenset({1}), 2)])


def test_structural_solution_accepts_wrong_sums():
    # the verifier loads tampered data, so the raw container stays permissive
    g = corpus.k4()
    pms = enumerate_pms(g)
    sol = CoverSolution(g, ((pms[0], 4),))
    assert sol.coverage() != [2] * g.m


def test_structural_solution_rejects_bad_ids_and_zeros():
    g = corpus.k4()
    with pytest.raises(ValueError):
        CoverSolution(g, ((frozenset({77}), 2),))
    with pytest.raises(ValueError):
        CoverSolution(g, ((frozenset({0, 5}), 0),))


def test_halves_accounting():
    g = corpus.petersen()
    pms = enumerate_pms(g)
    sol = exact_cover(g, [(pm, 1) for pm in pms])
    assert sol.halves_count == 6
    assert sol.halves_exact()
    assert not all(c % 2 == 0 for c in sol.coefficients)
    assert [c for c in sol.coefficients if c % 2] == [1] * 6
    assert sol.inf_norm() == 1
    assert sol.coefficient_sum() == 6


def test_terms_independent():
    g = corpus.k4()
    pms = enumerate_pms(g)
    assert terms_independent(g, pms)
    assert not terms_independent(g, pms + [pms[0]])
    gp = corpus.petersen()
    assert terms_independent(gp, enumerate_pms(gp))
