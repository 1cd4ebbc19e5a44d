from __future__ import annotations

from fractions import Fraction

import pytest

from pmcover import CoverSolution, exact_cover, terms_independent
from pmcover.cover import from_twice, to_twice
from pmcover.matchings import enumerate_pms

import corpus

HALF = Fraction(1, 2)


def test_twice_round_trip():
    for value in (Fraction(1), Fraction(-3), HALF, Fraction(5, 2), Fraction(-7, 2)):
        assert from_twice(to_twice(value)) == value
    assert to_twice(Fraction(2)) == 4
    assert to_twice(HALF) == 1


def test_twice_rejections():
    with pytest.raises(ValueError):
        to_twice(Fraction(1, 3))
    with pytest.raises(ValueError):
        from_twice(0)


def test_exact_cover_k4():
    g = corpus.k4()
    pms = enumerate_pms(g)
    sol = exact_cover(g, [(pm, Fraction(1)) for pm in pms])
    assert sol.support == 3
    assert all(c.denominator == 1 for c in sol.coefficients)
    assert sol.coefficient_sum() == 3
    assert sol.inf_norm() == 1
    assert sol.coverage() == [Fraction(1)] * g.m


def test_exact_cover_rejects_bad_sums():
    g = corpus.k4()
    pms = enumerate_pms(g)
    with pytest.raises(ValueError, match="cover"):
        exact_cover(g, [(pms[0], Fraction(1))])


def test_exact_cover_rejects_non_matching_term():
    g = corpus.k4()
    with pytest.raises(ValueError):
        exact_cover(g, [(frozenset({0, 1}), Fraction(1))])


def test_exact_cover_rejects_duplicates():
    g = corpus.parallel_pair(2)
    pm = frozenset({0})
    with pytest.raises(ValueError, match="duplicate"):
        exact_cover(g, [(pm, HALF), (pm, HALF), (frozenset({1}), Fraction(1))])


def test_structural_solution_accepts_wrong_sums():
    # the verifier loads tampered data, so the raw container stays permissive
    g = corpus.k4()
    pms = enumerate_pms(g)
    sol = CoverSolution(g, ((pms[0], Fraction(2)),))
    assert sol.coverage() != [Fraction(1)] * g.m


def test_structural_solution_rejects_bad_ids_and_zeros():
    g = corpus.k4()
    with pytest.raises(ValueError):
        CoverSolution(g, ((frozenset({77}), Fraction(1)),))
    with pytest.raises(ValueError):
        CoverSolution(g, ((frozenset({0, 5}), Fraction(0)),))


def test_halves_accounting():
    g = corpus.petersen()
    pms = enumerate_pms(g)
    sol = exact_cover(g, [(pm, HALF) for pm in pms])
    assert sol.halves_count == 6
    assert sol.halves_exact()
    assert not all(c.denominator == 1 for c in sol.coefficients)
    assert sol.fractional_coefficients() == [HALF] * 6
    assert sol.inf_norm() == HALF
    assert sol.coefficient_sum() == 3


def test_terms_independent():
    g = corpus.k4()
    pms = enumerate_pms(g)
    assert terms_independent(g, pms)
    assert not terms_independent(g, pms + [pms[0]])
    gp = corpus.petersen()
    assert terms_independent(gp, enumerate_pms(gp))
