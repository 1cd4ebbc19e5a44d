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
from pmcover import cover
from pmcover.linalg import Echelon
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


def test_exact_cover_rejects_out_of_class():
    # 3/2 and -1/2 on the six matchings of K_{3,3} sum to 1 on every edge,
    # so only the coefficient class is at fault
    g = corpus.k33()
    twice = {(0, 4, 8): -1, (0, 5, 7): 3, (1, 3, 8): 3, (1, 5, 6): -1, (2, 3, 7): -1, (2, 4, 6): 3}
    terms = [(frozenset(ids), t) for ids, t in twice.items()]
    assert CoverSolution(g, tuple(terms)).coverage() == [2] * g.m
    with pytest.raises(ValueError, match="neither integral nor"):
        exact_cover(g, terms)


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


# 0/1 rows of determinant 6 = 2 * 3: dependent mod 2 and mod 3, independent over Q
DET_6 = [[1, 1, 1, 1, 1, 0], [0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 0, 1],
         [1, 0, 1, 0, 1, 1], [0, 1, 1, 0, 1, 1], [1, 1, 1, 1, 0, 1]]


def _edge_sets(rows):
    return [frozenset(e for e, x in enumerate(row) if x) for row in rows]


def _counting_rank(monkeypatch):
    """Per exact ``Echelon`` behind terms_independent, the rows added to it."""
    calls = []

    class Counted(Echelon):
        def __init__(self, width):
            super().__init__(width)
            calls.append(0)

        def add(self, row):
            calls[-1] += 1
            return super().add(row)

    monkeypatch.setattr(cover, "Echelon", Counted)
    return calls


def test_terms_independent_certifies_mod_3_without_the_exact_rank(monkeypatch):
    # 110, 011 and 101 have determinant 2: GF(2) rejects them, GF(3) certifies
    calls = _counting_rank(monkeypatch)
    assert terms_independent(corpus.k4(), _edge_sets([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    g = corpus.petersen()
    # the six Petersen matchings sum to twice the all-ones vector: mod 3 again
    assert terms_independent(g, enumerate_pms(g))
    assert calls == []


def test_terms_independent_falls_back_to_the_exact_rank(monkeypatch):
    calls = _counting_rank(monkeypatch)
    assert terms_independent(corpus.k4(), _edge_sets(DET_6))
    assert calls == [6]


def test_terms_independent_reads_zero_and_repeated_rows_as_dependent(monkeypatch):
    calls = _counting_rank(monkeypatch)
    g = corpus.k4()
    pms = enumerate_pms(g)
    assert not terms_independent(g, pms + [frozenset()])
    assert not terms_independent(g, [frozenset()])
    assert not terms_independent(g, [pms[1], pms[0], pms[1]])
    assert calls == [4, 1, 3]
    assert terms_independent(g, [])
