from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmcover import solve_r_graph
from pmcover.linalg import Basis, Echelon, ModEchelon, rank
from pmcover.matchings import incidence_mask, incidence_row

import corpus
import oracles


def test_rank_basic():
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0


def test_rank_rejects_non_integer_entries():
    with pytest.raises(TypeError):
        rank([[Fraction(1, 2)]])
    with pytest.raises(ValueError, match="ragged"):
        rank([[1, 0], [1]])


@pytest.mark.parametrize(
    "name, expected",
    [("k4", 6 - 4 + 1), ("petersen", 15 - 10 + 1), ("k33", 9 - 6 + 2)],
)
def test_rank_of_all_perfect_matchings(name, expected):
    # dim lin(PM) is m - n + 1 for a brick and m - n + 2 for a brace
    # (Edmonds, Lovasz and Pulleyblank)
    g = getattr(corpus, name)()
    assert rank([incidence_row(g, pm) for pm in oracles.all_pms(g)]) == expected


int_matrix = st.integers(-6, 6)


@st.composite
def dependent_matrix(draw):
    """Integer or 0/1 matrices with repeated columns, integer combinations of
    earlier columns, zero columns and zero rows."""
    entry = st.integers(*draw(st.sampled_from([(-6, 6), (-1, 1), (0, 1)])))
    nrows = draw(st.integers(1, 7))
    columns: list[list[int]] = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "fresh", "repeat", "combination", "zero"]))
        if kind == "fresh" or not columns:
            columns.append([draw(entry) for _ in range(nrows)])
        elif kind == "repeat":
            columns.append(list(draw(st.sampled_from(columns))))
        elif kind == "combination":
            a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            s, t = draw(int_matrix), draw(int_matrix)
            columns.append([s * x + t * y for x, y in zip(a, b)])
        else:
            columns.append([0] * nrows)
    order = draw(st.permutations(range(len(columns))))
    rows = [[columns[j][i] for j in order] for i in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * len(columns))
    return rows


@given(dependent_matrix())
@settings(max_examples=300, deadline=None)
@example([[-1, -1, 0, 0], [-1, -1, -1, 0], [-1, 1, -1, 1], [0, -1, -1, -1]])
def test_rank_matches_fraction_elimination(matrix):
    expected = oracles.fraction_rank(matrix)
    assert rank(matrix) == expected
    assert rank([list(col) for col in zip(*matrix)]) == expected


def test_rank_matches_fraction_elimination_on_sign_matrices():
    # Near-square {-1, 0, 1} matrices are mostly of full rank and have many
    # zero multipliers, where an inexact division would first go wrong.
    rng = random.Random(11)
    for _ in range(2000):
        rows, cols = rng.randint(3, 6), rng.randint(3, 6)
        matrix = [[rng.randint(-1, 1) for _ in range(cols)] for _ in range(rows)]
        assert rank(matrix) == oracles.fraction_rank(matrix), matrix


@given(dependent_matrix())
@settings(max_examples=300, deadline=None)
def test_echelon_tracks_the_rank(matrix):
    echelon = Echelon(len(matrix[0]))
    for k, row in enumerate(matrix):
        rose = oracles.fraction_rank(matrix[: k + 1]) > oracles.fraction_rank(matrix[:k])
        assert echelon.add(row) is rose
        assert len(echelon) == oracles.fraction_rank(matrix[: k + 1])
    pivots = [p for p, _ in echelon.rows]
    assert pivots == sorted(set(pivots))
    for p, stored in echelon.rows:
        # each stored row starts at its pivot and is primitive
        assert not any(stored[:p]) and stored[p] != 0
        assert math.gcd(*stored) == 1


def test_echelon_rejects_a_row_of_the_wrong_width():
    echelon = Echelon(2)
    with pytest.raises(ValueError, match="ragged"):
        echelon.add([1, 0, 0])
    with pytest.raises(TypeError):
        echelon.add([Fraction(1, 2), 0])



def _mask(row):
    return sum(1 << j for j, x in enumerate(row) if x)


def _assert_mod_echelon_tracks_the_rank(matrix):
    # over each prime, add reports exactly when the list-based rank mod p
    # rises, and a full rank mod p is a full rank over Q
    for p in (2, 3):
        echelon = ModEchelon(p)
        for k, row in enumerate(matrix):
            rose = oracles.mod_rank(matrix[: k + 1], p) > oracles.mod_rank(matrix[:k], p)
            assert echelon.add(_mask(row)) is rose, (p, k, matrix)
        assert len(echelon) == oracles.mod_rank(matrix, p), (p, matrix)
        if len(echelon) == len(matrix):
            assert rank(matrix) == len(matrix), (p, matrix)


def test_mod_echelon_matches_list_elimination_on_random_0_1_matrices():
    rng = random.Random(23)
    for _ in range(1500):
        rows, cols = rng.randint(1, 7), rng.randint(1, 9)
        density = rng.choice((0.3, 0.5, 0.7))
        matrix = [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)]
        _assert_mod_echelon_tracks_the_rank(matrix)


@pytest.mark.parametrize("name, g", corpus.structured_instances() + corpus.random_instances())
def test_mod_echelon_matches_list_elimination_on_the_corpus_supports(name, g):
    sol, _ = solve_r_graph(g)
    _assert_mod_echelon_tracks_the_rank([incidence_row(g, pm) for pm in sol.matchings])


def test_mod_echelon_certifies_mod_3_what_is_dependent_mod_2():
    # determinant 2: dependent mod 2, independent mod 3 and over Q
    rows = [0b110, 0b011, 0b101]
    for p, expected in ((2, [True, True, False]), (3, [True, True, True])):
        echelon = ModEchelon(p)
        assert [echelon.add(row) for row in rows] == expected
        assert len(echelon) == sum(expected)


def test_mod_echelon_reads_zero_and_repeated_rows_as_dependent():
    for p in (2, 3):
        echelon = ModEchelon(p)
        assert not echelon.add(0)
        assert echelon.add(0b1011)
        assert not echelon.add(0b1011)
        assert not echelon.add(0)
        assert len(echelon) == 1
    with pytest.raises(ValueError, match="GF"):
        ModEchelon(5)


def test_incidence_mask_is_the_incidence_row_in_bits():
    g = corpus.prism()
    for pm in oracles.all_pms(g):
        assert incidence_mask(pm) == _mask(incidence_row(g, pm))
    assert incidence_mask(frozenset()) == 0

def test_coordinates_examples():
    assert Basis([[2, 0], [0, 3]]).coordinates([1, 1]) == ([3, 2], 6)
    assert Basis([[1, 1, 0], [0, 1, 1]]).coordinates([1, 2, 1]) == ([1, 1], 1)
    assert Basis([[1, 1, 0], [0, 1, 1]]).coordinates([1, 0, 0]) is None
    assert Basis([[-2, 4]]).coordinates([1, -2]) == ([-1], 2)
    assert Basis([]).coordinates([0, 0]) == ([], 1)
    assert Basis([]).coordinates([0, 1]) is None


def test_coordinates_reject_ragged_and_dependent_rows():
    for rows, target in (([[1, 0], [1]], [1, 0]), ([[1, 0]], [1, 0, 0])):
        with pytest.raises(ValueError, match="ragged"):
            Basis(rows).coordinates(target)
        with pytest.raises(ValueError, match="ragged"):
            oracles.fraction_coordinates(rows, target)
    for rows in ([[1, 2], [2, 4]], [[0, 0]], [[1, 0], [0, 1], [1, 1]]):
        with pytest.raises(ValueError, match="dependent"):
            Basis(rows)
        with pytest.raises(ValueError, match="dependent"):
            oracles.fraction_coordinates(rows, [1, 1])


def _independent_rows(matrix):
    """The matrix's rows, each kept when it raises the oracle's rank."""
    kept: list[list[int]] = []
    for row in matrix:
        if oracles.fraction_rank(kept + [row]) > len(kept):
            kept.append(row)
    return kept


def _targets(rows, width):
    """Integer combinations of the rows, or free vectors (mostly outside their span)."""
    return st.one_of(
        st.lists(int_matrix, min_size=len(rows), max_size=len(rows)).map(
            lambda c: [sum(x * row[j] for x, row in zip(c, rows)) for j in range(width)]
        ),
        st.lists(int_matrix, min_size=width, max_size=width),
    )


@given(dependent_matrix(), st.integers(1, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_coordinates_match_fraction_elimination(matrix, scale, data):
    # the independent rows multiplied by the scale, against a target drawn
    # from the unscaled rows (coordinates over the scale); the full matrix
    # is rejected when it is dependent
    kept = _independent_rows(matrix)
    rows = [[scale * x for x in row] for row in kept]
    target = data.draw(_targets(kept, len(matrix[0])))
    expected = oracles.fraction_coordinates(rows, target)
    assert Basis(rows).coordinates(target) == expected
    if expected is not None:
        num, den = expected
        assert den > 0 and math.gcd(den, *num) == 1
    if len(kept) < len(matrix):
        with pytest.raises(ValueError, match="dependent"):
            Basis(matrix)


@given(dependent_matrix(), st.data())
@settings(max_examples=150, deadline=None)
def test_one_basis_answers_many_targets(matrix, data):
    # one Basis, queried in turn, answers each target as a fresh Gauss-Jordan
    # elimination does: a query leaves nothing behind for the next one
    rows = _independent_rows(matrix)
    basis = Basis(rows)
    for target in data.draw(st.lists(_targets(rows, len(matrix[0])), min_size=2, max_size=6)):
        assert basis.coordinates(target) == oracles.fraction_coordinates(rows, target)
