from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmcover.linalg import Echelon, hnf, hnf_solve, rank
from pmcover.matchings import incidence_rows

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
    assert rank(incidence_rows(g, oracles.all_pms(g))) == expected


def test_integer_det():
    # the oracle behind the unimodularity check in the HNF property below
    assert oracles.integer_det([[2, 0], [0, 3]]) == 6
    assert oracles.integer_det([[0, 1], [1, 0]]) == -1
    assert oracles.integer_det([[1, 2], [2, 4]]) == 0
    assert oracles.integer_det([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4


def test_hnf_solve_examples():
    assert hnf_solve([[2]], [3]) is None
    x = hnf_solve([[2, 3]], [1])
    assert x is not None and 2 * x[0] + 3 * x[1] == 1
    x = hnf_solve([[2, 0], [0, 3]], [4, 9])
    assert x == [2, 3]
    assert hnf_solve([[2, 4]], [3]) is None


int_matrix = st.integers(-6, 6)


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    return [[draw(int_matrix) for _ in range(cols)] for _ in range(rows)]


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


@given(dependent_matrix(), st.data())
@settings(max_examples=300, deadline=None)
def test_echelon_tracks_the_rank_and_the_span(matrix, data):
    width = len(matrix[0])
    echelon = Echelon(width)
    for k, row in enumerate(matrix):
        rose = oracles.fraction_rank(matrix[: k + 1]) > oracles.fraction_rank(matrix[:k])
        assert echelon.add(row) is rose
        assert len(echelon) == oracles.fraction_rank(matrix[: k + 1])
        vector = data.draw(
            st.one_of(
                st.lists(int_matrix, min_size=width, max_size=width),
                st.sampled_from(matrix).map(lambda r: [3 * x for x in r]),
            )
        )
        in_span = oracles.fraction_rank(matrix[: k + 1] + [vector]) == len(echelon)
        assert (vector in echelon) is in_span
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


@given(dependent_matrix(), st.data())
@settings(max_examples=200, deadline=None)
def test_echelon_gate_is_sound_for_the_lattice_solve(matrix, data):
    # a lattice lies inside its rational span, so a vector the echelon of the
    # columns does not span has no integer solution either
    echelon = Echelon(len(matrix))
    for column in zip(*matrix):
        echelon.add(column)
    b = data.draw(
        st.one_of(
            st.just([1] * len(matrix)),
            st.lists(int_matrix, min_size=len(matrix), max_size=len(matrix)),
        )
    )
    if b not in echelon:
        assert hnf_solve(matrix, b) is None


@given(small_matrix())
@settings(max_examples=200, deadline=None)
def test_hnf_factorization_property(matrix):
    h, u = hnf(matrix)
    rows, cols = len(matrix), len(matrix[0])
    # H = M U entry by entry
    for i in range(rows):
        for j in range(cols):
            assert h[i][j] == sum(matrix[i][k] * u[k][j] for k in range(cols))
    # U unimodular
    assert oracles.integer_det(u) in (1, -1)


@given(small_matrix())
@settings(max_examples=200, deadline=None)
@example([[1, 1, 1]])
@example([[1, 0], [0, 1]])
def test_integer_kernel_property(matrix):
    # The integer kernel of M is read off its HNF: H has cols - rank zero
    # columns, and the matching columns of U lie in the kernel of M.
    h, u = hnf(matrix)
    rows, cols = len(matrix), len(matrix[0])
    zero = [j for j in range(cols) if all(h[i][j] == 0 for i in range(rows))]
    assert len(zero) == cols - rank(matrix)
    for j in zero:
        for i in range(rows):
            assert sum(matrix[i][k] * u[k][j] for k in range(cols)) == 0


@given(small_matrix(), st.data())
@settings(max_examples=200, deadline=None)
def test_hnf_solve_round_trip(matrix, data):
    cols = len(matrix[0])
    x = [data.draw(int_matrix) for _ in range(cols)]
    b = [sum(row[k] * x[k] for k in range(cols)) for row in matrix]
    y = hnf_solve(matrix, b)
    assert y is not None
    for row, target in zip(matrix, b):
        assert sum(row[k] * y[k] for k in range(cols)) == target


@given(small_matrix())
@settings(max_examples=100, deadline=None)
def test_rational_solve_consistency_with_hnf(matrix):
    # M x = 1 is solvable over Q exactly when appending the all-ones column
    # leaves the rank unchanged; an integer solution is a rational one
    integral = hnf_solve(matrix, [1] * len(matrix))
    rational = oracles.fraction_rank(matrix) == oracles.fraction_rank(
        [row + [1] for row in matrix]
    )
    if not rational:
        assert integral is None
    if integral is not None:
        assert rational
