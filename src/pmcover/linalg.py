"""Exact linear algebra over the integers.

Everything here works in Python ints, like the rest of the package, whose
cover coefficients are doubled ints; no rational or float type appears.
Matrices are dense; the package operates at desk scale where dense exact
elimination is the simple, predictable choice.

* ``Echelon`` is the one elimination routine: an echelon of primitive
  integer rows, grown one row at a time.  ``add`` reports whether a row
  raised the rank, and ``vector in echelon`` whether a vector lies in the
  rational span of the rows added so far.  ``rank`` counts its pivots and is
  used by every linear independence check.
* The integer lattice side is a column-style Hermite normal form with the
  unimodular transform recorded, which answers "is b an integer combination
  of these columns".  Pivot choice is deterministic: smallest nonzero
  absolute value, then lowest column index.  A lattice lies inside its
  rational span, so a vector outside the span of an ``Echelon`` is outside
  the lattice too.
"""

from __future__ import annotations

from bisect import insort
from math import gcd
from operator import index
from typing import Optional, Sequence


class Echelon:
    """Row echelon form over the integers, with every stored row primitive.

    ``rows`` holds the stored rows as (pivot, row) pairs in pivot order, and
    each row is zero left of its pivot.  A new row is reduced against them in
    that order: at pivot p it becomes a * row - f * stored, with a and f the
    stored pivot and the row's entry at p over their gcd, and is then divided
    by the gcd of its entries.  A nonzero entry left of the next pivot, or
    past the last one, is one no stored row can cancel, so the row is
    independent and is stored with that entry as its pivot.

    Reduced against the rows on pivots p_1 < ... < p_k, a row is, up to
    scale, the one combination of itself and the input rows behind them that
    vanishes on p_1 ... p_k, so by Cramer's rule its entry in column j is the
    (k+1)-minor of those input rows on p_1 ... p_k and j.  Divided by their
    gcd, every reduced entry is such a minor over the gcd of the minors, and
    the entries stay polynomially bounded (Hadamard), as with Bareiss.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self.rows: list[tuple[int, list[int]]] = []

    def __len__(self) -> int:
        """The rank of the rows added so far."""
        return len(self.rows)

    def _reduce(self, row: Sequence[int]) -> Optional[tuple[int, list[int]]]:
        """The pivot and primitive remainder of an independent row, else None."""
        v = [index(x) for x in row]
        if len(v) != self.width:
            raise ValueError("ragged rows: all rows must have the same length")
        start = 0
        for p, stored in self.rows:
            if any(v[start:p]):
                break
            f = v[p]
            if f:
                a = stored[p]
                g = gcd(a, f)
                a, f = a // g, f // g
                tail = [a * x - f * y for x, y in zip(v[p:], stored[p:])]
                g = gcd(*tail)
                v[p:] = [x // g for x in tail] if g > 1 else tail
            start = p + 1
        lead = next((j for j in range(start, self.width) if v[j]), None)
        if lead is None:
            return None
        g = gcd(*v)
        return lead, [x // g for x in v] if g > 1 else v

    def add(self, row: Sequence[int]) -> bool:
        """Store the reduced row if it is independent; whether the rank rose."""
        reduced = self._reduce(row)
        if reduced is None:
            return False
        insort(self.rows, reduced, key=lambda item: item[0])
        return True

    def __contains__(self, vector: Sequence[int]) -> bool:
        """Whether the vector lies in the rational span of the stored rows."""
        return self._reduce(vector) is None


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix: the pivots of its rows' ``Echelon``.

    Rows are reduced one at a time against an echelon of primitive rows, whose
    entries are minors of the input divided by their gcd (see ``Echelon``).
    """
    ncols = len(matrix[0]) if matrix else 0
    if any(len(row) != ncols for row in matrix):
        raise ValueError("ragged rows: all rows must have the same length")
    if len(matrix) > ncols:
        # rank(M) = rank(M^T), and few long rows keep the per-row loop short
        matrix = list(zip(*matrix))
        ncols = len(matrix[0]) if matrix else 0
    echelon = Echelon(ncols)
    for row in matrix:
        echelon.add(row)
    return len(echelon)


def hnf(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Column-style Hermite normal form: H = M U with U unimodular.

    H is a lower staircase: pivot columns come first, each pivot positive,
    entries left of a pivot in its row reduced to [0, pivot), and all columns
    after the last pivot identically zero (their U columns span the integer
    kernel of M).
    """
    h = [[int(x) for x in row] for row in matrix]
    nrows = len(h)
    ncols = len(h[0]) if nrows else 0
    if any(len(row) != ncols for row in h):
        raise ValueError("ragged rows: all rows must have the same length")
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_cols(a: int, b: int) -> None:
        if a == b:
            return
        for row in h:
            row[a], row[b] = row[b], row[a]
        for row in u:
            row[a], row[b] = row[b], row[a]

    def add_col(dst: int, src: int, factor: int) -> None:
        for row in h:
            row[dst] += factor * row[src]
        for row in u:
            row[dst] += factor * row[src]

    def negate_col(c: int) -> None:
        for row in h:
            row[c] = -row[c]
        for row in u:
            row[c] = -row[c]

    col = 0
    for row_i in range(nrows):
        if col == ncols:
            break
        while True:
            active = [j for j in range(col, ncols) if h[row_i][j] != 0]
            if not active:
                break
            best = min(active, key=lambda j: (abs(h[row_i][j]), j))
            swap_cols(col, best)
            done = True
            for j in range(col + 1, ncols):
                if h[row_i][j] != 0:
                    q = h[row_i][j] // h[row_i][col]
                    add_col(j, col, -q)
                    if h[row_i][j] != 0:
                        done = False
            if done:
                break
        if col < ncols and h[row_i][col] != 0:
            if h[row_i][col] < 0:
                negate_col(col)
            for j in range(col):
                q = h[row_i][j] // h[row_i][col]
                if q:
                    add_col(j, col, -q)
            col += 1
    return h, u


def hnf_solve(matrix: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[list[int]]:
    """An integer solution x of M x = b, or None if b is outside the lattice.

    Forward substitution over the staircase of the HNF, mapped back through
    the unimodular transform.  The result is verified exactly before return.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if len(b) != nrows:
        raise ValueError(f"dimension mismatch: {nrows} rows, {len(b)} rhs entries")
    h, u = hnf(matrix)
    y = [0] * ncols
    next_pivot = 0
    for i in range(nrows):
        acc = sum(h[i][j] * y[j] for j in range(next_pivot))
        residual = b[i] - acc
        if next_pivot < ncols and h[i][next_pivot] != 0:
            q, rem = divmod(residual, h[i][next_pivot])
            if rem != 0:
                return None
            y[next_pivot] = q
            next_pivot += 1
        elif residual != 0:
            return None
    x = [sum(u[i][j] * y[j] for j in range(ncols)) for i in range(ncols)]
    for i in range(nrows):
        if sum(matrix[i][j] * x[j] for j in range(ncols)) != b[i]:
            raise AssertionError("hnf_solve produced an inexact solution")
    return x
