"""Exact linear algebra over the integers.

Everything here works in Python ints, like the rest of the package, whose
cover coefficients are doubled ints; no rational or float type appears.
Matrices are dense; the package operates at desk scale where dense exact
elimination is the simple, predictable choice.

* ``rank`` takes integer rows and eliminates fraction-free (Bareiss); it is
  the one rank routine, used by every linear independence check.
* The integer lattice side is a column-style Hermite normal form with the
  unimodular transform recorded, which answers "is b an integer combination
  of these columns".  Pivot choice is deterministic: smallest nonzero
  absolute value, then lowest column index.
"""

from __future__ import annotations

from operator import index
from typing import Optional, Sequence


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free (Bareiss) elimination.

    After k pivots, each entry below the pivot rows equals the (k+1)-minor of
    the input on the pivot rows and columns plus that entry's own row and
    column, up to sign; Sylvester's identity then makes every division by the
    previous pivot exact.  A column with no nonzero entry at or below the
    next pivot row is skipped and the divisor kept, since it contributes no
    row or column to those minors.
    """
    ncols = len(matrix[0]) if matrix else 0
    if any(len(row) != ncols for row in matrix):
        raise ValueError("ragged rows: all rows must have the same length")
    if len(matrix) > ncols:
        # rank(M) = rank(M^T), and few long rows keep the per-row loop short
        matrix = list(zip(*matrix))
        ncols = len(matrix[0]) if matrix else 0
    a = [[index(x) for x in row] for row in matrix]
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pivot = a[r][c]
        tail = a[r][c + 1:]
        for i in range(r + 1, len(a)):
            row = a[i]
            f = row[c]
            row[c + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
        prev = pivot
        r += 1
        if r == len(a):
            break
    return r


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
