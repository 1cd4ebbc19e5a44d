"""Exact linear algebra over the integers, and independence mod 2 and 3.

Everything here works in Python ints, like the rest of the package, whose
cover coefficients are doubled ints; no rational or float type appears.
Matrices are dense; the package operates at desk scale where dense exact
elimination is the simple, predictable choice.

``Echelon`` is the one exact elimination routine: an echelon of primitive
integer rows, grown one row at a time.

* ``add`` reports whether a row raised the rank, and ``len`` is the rank;
  it decides every independence check that ``ModEchelon`` cannot certify.
* ``Basis`` eliminates independent rows once, each carrying a unit tail,
  and its ``coordinates`` writes a vector in them as integer numerators
  over one positive denominator, read off the vector's remainder.  The
  lattice question "is b an integer combination of independent rows" is
  then "is the denominator 1".

``ModEchelon`` is an echelon over GF(2) or GF(3) of 0/1 rows packed into
the bits of an int, so a row operation costs a few int operations, not one
Python operation per entry.  It certifies independence over Q: k integer
rows independent mod p have a k x k minor that is nonzero mod p, so
nonzero.  The converse fails (110, 011 and 101 have determinant 2), so
"dependent mod p" decides nothing, and an exact ``Echelon`` has to follow it.
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


class ModEchelon:
    """Row echelon form over GF(p), p = 2 or 3, of 0/1 rows packed in ints.

    A row is a nonnegative int with bit e set where its entry is 1.  Over
    GF(3) a row is held as two bit planes, the entries equal to 1 and those
    equal to 2 = -1; over GF(2) the second plane stays 0.  Stored rows are
    keyed by the bit length of their leading entry, which is scaled to 1, so
    subtracting the stored row with a row's leading bit cancels that entry:
    one XOR over GF(2), a few ``&``, ``|`` and ``~`` over GF(3).  Each step
    lowers the leading bit, and a row that reduces to zero, as a zero row
    does, is dependent.
    """

    def __init__(self, p: int) -> None:
        if p not in (2, 3):
            raise ValueError("ModEchelon works over GF(2) or GF(3)")
        self.p = p
        self._rows: dict[int, tuple[int, int]] = {}

    def __len__(self) -> int:
        """The rank mod p of the rows added so far."""
        return len(self._rows)

    def add(self, row: int) -> bool:
        """Store the reduced row if it is independent mod p; whether the rank rose."""
        ones, twos = row, 0
        while ones | twos:
            lead = (ones | twos).bit_length()
            if twos >> (lead - 1):
                ones, twos = twos, ones  # times -1: the leading entry becomes 1
            stored = self._rows.get(lead)
            if stored is None:
                self._rows[lead] = ones, twos
                return True
            s1, s2 = stored
            if self.p == 2:
                ones ^= s1
            else:  # (ones, twos) - stored, entry by entry mod 3
                zero, stored_zero = ~(ones | twos), ~(s1 | s2)
                ones, twos = (
                    ones & stored_zero | s2 & zero | twos & s1,
                    twos & stored_zero | s1 & zero | ones & s2,
                )
        return False


class Basis:
    """Independent integer rows, eliminated once, that write targets in them.

    Row i enters one ``Echelon`` extended by the i-th unit vector and a 0, so
    each stored row carries in its tail the combination of input rows it is;
    ragged or dependent rows raise ValueError.  ``coordinates`` then costs one
    reduction and an exactness check, so one basis answers many targets.
    """

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        self.rows = [list(row) for row in rows]
        k = len(self.rows)
        width = len(self.rows[0]) if self.rows else 0
        self._echelon = Echelon(width + k + 1)  # its width rejects ragged rows
        for i, row in enumerate(self.rows):
            self._echelon.add([*row, *(1 if j == i else 0 for j in range(k)), 0])
        if any(p >= width for p, _ in self._echelon.rows):
            raise ValueError("dependent rows: a basis needs independent rows")

    def coordinates(self, target: Sequence[int]) -> Optional[tuple[list[int], int]]:
        """The target in the rows: numerators and a positive common denominator.

        Returns (num, den) with sum_i num_i * rows_i = den * target and
        gcd(num, den) = 1, or None when the target is outside the rows'
        rational span; a target of another width raises ValueError.
        Reducing (target, 0...0, 1) leaves l * target + sum_i u_i * rows_i on
        the first columns, u in the tail and l last.  That part vanishes
        exactly when the target is in the span, and then
        target = sum_i (-u_i / l) rows_i; the remainder is primitive, so the
        fraction is in lowest terms.  The answer is checked exactly before it
        is returned.
        """
        width, k = len(target), len(self.rows)
        if k and width != len(self.rows[0]):
            raise ValueError("ragged rows: all rows must have the same length as the target")
        # no rows span only the zero vector, of whatever width the target has
        echelon = self._echelon if k else Echelon(width + 1)
        # no stored row reaches the last column, so the remainder is never zero
        pivot, remainder = echelon._reduce([*target, *(0 for _ in range(k)), 1])
        if pivot < width:
            return None
        *tail, last = remainder[width:]
        sign = 1 if last > 0 else -1
        num, den = [-sign * u for u in tail], sign * last
        for col in range(width):
            if sum(n * row[col] for n, row in zip(num, self.rows)) != den * target[col]:
                raise AssertionError("coordinates produced an inexact combination")
        return num, den
