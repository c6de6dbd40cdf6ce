"""Exact integer-lattice arithmetic over Python ints.

The relation rows r_v = e_v - A_v of a graph's regular vertices span a
lattice L in Z^n, and the Grothendieck group of its Leavitt path algebra
is K0 = Z^n / L (Ara-Moreno-Pardo, Nonstable K-theory for graph algebras,
2007).  The class of the algebra is the image of the all-ones vector, so
its order in K0 decides IBN: the algebra fails IBN exactly when that
order is finite.

Everything here is integer row reduction with the row combinations
tracked, so every answer comes with the integer relation that proves it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def echelon_basis(
    rows: Sequence[Sequence[int]],
) -> list[tuple[int, list[int], list[int]]]:
    """An echelon Z-basis of the lattice spanned by integer rows.

    Returns (pivot column, basis vector, combination) triples in pivot
    order, where the combination t gives the vector as sum_i t_i * rows_i.
    Vectors are zero left of their pivot and at every earlier pivot.  Only
    unimodular row operations are used (Euclid on each pivot column), so
    the vectors span exactly the lattice of the rows and, being in echelon
    form, are independent.
    """
    count = len(rows)
    pool = [
        ([int(a) for a in row], [int(i == j) for j in range(count)])
        for i, row in enumerate(rows)
        if any(row)
    ]
    width = len(rows[0]) if rows else 0
    basis = []
    for col in range(width):
        live = [p for p in pool if p[0][col]]
        pool = [p for p in pool if not p[0][col]]
        while len(live) > 1:
            live.sort(key=lambda p: abs(p[0][col]))
            head_vec, head_comb = live[0]
            keep = [live[0]]
            for vec, comb in live[1:]:
                q = vec[col] // head_vec[col]
                vec = [a - q * b for a, b in zip(vec, head_vec)]
                comb = [a - q * b for a, b in zip(comb, head_comb)]
                if vec[col]:
                    keep.append((vec, comb))
                elif any(vec):
                    pool.append((vec, comb))
            live = keep
        if live:
            basis.append((col, *live[0]))
    return basis


def torsion_order(
    rows: Sequence[Sequence[int]], y: Sequence[int]
) -> tuple[int, tuple[int, ...]] | None:
    """The order k of y modulo the lattice of the rows, with its relation.

    Returns (k, lam) with k >= 1 least such that k * y lies in the lattice
    and k * y == sum_i lam_i * rows_i exactly, or None when no multiple of
    y does (y outside the rational span of the rows).

    y is written in the echelon basis with rational coefficients c_j; as
    the basis is a Z-basis, k * y is in the lattice exactly when every
    k * c_j is an integer, so k is the lcm of their denominators.
    """
    rest = [Fraction(int(a)) for a in y]
    coefficients = []
    basis = echelon_basis(rows)
    for col, vec, _ in basis:
        c = rest[col] / vec[col]
        if c:
            rest = [r - c * a for r, a in zip(rest, vec)]
        coefficients.append(c)
    if any(rest):
        return None
    k = lcm(1, *(c.denominator for c in coefficients))
    lam = [0] * len(rows)
    for c, (_, _, comb) in zip(coefficients, basis):
        scaled = int(c * k)
        if scaled:
            lam = [a + scaled * t for a, t in zip(lam, comb)]
    return k, tuple(lam)
