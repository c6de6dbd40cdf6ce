"""Exact integer-lattice arithmetic over Python ints.

The relation rows r_v = e_v - A_v of a graph's regular vertices span a
lattice L in Z^n, and the Grothendieck group of its Leavitt path algebra
is K0 = Z^n / L (Ara-Moreno-Pardo, Nonstable K-theory for graph algebras,
2007).  The class of the algebra is the image of the all-ones vector, so
its order in K0 decides IBN: the algebra fails IBN exactly when that
order is finite.

Everything here is integer row reduction; torsion_order appends an
identity block to its rows, so its answer carries the relation proving
it and, from the same echelon, the rows' integer kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def echelon_basis(rows: Sequence[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """An echelon Z-basis of the lattice spanned by integer rows.

    Returns (pivot column, basis vector) pairs in pivot order.  Vectors are
    zero left of their pivot and at every earlier pivot.  Only unimodular
    row operations are used (Euclid on each pivot column), so the vectors
    span exactly the lattice of the rows and, being in echelon form, are
    independent.
    """
    pool = [[int(a) for a in row] for row in rows if any(row)]
    width = len(rows[0]) if rows else 0
    basis = []
    for col in range(width):
        live = [vec for vec in pool if vec[col]]
        pool = [vec for vec in pool if not vec[col]]
        while len(live) > 1:
            live.sort(key=lambda vec: abs(vec[col]))
            head = live[0]
            keep = [head]
            for vec in live[1:]:
                q = vec[col] // head[col]
                vec = [a - q * b for a, b in zip(vec, head)]
                if vec[col]:
                    keep.append(vec)
                elif any(vec):
                    pool.append(vec)
            live = keep
        if live:
            basis.append((col, live[0]))
    return basis


def _coordinates(
    basis: list[tuple[int, list[int]]], y: Sequence[int]
) -> tuple[list[Fraction], list[Fraction]]:
    """y = sum_j c_j * basis_j + rest, with rest zero at every pivot.

    Returns the rational coefficients c_j and the remainder; y lies in the
    rational span of the basis exactly when the remainder is zero.  Basis
    vectors longer than y are read at their first len(y) entries only.
    """
    rest = [Fraction(int(a)) for a in y]
    coefficients = []
    for col, vec in basis:
        c = rest[col] / vec[col]
        if c:
            rest = [r - c * a for r, a in zip(rest, vec)]
        coefficients.append(c)
    return coefficients, rest


def torsion_order(
    rows: Sequence[Sequence[int]], y: Sequence[int]
) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]] | None:
    """The order k of y modulo the lattice of the rows, with its relation
    and the rows' integer kernel.

    Returns (k, lam, kernel), or None when y is outside the rational span
    of the rows.  k >= 1 is least with k * y == sum_i lam_i * rows_i
    exactly, and kernel is a Z-basis of {mu : sum_i mu_i * rows_i == 0},
    empty exactly when the rows have full rank.

    The echelon of [rows | I] carries each basis vector's combination of
    the rows in its identity part.  The entries pivoting inside the
    identity block have a zero row part, and their identity parts are the
    kernel.  y has rational coefficients c_j in the other entries, a
    Z-basis of the lattice, so k * y is in it exactly when every k * c_j
    is an integer: k is the lcm of their denominators.
    """
    n, count = len(y), len(rows)
    augmented = [
        [*row, *(int(i == j) for j in range(count))] for i, row in enumerate(rows)
    ]
    echelon = echelon_basis(augmented)
    basis = [(col, vec) for col, vec in echelon if col < n]
    kernel = tuple(tuple(vec[n:]) for col, vec in echelon if col >= n)
    coefficients, rest = _coordinates(basis, y)
    if any(rest):
        return None
    k = lcm(1, *(c.denominator for c in coefficients))
    lam = [0] * len(rows)
    for c, (_, vec) in zip(coefficients, basis):
        scaled = int(c * k)
        if scaled:
            lam = [a + scaled * t for a, t in zip(lam, vec[n:])]
    return k, tuple(lam), kernel


def separating_functional(
    rows: Sequence[Sequence[int]], y: Sequence[int]
) -> tuple[tuple[int, ...], int] | None:
    """An integer functional that vanishes on the lattice of the rows but
    not on y, or None exactly when y lies in that lattice.

    Returns (w, d): w . r == 0 (mod d) for every row r and w . y != 0
    (mod d), where modulus d == 0 means exact equality.  d is 0 when y is
    outside the rational span of the rows; otherwise d >= 2 and every
    entry of w is reduced into [0, d).

    With y = sum_j c_j * b_j + rest in the echelon basis b_j, a rational u
    is fixed by its values off the pivot columns and by the values u . b_j,
    through a triangular solve on the pivot columns.  If rest has a nonzero
    entry at a free column q, u is 1 at q, 0 at the other free columns and
    0 on every b_j, so u . y = rest_q.  Otherwise some c_j is not an
    integer; u is 0 at the free columns, 1 on b_j and 0 on the others, so
    u . y = c_j.  w is u cleared of denominators, and d their lcm in the
    second case.
    """
    basis = echelon_basis(rows)
    coefficients, rest = _coordinates(basis, y)
    u = [Fraction(0)] * len(rest)
    free = next((q for q, r in enumerate(rest) if r), None)
    if free is not None:
        u[free] = Fraction(1)
        target = [0] * len(basis)
    else:
        j = next((j for j, c in enumerate(coefficients) if c.denominator > 1), None)
        if j is None:
            return None
        target = [int(i == j) for i in range(len(basis))]
    # b_j is zero at every earlier pivot, so u . b_j involves u only at
    # b_j's own pivot and later ones: solve from the last pivot back.
    for (col, vec), t in reversed(list(zip(basis, target))):
        u[col] = (t - sum(a * b for a, b in zip(u, vec))) / vec[col]
    scale = lcm(1, *(c.denominator for c in u))
    w = [int(c * scale) for c in u]
    if free is not None:
        return tuple(w), 0
    return tuple(a % scale for a in w), scale
