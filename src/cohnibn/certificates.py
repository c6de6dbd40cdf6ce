"""Exact-rational weight certificates for the IBN property.

A weight certificate assigns one rational weight per monoid generator so
that the weights sum to 1 and every rewrite rule preserves the induced
linear functional Gamma(z) = sum z_l * w_l.  Gamma is then constant on
equivalence classes, and Gamma(m * rho) = m for the all-ones vector rho,
which separates distinct multiples of rho and so certifies IBN.

The weight system is {sum w = 1, R . w = 0} over the relation rows R,
one row e_g - add per rule.  It has a solution exactly when rho lies
outside the rational span of R, and that question is answered by the same
integer echelon that computes the order of [1] in K0
(``lattice.separating_functional``).  The answer is the unique solution
that vanishes off the pivot columns of the stacked matrix [rho; R]:

- A column of a matrix is a pivot exactly when it is not in the span of
  the columns to its left.  That does not depend on row order, so any
  elimination that sets free variables to zero picks this same solution.
- Those pivots are R's pivots plus the first column q at which rho,
  reduced by R's echelon basis, keeps a nonzero remainder: up to column
  q the prefix of rho lies in the row span of R's prefix, and from q on
  it does not.  q is the free column ``separating_functional`` sets to 1,
  and it sets the other free columns to 0.

For a Cohn algebra the system is always solvable: on the companion graph
the sum row and the t relation rows have rank t+1, as subtracting each
regular vertex's column from that of its fresh sink leaves t unit columns.

There is no floating point in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import LengthMismatchError
from .lattice import separating_functional

if TYPE_CHECKING:
    from .rewriting import RewriteSystem


@dataclass(frozen=True)
class WeightCertificate:
    weights: tuple[Fraction, ...]
    generators: tuple[str, ...]


def solve_exact(rs: "RewriteSystem") -> WeightCertificate | None:
    """The weight certificate of a rewrite system, or None if none exists.

    ``separating_functional`` on the relation rows and rho returns (w, 0)
    exactly when rho is outside their rational span; w then vanishes on
    every row, and w / (w . rho) is the certificate.  A system with no
    rules gets weight 1 on its first generator.
    """
    found = separating_functional(rs.relation_rows(), (1,) * rs.num_generators)
    if found is None or found[1]:
        return None
    w = found[0]
    total = sum(w)
    return WeightCertificate(
        weights=tuple(Fraction(a, total) for a in w),
        generators=tuple(rs.generators),
    )


def gamma(cert: WeightCertificate, elem: Sequence[int]) -> Fraction:
    """The certificate's linear functional: sum of coefficient * weight."""
    if len(elem) != len(cert.weights):
        raise LengthMismatchError(
            f"element has length {len(elem)}, certificate has "
            f"{len(cert.weights)} weights"
        )
    total = Fraction(0)
    for c, w in zip(elem, cert.weights):
        if c:
            total += int(c) * w
    return total


def verify_certificate(cert: WeightCertificate, rs: "RewriteSystem") -> bool:
    """Check the two certificate conditions against a rewrite system.

    True iff the weights sum to 1 and, for every rule, the weight of the
    rewritten generator equals Gamma of its replacement.  Together these
    make Gamma invariant under every rewrite step.  A certificate with
    other generators, or another number of weights, is rejected.
    """
    if cert.generators != tuple(rs.generators):
        return False
    if len(cert.weights) != len(cert.generators):
        return False
    if sum(cert.weights, Fraction(0)) != 1:
        return False
    for gen, replacement in rs.rules():
        if cert.weights[gen] != gamma(cert, replacement):
            return False
    return True


def serialize_weights(cert: WeightCertificate) -> tuple[str, ...]:
    """Weights as exact fraction strings ('2', '-1', '5/3'), generator order."""
    return tuple(str(w) for w in cert.weights)


def parse_weights(
    strings: Sequence[str], generators: Sequence[str]
) -> WeightCertificate:
    """Inverse of serialize_weights; exact round trip."""
    if len(strings) != len(generators):
        raise LengthMismatchError(
            f"{len(strings)} weights for {len(generators)} generators"
        )
    return WeightCertificate(
        weights=tuple(Fraction(s) for s in strings),
        generators=tuple(generators),
    )
