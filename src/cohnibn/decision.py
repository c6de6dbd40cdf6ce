"""IBN/IMN verdicts for Cohn, relative Cohn, and Leavitt path algebras.

Each algebra kind reduces to a single target graph: the full companion
for a Cohn algebra, the relative companion for a relative one, the graph
itself for a Leavitt algebra.  IBN of the algebra is then IBN of the
target's Leavitt path algebra, decided on the target's graph monoid:
a verified weight certificate certifies it; otherwise [1] has finite
order k0 in K0, and the torsion relation builds the least scalar witness
rho ~ (1 + k0)*rho, a replayable refutation.  It is left open only when
that witness breaks max_total_coefficient or max_depth and no other
witness is found within them.
Verdicts always carry their evidence, and audit() re-checks that
evidence from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificates import WeightCertificate, solve_exact, verify_certificate
from .construct import cohn_companion, relative_companion
from .errors import CohnIbnError, InternalInvariantViolation
from .graphs import Graph, validate
from .lattice import torsion_order
from .rewriting import (
    ReductionTrace,
    RewriteSystem,
    ScalarWitness,
    SearchBounds,
    construct_scalar_witness,
    find_scalar_witness,
    incidence,
    scale,
)

KIND_COHN = "cohn"
KIND_RELATIVE = "relative"
KIND_LEAVITT = "leavitt"

IBN_CERTIFIED = "certified"
IBN_REFUTED = "refuted"
IBN_UNKNOWN = "unknown"

IMN_HOLDS = "holds"
IMN_UNKNOWN = "unknown"


@dataclass(frozen=True)
class AlgebraSpec:
    """Which algebra over which graph; x only applies to the relative kind."""

    kind: str
    graph: Graph
    x: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (KIND_COHN, KIND_RELATIVE, KIND_LEAVITT):
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if self.kind != KIND_RELATIVE and self.x:
            raise ValueError(f"x is only meaningful for kind={KIND_RELATIVE!r}")
        object.__setattr__(self, "x", tuple(self.x))


@dataclass(frozen=True)
class Verdict:
    target: Graph
    ibn: str
    imn: str
    certificate: WeightCertificate | None
    witness: ScalarWitness | None
    bounds: SearchBounds
    route: str
    notes: tuple[str, ...]


def resolve_target(spec: AlgebraSpec) -> Graph:
    """The graph whose Leavitt path algebra realizes the requested algebra."""
    graph = validate(spec.graph)
    if spec.kind == KIND_COHN:
        return cohn_companion(graph).graph
    if spec.kind == KIND_RELATIVE:
        return relative_companion(graph, spec.x).graph
    return graph


def decide_ibn(
    spec: AlgebraSpec,
    bounds: SearchBounds | None = None,
) -> Verdict:
    """Decide IBN for the algebra: certificate first, then a witness.

    With no certificate, the order k0 of [1] in K0 is finite, and only
    pairs m < m' with k0 | m' - m can be equivalent.  The witness
    rho ~ (1 + k0)*rho, the least pair, is built from the torsion relation
    without a search.  Where it breaks max_total_coefficient or max_depth
    and the relation rows have full rank, every witness of every pair
    fires the relation at least once, so none fits and the verdict is
    unknown with no search.  Only rank-deficient rows fall back to
    searching the pairs, least first, within the bounds.  An unknown
    verdict's notes name every bound the constructed witness breaks and
    the value it needs.

    The certificate route is complete for the Cohn kind, so failure there
    raises InternalInvariantViolation rather than producing a verdict.

    The imn field reads holds exactly on certified verdicts.  IMN says
    that M_m(R) ~ M_m'(R) as rings forces m = m'.  Through the Morita
    equivalences M_k(R) ~ R, such an isomorphism is an automorphism of
    K0(R) taking m[1] to m'[1].  K0 of the target is Z^vertices modulo the
    relation rows, and a certificate exists exactly when [1] has infinite
    order there.  An automorphism keeps the largest d dividing an
    element's image in the torsion-free quotient, which for m[1] is m
    times that of [1]; so m = m' and IMN holds.  For the Cohn kind, where
    every target is certified, this is the source paper's theorem (arXiv
    1303.2122).  A refutation R^m ~ R^m' refutes IMN too, as its notes
    derive; the field then reads unknown, as for an unknown verdict.
    """
    bounds = bounds or SearchBounds()
    target = resolve_target(spec)
    rs = incidence(target)
    notes: list[str] = [
        f"target graph: {len(target.vertices)} vertices, {len(target.edges)} edges",
        f"presentation: {rs.num_generators} generators, {rs.num_rules} rules",
    ]

    def verdict(ibn, route, certificate=None, witness=None) -> Verdict:
        return Verdict(
            target=target,
            ibn=ibn,
            imn=IMN_HOLDS if ibn == IBN_CERTIFIED else IMN_UNKNOWN,
            certificate=certificate,
            witness=witness,
            bounds=bounds,
            route=route,
            notes=tuple(notes),
        )

    cert = solve_exact(rs)
    if cert is not None:
        if not verify_certificate(cert, rs):
            raise InternalInvariantViolation(
                "solved weight system failed verification"
            )
        notes.append("weight system solved; certificate verified")
        return verdict(IBN_CERTIFIED, "certificate", certificate=cert)

    notes.append("weight system inconsistent; no certificate exists")
    if spec.kind == KIND_COHN:
        raise InternalInvariantViolation(
            "certificate construction failed for a Cohn algebra; this "
            "cannot happen for a correct companion construction"
        )

    rho = (1,) * rs.num_generators
    torsion = torsion_order(rs.relation_rows(), rho)
    if torsion is None:
        raise InternalInvariantViolation(
            "weight system inconsistent, yet [1] has infinite order in K0"
        )
    k0, relation, kernel = torsion
    notes.append(f"order of [1] in K0: k0={k0}")

    built = construct_scalar_witness(rs, k0, relation, bounds)
    witness = built.witness
    if witness is not None:
        route = "witness-construction"
        notes.append(
            f"witness construction: {witness.m}*rho ~ {witness.m_prime}*rho "
            f"from the torsion relation"
        )
    else:
        limits = {
            "max_total_coefficient": ("--max-coeff", bounds.max_total_coefficient),
            "max_depth": ("--max-depth", bounds.max_depth),
        }
        breaks = []
        for name, value in built.needs:
            flag, limit = limits[name]
            breaks.append(
                f"constructed witness breaks {flag}={limit}: "
                f"raise {flag} to {value}"
            )
        # With full-rank rows (an empty kernel), a witness of any pair fires
        # j*lam^- + s and j*lam^+ + s for some j >= 1 and s >= 0, and no
        # firing lowers a total: none is shallower or peaks lower than this.
        if not kernel:
            notes.extend(breaks)
            notes.append(
                "relation rows have full rank, so every witness fires the "
                "torsion relation at least once: no witness of any pair fits "
                "these bounds"
            )
            return verdict(IBN_UNKNOWN, "exhausted")
        witness = find_scalar_witness(rho, rs, bounds, step=k0)
        if witness is None:
            notes.append(
                "witness search: no pair m < m' with k0 | m' - m "
                "joined within bounds"
            )
            notes.extend(breaks)
            return verdict(IBN_UNKNOWN, "exhausted")
        route = "witness-search"
        notes.append(
            f"witness search: {witness.m}*rho ~ {witness.m_prime}*rho "
            f"with common descendant"
        )
    notes.append(
        f"R^{witness.m} ~ R^{witness.m_prime} also refutes IMN: "
        f"M_{witness.m}(R) ~ End(R^{witness.m}) ~ End(R^{witness.m_prime}) "
        f"~ M_{witness.m_prime}(R)"
    )
    return verdict(IBN_REFUTED, route, witness=witness)


def _replay_ok(trace: ReductionTrace, rs: RewriteSystem, expected_end) -> bool:
    try:
        return trace.replay(rs) == tuple(expected_end)
    except ValueError:
        return False


def audit(verdict: Verdict, spec: AlgebraSpec) -> bool:
    """Re-verify a verdict's evidence independently of how it was produced."""
    try:
        target = resolve_target(spec)
    except CohnIbnError:
        return False
    if target != verdict.target:
        return False
    rs = incidence(target)
    if verdict.imn == IMN_HOLDS and verdict.ibn != IBN_CERTIFIED:
        return False

    if verdict.ibn == IBN_CERTIFIED:
        return verdict.certificate is not None and verify_certificate(
            verdict.certificate, rs
        )
    if verdict.ibn == IBN_REFUTED:
        w = verdict.witness
        if w is None or not (0 < w.m < w.m_prime):
            return False
        rho = (1,) * rs.num_generators
        if w.base != rho:
            return False
        if w.trace_a.start != scale(rho, w.m):
            return False
        if w.trace_b.start != scale(rho, w.m_prime):
            return False
        return _replay_ok(w.trace_a, rs, w.descendant) and _replay_ok(
            w.trace_b, rs, w.descendant
        )
    return verdict.certificate is None and verdict.witness is None
