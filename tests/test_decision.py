"""Algebra-level IBN/IMN verdicts, their evidence, and the audit."""

import dataclasses
import random
from fractions import Fraction

import pytest

import cohnibn.decision
import cohnibn.rewriting
from cohnibn import (
    AlgebraSpec,
    IBN_CERTIFIED,
    IBN_REFUTED,
    IBN_UNKNOWN,
    IMN_HOLDS,
    IMN_UNKNOWN,
    InternalInvariantViolation,
    KIND_COHN,
    KIND_LEAVITT,
    KIND_RELATIVE,
    OutOfRangeError,
    ReductionTrace,
    ScalarWitness,
    SearchBounds,
    WeightCertificate,
    audit,
    cohn_companion,
    decide_ibn,
    decide_imn,
    family,
    graph_from,
    line_graph,
    relative_companion,
    resolve_target,
    rose_two,
    serialize_weights,
)
from conftest import make_random_graph


def test_algebra_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec(kind="weird", graph=rose_two())
    with pytest.raises(ValueError):
        AlgebraSpec(kind=KIND_COHN, graph=rose_two(), x=("v",))
    spec = AlgebraSpec(kind=KIND_RELATIVE, graph=line_graph(), x=["u"])
    assert spec.x == ("u",)


def test_resolve_target_by_kind():
    g = rose_two()
    assert resolve_target(AlgebraSpec(kind=KIND_LEAVITT, graph=g)) == g
    assert (
        resolve_target(AlgebraSpec(kind=KIND_COHN, graph=g))
        == cohn_companion(g).graph
    )
    fam, x = family(2, 1)
    assert (
        resolve_target(AlgebraSpec(kind=KIND_RELATIVE, graph=fam, x=x))
        == relative_companion(fam, x).graph
    )


def test_cohn_rose_two_is_certified():
    spec = AlgebraSpec(kind=KIND_COHN, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))
    assert verdict.ibn == IBN_CERTIFIED
    assert verdict.imn == IMN_HOLDS
    assert verdict.route == "certificate"
    assert serialize_weights(verdict.certificate) == ("2", "-1")
    assert verdict.witness is None
    assert audit(verdict, spec)


def test_leavitt_rose_two_is_refuted():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))
    assert verdict.ibn == IBN_REFUTED
    assert verdict.imn == IMN_UNKNOWN
    assert verdict.route == "witness-search"
    w = verdict.witness
    assert (w.m, w.m_prime) == (1, 2)
    assert w.trace_a.start == (1,) and w.trace_a.steps == ((0, (2,)),)
    assert w.trace_b.start == (2,) and w.trace_b.steps == ()
    assert verdict.certificate is None
    assert audit(verdict, spec)


def test_relative_family_is_refuted():
    fam, x = family(2, 1)
    spec = AlgebraSpec(kind=KIND_RELATIVE, graph=fam, x=x)
    verdict = decide_imn(decide_ibn(spec))
    assert verdict.ibn == IBN_REFUTED
    assert (verdict.witness.m, verdict.witness.m_prime) == (1, 2)
    assert verdict.witness.descendant == (2, 2, 2)
    assert audit(verdict, spec)


def test_relative_family_edge_instances_are_refuted():
    # n = 1 imposes every relation, so the target is the graph itself;
    # n = 3 exercises a target with a genuinely new sink.
    expected = {(1, 1): (2,), (3, 2): (2, 2, 2, 2)}
    for (n, m), descendant in expected.items():
        fam, x = family(n, m)
        spec = AlgebraSpec(kind=KIND_RELATIVE, graph=fam, x=x)
        verdict = decide_imn(decide_ibn(spec, max_m=4))
        assert verdict.ibn == IBN_REFUTED, (n, m)
        assert (verdict.witness.m, verdict.witness.m_prime) == (1, 2)
        assert verdict.witness.descendant == descendant
        assert audit(verdict, spec)


def test_leavitt_line_graph_is_certified():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=line_graph())
    verdict = decide_imn(decide_ibn(spec))
    assert verdict.ibn == IBN_CERTIFIED
    assert verdict.imn == IMN_HOLDS
    third = Fraction(1, 3)
    assert verdict.certificate.weights == (third, third, third)
    assert audit(verdict, spec)


def test_unknown_when_bounds_too_tight():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    tight = SearchBounds(max_total_coefficient=1)
    verdict = decide_imn(decide_ibn(spec, tight, max_m=3))
    assert verdict.ibn == IBN_UNKNOWN
    assert verdict.imn == IMN_UNKNOWN
    assert verdict.route == "exhausted"
    assert verdict.certificate is None and verdict.witness is None
    assert verdict.max_m == 3
    assert audit(verdict, spec)


def test_verdict_reports_bounds_and_notes():
    spec = AlgebraSpec(kind=KIND_COHN, graph=rose_two())
    bounds = SearchBounds(max_states=10, max_total_coefficient=9, max_depth=8)
    verdict = decide_ibn(spec, bounds, max_m=5)
    assert verdict.bounds == bounds
    assert verdict.max_m == 5
    assert any("certificate verified" in n for n in verdict.notes)


def test_audit_rejects_tampered_certificate():
    spec = AlgebraSpec(kind=KIND_COHN, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))
    bad_cert = WeightCertificate(
        weights=(Fraction(3), Fraction(-2)), generators=verdict.generators
    )
    tampered = dataclasses.replace(verdict, certificate=bad_cert)
    assert not audit(tampered, spec)


def test_audit_rejects_tampered_witness():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))
    w = verdict.witness
    bad_trace = ReductionTrace(start=w.trace_a.start, steps=((0, (7,)),))
    bad = ScalarWitness(
        base=w.base,
        m=w.m,
        m_prime=w.m_prime,
        descendant=w.descendant,
        trace_a=bad_trace,
        trace_b=w.trace_b,
    )
    assert not audit(dataclasses.replace(verdict, witness=bad), spec)


def test_audit_rejects_inconsistent_imn():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))
    lying = dataclasses.replace(verdict, imn=IMN_HOLDS)
    assert not audit(lying, spec)


def test_audit_rejects_wrong_spec():
    spec = AlgebraSpec(kind=KIND_COHN, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))
    other = AlgebraSpec(kind=KIND_COHN, graph=line_graph())
    assert not audit(verdict, other)


def test_audit_rejects_witness_on_wrong_base():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))
    w = verdict.witness
    shifted = ScalarWitness(
        base=(2,),
        m=w.m,
        m_prime=w.m_prime,
        descendant=w.descendant,
        trace_a=w.trace_a,
        trace_b=w.trace_b,
    )
    assert not audit(dataclasses.replace(verdict, witness=shifted), spec)


def _rose(n):
    """The Leavitt rose R_n: one vertex, n loops; R ~ R^n, so k0 = n - 1."""
    return graph_from(["v"], [(f"e{i}", "v", "v") for i in range(n)])


# u loops and feeds w; w feeds u three times and loops.  k0 = 3, and the
# torsion relation 3 rho = -3 r_u - r_w takes four firings from c*rho.
_DEEP = graph_from(
    ["u", "w"],
    [("a", "u", "u"), ("b", "u", "w"), ("c", "w", "u"), ("d", "w", "u"),
     ("e", "w", "u"), ("f", "w", "w")],
)


def test_witness_is_constructed_when_the_search_is_capped():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=_DEEP)
    verdict = decide_imn(decide_ibn(spec, SearchBounds(max_states=1)))
    assert verdict.ibn == IBN_REFUTED
    assert verdict.imn == IMN_UNKNOWN
    assert verdict.route == "witness-construction"
    w = verdict.witness
    assert (w.m, w.m_prime, w.descendant) == (1, 4, (4, 4))
    assert "order of [1] in K0: k0=3" in verdict.notes
    assert any("also refutes IMN" in n for n in verdict.notes)
    assert audit(verdict, spec)


def test_exhausted_names_the_bound_the_construction_broke():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=_DEEP)
    tight = SearchBounds(max_states=1, max_depth=3)
    verdict = decide_imn(decide_ibn(spec, tight))
    assert verdict.route == "exhausted"
    assert verdict.ibn == IBN_UNKNOWN
    assert "constructed witness breaks --max-depth=3: raise --max-depth to 4" in verdict.notes
    assert audit(verdict, spec)

    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    verdict = decide_ibn(spec, SearchBounds(max_total_coefficient=1), max_m=3)
    assert "constructed witness breaks --max-coeff=1: raise --max-coeff to 2" in verdict.notes


def test_torsion_bound_runs_no_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the witness search must not run")

    monkeypatch.setattr(cohnibn.decision, "find_scalar_witness", no_search)
    for n in (7, 8):
        spec = AlgebraSpec(kind=KIND_LEAVITT, graph=_rose(n))
        verdict = decide_imn(decide_ibn(spec))
        assert verdict.ibn == IBN_UNKNOWN and verdict.imn == IMN_UNKNOWN
        assert verdict.route == "torsion-bound"
        assert f"order of [1] in K0: k0={n - 1}" in verdict.notes
        assert any(f"raise --max-m to {n}" in note for note in verdict.notes)
        assert audit(verdict, spec)


def test_search_tries_only_pairs_the_order_allows(monkeypatch):
    tried = []
    real = cohnibn.rewriting.decide_equivalent

    def recording(a, b, *args, **kwargs):
        tried.append((a[0], b[0]))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(cohnibn.rewriting, "decide_equivalent", recording)
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=_DEEP)
    decide_ibn(spec, SearchBounds(max_states=1))
    assert tried == [(1, 4), (2, 5), (3, 6)]


def test_every_open_verdict_gives_k0_and_the_flag_to_raise():
    rng = random.Random(8)
    tight = SearchBounds(max_states=20, max_total_coefficient=8, max_depth=4)
    routes = set()
    for _ in range(150):
        spec = AlgebraSpec(kind=KIND_LEAVITT, graph=make_random_graph(rng))
        verdict = decide_imn(decide_ibn(spec, tight, max_m=4))
        routes.add(verdict.route)
        assert audit(verdict, spec)
        if verdict.ibn == IBN_CERTIFIED:
            continue
        assert any(n.startswith("order of [1] in K0: k0=") for n in verdict.notes)
        if verdict.ibn == IBN_UNKNOWN:
            assert any("raise --max-" in n for n in verdict.notes)
        else:
            assert any("also refutes IMN" in n for n in verdict.notes)
    assert {"certificate", "witness-search", "torsion-bound"} <= routes


def test_decide_ibn_rejects_max_m_below_two():
    fam, x = family(2, 1)
    for spec in (
        AlgebraSpec(kind=KIND_COHN, graph=rose_two()),
        AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two()),
        AlgebraSpec(kind=KIND_RELATIVE, graph=fam, x=x),
    ):
        with pytest.raises(OutOfRangeError):
            decide_ibn(spec, max_m=1)


def test_infinite_order_without_certificate_is_an_invariant_violation(monkeypatch):
    monkeypatch.setattr(cohnibn.decision, "torsion_order", lambda rows, y: None)
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    with pytest.raises(InternalInvariantViolation):
        decide_ibn(spec)


def test_audit_lets_unexpected_errors_through(monkeypatch):
    spec = AlgebraSpec(kind=KIND_COHN, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))

    def broken(spec):
        raise RuntimeError("bug in target resolution")

    monkeypatch.setattr(cohnibn.decision, "resolve_target", broken)
    with pytest.raises(RuntimeError):
        audit(verdict, spec)
