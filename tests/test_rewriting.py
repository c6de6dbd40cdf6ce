"""Rewrite systems, closures, equivalence search, normal forms, witnesses."""

import dataclasses
import random

import pytest

from cohnibn import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    OutOfRangeError,
    ReductionTrace,
    RewriteSystem,
    SearchBounds,
    UNKNOWN,
    ZeroElementError,
    as_vector,
    check_lattice_separation,
    cohn_companion,
    cohn_presentation,
    decide_equivalent,
    f_line_graph,
    f_rose_two,
    find_scalar_witness,
    forward_closure,
    incidence,
    line_graph,
    graph_from,
    monoid_presentation,
    rose_two,
    scale,
    settle_without_search,
    solve_exact,
    validate,
)
from cohnibn.errors import LengthMismatchError
from conftest import closure_normal_form, make_random_graph, one_step


def _f_r2_system():
    return monoid_presentation(incidence(f_rose_two()))


def test_monoid_presentation_line():
    rs = monoid_presentation(incidence(line_graph()))
    assert rs.generators == ("u", "v", "w")
    assert list(rs.rules()) == [(0, (0, 1, 0)), (1, (0, 0, 1))]


def test_cohn_presentation_rose_two():
    rs = cohn_presentation(rose_two())
    assert rs.generators == ("v", "q_v")
    assert list(rs.rules()) == [(0, (2, 1))]


def test_cohn_presentation_line_graph():
    rs = cohn_presentation(line_graph())
    assert rs.generators == ("u", "v", "w", "q_u", "q_v")
    assert list(rs.rules()) == [
        (0, (0, 1, 0, 1, 0)),
        (1, (0, 0, 1, 0, 1)),
    ]


def test_presentations_of_edgeless_graph_are_free():
    g = validate(graph_from(["a", "b"]))
    rs = monoid_presentation(incidence(g))
    assert rs.generators == ("a", "b")
    assert rs.num_rules == 0
    cohn = cohn_presentation(g)
    assert cohn.generators == ("a", "b")
    assert cohn.num_rules == 0


def test_rewrite_system_validation():
    with pytest.raises(ValueError):
        RewriteSystem(("a",), ((1,), (1,)))
    with pytest.raises(ValueError):
        RewriteSystem(("a",), ((0,),))
    with pytest.raises(ValueError):
        RewriteSystem(("a", "b"), ((2, -1),))
    with pytest.raises(ValueError):
        RewriteSystem(("a", "b"), ((1,),))


def test_as_vector_checks_length_and_sign():
    rs = _f_r2_system()
    assert as_vector([1, 2], rs) == (1, 2)
    with pytest.raises(LengthMismatchError):
        as_vector([1], rs)
    with pytest.raises(ValueError):
        as_vector([1, -1], rs)


def test_one_step_successors():
    rs = _f_r2_system()
    assert one_step((1, 0), rs) == ((2, 2),)
    assert one_step((1, 2), rs) == ((2, 4),)
    assert one_step((0, 3), rs) == ()


def test_one_step_lists_a_successor_per_applicable_rule():
    rs = monoid_presentation(incidence(f_line_graph()))
    assert one_step((1, 1, 1, 1, 1), rs) == (
        (0, 2, 1, 1, 2),
        (1, 0, 2, 1, 1),
    )


def test_one_step_dedupes_equal_successors():
    # Firing either rule on (1, 1) lands on (2, 2); one successor reported.
    rs = RewriteSystem(("a", "b"), ((2, 1), (1, 2)))
    assert one_step((1, 1), rs) == ((2, 2),)


def test_trace_replay_accepts_legal_sequences():
    rs = _f_r2_system()
    trace = ReductionTrace(start=(1, 2), steps=((0, (2, 4)),))
    assert trace.replay(rs) == (2, 4)
    assert trace.end == (2, 4)
    assert trace.rule_counts() == {0: 1}


def test_trace_replay_rejects_illegal_sequences():
    rs = _f_r2_system()
    with pytest.raises(ValueError):
        ReductionTrace(start=(0, 2), steps=((0, (1, 4)),)).replay(rs)
    with pytest.raises(ValueError):
        ReductionTrace(start=(1, 2), steps=((0, (9, 9)),)).replay(rs)
    with pytest.raises(ValueError):
        ReductionTrace(start=(1, 2), steps=((1, (2, 4)),)).replay(rs)
    with pytest.raises(ValueError):
        ReductionTrace(start=(1,), steps=()).replay(rs)


def test_forward_closure_acyclic_is_complete():
    rs = monoid_presentation(incidence(line_graph()))
    closure = forward_closure((1, 1, 1), rs)
    assert closure.elements == {
        (1, 1, 1),
        (0, 2, 1),
        (1, 0, 2),
        (0, 1, 2),
        (0, 0, 3),
    }
    assert not closure.truncated


def test_forward_closure_of_fixed_point_is_singleton():
    rs = monoid_presentation(incidence(line_graph()))
    closure = forward_closure((0, 0, 5), rs)
    assert closure.elements == {(0, 0, 5)}
    assert not closure.truncated


def test_forward_closure_truncates_at_total_coefficient():
    rs = monoid_presentation(incidence(rose_two()))
    closure = forward_closure((1,), rs, SearchBounds(max_total_coefficient=5))
    assert closure.elements == {(1,), (2,), (3,), (4,), (5,)}
    assert closure.truncated


def test_forward_closure_respects_state_cap():
    rs = monoid_presentation(incidence(rose_two()))
    closure = forward_closure(
        (1,), rs, SearchBounds(max_states=3, max_total_coefficient=60)
    )
    assert closure.truncated
    assert len(closure.elements) <= 3


def _closure_by_sets(elem, rs, bounds):
    """Breadth-first closure on plain sets, one level per round of one_step."""
    seen = {tuple(elem)}
    level = [tuple(elem)]
    depth = 0
    truncated = False
    while level:
        if depth >= bounds.max_depth:
            truncated = True
            break
        nxt = []
        for vec in level:
            for succ in one_step(vec, rs):
                if sum(succ) > bounds.max_total_coefficient:
                    truncated = True
                elif succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        level = nxt
        depth += 1
    return seen, depth, truncated


def test_forward_closure_matches_a_set_based_search():
    # Tight coefficient and depth caps, and no state cap in reach: which
    # states survive that cap depends on the order they are found in.
    rng = random.Random(19)
    for _ in range(40):
        g = make_random_graph(rng, max_vertices=5, max_edges=10)
        for graph in (g, cohn_companion(g).graph):
            rs = monoid_presentation(incidence(graph))
            elem = [rng.randint(0, 3) for _ in range(rs.num_generators)]
            bounds = SearchBounds(
                max_total_coefficient=max(1, sum(elem) + rng.randint(0, 12)),
                max_depth=rng.randint(1, 8),
            )
            closure = forward_closure(elem, rs, bounds)
            elements, depth, truncated = _closure_by_sets(elem, rs, bounds)
            assert len(elements) < bounds.max_states
            assert closure.elements == elements
            assert (closure.depth, closure.truncated) == (depth, truncated)


def test_search_bounds_must_be_positive():
    with pytest.raises(ValueError):
        SearchBounds(max_states=0)
    with pytest.raises(ValueError):
        SearchBounds(max_total_coefficient=0)
    with pytest.raises(ValueError):
        SearchBounds(max_depth=-1)


def test_decide_equivalent_identical_elements():
    rs = _f_r2_system()
    out = decide_equivalent((3, 1), (3, 1), rs)
    assert out.status == EQUIVALENT
    assert out.descendant == (3, 1)
    assert out.trace_a.steps == () and out.trace_b.steps == ()


def test_decide_equivalent_rejects_zero():
    rs = _f_r2_system()
    with pytest.raises(ZeroElementError):
        decide_equivalent((0, 0), (1, 0), rs)
    with pytest.raises(ZeroElementError):
        decide_equivalent((1, 0), (0, 0), rs)


def test_decide_equivalent_finds_common_descendant():
    rs = monoid_presentation(incidence(line_graph()))
    out = decide_equivalent((1, 1, 1), (0, 0, 3), rs)
    assert out.status == EQUIVALENT
    assert out.trace_a.replay(rs) == out.descendant
    assert out.trace_b.replay(rs) == out.descendant


def test_decide_equivalent_even_pair_meets_after_one_step():
    # (1, 0) rewrites to (2, 2) in one step, so the pair merges there.
    rs = _f_r2_system()
    out = decide_equivalent((2, 2), (1, 0), rs)
    assert out.status == EQUIVALENT
    assert out.descendant == (2, 2)
    assert out.trace_a.steps == ()
    assert out.trace_b.replay(rs) == (2, 2)


def test_decide_equivalent_disjoint_complete_closures():
    rs = monoid_presentation(incidence(line_graph()))
    out = decide_equivalent((1, 0, 0), (0, 0, 2), rs)
    assert out.status == NOT_EQUIVALENT
    assert out.reason == "disjoint-closures"


def test_settle_without_search_gamma_short_circuit():
    matrix = incidence(f_rose_two())
    rs = monoid_presentation(matrix)
    cert = solve_exact(rs)
    out = settle_without_search((1, 0), (2, 0), rs, invariant=cert)
    assert out.status == NOT_EQUIVALENT
    assert out.reason == "gamma-separation"
    assert out.gamma_values == (2, 4)


def test_decide_equivalent_equal_gamma_does_not_prove_equivalence():
    matrix = incidence(f_rose_two())
    rs = monoid_presentation(matrix)
    cert = solve_exact(rs)
    # (2, 8) and (0, 4) share the weight -4 yet lie in distinct classes;
    # equal weights must not short-circuit, so only a search can go on,
    # and it ends inconclusive (one side is an infinite chain).
    assert settle_without_search((2, 8), (0, 4), rs, invariant=cert) is None
    out = decide_equivalent(
        (2, 8), (0, 4), rs, SearchBounds(max_total_coefficient=30)
    )
    assert out.status == UNKNOWN
    assert out.reason != "gamma-separation"


def test_decide_equivalent_unknown_on_truncation():
    rs = _f_r2_system()
    out = decide_equivalent(
        (1, 0), (2, 0), rs, SearchBounds(max_total_coefficient=8)
    )
    assert out.status == UNKNOWN


def test_decide_equivalent_no_rules_free_monoid():
    rs = monoid_presentation(incidence(line_graph()))
    free = RewriteSystem(rs.generators, ())
    assert decide_equivalent((1, 0, 0), (1, 0, 0), free).status == EQUIVALENT
    out = decide_equivalent((1, 0, 0), (0, 1, 0), free)
    assert out.status == NOT_EQUIVALENT
    assert out.reason == "disjoint-closures"


def test_normal_form_line_and_companion():
    rs = monoid_presentation(incidence(line_graph()))
    assert closure_normal_form((1, 1, 1), rs) == (0, 0, 3)
    rs_f = monoid_presentation(incidence(f_line_graph()))
    assert closure_normal_form((1, 1, 1, 1, 1), rs_f) == (0, 0, 3, 1, 2)


def test_normal_form_is_path_independent():
    # The normal form is the one vector of the complete closure with no
    # rule left to fire; every successor's closure reaches that same one.
    rs = monoid_presentation(incidence(f_line_graph()))
    elem = (2, 1, 0, 1, 3)
    nf = closure_normal_form(elem, rs)
    for succ in one_step(elem, rs):
        assert closure_normal_form(succ, rs) == nf
    assert one_step(nf, rs) == ()


def test_scale():
    assert scale((1, 2, 0), 3) == (3, 6, 0)


def test_find_scalar_witness_rose_two():
    rs = monoid_presentation(incidence(rose_two()))
    w = find_scalar_witness((1,), rs)
    assert (w.m, w.m_prime) == (1, 2)
    assert w.descendant == (2,)
    assert w.trace_a.replay(rs) == (2,)
    assert w.trace_b.replay(rs) == (2,)


def test_find_scalar_witness_none_when_gamma_exists():
    rs = monoid_presentation(incidence(line_graph()))
    assert find_scalar_witness((1, 1, 1), rs) is None


def test_find_scalar_witness_none_in_cohn_presentation():
    rs = cohn_presentation(rose_two())
    rho_v = (1, 0)
    for m in range(1, 4):
        for m_prime in range(m + 1, 5):
            out = decide_equivalent(scale(rho_v, m), scale(rho_v, m_prime), rs)
            assert out.status != EQUIVALENT, (m, m_prime)


def test_find_scalar_witness_argument_checks():
    rs = monoid_presentation(incidence(rose_two()))
    with pytest.raises(OutOfRangeError):
        find_scalar_witness((1,), rs, step=0)
    with pytest.raises(ZeroElementError):
        find_scalar_witness((0,), rs)


def test_lattice_evidence_check_rejects_tampering():
    # v2 -> v1 + 2 v2 and v1 -> v1: (coefficient of v2) - (coefficient of
    # v1) is invariant, so w = (-1, 1) separates (0,1) from (0,2) exactly;
    # the rose with three loops keeps the coefficient mod 2.
    relative = graph_from(
        ["v1", "v2"],
        [("l1", "v1", "v1"), ("l2a", "v2", "v2"), ("l2b", "v2", "v2"),
         ("d1", "v2", "v1")],
    )
    rose3 = graph_from(["v"], [(f"e{i}", "v", "v") for i in range(3)])
    for graph, a, b, expected in (
        (relative, (0, 1), (0, 2), ((0, 1), (-1, 1), 0)),
        (rose3, (1,), (2,), ((0,), (1,), 2)),
    ):
        rs = monoid_presentation(incidence(graph))
        outcome = settle_without_search(a, b, rs)
        assert (outcome.status, outcome.reason) == (NOT_EQUIVALENT, "lattice-separation")
        sep = outcome.lattice
        assert (sep.generators, sep.functional, sep.modulus) == expected
        assert check_lattice_separation(a, b, rs, sep)
        assert not check_lattice_separation(a, a, rs, sep)
        for tampered in (
            dataclasses.replace(sep, functional=(0,) * len(sep.functional)),
            dataclasses.replace(sep, functional=sep.functional + (0,)),
            dataclasses.replace(sep, generators=sep.generators[1:]),
            dataclasses.replace(sep, modulus=1),
            dataclasses.replace(sep, modulus=-sep.modulus - 1),
        ):
            assert not check_lattice_separation(a, b, rs, tampered), tampered
    # The search alone cannot refute there: every closure on the rose is infinite.
    rs = monoid_presentation(incidence(rose3))
    assert decide_equivalent((1,), (2,), rs, SearchBounds(max_states=50)).status == UNKNOWN
