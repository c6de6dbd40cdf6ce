"""Property-based checks of the algebraic invariants."""

from hypothesis import given, settings, strategies as st

from cohnibn import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    ReductionTrace,
    SearchBounds,
    classify,
    cohn_companion,
    cohn_presentation,
    decide_equivalent,
    gamma,
    graph_from,
    incidence,
    parse_weights,
    serialize_weights,
    solve_exact,
    validate,
    verify_certificate,
    WeightCertificate,
)
from conftest import closure_normal_form, one_step


@st.composite
def graphs(draw, max_vertices=5, max_edges=8, acyclic=False):
    n = draw(st.integers(1, max_vertices))
    vertices = [f"n{i}" for i in range(n)]
    num_edges = draw(st.integers(0, max_edges))
    edges = []
    counts = {}
    for i in range(num_edges):
        s = draw(st.integers(0, n - 1))
        if acyclic and s == n - 1:
            continue
        lo = s + 1 if acyclic else 0
        d = draw(st.integers(lo, n - 1))
        if counts.get((s, d), 0) >= 3:
            continue
        counts[s, d] = counts.get((s, d), 0) + 1
        edges.append((f"e{i}", vertices[s], vertices[d]))
    return validate(graph_from(vertices, edges))


def _small_element(draw, width):
    return tuple(
        draw(st.integers(0, 3)) for _ in range(width)
    )


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_validate_preserves_vertex_and_edge_sets(g):
    again = validate(g)
    assert again == g
    parts = classify(g)
    assert set(parts.regular) | set(parts.sinks) == set(g.vertices)
    assert not set(parts.regular) & set(parts.sinks)
    assert g.vertices == parts.regular + parts.sinks


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_gamma_invariant_under_rewriting(data):
    g = data.draw(graphs())
    rs = incidence(cohn_companion(g).graph)
    cert = solve_exact(rs)
    assert cert is not None
    assert verify_certificate(cert, rs)
    elem = _small_element(data.draw, rs.num_generators)
    value = gamma(cert, elem)
    for succ in one_step(elem, rs):
        assert gamma(cert, succ) == value


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_one_step_successors_replay_as_traces(data):
    g = data.draw(graphs())
    rs = incidence(g)
    elem = _small_element(data.draw, rs.num_generators)
    for succ in one_step(elem, rs):
        fired = [
            gen
            for gen, add in rs.rules()
            if elem[gen] >= 1
            and tuple(
                e + a - (1 if j == gen else 0)
                for j, (e, a) in enumerate(zip(elem, add))
            )
            == succ
        ]
        assert fired, "successor not explained by any rule"
        trace = ReductionTrace(start=elem, steps=((fired[0], succ),))
        assert trace.replay(rs) == succ


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rewrites_of_an_element_stay_equivalent(data):
    g = data.draw(graphs(max_vertices=4, max_edges=6))
    rs = incidence(cohn_companion(g).graph)
    elem = _small_element(data.draw, rs.num_generators)
    if not any(elem):
        return
    current = elem
    for _ in range(data.draw(st.integers(0, 3))):
        succs = one_step(current, rs)
        if not succs:
            break
        current = succs[data.draw(st.integers(0, len(succs) - 1))]
    out = decide_equivalent(elem, current, rs)
    assert out.status == EQUIVALENT
    assert out.trace_a.replay(rs) == out.descendant
    assert out.trace_b.replay(rs) == out.descendant


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_normal_forms_on_acyclic_graphs(data):
    g = data.draw(graphs(acyclic=True))
    rs = incidence(g)
    elem = _small_element(data.draw, rs.num_generators)
    nf = closure_normal_form(elem, rs)
    assert sum(elem) == 0 or sum(nf) > 0
    for succ in one_step(elem, rs):
        assert closure_normal_form(succ, rs) == nf


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cohn_presentation_marks_every_firing(data):
    g = data.draw(graphs(max_vertices=4, max_edges=6))
    rs = cohn_presentation(g)
    n = len(g.vertices)
    elem = tuple(data.draw(st.integers(0, 2)) for _ in range(n)) + (0,) * (
        rs.num_generators - n
    )
    current = elem
    fired_count = 0
    for _ in range(4):
        succs = one_step(current, rs)
        if not succs:
            break
        current = succs[data.draw(st.integers(0, len(succs) - 1))]
        fired_count += 1
    assert sum(current[n:]) == fired_count


@given(
    st.lists(
        st.fractions(min_value=-99, max_value=99, max_denominator=99),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_weight_serialization_round_trip(weights):
    names = tuple(f"g{i}" for i in range(len(weights)))
    cert = WeightCertificate(weights=tuple(weights), generators=names)
    assert parse_weights(serialize_weights(cert), names) == cert


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_closure_membership_is_symmetric_for_equivalence(data):
    # If the search proves a ~ b, then searching b ~ a succeeds too.
    g = data.draw(graphs(max_vertices=3, max_edges=5))
    rs = incidence(g)
    width = rs.num_generators
    a = tuple(data.draw(st.integers(0, 2)) for _ in range(width))
    b = tuple(data.draw(st.integers(0, 2)) for _ in range(width))
    if not any(a) or not any(b):
        return
    # The state cap exceeds the count of 3-vectors with total <= 24, so only
    # the depth and total caps can bind, and they bind the same way for both
    # orientations.
    bounds = SearchBounds(max_states=6000, max_total_coefficient=24, max_depth=16)
    ab = decide_equivalent(a, b, rs, bounds)
    ba = decide_equivalent(b, a, rs, bounds)
    if ab.status == EQUIVALENT:
        assert ba.status == EQUIVALENT
    if ab.status == NOT_EQUIVALENT:
        assert ba.status == NOT_EQUIVALENT


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_rewrites_of_one_root_are_never_separated(data):
    # Two rewrite sequences from one root end at equal elements, so no
    # stage of decide_equivalent may separate them.
    g = data.draw(graphs(max_vertices=6, max_edges=10))
    if data.draw(st.booleans()):
        rs = cohn_presentation(g)
    else:
        rs = incidence(g)
    root = _small_element(data.draw, rs.num_generators)
    if not any(root):
        return
    ends = []
    for _ in range(2):
        current = root
        for _ in range(data.draw(st.integers(0, 6))):
            succs = one_step(current, rs)
            if not succs:
                break
            current = succs[data.draw(st.integers(0, len(succs) - 1))]
        ends.append(current)
    # Only the stages before the search refute, and no bound reaches them,
    # so small bounds keep the search short without weakening the check.
    bounds = SearchBounds(max_states=2000, max_total_coefficient=24, max_depth=12)
    assert decide_equivalent(*ends, rs, bounds).status != NOT_EQUIVALENT
