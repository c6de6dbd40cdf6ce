"""Graph model, validation, classification, and incidence presentations."""

import random

import pytest

from cohnibn import (
    DanglingEdgeError,
    DuplicateNameError,
    Edge,
    EmptyGraphError,
    Graph,
    RewriteSystem,
    classify,
    graph_from,
    incidence,
    line_graph,
    rose_two,
    validate,
)
from conftest import make_random_graph


def test_graph_from_builds_named_edges():
    g = graph_from(["a", "b"], [("e", "a", "b")])
    assert g.vertices == ("a", "b")
    assert g.edges == (Edge("e", "a", "b"),)
    assert len(g.vertices) == 2
    assert len(g.edges) == 1


def test_validate_orders_regular_vertices_first():
    g = graph_from(["w", "u", "v"], [("e", "u", "v"), ("f", "v", "w")])
    ordered = validate(g)
    assert ordered.vertices == ("u", "v", "w")
    assert ordered.edges == g.edges


def test_validate_is_idempotent():
    g = validate(graph_from(["w", "u", "v"], [("e", "u", "v"), ("f", "v", "w")]))
    assert validate(g) == g


def test_validate_rejects_empty_graph():
    with pytest.raises(EmptyGraphError):
        validate(Graph((), ()))


def test_validate_rejects_duplicate_vertex():
    with pytest.raises(DuplicateNameError):
        validate(graph_from(["a", "a"]))


def test_validate_rejects_duplicate_edge_name():
    with pytest.raises(DuplicateNameError):
        validate(graph_from(["a"], [("e", "a", "a"), ("e", "a", "a")]))


def test_validate_rejects_dangling_endpoints():
    with pytest.raises(DanglingEdgeError):
        validate(graph_from(["a"], [("e", "a", "b")]))
    with pytest.raises(DanglingEdgeError):
        validate(graph_from(["a"], [("e", "b", "a")]))


def test_classify_line_graph():
    parts = classify(line_graph())
    assert parts.regular == ("u", "v")
    assert parts.sinks == ("w",)


def test_classify_isolated_vertex_is_sink():
    parts = classify(validate(graph_from(["a"])))
    assert parts.regular == ()
    assert parts.sinks == ("a",)


def test_incidence_line_graph():
    rs = incidence(line_graph())
    assert rs.generators == ("u", "v", "w")
    assert rs.num_rules == 2
    assert rs.rule_add == ((0, 1, 0), (0, 0, 1))


def test_incidence_counts_multiplicity():
    rs = incidence(rose_two())
    assert rs.generators == ("v",)
    assert rs.num_rules == 1
    assert rs.rule_add == ((2,),)

    g = validate(graph_from(["a", "b"], [("e", "a", "b"), ("f", "a", "b")]))
    assert incidence(g).rule_add == ((0, 2),)


def test_incidence_rows_past_regular_block_are_zero():
    # Only regular vertices get a rule: the generators past them are sinks.
    g = line_graph()
    rs = incidence(g)
    assert rs.generators[rs.num_rules:] == classify(g).sinks == ("w",)


def test_incidence_totals_count_edges():
    rng = random.Random(53)
    for _ in range(40):
        g = make_random_graph(rng)
        assert sum(map(sum, incidence(g).rule_add)) == len(g.edges)


def test_incidence_row_is_zero_exactly_at_sinks():
    rng = random.Random(59)
    for _ in range(40):
        g = make_random_graph(rng)
        rs = incidence(g)
        sinks = set(classify(g).sinks)
        assert all(any(row) for row in rs.rule_add)
        for i, name in enumerate(rs.generators):
            assert (name in sinks) == (i >= rs.num_rules)


def test_incidence_entries_are_read_only():
    rs = incidence(rose_two())
    with pytest.raises(TypeError):
        rs.rule_add[0][0] = 9


def test_incidence_matrix_equality():
    a = incidence(rose_two())
    b = incidence(rose_two())
    c = incidence(line_graph())
    assert a == b
    assert a != c
    assert a != "not a matrix"
    other = RewriteSystem(generators=("v",), rule_add=((3,),))
    assert a != other


def test_incidence_rejects_a_sink_before_a_regular_vertex():
    g = graph_from(["s", "a", "b"], [("e", "a", "s"), ("f", "b", "a")])
    with pytest.raises(ValueError, match="sink precedes a regular vertex"):
        incidence(g)
    rs = incidence(validate(g))
    assert rs.generators == ("a", "b", "s")
    assert rs.rule_add == ((0, 0, 1), (1, 0, 0))
    assert rs.generators[rs.num_rules:] == classify(g).sinks
