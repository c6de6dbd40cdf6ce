"""Graph model, validation, classification, and incidence matrices."""

import random

import pytest

from cohnibn import (
    DanglingEdgeError,
    DuplicateNameError,
    Edge,
    EmptyGraphError,
    Graph,
    IncidenceMatrix,
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
    assert g.num_vertices == 2
    assert g.num_edges == 1


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
    m = incidence(line_graph())
    assert m.order == ("u", "v", "w")
    assert m.num_regular == 2
    assert m.entries == ((0, 1, 0), (0, 0, 1), (0, 0, 0))


def test_incidence_counts_multiplicity():
    m = incidence(rose_two())
    assert m.order == ("v",)
    assert m.num_regular == 1
    assert m.entries == ((2,),)

    g = validate(graph_from(["a", "b"], [("e", "a", "b"), ("f", "a", "b")]))
    assert incidence(g).entries == ((0, 2), (0, 0))


def test_incidence_rows_past_regular_block_are_zero():
    m = incidence(line_graph())
    assert not any(map(any, m.entries[m.num_regular:]))


def test_incidence_totals_count_edges():
    rng = random.Random(53)
    for _ in range(40):
        g = make_random_graph(rng)
        assert sum(map(sum, incidence(g).entries)) == g.num_edges


def test_incidence_row_is_zero_exactly_at_sinks():
    rng = random.Random(59)
    for _ in range(40):
        g = make_random_graph(rng)
        m = incidence(g)
        sinks = set(classify(g).sinks)
        for i, name in enumerate(m.order):
            assert (name in sinks) == (not any(m.entries[i]))


def test_incidence_entries_are_read_only():
    m = incidence(rose_two())
    with pytest.raises(TypeError):
        m.entries[0][0] = 9


def test_incidence_matrix_equality():
    a = incidence(rose_two())
    b = incidence(rose_two())
    c = incidence(line_graph())
    assert a == b
    assert a != c
    assert a != "not a matrix"
    other = IncidenceMatrix(order=("v",), entries=((3,),), num_regular=1)
    assert a != other
