"""Companion graph constructions and the non-IBN example family."""

import random

import pytest

from cohnibn import (
    NotRegularError,
    OutOfRangeError,
    classify,
    cohn_companion,
    family,
    graph_from,
    incidence,
    line_graph,
    relative_companion,
    rose_two,
    validate,
)
from cohnibn.construct import regular_subset
from conftest import make_random_graph


def test_companion_of_rose_two():
    comp = cohn_companion(rose_two())
    assert comp.graph.vertices == ("v", "v'")
    assert len(comp.graph.edges) == 4
    rs = incidence(comp.graph)
    assert rs.rule_add == ((2, 2),)
    assert rs.num_rules == 1
    assert comp.vertex_origin == {"v'": "v"}
    assert comp.edge_origin == {"e'": "e", "f'": "f"}
    assert tuple(comp.vertex_origin) == ("v'",)


def test_companion_of_line_graph():
    comp = cohn_companion(line_graph())
    assert comp.graph.vertices == ("u", "v", "w", "u'", "v'")
    rs = incidence(comp.graph)
    assert rs.rule_add == (
        (0, 1, 0, 0, 1),
        (0, 0, 1, 0, 0),
    )
    assert rs.num_rules == 2  # w, u' and v' are sinks
    # u has no incoming edges, so u' is an isolated sink.
    incoming = [e for e in comp.graph.edges if e.dst == "u'"]
    assert incoming == []


def test_companion_duplicates_one_new_sink_per_regular():
    rng = random.Random(11)
    for _ in range(30):
        g = make_random_graph(rng)
        comp = cohn_companion(g)
        regs = classify(g).regular
        assert len(comp.vertex_origin) == len(regs)
        assert set(comp.vertex_origin.values()) == set(regs)
        # every new vertex is a sink of the companion
        comp_regs = set(classify(comp.graph).regular)
        assert all(v not in comp_regs for v in comp.vertex_origin)


def test_relative_companion_with_empty_x_matches_cohn_companion(corpus):
    for name, graph, _ in corpus:
        assert relative_companion(graph, ()) == cohn_companion(graph), name


def test_relative_companion_adds_one_sink_per_regular_outside_x():
    rng = random.Random(47)
    for _ in range(30):
        g = make_random_graph(rng)
        regs = classify(g).regular
        x = tuple(rng.sample(regs, rng.randint(0, len(regs))))
        comp = relative_companion(g, x)
        assert len(comp.vertex_origin) == len(regs) - len(x)
        assert set(comp.vertex_origin.values()) == set(regs) - set(x)
        comp_regs = set(classify(comp.graph).regular)
        assert all(v not in comp_regs for v in comp.vertex_origin)


def test_relative_companion_with_all_regulars_is_identity():
    g = line_graph()
    comp = relative_companion(g, ("u", "v"))
    assert comp.graph == g
    assert comp.vertex_origin == {}
    assert comp.edge_origin == {}


def test_relative_companion_partial():
    g, x = family(2, 1)
    assert x == ("v2",)
    comp = relative_companion(g, x)
    assert comp.graph.vertices == ("v1", "v2", "v1'")
    rs = incidence(comp.graph)
    assert rs.rule_add == (
        (1, 0, 1),
        (1, 2, 1),
    )
    assert rs.num_rules == 2  # v1' is a sink


def test_regular_subset_is_vertex_ordered_without_repeats():
    g, _ = family(3, 2)
    for x in (("v2", "v3"), ("v3", "v2"), ("v3", "v2", "v3", "v2")):
        assert regular_subset(g, x) == ("v2", "v3")
        assert relative_companion(g, x) == relative_companion(g, ("v2", "v3"))
    assert regular_subset(line_graph(), ()) == ()
    # The first offending name is the one reported, whatever follows it.
    with pytest.raises(NotRegularError, match="'w'.*sink"):
        regular_subset(line_graph(), ("u", "w", "zz"))
    with pytest.raises(NotRegularError, match="'zz'.*unknown"):
        regular_subset(line_graph(), ("zz", "w"))


def test_relative_companion_rejects_sink_in_x():
    with pytest.raises(NotRegularError):
        relative_companion(line_graph(), ("w",))


def test_relative_companion_rejects_unknown_in_x():
    with pytest.raises(NotRegularError):
        relative_companion(line_graph(), ("nope",))


def test_iterated_companion_gets_fresh_names():
    once = cohn_companion(rose_two()).graph
    twice = cohn_companion(once)
    # v' is taken, so the new sink for v picks up a second prime.
    assert twice.graph.vertices == ("v", "v'", "v''")
    assert len(twice.vertex_origin) == len(classify(once).regular)


def test_family_structure():
    g, x = family(3, 2)
    assert g.vertices == ("v1", "v2", "v3")
    assert x == ("v2", "v3")
    rs = incidence(g)
    assert rs.rule_add == (
        (1, 0, 0),
        (0, 1, 0),
        (1, 1, 2),
    )
    assert rs.num_rules == rs.num_generators


def test_family_smallest_instance():
    g, x = family(1, 1)
    assert g.vertices == ("v1",)
    assert x == ("v1",)
    assert incidence(g).rule_add == ((2,),)


def test_family_rejects_out_of_range_parameters():
    for n, m in ((0, 1), (2, 0), (2, 3), (-1, 1)):
        with pytest.raises(OutOfRangeError):
            family(n, m)


def test_user_prime_names_do_not_collide():
    g = validate(graph_from(["a", "a'"], [("e", "a", "a"), ("x", "a'", "a")]))
    comp = cohn_companion(g)
    assert len(set(comp.graph.vertices)) == len(comp.graph.vertices)
    assert len({e.name for e in comp.graph.edges}) == len(comp.graph.edges)
