"""Companion graphs and the non-IBN family of relative Cohn examples.

The companion of a graph E adds, for each regular vertex v outside the
chosen set X, a fresh sink v' together with a copy e' of every edge e
ending at v, redirected to v'.  With X empty this is the graph whose
Leavitt path algebra realizes the Cohn path algebra of E; with
X = Reg(E) it is E itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NotRegularError, OutOfRangeError
from .graphs import Edge, Graph, classify, graph_from, validate

PRIME = "'"


@dataclass(frozen=True)
class CompanionGraph:
    """A companion graph plus the map from fresh names back to originals."""

    graph: Graph
    vertex_origin: dict[str, str]
    edge_origin: dict[str, str]

    @property
    def new_vertices(self) -> tuple[str, ...]:
        return tuple(self.vertex_origin)


def _fresh(base: str, taken: set[str]) -> str:
    # Single prime by default; more primes only when the user's names (or an
    # iterated companion) already contain the primed form.
    name = base + PRIME
    while name in taken:
        name += PRIME
    return name


def regular_subset(graph: Graph, x: Iterable[str]) -> tuple[str, ...]:
    """The set X as regular vertices of a validated graph, in vertex order.

    Repeats are dropped, so every spelling of one set gives one tuple.
    Raises NotRegularError for the first name in X that is a sink or
    an unknown vertex.
    """
    parts = classify(graph)
    regular_set = set(parts.regular)
    x_set: set[str] = set()
    for v in x:
        if v not in regular_set:
            kind = "sink" if v in parts.sinks else "unknown vertex"
            raise NotRegularError(f"{v!r} is not a regular vertex ({kind})")
        x_set.add(v)
    return tuple(v for v in parts.regular if v in x_set)


def relative_companion(graph: Graph, x: Iterable[str]) -> CompanionGraph:
    """Companion of a validated graph relative to a set X of regular vertices.

    A fresh sink v' is added for each regular v not in X, and every edge
    with range v is duplicated toward v'.  Raises NotRegularError if X
    contains a sink or an unknown name.
    """
    x_set = set(regular_subset(graph, x))
    parts = classify(graph)

    duplicated = [v for v in parts.regular if v not in x_set]
    taken_vertices = set(graph.vertices)
    vertex_origin: dict[str, str] = {}
    copy_name: dict[str, str] = {}
    for v in duplicated:
        name = _fresh(v, taken_vertices)
        taken_vertices.add(name)
        vertex_origin[name] = v
        copy_name[v] = name

    taken_edges = {e.name for e in graph.edges}
    edge_origin: dict[str, str] = {}
    new_edges: list[Edge] = []
    for e in graph.edges:
        if e.dst in copy_name:
            name = _fresh(e.name, taken_edges)
            taken_edges.add(name)
            edge_origin[name] = e.name
            new_edges.append(Edge(name, e.src, copy_name[e.dst]))

    companion = Graph(
        vertices=graph.vertices + tuple(copy_name[v] for v in duplicated),
        edges=graph.edges + tuple(new_edges),
    )
    return CompanionGraph(validate(companion), vertex_origin, edge_origin)


def cohn_companion(graph: Graph) -> CompanionGraph:
    """Companion with no exceptional vertices: one fresh sink per regular."""
    return relative_companion(graph, ())


def family(n: int, m: int) -> tuple[Graph, tuple[str, ...]]:
    """The n-vertex graph whose relative Cohn algebra at X_m fails IBN.

    Vertices v1..vn; one loop at each v_i for i < n, two loops at v_n,
    and an edge from v_n to every earlier vertex.  X_m is the last m
    vertices.  Requires n >= 1 and 1 <= m <= n.
    """
    if n < 1:
        raise OutOfRangeError(f"n must be positive, got {n}")
    if not 1 <= m <= n:
        raise OutOfRangeError(f"m must satisfy 1 <= m <= n, got m={m}, n={n}")
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges: list[tuple[str, str, str]] = []
    for i in range(1, n):
        edges.append((f"l{i}", f"v{i}", f"v{i}"))
    edges.append((f"l{n}a", f"v{n}", f"v{n}"))
    edges.append((f"l{n}b", f"v{n}", f"v{n}"))
    for i in range(1, n):
        edges.append((f"d{i}", f"v{n}", f"v{i}"))
    graph = validate(graph_from(vertices, edges))
    x = tuple(vertices[n - m:])
    return graph, x
