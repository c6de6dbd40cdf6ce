"""Finite directed multigraphs: names, validation and vertex order.

Vertices carry opaque string names.  Parallel edges and loops are allowed
and counted with multiplicity.  After :func:`validate`, the vertex order is
canonical: regular vertices (those with at least one outgoing edge) first,
then sinks, each block keeping its input order.  Every index used elsewhere
in the package refers to this order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import DanglingEdgeError, DuplicateNameError, EmptyGraphError


class Edge(NamedTuple):
    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class Graph:
    """A finite directed multigraph with named vertices and edges."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class VertexClassification:
    """Partition of the vertex set into regular vertices and sinks."""

    regular: tuple[str, ...]
    sinks: tuple[str, ...]


def graph_from(
    vertices: Iterable[str],
    edges: Iterable[tuple[str, str, str]] = (),
) -> Graph:
    """Build a Graph from plain name data; edges are (name, src, dst)."""
    return Graph(tuple(vertices), tuple(Edge(*e) for e in edges))


def validate(graph: Graph) -> Graph:
    """Check names and endpoints, and return the graph in canonical order.

    Raises DuplicateNameError, DanglingEdgeError, or EmptyGraphError.
    The returned graph has regular vertices first (in input order), then
    sinks (in input order); edges keep their input order.
    """
    if not graph.vertices:
        raise EmptyGraphError("graph must have at least one vertex")

    seen: set[str] = set()
    for v in graph.vertices:
        if v in seen:
            raise DuplicateNameError(f"duplicate vertex name {v!r}")
        seen.add(v)

    seen_edges: set[str] = set()
    for e in graph.edges:
        if e.name in seen_edges:
            raise DuplicateNameError(f"duplicate edge name {e.name!r}")
        seen_edges.add(e.name)
        if e.src not in seen:
            raise DanglingEdgeError(f"edge {e.name!r}: unknown source {e.src!r}")
        if e.dst not in seen:
            raise DanglingEdgeError(f"edge {e.name!r}: unknown range {e.dst!r}")

    split = classify(graph)
    return Graph(split.regular + split.sinks, graph.edges)


def classify(graph: Graph) -> VertexClassification:
    """Split a graph's vertices into regulars and sinks, keeping their order.

    Every edge source must be a vertex, as validate() checks.
    """
    has_out = {v: False for v in graph.vertices}
    for e in graph.edges:
        has_out[e.src] = True
    return VertexClassification(
        regular=tuple(v for v in graph.vertices if has_out[v]),
        sinks=tuple(v for v in graph.vertices if not has_out[v]),
    )
