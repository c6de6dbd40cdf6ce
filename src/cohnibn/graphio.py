"""Reading and writing graph files.

Two interchangeable forms:

- text: lines ``vertex NAME;`` and ``edge NAME: SRC -> DST;`` in any
  order, with ``#`` comments; names use letters, digits, underscore and
  the prime character.
- JSON: ``{"vertices": [...], "edges": [{"name", "from", "to"}, ...]}``.

Parsing returns the raw graph; callers validate it.  Emitting a
validated graph and re-parsing gives the same graph back.
"""

from __future__ import annotations

import json
import re

from .errors import GraphParseError
from .graphs import Edge, Graph

NAME_PATTERN = r"[A-Za-z0-9_']+"
_NAME_RE = re.compile(NAME_PATTERN + r"\Z")
_VERTEX_RE = re.compile(rf"vertex\s+({NAME_PATTERN})\s*;\Z")
_EDGE_RE = re.compile(
    rf"edge\s+({NAME_PATTERN})\s*:\s*({NAME_PATTERN})\s*->\s*({NAME_PATTERN})\s*;\Z"
)


def parse_graph_text(text: str) -> Graph:
    vertices: list[str] = []
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _VERTEX_RE.match(line)
        if m:
            vertices.append(m.group(1))
            continue
        m = _EDGE_RE.match(line)
        if m:
            edges.append(Edge(m.group(1), m.group(2), m.group(3)))
            continue
        raise GraphParseError(f"cannot parse {line!r}", line=lineno)
    return Graph(tuple(vertices), tuple(edges))


def parse_graph_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError as exc:
        raise GraphParseError("invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise GraphParseError("top-level value must be an object")
    try:
        vertices, edges = data["vertices"], data.get("edges", [])
        if not (isinstance(vertices, list) and isinstance(edges, list)):
            raise TypeError("vertices and edges must be arrays")
        vertices = [_json_name(v) for v in vertices]
        edges = [
            Edge(_json_name(e["name"]), _json_name(e["from"]), _json_name(e["to"]))
            for e in edges
        ]
    except (KeyError, TypeError) as exc:
        raise GraphParseError(f"malformed graph object: {exc}") from exc
    return Graph(tuple(vertices), tuple(edges))


def _json_name(value) -> str:
    """A JSON name must be a string the text format can carry."""
    if not isinstance(value, str):
        raise GraphParseError(f"name must be a string, got {type(value).__name__}")
    if not _NAME_RE.match(value):
        raise GraphParseError(f"name {value!r} is not of the form {NAME_PATTERN}")
    return value


def parse_graph(text: str) -> Graph:
    """Parse either form, sniffing JSON by a leading brace."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)


def _checked_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"name {name!r} is not representable in the text format")
    return name


def emit_graph_text(graph: Graph, comments: tuple[str, ...] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    for v in graph.vertices:
        lines.append(f"vertex {_checked_name(v)};")
    for e in graph.edges:
        lines.append(
            f"edge {_checked_name(e.name)}: "
            f"{_checked_name(e.src)} -> {_checked_name(e.dst)};"
        )
    return "\n".join(lines) + "\n"


def graph_as_dict(graph: Graph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [{"name": e.name, "from": e.src, "to": e.dst} for e in graph.edges],
    }


def emit_graph_json(graph: Graph) -> str:
    return json.dumps(graph_as_dict(graph), indent=2, sort_keys=True) + "\n"
