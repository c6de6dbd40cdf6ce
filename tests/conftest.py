"""Shared helpers: the example corpus, random graphs, and a CLI runner."""

from __future__ import annotations

import contextlib
import io
import random

import pytest

from cohnibn import (
    AlgebraSpec,
    Graph,
    KIND_COHN,
    KIND_LEAVITT,
    KIND_RELATIVE,
    RewriteSystem,
    SearchBounds,
    as_vector,
    cohn_companion,
    f_line_graph,
    f_rose_two,
    family,
    forward_closure,
    graph_from,
    incidence,
    line_graph,
    rose_two,
    validate,
)
from cohnibn.cli import main as cli_main
from cohnibn.lattice import echelon_basis

Vector = tuple[int, ...]


def make_random_graph(
    rng: random.Random,
    max_vertices: int = 6,
    max_edges: int = 12,
    max_multiplicity: int = 3,
) -> Graph:
    """A validated random multigraph within the given size caps."""
    n = rng.randint(1, max_vertices)
    vertices = [f"n{i}" for i in range(n)]
    edges: list[tuple[str, str, str]] = []
    counts: dict[tuple[str, str], int] = {}
    for _ in range(rng.randint(0, max_edges)):
        src = rng.choice(vertices)
        dst = rng.choice(vertices)
        if counts.get((src, dst), 0) >= max_multiplicity:
            continue
        counts[src, dst] = counts.get((src, dst), 0) + 1
        edges.append((f"e{len(edges)}", src, dst))
    return validate(graph_from(vertices, edges))


def graph_from_rows(rows) -> Graph:
    """The graph on v0, v1, ... with rows[i][j] edges from v_i to v_j."""
    vertices = [f"v{i}" for i in range(len(rows))]
    edges = [
        (f"e{i}_{j}_{c}", vertices[i], vertices[j])
        for i, row in enumerate(rows)
        for j, count in enumerate(row)
        for c in range(count)
    ]
    return validate(graph_from(vertices, edges))


# Nine vertices whose relation rows are rank-deficient, with k0 = 1; the
# least witness rho ~ 2*rho fires 4,867,271 times and peaks at a total of
# 24,672,196.
LONG_WITNESS_ROWS = (
    (1, 0, 3, 0, 0, 0, 1, 3, 0),
    (0, 1, 2, 1, 0, 2, 0, 3, 0),
    (1, 1, 0, 1, 3, 1, 0, 2, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 3),
    (1, 1, 2, 3, 0, 1, 0, 0, 1),
    (0, 0, 1, 0, 2, 0, 0, 3, 0),
    (0, 0, 0, 1, 0, 0, 0, 2, 1),
    (0, 0, 1, 0, 0, 2, 2, 1, 2),
    (0, 0, 2, 0, 1, 3, 0, 0, 0),
)


def one_step(elem, rs: RewriteSystem) -> tuple[Vector, ...]:
    """All single-rule successors of elem, in rule order, deduplicated."""
    vec = as_vector(elem, rs)
    seen: set[Vector] = set()
    out: list[Vector] = []
    for k in range(rs.num_rules):
        if vec[k] < 1:
            continue
        succ = rs.fire(vec, k)
        if succ not in seen:
            seen.add(succ)
            out.append(succ)
    return tuple(out)


def companion_rank_check(graph: Graph) -> bool:
    """Verify the rank argument that makes companion systems solvable.

    Builds the weight system of ``cohn_companion(graph)`` over the
    integers (E's n vertices, regular first, then a fresh sink per
    regular), checks its rank is exactly t+1, then redoes the column
    reduction that explains why: subtracting column i from column n+i
    leaves unit columns in the duplicated block, so the last t+1 columns
    are independent.  Ranks are the lengths of echelon bases.
    """
    rs = incidence(cohn_companion(graph).graph)
    t = rs.num_rules
    n = rs.num_generators - t
    rows = [[1] * (n + t), *map(list, rs.rule_add)]
    for i in range(t):
        rows[i + 1][i] -= 1
    if len(echelon_basis(rows)) != t + 1:
        return False
    reduced = [r[:] for r in rows]
    for j in range(t):
        for r in range(t + 1):
            reduced[r][n + j] -= reduced[r][j]
    for j in range(t):
        for r in range(t + 1):
            expected = 1 if r == j + 1 else 0
            if reduced[r][n + j] != expected:
                return False
    block = [[reduced[r][c] for c in range(n - 1, n + t)] for r in range(t + 1)]
    return len(echelon_basis(block)) == t + 1


# Loose enough that the closures of the small acyclic systems in the tests
# are complete.
_CLOSURE_BOUNDS = SearchBounds(
    max_states=100_000, max_total_coefficient=2**20, max_depth=2**20
)


def closure_normal_form(elem, rs: RewriteSystem) -> Vector:
    """The normal form of elem, read off its complete forward closure.

    Requires the closure to be complete and to hold exactly one vector
    with coefficient zero at every rule's generator, which is what makes
    the fully rewritten form unique.
    """
    closure = forward_closure(elem, rs, _CLOSURE_BOUNDS)
    assert not closure.truncated
    rewritten = [
        vec for vec in closure.elements if not any(vec[: rs.num_rules])
    ]
    assert len(rewritten) == 1, rewritten
    return rewritten[0]


def corpus_graphs() -> list[tuple[str, Graph, tuple[str, ...]]]:
    """Every built-in example plus a few family instances, with their X."""
    entries = [
        ("line", line_graph(), ()),
        ("r2", rose_two(), ()),
        ("f-r2", f_rose_two(), ()),
        ("f-line", f_line_graph(), ()),
    ]
    for n, m in ((2, 1), (3, 1), (3, 2), (4, 2)):
        graph, x = family(n, m)
        entries.append((f"family-{n}-{m}", graph, x))
    return entries


def corpus_specs() -> list[tuple[str, AlgebraSpec]]:
    """Every corpus graph under every applicable algebra kind."""
    specs = []
    for name, graph, x in corpus_graphs():
        specs.append((f"{name}:cohn", AlgebraSpec(kind=KIND_COHN, graph=graph)))
        specs.append(
            (f"{name}:leavitt", AlgebraSpec(kind=KIND_LEAVITT, graph=graph))
        )
        if x:
            specs.append(
                (
                    f"{name}:relative",
                    AlgebraSpec(kind=KIND_RELATIVE, graph=graph, x=x),
                )
            )
    return specs


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in process; returns (exit code, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def cli():
    return run_cli


@pytest.fixture
def corpus():
    return corpus_graphs()
