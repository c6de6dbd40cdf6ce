"""The frontier-expansion kernel must agree exactly with the loop oracle,
and it is the only numpy code in the package."""

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cohnibn
from cohnibn import (
    SearchBounds,
    cohn_companion,
    decide_equivalent,
    forward_closure,
    incidence,
    monoid_presentation,
)
from cohnibn import rewriting
from cohnibn.rewriting import _rule_arrays, expand_frontier
from conftest import make_random_graph, one_step


def _expand_frontier_loops(frontier, totals, rule_add, rule_dsum, max_total):
    """Reference kernel: one plain loop per (parent, rule) pair."""
    num_rows, width = frontier.shape
    num_rules = rule_add.shape[0]
    count = 0
    pruned = 0
    for p in range(num_rows):
        for k in range(num_rules):
            if frontier[p, k] > 0:
                if totals[p] + rule_dsum[k] <= max_total:
                    count += 1
                else:
                    pruned += 1
    children = np.empty((count, width), dtype=np.int64)
    parents = np.empty(count, dtype=np.int64)
    fired = np.empty(count, dtype=np.int64)
    pos = 0
    for p in range(num_rows):
        for k in range(num_rules):
            if frontier[p, k] > 0 and totals[p] + rule_dsum[k] <= max_total:
                for j in range(width):
                    children[pos, j] = frontier[p, j] + rule_add[k, j]
                children[pos, k] -= 1
                parents[pos] = p
                fired[pos] = k
                pos += 1
    return children, parents, fired, pruned


_BACKENDS = [("numpy", expand_frontier), ("loops", _expand_frontier_loops)]


def _random_case(rng):
    g = cohn_companion(make_random_graph(rng, max_vertices=4, max_edges=8)).graph
    rs = monoid_presentation(incidence(g))
    rows = rng.randint(0, 64)
    frontier = np.array(
        [[rng.randint(0, 4) for _ in range(rs.num_generators)] for _ in range(rows)],
        dtype=np.int64,
    ).reshape(rows, rs.num_generators)
    totals = frontier.sum(axis=1) if rows else np.empty(0, dtype=np.int64)
    max_total = rng.randint(2, 30)
    return rs, frontier, totals, max_total


def test_backends_agree_on_random_cases():
    rng = random.Random(5)
    for _ in range(60):
        rs, frontier, totals, max_total = _random_case(rng)
        add, dsum = _rule_arrays(rs)
        results = [
            fn(frontier, totals, add, dsum, max_total)
            for _, fn in _BACKENDS
        ]
        ref = results[0]
        for (name, _), got in zip(_BACKENDS[1:], results[1:]):
            for part_ref, part_got in zip(ref[:3], got[:3]):
                assert np.array_equal(part_ref, part_got), name
            assert ref[3] == got[3], name


def test_output_is_in_parent_then_rule_order():
    rng = random.Random(9)
    for _ in range(20):
        rs, frontier, totals, max_total = _random_case(rng)
        add, dsum = _rule_arrays(rs)
        _, parents, fired, _ = expand_frontier(frontier, totals, add, dsum, max_total)
        keys = list(zip(parents.tolist(), fired.tolist()))
        assert keys == sorted(keys)


def test_children_match_manual_application():
    rng = random.Random(13)
    for _ in range(20):
        rs, frontier, totals, max_total = _random_case(rng)
        add, dsum = _rule_arrays(rs)
        children, parents, fired, pruned = expand_frontier(
            frontier, totals, add, dsum, max_total
        )
        expected = 0
        for p in range(frontier.shape[0]):
            for k in range(rs.num_rules):
                if frontier[p, k] < 1:
                    continue
                if totals[p] + dsum[k] > max_total:
                    expected += 1  # applicable but pruned
        assert pruned == expected
        for child, p, k in zip(children, parents, fired):
            manual = frontier[p] + add[k]
            manual[k] -= 1
            assert np.array_equal(child, manual)
            assert frontier[p, k] >= 1


def test_zero_rules_and_empty_frontier():
    add = np.empty((0, 2), dtype=np.int64)
    dsum = np.empty(0, dtype=np.int64)
    frontier = np.array([[1, 2]], dtype=np.int64)
    totals = np.array([3], dtype=np.int64)
    for name, fn in _BACKENDS:
        children, parents, fired, pruned = fn(frontier, totals, add, dsum, 10)
        assert children.shape == (0, 2) and pruned == 0, name

    add2 = np.array([[1, 1]], dtype=np.int64)
    dsum2 = np.array([1], dtype=np.int64)
    empty = np.empty((0, 2), dtype=np.int64)
    etot = np.empty(0, dtype=np.int64)
    for name, fn in _BACKENDS:
        children, parents, fired, pruned = fn(empty, etot, add2, dsum2, 10)
        assert children.shape == (0, 2) and pruned == 0, name


def _capped_searches(seed):
    """forward_closure and decide_equivalent on seeded random systems, with
    state caps that often stop a level part way through."""
    rng = random.Random(seed)
    runs = []
    for _ in range(80):
        g = cohn_companion(make_random_graph(rng, max_vertices=4, max_edges=8)).graph
        rs = monoid_presentation(incidence(g))
        a, b = ([1] + [rng.randint(0, 1) for _ in range(rs.num_generators - 1)]
                for _ in range(2))
        fired = tuple(a)  # a descendant of a, joined through wide levels
        for _ in range(rng.randint(2, 8)):
            fired = rng.choice(one_step(fired, rs) or (fired,))
        bounds = SearchBounds(
            max_states=rng.randint(2, 60),
            max_total_coefficient=rng.randint(8, 40),
            max_depth=rng.randint(2, 16),
        )
        runs.append((bounds, forward_closure(a, rs, bounds),
                     decide_equivalent(a, b, rs, bounds),
                     decide_equivalent(a, fired, rs, bounds)))
    return runs


@pytest.mark.parametrize("cells", [1, 64])
def test_levels_fired_in_blocks_match_whole_levels(monkeypatch, cells):
    # Equal closures and outcomes, traces included, whether a level fires
    # at once or a few rows at a time; no call fires more cells than the
    # block allows, unless one row alone needs more.
    sizes = []

    def recording(frontier, totals, rule_add, rule_dsum, max_total):
        sizes.append((frontier.shape[0] * rule_add.size, rule_add.size))
        return expand_frontier(frontier, totals, rule_add, rule_dsum, max_total)

    monkeypatch.setattr(rewriting, "expand_frontier", recording)
    whole = _capped_searches(3)
    whole_calls = len(sizes)
    assert sum(len(c.elements) == b.max_states for b, c, *_ in whole) >= 10
    sizes.clear()
    monkeypatch.setattr(rewriting, "_BLOCK_CELLS", cells)
    assert _capped_searches(3) == whole
    assert len(sizes) > whole_calls
    assert all(size <= max(cells, row) for size, row in sizes)


def test_search_results_identical_across_backends():
    # End-to-end: the same query answered in another process, under another
    # hash seed, gives the same outcome object, traces included.
    from cohnibn import decide_equivalent, f_rose_two

    rs = monoid_presentation(incidence(f_rose_two()))
    here = decide_equivalent((1, 2), (2, 4), rs)

    code = (
        "from cohnibn import decide_equivalent, f_rose_two, incidence, "
        "monoid_presentation\n"
        "rs = monoid_presentation(incidence(f_rose_two()))\n"
        "out = decide_equivalent((1, 2), (2, 4), rs)\n"
        "print((out.status, out.descendant, out.trace_a.steps, out.trace_b.steps))\n"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed)
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert run.stdout.strip() == str(
        (here.status, here.descendant, here.trace_a.steps, here.trace_b.steps)
    )


def test_only_the_rewriting_module_imports_numpy():
    # numpy stays inside the breadth-first search's frontier kernel; every
    # other module works on plain int tuples.
    importers = set()
    for path in Path(cohnibn.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"rewriting.py"}


_NO_SEARCH_COMMANDS = [
    ["ibn-check", "--example", "r2", "--algebra", "leavitt"],
    ["ibn-check", "--example", "r2", "--algebra", "cohn"],
    ["ibn-check", "--family", "3", "1", "--algebra", "relative"],
    ["companion", "--example", "r2"],
    ["examples"],
    ["family", "3", "1"],
]
_JOINED_PAIR = ["monoid-equiv", "--example", "f-r2", "-a", "1,2", "-b", "2,4"]


def test_numpy_loads_only_when_a_search_runs(cli):
    # A fresh interpreter runs every command that decides without a search
    # and must not have loaded numpy; the first breadth-first search loads
    # it.  Each command's exit code and output match the in-process run.
    script = (
        "import contextlib, io, json, sys\n"
        "import cohnibn, cohnibn.cli\n"
        "rows = [['import', 'numpy' in sys.modules]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        status = cohnibn.cli.main(argv)\n"
        "    rows.append([argv, status, out.getvalue(), 'numpy' in sys.modules])\n"
        "print(json.dumps(rows))\n"
    )
    src = Path(cohnibn.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    commands = [*_NO_SEARCH_COMMANDS, _JOINED_PAIR]
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    rows = json.loads(run.stdout)
    assert rows[0] == ["import", False]
    assert [row[0] for row in rows[1:]] == commands
    assert [row[3] for row in rows[1:]] == [False] * len(_NO_SEARCH_COMMANDS) + [True]
    for argv, status, out, _ in rows[1:]:
        code, here, _ = cli(argv)
        assert (status, out) == (code, here), argv
    assert "status: equivalent" in rows[-1][2]
