"""The breadth-first level step must agree exactly with the loop oracle,
and the package runs without numpy."""

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cohnibn
from cohnibn import (
    RewriteSystem,
    SearchBounds,
    cohn_companion,
    incidence,
    monoid_presentation,
)
from cohnibn.rewriting import _rule_deltas, _Side, expand_frontier
from conftest import make_random_graph

_NO_CAP = 10**9


def _expand_frontier_loops(frontier, rs, max_total, seen, max_states):
    """Reference step: one plain loop per (parent, rule) pair, firing with
    ``RewriteSystem.fire`` and recomputing each total."""
    known = set(seen)
    room = max_states - len(seen)
    children, parents, fired = [], [], []
    pruned = 0
    for p in range(len(frontier)):
        for k in range(rs.num_rules):
            if frontier[p][k] < 1:
                continue
            if sum(frontier[p]) + sum(rs.rule_add[k]) - 1 > max_total:
                pruned += 1
                continue
            child = rs.fire(frontier[p], k)
            if child in known:
                continue
            if len(children) == room:
                return children, parents, fired, pruned, True
            known.add(child)
            children.append(child)
            parents.append(p)
            fired.append(k)
    return children, parents, fired, pruned, False


def _random_case(rng):
    """A random system and frontier; ``seen`` holds the frontier and some
    of its children, and the state cap often falls inside the level."""
    g = cohn_companion(make_random_graph(rng, max_vertices=4, max_edges=8)).graph
    rs = monoid_presentation(incidence(g))
    frontier = [
        tuple(rng.randint(0, 4) for _ in range(rs.num_generators))
        for _ in range(rng.randint(0, 64))
    ]
    seen = dict.fromkeys(frontier)
    for vec in frontier:
        for k in range(rs.num_rules):
            if vec[k] and rng.random() < 0.2:
                seen[rs.fire(vec, k)] = None
    seen = {vec: i for i, vec in enumerate(seen)}
    max_total = rng.randint(2, 30)
    max_states = rng.choice([_NO_CAP, len(seen) + rng.randint(0, 40)])
    return rs, frontier, seen, max_total, max_states


def _fire(frontier, rs, max_total, seen, max_states):
    return expand_frontier(frontier, _rule_deltas(rs), max_total, seen, max_states)


def test_backends_agree_on_random_cases():
    rng = random.Random(5)
    capped = 0
    for _ in range(200):
        rs, frontier, seen, max_total, max_states = _random_case(rng)
        before = dict(seen)
        got = _fire(frontier, rs, max_total, seen, max_states)
        want = _expand_frontier_loops(frontier, rs, max_total, before, max_states)
        assert [list(part) for part in got[:3]] == [list(p) for p in want[:3]]
        assert got[3:] == want[3:]
        assert got[0].shape == (len(got[0]),)
        # The new states get the next ids, in firing order.
        assert seen == {**before, **{c: len(before) + j for j, c in enumerate(got[0])}}
        capped += got[4]
    assert capped >= 20


def test_output_is_in_parent_then_rule_order():
    rng = random.Random(9)
    for _ in range(40):
        rs, frontier, seen, max_total, max_states = _random_case(rng)
        _, parents, fired, _, _ = _fire(frontier, rs, max_total, seen, max_states)
        keys = list(zip(parents, fired))
        assert keys == sorted(set(keys))


def test_children_match_manual_application():
    rng = random.Random(13)
    for _ in range(40):
        rs, frontier, seen, max_total, _ = _random_case(rng)
        children, parents, fired, pruned, capped = _fire(
            frontier, rs, max_total, seen, _NO_CAP
        )
        assert not capped
        expected = 0
        for vec in frontier:
            for k in range(rs.num_rules):
                if vec[k] < 1:
                    continue
                if sum(vec) + sum(rs.rule_add[k]) - 1 > max_total:
                    expected += 1  # applicable but pruned
                else:
                    assert rs.fire(vec, k) in seen
        assert pruned == expected
        for child, p, k in zip(children, parents, fired):
            assert frontier[p][k] >= 1
            assert child == rs.fire(frontier[p], k)


# x and y each rewrite into z, so firing x on (2,0,0) and y on (1,1,0)
# both give (1,0,1).
_MERGING = RewriteSystem(generators=("x", "y", "z"), rule_add=((0, 0, 1), (0, 0, 1)))
_MERGING_FRONTIER = [(2, 0, 0), (1, 1, 0)]


def test_duplicates_within_one_level_are_kept_once():
    seen = {vec: i for i, vec in enumerate(_MERGING_FRONTIER)}
    children, parents, fired, pruned, capped = _fire(
        _MERGING_FRONTIER, _MERGING, 64, seen, _NO_CAP
    )
    assert (children, parents, fired, pruned, capped) == (
        [(1, 0, 1), (0, 1, 1)], [0, 1], [0, 0], 0, False
    )
    # A child seen before the level is not new either.
    seen = {vec: i for i, vec in enumerate([*_MERGING_FRONTIER, (1, 0, 1)])}
    children, parents, fired, _, _ = _fire(
        _MERGING_FRONTIER, _MERGING, 64, seen, _NO_CAP
    )
    assert (children, parents, fired) == ([(0, 1, 1)], [1], [0])


def test_the_level_stops_at_the_cap():
    # Room for one new state: the second new child stops the level.
    seen = {vec: i for i, vec in enumerate(_MERGING_FRONTIER)}
    got = _fire(_MERGING_FRONTIER, _MERGING, 64, seen, 3)
    assert got == ([(1, 0, 1)], [0], [0], 0, True)
    assert len(seen) == 3
    # Room for exactly the two new states: the level ends uncapped.
    seen = {vec: i for i, vec in enumerate(_MERGING_FRONTIER)}
    got = _fire(_MERGING_FRONTIER, _MERGING, 64, seen, 4)
    assert got[0] == [(1, 0, 1), (0, 1, 1)] and got[4] is False
    # A full seen stops the level at its first new child, pruned or not.
    seen = {vec: i for i, vec in enumerate(_MERGING_FRONTIER)}
    assert _fire(_MERGING_FRONTIER, _MERGING, 1, seen, 2) == ([], [], [], 3, False)
    assert _fire(_MERGING_FRONTIER, _MERGING, 64, seen, 2) == ([], [], [], 0, True)


def _grown(root, rs, bounds):
    side = _Side(root)
    rules = _rule_deltas(rs)
    while side.can_expand(bounds):
        side.expand(rules, bounds)
    return side


def test_capped_level_keeps_a_prefix_of_the_uncapped_level():
    # A closure stopped by the state cap holds exactly max_states states:
    # the first ones the uncapped search finds, with the same traces.
    rng = random.Random(3)
    capped = 0
    for _ in range(80):
        g = cohn_companion(make_random_graph(rng, max_vertices=4, max_edges=8)).graph
        rs = monoid_presentation(incidence(g))
        root = tuple([1] + [rng.randint(0, 1) for _ in range(rs.num_generators - 1)])
        total, depth = rng.randint(8, 40), rng.randint(2, 16)
        whole = _grown(root, rs, SearchBounds(_NO_CAP, total, depth))
        cap = rng.randint(1, 60)
        side = _grown(root, rs, SearchBounds(cap, total, depth))
        if side.capped:
            capped += 1
            assert len(side.vectors) == cap and side.truncated
        assert side.vectors == whole.vectors[: len(side.vectors)]
        for node in range(len(side.vectors)):
            assert side.trace_to(node) == whole.trace_to(node)
    assert capped >= 10


@pytest.mark.parametrize("rows", [1, 64])
def test_levels_fired_in_blocks_match_whole_levels(rows):
    # Firing a level a few frontier rows at a time, sharing seen and
    # stopping at the first capped block, gives the whole level's output.
    rng = random.Random(11)
    capped = 0
    for _ in range(200):
        rs, frontier, seen, max_total, max_states = _random_case(rng)
        blocked_seen = dict(seen)
        whole = _fire(frontier, rs, max_total, seen, max_states)
        children, parents, fired, pruned, stopped = [], [], [], 0, False
        for start in range(0, len(frontier), rows):
            got = _fire(frontier[start:start + rows], rs, max_total,
                        blocked_seen, max_states)
            children += got[0]
            parents += [start + p for p in got[1]]
            fired += got[2]
            pruned += got[3]
            stopped = got[4]
            if stopped:
                break
        assert (children, parents, fired, pruned, stopped) == (
            list(whole[0]), whole[1], whole[2], whole[3], whole[4])
        assert blocked_seen == seen
        capped += stopped
    assert capped >= 20


def test_zero_rules_and_empty_frontier():
    no_rules = RewriteSystem(generators=("x", "y"), rule_add=())
    seen = {(1, 2): 0}
    assert _fire([(1, 2)], no_rules, 10, seen, _NO_CAP) == ([], [], [], 0, False)

    one_rule = RewriteSystem(generators=("x", "y"), rule_add=((1, 1),))
    assert _fire([], one_rule, 10, {}, _NO_CAP) == ([], [], [], 0, False)


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


def test_no_module_imports_numpy():
    for path in Path(cohnibn.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "numpy" for name in names), path.name


# u has two loops and two edges to v, and v and w point at each other: the
# relation rows are rank-deficient, so ibn-check falls back to the witness
# search when --max-depth 1 is too short for the constructed witness.
_DEFICIENT_TEXT = """\
vertex u;
vertex v;
vertex w;
edge a: u -> u;
edge b: u -> u;
edge c: u -> v;
edge d: u -> v;
edge e: v -> w;
edge f: w -> v;
"""


def test_cli_runs_without_numpy(cli, tmp_path):
    # A fresh interpreter in which importing numpy fails runs every command,
    # two breadth-first searches among them, with the exit code and output
    # of the in-process run.
    deficient = tmp_path / "deficient.graph"
    deficient.write_text(_DEFICIENT_TEXT)
    commands = [
        ["ibn-check", "--example", "r2", "--algebra", "leavitt"],
        ["ibn-check", "--example", "r2", "--algebra", "cohn"],
        ["ibn-check", "--family", "3", "1", "--algebra", "relative"],
        ["ibn-check", str(deficient), "--algebra", "leavitt", "--max-depth", "1"],
        ["companion", "--example", "r2"],
        ["examples"],
        ["family", "3", "1"],
        ["monoid-equiv", "--example", "f-r2", "-a", "1,2", "-b", "2,4"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "import cohnibn.cli\n"
        "rows = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        status = cohnibn.cli.main(argv)\n"
        "    rows.append([argv, status, out.getvalue()])\n"
        "print(json.dumps(rows))\n"
    )
    src = Path(cohnibn.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    rows = json.loads(run.stdout)
    assert [row[0] for row in rows] == commands
    for argv, status, out in rows:
        code, here, _ = cli(argv)
        assert (status, out) == (code, here), argv
    assert "route: witness-search" in rows[3][2]
    assert "status: equivalent" in rows[-1][2]
