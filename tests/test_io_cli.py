"""Graph file parsing/emission and the command-line interface."""

import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import cohnibn
from cohnibn import (
    CohnIbnError,
    Edge,
    GraphParseError,
    cohn_presentation,
    emit_graph_json,
    emit_graph_text,
    graph_as_dict,
    graph_from,
    incidence,
    line_graph,
    load_example,
    monoid_presentation,
    parse_graph,
    parse_graph_json,
    parse_graph_text,
    rose_two,
    validate,
)
from cohnibn.cli import EXIT_INPUT, EXIT_OK, EXIT_REFUTED, EXIT_UNKNOWN, EXIT_USAGE
from conftest import LONG_WITNESS_ROWS, graph_from_rows, make_random_graph
from test_acceptance import criterion_12_invocations
from test_decision import _DEFICIENT

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
_README = _PYPROJECT.with_name("README.md")


# ---------------------------------------------------------------- parsing


def test_parse_text_basic():
    g = parse_graph_text(
        """
        # a comment
        vertex v;
        edge e: v -> v;   # trailing comment
        edge f: v -> v;
        """
    )
    assert validate(g) == rose_two()


def test_parse_text_is_order_insensitive():
    # Edge statements may precede the vertex declarations they use.
    g = parse_graph_text(
        "edge e: u -> v;\nedge f: v -> w;\nvertex u;\nvertex v;\nvertex w;"
    )
    assert validate(g) == line_graph()


def test_parse_text_accepts_primes_in_names():
    g = parse_graph_text("vertex v;\nvertex v';\nedge e': v -> v';")
    assert g.edges == (Edge("e'", "v", "v'"),)


def test_parse_text_reports_line_numbers():
    with pytest.raises(GraphParseError) as exc:
        parse_graph_text("vertex a;\nvertx b;\n")
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


def test_parse_json_basic():
    text = emit_graph_json(line_graph())
    assert validate(parse_graph_json(text)) == line_graph()


def test_parse_json_rejects_malformed_input():
    with pytest.raises(GraphParseError):
        parse_graph_json("{not json")
    with pytest.raises(GraphParseError):
        parse_graph_json("[1, 2]")
    with pytest.raises(GraphParseError):
        parse_graph_json('{"vertices": ["a"], "edges": [{"name": "e"}]}')


def test_parse_graph_sniffs_format():
    assert parse_graph(emit_graph_json(rose_two())) == rose_two()
    assert validate(parse_graph(emit_graph_text(rose_two()))) == rose_two()


def test_text_round_trip_on_corpus(corpus):
    for name, graph, _ in corpus:
        assert validate(parse_graph_text(emit_graph_text(graph))) == graph, name
        assert validate(parse_graph_json(emit_graph_json(graph))) == graph, name


def test_emit_text_rejects_unrepresentable_names():
    bad = validate(graph_from(["a b"]))
    with pytest.raises(ValueError):
        emit_graph_text(bad)


def test_graph_as_dict_shape():
    d = graph_as_dict(rose_two())
    assert d == {
        "vertices": ["v"],
        "edges": [
            {"name": "e", "from": "v", "to": "v"},
            {"name": "f", "from": "v", "to": "v"},
        ],
    }


# ---------------------------------------------------------------- CLI


def test_cli_examples_list(cli):
    code, out, err = cli(["examples"])
    assert code == EXIT_OK
    assert "r2" in out and "family-N-M" in out


def test_cli_examples_emits_parseable_graph(cli):
    code, out, _ = cli(["examples", "r2"])
    assert code == EXIT_OK
    assert validate(parse_graph(out)) == rose_two()

    code, out, _ = cli(["examples", "line", "--format", "json"])
    assert code == EXIT_OK
    assert validate(parse_graph(out)) == line_graph()


def test_cli_examples_unknown_name(cli):
    code, out, err = cli(["examples", "nosuch"])
    assert code == EXIT_INPUT
    assert "unknown example" in err


def test_cli_companion_text_output_is_parseable(cli):
    code, out, _ = cli(["companion", "--example", "r2"])
    assert code == EXIT_OK
    comp = validate(parse_graph(out))
    assert comp.vertices == ("v", "v'")
    assert comp.num_edges == 4
    assert "# incidence row v: 2 2" in out
    assert "# incidence row v': 0 0" in out


def test_cli_companion_json_report(cli):
    code, out, _ = cli(["companion", "--example", "r2", "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["command"] == "companion"
    assert report["result"]["incidence"]["rows"] == [[2, 2], [0, 0]]
    assert report["result"]["origin"]["vertices"] == {"v'": "v"}
    assert report["input"]["digest"].startswith("sha256:")


def test_cli_companion_with_x(cli):
    code, out, _ = cli(["companion", "--example", "line", "--x", "u,v"])
    assert code == EXIT_OK
    assert validate(parse_graph(out)) == line_graph()

    code, _, err = cli(["companion", "--example", "line", "--x", "w"])
    assert code == EXIT_INPUT
    assert "not a regular vertex" in err


def test_cli_companion_takes_the_suggested_x(cli):
    # Without --x, companion builds E(X) for the X that --family suggests,
    # the same target that ibn-check --algebra relative decides.
    code, out, _ = cli(["companion", "--family", "3", "2", "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["arguments"]["x"] == ["v2", "v3"]
    _, out, _ = cli(["ibn-check", "--family", "3", "2", "--algebra", "relative",
                     "--format", "json"])
    checked = json.loads(out)
    assert report["result"]["graph"] == checked["result"]["target"]
    assert report["input"]["digest"] == checked["input"]["digest"]
    # An explicit --x wins over the suggestion.
    _, out, _ = cli(["companion", "--family", "3", "2", "--x", "v3",
                     "--format", "json"])
    assert json.loads(out)["arguments"]["x"] == ["v3"]


def test_cli_x_spellings_give_one_report(cli):
    # X is a set: the order and repeats of --x change neither the digest
    # nor the echoed x, which follow the graph's vertex order.
    cases = [
        (["ibn-check", "--family", "3", "2", "--algebra", "relative"],
         ["v2,v3", "v3,v2", "v3,v2,v3"], ["v2", "v3"]),
        (["ibn-check", "--example", "r2", "--algebra", "relative"],
         ["v", "v,v"], ["v"]),
        (["companion", "--family", "3", "2"],
         ["v2,v3", "v3,v2", "v3,v2,v3"], ["v2", "v3"]),
    ]
    for argv, spellings, x in cases:
        for fmt in ("json", "text"):
            runs = {
                cli([*argv, "--x", spelling, "--format", fmt])
                for spelling in spellings
            }
            assert len(runs) == 1, (argv, fmt)
        _, out, _ = cli([*argv, "--x", spellings[-1], "--format", "json"])
        report = json.loads(out)
        assert report["arguments"]["x"] == x
        if argv[0] == "ibn-check":
            assert report["result"]["x"] == x

    code, _, err = cli(["companion", "--example", "line", "--x", "u,u,w"])
    assert code == EXIT_INPUT
    assert "'w' is not a regular vertex (sink)" in err


def test_cli_companion_from_file_and_stdin(cli, tmp_path, monkeypatch):
    path = tmp_path / "g.graph"
    path.write_text(emit_graph_text(rose_two()))
    code, out, _ = cli(["companion", str(path)])
    assert code == EXIT_OK
    assert validate(parse_graph(out)).num_vertices == 2

    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(emit_graph_text(rose_two())))
    code, out2, _ = cli(["companion", "-"])
    assert code == EXIT_OK
    assert validate(parse_graph(out2)).num_vertices == 2


def test_cli_missing_file(cli):
    code, _, err = cli(["companion", "/no/such/file"])
    assert code == EXIT_INPUT
    assert "error" in err


def test_cli_deeply_nested_json_is_an_input_error(cli, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"vertices": ' + "[" * 200_000 + "]" * 200_000 + "}")
    code, out, err = cli(["ibn-check", str(path)])
    assert code == EXIT_INPUT
    assert out == "" and "nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, algebra",
    [
        ('{"vertices": [[1], null, 2.5], '
         '"edges": [{"name": 1, "from": [1], "to": null}]}', "leavitt"),
        ('{"vertices": ["a b", "c"], "edges": []}', "cohn"),
        ('{"vertices": "abc"}', "leavitt"),
    ],
)
def test_cli_json_names_must_be_text_format_names(cli, tmp_path, text, algebra):
    # JSON names are held to the text format's names, so a file that
    # ibn-check accepts can always be emitted by companion.
    path = tmp_path / "bad.json"
    path.write_text(text)
    for argv in (["ibn-check", str(path), "--algebra", algebra],
                 ["companion", str(path)]):
        code, out, err = cli(argv)
        assert code == EXIT_INPUT, argv
        assert out == "" and "Traceback" not in err
    with pytest.raises(GraphParseError):
        parse_graph_json(text)


def test_cli_requires_exactly_one_source(cli):
    code, _, err = cli(["companion"])
    assert code == EXIT_USAGE
    code, _, err = cli(["companion", "--example", "r2", "--family", "2", "1"])
    assert code == EXIT_USAGE


def test_cli_ibn_check_exit_codes(cli):
    code, out, _ = cli(["ibn-check", "--example", "r2", "--algebra", "cohn"])
    assert code == EXIT_OK
    assert "ibn: certified" in out and "imn: holds" in out
    assert "certificate: v=2 v'=-1" in out

    code, out, _ = cli(["ibn-check", "--example", "r2", "--algebra", "leavitt"])
    assert code == EXIT_REFUTED
    assert "ibn: refuted" in out and "imn: unknown" in out

    code, out, _ = cli(
        ["ibn-check", "--example", "r2", "--algebra", "leavitt", "--max-coeff", "1"]
    )
    assert code == EXIT_UNKNOWN
    assert "ibn: unknown" in out


def test_cli_ibn_check_relative_uses_example_x(cli):
    code, out, _ = cli(
        ["ibn-check", "--example", "relative-2-1", "--algebra", "relative"]
    )
    assert code == EXIT_REFUTED
    assert "x: v2" in out

    code, out, _ = cli(
        ["ibn-check", "--family", "2", "1", "--algebra", "relative", "--x", "v2"]
    )
    assert code == EXIT_REFUTED


def test_cli_ibn_check_has_no_max_m(cli):
    # --max-coeff alone caps m' = 1 + k0; the removed --max-m is unknown.
    for source in (["--example", "r2"], ["--example", "relative-2-1"]):
        for algebra in ("cohn", "relative", "leavitt"):
            for max_m in ("1", "6", "100"):
                code, out, err = cli(
                    ["ibn-check", *source, "--algebra", algebra, "--max-m", max_m]
                )
                assert code == EXIT_USAGE, (source, algebra, max_m)
                assert out == "" and "--max-m" in err


def test_cli_ibn_check_leavitt_roses(cli, tmp_path):
    # R_n is one vertex with n loops: R ~ R^n, so [1] has order n - 1,
    # and the least witness is R ~ R^n whatever n is.
    def rose(n):
        path = tmp_path / f"rose{n}.graph"
        path.write_text(
            "vertex v;\n" + "".join(f"edge e{i}: v -> v;\n" for i in range(n))
        )
        return str(path)

    def check(n, *flags):
        code, out, _ = cli(
            ["ibn-check", rose(n), "--algebra", "leavitt", "--format", "json", *flags]
        )
        return code, json.loads(out)["result"]

    for n in range(2, 13):
        code, result = check(n)
        assert code == EXIT_REFUTED, n
        assert result["route"] == "witness-construction"
        assert f"order of [1] in K0: k0={n - 1}" in result["notes"]
        assert (result["witness"]["m"], result["witness"]["m_prime"]) == (1, n)


def test_cli_ibn_check_text_lists_the_notes(cli):
    code, out, _ = cli(["ibn-check", "--example", "r2", "--algebra", "leavitt"])
    assert code == EXIT_REFUTED
    assert "note: order of [1] in K0: k0=1" in out.splitlines()


def test_cli_out_of_range_coefficients_are_input_errors(cli):
    huge = "100000000000000000000"
    for argv in (
        ["monoid-equiv", "--example", "r2", "-a", huge, "-b", "2"],
        ["monoid-equiv", "--example", "f-r2", "-a", f"1,{huge}", "-b", "2,0"],
        ["monoid-equiv", "--example", "r2", "-a", "1", "-b", "2", "--max-coeff", huge],
        ["ibn-check", "--example", "r2", "--algebra", "leavitt", "--max-coeff", huge],
    ):
        code, out, err = cli(argv)
        assert code == EXIT_INPUT, argv
        assert out == "" and "Traceback" not in err


def test_cli_ibn_check_x_requires_relative(cli):
    # Refused whenever --x is given, even when it names no vertex.
    for algebra in ("cohn", "leavitt"):
        for value in ("v", "", ",", " "):
            code, out, err = cli(
                ["ibn-check", "--example", "r2", "--algebra", algebra, "--x", value]
            )
            assert code == EXIT_USAGE, (algebra, value)
            assert "--x only applies to --algebra relative" in err and not out


def _ibn_check_child(args, stdin=None, timeout=20, address_limit=None):
    """Run a Leavitt ibn-check with a JSON report in a child process, so
    that a hang fails the test at its timeout; ``address_limit`` caps the
    child's address space in bytes."""
    src = Path(cohnibn.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    wrapper = "import sys; from cohnibn.cli import main; sys.exit(main())"

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_limit, address_limit))

    return subprocess.run(
        [sys.executable, "-c", wrapper, "ibn-check", *args,
         "--algebra", "leavitt", "--format", "json"],
        capture_output=True, env=env, timeout=timeout, input=stdin, text=True,
        preexec_fn=limit if address_limit else None,
    )


def _ibn_check_huge_bounds(args, stdin=None):
    """ibn-check in a child process with --max-coeff at 2**62 and
    --max-states 1."""
    return _ibn_check_child(
        [*args, "--max-coeff", str(2**62), "--max-states", "1"], stdin
    )


def test_cli_ibn_check_huge_bounds_finish(cli):
    # The witness is built, not searched for, so bounds near 2**62 cost
    # nothing; a pair search over them would not finish.
    out = _ibn_check_huge_bounds(["--example", "r2"])
    assert out.returncode == EXIT_REFUTED
    result = json.loads(out.stdout)["result"]
    assert result["route"] == "witness-construction"
    assert (result["witness"]["m"], result["witness"]["m_prime"]) == (1, 2)


def test_cli_fallback_search_with_huge_bounds_finishes(cli):
    # Rank-deficient relation rows and a constructed witness that breaks
    # --max-depth send ibn-check to the pair search; the pairs it tries
    # must not grow with --max-coeff.
    graph = graph_from(
        ["u", "v", "w"],
        [("a", "u", "u"), ("b", "u", "u"), ("c", "u", "v"), ("d", "u", "v"),
         ("e", "v", "w"), ("f", "w", "v")],
    )
    out = _ibn_check_huge_bounds(
        ["-", "--max-depth", "1"], stdin=emit_graph_text(graph)
    )
    assert out.returncode == EXIT_UNKNOWN
    assert json.loads(out.stdout)["result"]["route"] == "exhausted"


def test_cli_long_constructed_witness_is_not_fired(cli):
    # Raising --max-depth as the notes advise leaves --max-coeff broken,
    # and the construction checks both before it fires millions of steps.
    out = _ibn_check_child(
        ["-", "--max-depth", "4867271"],
        stdin=emit_graph_text(graph_from_rows(LONG_WITNESS_ROWS)), timeout=30,
    )
    assert out.returncode == EXIT_UNKNOWN, out.stderr
    result = json.loads(out.stdout)["result"]
    assert result["route"] == "exhausted"
    assert ("constructed witness breaks --max-coeff=64: raise --max-coeff to "
            "24672196") in result["notes"]


def test_cli_out_of_memory_is_an_input_error(cli):
    # The bounds the notes advise fit a witness of 4,867,271 firings per
    # side, which does not fit in 256 MB; start-up needs about 20 MB.
    out = _ibn_check_child(
        ["-", "--max-coeff", "24672196", "--max-depth", "4867271"],
        stdin=emit_graph_text(graph_from_rows(LONG_WITNESS_ROWS)), timeout=60,
        address_limit=256 << 20,
    )
    assert out.returncode == EXIT_INPUT, out.stderr
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr == (
        "cohnibn: error: out of memory: lower --max-coeff, --max-depth or "
        "--max-states\n"
    )


def test_cli_fallback_search_under_the_advised_coefficient_cap_finishes(cli):
    # With the --max-coeff the notes name and the default depth and state
    # caps, --max-depth still breaks and the rows are rank-deficient, so
    # ibn-check searches pairs up to m' = 24672196 // 9.  Closures that are
    # shifts of an earlier one are not searched again, so it finishes.
    out = _ibn_check_child(
        ["-", "--max-coeff", "24672196"],
        stdin=emit_graph_text(graph_from_rows(LONG_WITNESS_ROWS)), timeout=180,
    )
    assert out.returncode == EXIT_UNKNOWN, out.stderr
    result = json.loads(out.stdout)["result"]
    assert result["route"] == "exhausted"
    assert ("constructed witness breaks --max-depth=64: raise --max-depth to "
            "4867271") in result["notes"]
    assert ("witness search: no pair m < m' with k0 | m' - m joined within "
            "bounds") in result["notes"]


def test_cli_ibn_check_json_report(cli):
    code, out, _ = cli(
        ["ibn-check", "--example", "r2", "--algebra", "cohn", "--format", "json"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "certified"
    assert report["result"]["certificate"]["weights"] == ["2", "-1"]
    assert report["result"]["bounds"]["max_states"] == 100000
    assert "max_m" not in report["result"]["bounds"]
    assert "max_m" not in report["arguments"]
    assert report["result"]["audit"] == "pass"

    code, out, _ = cli(
        ["ibn-check", "--example", "r2", "--algebra", "leavitt", "--format", "json"]
    )
    assert code == EXIT_REFUTED
    report = json.loads(out)
    assert report["result"]["witness"]["m"] == 1
    assert report["result"]["witness"]["m_prime"] == 2
    assert report["result"]["witness"]["trace_m"]["steps"] == [
        {"rule": 0, "generator": "v", "result": [2]}
    ]


def test_cli_monoid_equiv_outcomes(cli):
    code, out, _ = cli(["monoid-equiv", "--example", "f-r2", "-a", "1,2", "-b", "2,4"])
    assert code == EXIT_OK
    assert "status: equivalent" in out

    code, out, _ = cli(["monoid-equiv", "--example", "f-r2", "-a", "1,0", "-b", "2,0"])
    assert code == EXIT_REFUTED
    assert "reason: gamma-separation" in out
    assert "gamma: a=2 b=4" in out

    # The weight system of relative-2-1 is unsolvable, but v1 -> v1 and
    # v2 -> v1 + 2 v2 keep (coefficient of v2) - (coefficient of v1) fixed,
    # so the restricted lattice separates (0,1) from (0,2).
    argv = ["monoid-equiv", "--example", "relative-2-1", "-a", "0,1", "-b", "0,2",
            "--max-coeff", "10"]
    code, out, _ = cli(argv)
    assert code == EXIT_REFUTED
    assert "reason: lattice-separation" in out
    code, out, _ = cli([*argv, "--format", "json"])
    assert code == EXIT_REFUTED
    assert _lattice_evidence_holds(load_example("relative-2-1")[0], json.loads(out)["result"])

    # (2,1) - (1,0) is the relation row of v2, so nothing separates the
    # sides, and tight bounds leave the search inconclusive.
    code, out, _ = cli(
        ["monoid-equiv", "--example", "relative-2-1", "-a", "2,1", "-b", "1,0",
         "--max-coeff", "10"]
    )
    assert code == EXIT_UNKNOWN
    assert "status: unknown" in out


def _lattice_evidence_holds(graph, result) -> bool:
    """Check a lattice-separation report against the graph alone.

    Rules come from the edges: a unit at v becomes the ranges of v's edges,
    plus one unit at q_v in the cohn presentation.  The reachable set is
    recomputed from the supports of a and b.
    """
    gens = result["generators"]
    index = {name: i for i, name in enumerate(gens)}
    rules = {}
    for edge in graph.edges:
        add = rules.setdefault(index[edge.src], [0] * len(gens))
        add[index[edge.dst]] += 1
    for v, add in rules.items():
        if f"q_{gens[v]}" in index:
            add[index[f"q_{gens[v]}"]] += 1
    a, b = result["a"], result["b"]
    reached = {i for i in range(len(gens)) if a[i] or b[i]}
    grown = True
    while grown:
        grown = False
        for v in sorted(reached):
            for i, c in enumerate(rules.get(v, ())):
                if c and i not in reached:
                    reached.add(i)
                    grown = True
    lattice = result["lattice"]
    if lattice["generators"] != [gens[i] for i in sorted(reached)]:
        return False
    w = dict(zip(sorted(reached), lattice["functional"]))
    d = lattice["modulus"]

    def value(vec):
        total = sum(w[i] * vec[i] for i in w)
        return total % d if d else total

    for v in reached & rules.keys():
        row = [-c for c in rules[v]]
        row[v] += 1
        if value(row) != 0:
            return False
    return value(a) != value(b)


def test_cli_lattice_separations_verify_independently(cli, tmp_path):
    # The cohn presentation gives every rule its own q-generator, so its
    # lattice has no torsion there and only the graph presentation gives
    # modular functionals.
    rng = random.Random(7)
    seen = {"exact": 0, "modular": 0}
    for k in range(300):
        graph = make_random_graph(rng, max_vertices=4, max_edges=8)
        path = tmp_path / f"g{k}.graph"
        path.write_text(emit_graph_text(graph))
        presentation = rng.choice(["graph", "cohn"])
        width = len(graph.vertices)
        if presentation == "cohn":
            width += incidence(graph).num_regular
        a, b = ([rng.randint(0, 2) for _ in range(width)] for _ in range(2))
        if not any(a) or not any(b):
            continue
        code, out, err = cli(
            ["monoid-equiv", str(path), "--presentation", presentation,
             "-a", ",".join(map(str, a)), "-b", ",".join(map(str, b)),
             "--max-states", "200", "--format", "json"]
        )
        assert code in (EXIT_OK, EXIT_REFUTED, EXIT_UNKNOWN), err
        result = json.loads(out)["result"]
        if result.get("reason") != "lattice-separation":
            continue
        assert code == EXIT_REFUTED
        assert _lattice_evidence_holds(graph, result), result
        seen["modular" if result["lattice"]["modulus"] else "exact"] += 1
    assert min(seen.values()) >= 5, seen


def test_cli_lattice_step_runs_after_vector_validation(cli):
    # On relative-2-1 the lattice separates most pairs; bad vectors must
    # still fail as input errors first.
    for presentation, good in (("graph", "0,1"), ("cohn", "0,1,0")):
        for bad, expected in (
            ("0,1,0,0", EXIT_INPUT),
            ("0,-1" if presentation == "graph" else "0,-1,0", EXIT_INPUT),
            ("0,0" if presentation == "graph" else "0,0,0", EXIT_INPUT),
            ("0," + str(2**62 + 1) + (",0" if presentation == "cohn" else ""), EXIT_INPUT),
            ("0,x", EXIT_USAGE),
        ):
            for a, b in ((bad, good), (good, bad)):
                code, out, err = cli(
                    ["monoid-equiv", "--example", "relative-2-1",
                     "--presentation", presentation, "-a", a, "-b", b]
                )
                assert code == expected, (presentation, a, b)
                assert out == "" and "Traceback" not in err


def test_cli_monoid_equiv_identical_vectors(cli):
    code, out, _ = cli(["monoid-equiv", "--example", "f-r2", "-a", "3,1", "-b", "3,1"])
    assert code == EXIT_OK
    assert "status: equivalent" in out


def test_cli_monoid_equiv_cohn_presentation(cli):
    code, out, _ = cli(
        ["monoid-equiv", "--example", "r2", "--presentation", "cohn",
         "-a", "1,0", "-b", "2,1"]
    )
    assert code == EXIT_OK
    assert "generators: v q_v" in out
    assert "status: equivalent" in out


def test_cli_monoid_equiv_bad_vectors(cli):
    code, _, err = cli(["monoid-equiv", "--example", "f-r2", "-a", "1,x", "-b", "2,0"])
    assert code == EXIT_USAGE

    code, _, err = cli(["monoid-equiv", "--example", "f-r2", "-a", "1", "-b", "2,0"])
    assert code == EXIT_INPUT
    assert "length" in err

    code, _, err = cli(["monoid-equiv", "--example", "f-r2", "-a", "0,0", "-b", "2,0"])
    assert code == EXIT_INPUT


def test_cli_monoid_equiv_unsolvable_system_still_searches(cli):
    # r2's own weight system is inconsistent, so no functional is available;
    # the search alone settles the query.
    code, out, _ = cli(["monoid-equiv", "--example", "r2", "-a", "1", "-b", "2"])
    assert code == EXIT_OK
    assert "status: equivalent" in out


def test_cli_family_command(cli):
    code, out, _ = cli(["family", "3", "2"])
    assert code == EXIT_OK
    g = validate(parse_graph(out))
    assert g.num_vertices == 3
    assert "# x: v2 v3" in out

    code, _, err = cli(["family", "0", "1"])
    assert code == EXIT_INPUT

    code, out, _ = cli(["family", "2", "1", "--format", "json"])
    report = json.loads(out)
    assert report["result"]["x"] == ["v2"]


def test_cli_output_flag_writes_file(cli, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = cli(
        ["ibn-check", "--example", "r2", "--format", "json", "--output", str(target)]
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["status"] == "certified"


def test_cli_usage_errors(cli):
    code, _, _ = cli([])
    assert code == EXIT_USAGE
    code, _, _ = cli(["no-such-command"])
    assert code == EXIT_USAGE
    code, _, _ = cli(["ibn-check", "--example", "r2", "--algebra", "weird"])
    assert code == EXIT_USAGE


def test_cli_help_and_version(cli):
    code, out, _ = cli(["--version"])
    assert code == EXIT_OK
    code, out, _ = cli(["--help"])
    assert code == EXIT_OK


def test_console_script_is_installed():
    # The promise is the [project.scripts] entry in pyproject.toml.  Run its
    # target the way the generated wrapper does, so the check holds without
    # an install; where an installed script is on PATH, it must agree.
    tomllib = pytest.importorskip("tomllib")
    with open(_PYPROJECT, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["cohnibn"]
    module, _, func = entry.partition(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    out = subprocess.run(
        [sys.executable, "-c", wrapper, "examples"], capture_output=True
    )
    assert out.returncode == 0
    listed = [line.split()[0] for line in out.stdout.decode().splitlines()]
    assert "r2" in listed

    script = shutil.which("cohnibn")
    if script is not None:
        installed = subprocess.run([script, "examples"], capture_output=True)
        assert installed.returncode == 0
        assert installed.stdout == out.stdout


def test_readme_library_section_holds():
    # The "Library" code block runs as written, and every name its list of
    # lower-level pieces gives is exported from cohnibn; the echelon basis
    # it names as not exported is not.
    section = _README.read_text().split("\n## Library\n")[1].split("\n## ")[0]
    exec(section.split("```python\n")[1].split("```")[0], {})
    listed = section.split("Lower-level pieces are exported too:")[1]
    listed, _, unexported = listed.split("\n\n")[0].partition("The echelon")
    names = re.findall(r"`(\w+)`", listed)
    assert len(names) >= 15
    assert [name for name in names if not hasattr(cohnibn, name)] == []
    assert "`cohnibn.lattice.echelon_basis`; it is not exported" in unexported
    assert callable(cohnibn.lattice.echelon_basis)
    assert not hasattr(cohnibn, "echelon_basis")


def test_every_name_in_all_is_exported():
    # The import list and __all__ of cohnibn are kept by hand; a name in
    # __all__ that is not imported breaks `from cohnibn import *`.
    assert [name for name in cohnibn.__all__ if not hasattr(cohnibn, name)] == []


def test_cli_reports_are_deterministic(cli):
    for argv in (
        ["ibn-check", "--example", "r2", "--format", "json"],
        ["companion", "--example", "f-line"],
        ["monoid-equiv", "--example", "f-r2", "-a", "1,2", "-b", "2,4"],
    ):
        first = cli(argv)
        second = cli(argv)
        assert first == second


def _pinned_invocations():
    """(argv, stdin) pairs: criterion 12's calls, then the routes and reasons
    those miss, each in both formats.  disjoint-closures is not among them:
    no graph input was found that reaches it, as the lattice check settles
    every pair tried whose closures are complete."""
    extras = [
        # witness-search
        (["ibn-check", "-", "--algebra", "leavitt", "--max-depth", "1"],
         emit_graph_text(_DEFICIENT)),
        # exhausted after a search
        (["ibn-check", "--example", "family-3-2", "--algebra", "leavitt",
          "--max-coeff", "5"], None),
        # gamma-separation
        (["monoid-equiv", "--example", "f-r2", "-a", "1,0", "-b", "0,1"], None),
        # lattice-separation with d = 0, then with d = 2 on a rose with 3 loops
        (["monoid-equiv", "--example", "r2", "--presentation", "cohn",
          "-a", "1,0", "-b", "2,0"], None),
        (["monoid-equiv", "-", "-a", "1", "-b", "2"],
         emit_graph_text(graph_from_rows(((3,),)))),
        # unknown: the state cap trips before the closures meet
        (["monoid-equiv", "--example", "r2", "-a", "1", "-b", "3",
          "--max-states", "1"], None),
        # companion with the X that --family suggests
        (["companion", "--family", "3", "2"], None),
    ]
    return [(argv, None) for argv in criterion_12_invocations()] + [
        ([*argv, "--format", fmt], stdin)
        for argv, stdin in extras
        for fmt in ("text", "json")
    ]


# The first 16 hex digits of sha256("<exit code>\n<stdout>") per call.  A
# change that alters a report re-pins its digest here and names it in CHANGES.md.
_PINNED_REPORTS = {
    "examples line": "b70596155352438f",
    "companion --example line": "dd933e5b2d33c02b",
    "ibn-check --example line --algebra cohn": "e66d4ccc5eb98d89",
    "ibn-check --example line --algebra leavitt --format json": "adf996c8126ba86f",
    "examples r2": "1e46d114edeef2f6",
    "companion --example r2": "20ba9367aa5d2ec6",
    "ibn-check --example r2 --algebra cohn": "684f0bfb664e89c9",
    "ibn-check --example r2 --algebra leavitt --format json": "fd53af62fc16de35",
    "examples f-r2": "a11b588a3a9af82e",
    "companion --example f-r2": "fb96b7af730ff770",
    "ibn-check --example f-r2 --algebra cohn": "52b92a5c13c32e5e",
    "ibn-check --example f-r2 --algebra leavitt --format json": "647729a240c5f8ab",
    "examples f-line": "0f3614fe97d07d0a",
    "companion --example f-line": "6e9aaeb9faff820d",
    "ibn-check --example f-line --algebra cohn": "f8bd0d27841c504e",
    "ibn-check --example f-line --algebra leavitt --format json": "448af3bf455395ab",
    "examples": "dda4a2daf1dda103",
    "examples family-3-2": "644706f014df1104",
    "family 3 2": "2c141f35c9311121",
    "family 2 1 --format json": "95cc2c88c3ca1e70",
    "companion --family 2 1 --x v2 --format json": "cef5399dedb2ec34",
    "ibn-check --example relative-2-1 --algebra relative": "81692531987c81fe",
    "ibn-check --family 3 2 --algebra relative --format json": "88f0deff16e3f9c7",
    "monoid-equiv --example f-r2 -a 1,0 -b 2,0": "1f3c884b20fd9a7f",
    "monoid-equiv --example f-r2 -a 1,2 -b 2,4 --format json": "20ba3852592b3fa6",
    "monoid-equiv --example r2 --presentation cohn -a 1,0 -b 2,1": "a93f24150028f6fe",
    "ibn-check --example r2 --algebra leavitt --max-coeff 1": "1da725e622deb85c",
    "ibn-check - --algebra leavitt --max-depth 1 --format text": "b91e2e05d4a18152",
    "ibn-check - --algebra leavitt --max-depth 1 --format json": "f9456ba8a67a6022",
    "ibn-check --example family-3-2 --algebra leavitt --max-coeff 5 --format text":
        "25d7ba14ecdea3a8",
    "ibn-check --example family-3-2 --algebra leavitt --max-coeff 5 --format json":
        "895044dc9d3e1ed4",
    "monoid-equiv --example f-r2 -a 1,0 -b 0,1 --format text": "48276a71eb855085",
    "monoid-equiv --example f-r2 -a 1,0 -b 0,1 --format json": "241f08738673f84b",
    "monoid-equiv --example r2 --presentation cohn -a 1,0 -b 2,0 --format text":
        "73b60c0e5f0fdc38",
    "monoid-equiv --example r2 --presentation cohn -a 1,0 -b 2,0 --format json":
        "d286d93eadadb9c5",
    "monoid-equiv - -a 1 -b 2 --format text": "544010bc934dc762",
    "monoid-equiv - -a 1 -b 2 --format json": "bb05aa9c5aaa1c2a",
    "monoid-equiv --example r2 -a 1 -b 3 --max-states 1 --format text":
        "1f25d969237c65f0",
    "monoid-equiv --example r2 -a 1 -b 3 --max-states 1 --format json":
        "0e653aa6be14b31e",
    "companion --family 3 2 --format text": "ffe825f2bae2d41e",
    "companion --family 3 2 --format json": "45ef1892a155c397",
}


def test_cli_report_bytes_are_pinned(cli, monkeypatch):
    changed = {}
    for argv, stdin in _pinned_invocations():
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out, err = cli(argv)
        assert err == "", argv
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]
        key = " ".join(argv)
        if _PINNED_REPORTS.get(key) != digest:
            changed[key] = digest
    assert changed == {}
    assert len(_PINNED_REPORTS) == len(_pinned_invocations())


# Out-of-range values come from fixed sets.  So that many calls get past
# argument checking into the search, in-range values are listed first
# (hypothesis draws early entries more often), half the vectors are 0/1
# vectors of the presentation's length, and each bound is sometimes left
# at its default.
_COEFFS = st.sampled_from(["1", "0", str(2**62), "-5", str(2**62 + 1), str(2**63),
                           str(10**20), "", "x"])
_SMALL = st.sampled_from(["7", "1", str(2**62), "0", "-5"])
_MAX_COEFF = st.sampled_from(["64", str(2**62), "1", "0", "-5", str(2**62 + 1),
                              str(2**63), str(10**20)])
_MAX_STATES = st.sampled_from(["1000", "7", "1", "0", "-5"])


def _flag(draw, name, values):
    value = draw(st.none() | values)
    return [] if value is None else [name, value]


# Graph files: a valid graph on v0..v{n-1}, with up to two faults added.
# A text fault is a repeated name, an edge to the unknown v4 or a line
# that does not parse; a JSON fault drops a key or gives it a wrong value.
_TEXT_FAULTS = st.sampled_from([
    "vertex v0;", "edge e0: v0 -> v0;", "edge e9: v0 -> v4;", "vertx v0;",
    "vertex v0", "vertex ;", "edge e9: v0 -> ;", "edge e9 v0 -> v1;", "{", "# note",
])
_JSON_JUNK = st.one_of(
    st.sampled_from(["v0", "v4", "bad name", ""]),
    st.integers(-1, 2), st.none(), st.lists(st.just("v0"), max_size=1),
)


@st.composite
def _graph_files(draw):
    n = draw(st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=6))
    faults = draw(st.integers(0, 2))
    if draw(st.booleans()):
        lines = [f"vertex v{i};" for i in range(n)]
        lines += [f"edge e{j}: v{a} -> v{b};" for j, (a, b) in enumerate(pairs)]
        lines += draw(st.lists(_TEXT_FAULTS, min_size=faults, max_size=faults))
        return "\n".join(draw(st.permutations(lines)))
    edges = [{"name": f"e{j}", "from": f"v{a}", "to": f"v{b}"}
             for j, (a, b) in enumerate(pairs)]
    data = {"vertices": [f"v{i}" for i in range(n)], "edges": edges}
    for _ in range(faults):
        obj = draw(st.sampled_from([data, *edges]))
        key = draw(st.sampled_from(sorted(obj) or ["name"]))
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(_JSON_JUNK)
    return json.dumps(data)


_X = st.sampled_from(["v0", "v0,v1", "", "v4"])


@st.composite
def _cli_calls(draw):
    """(argv, stdin): a call on a built-in example, or on a graph file
    drawn by _graph_files and read from stdin with a small --max-states."""
    bounds = (_flag(draw, "--max-coeff", _MAX_COEFF)
              + _flag(draw, "--max-depth", _SMALL))
    if draw(st.booleans()):
        source, stdin = ["-"], draw(_graph_files())
        bounds += ["--max-states", draw(st.sampled_from(["50", "7", "1"]))]
        command = draw(st.sampled_from(["companion", "ibn-check", "monoid-equiv"]))
    else:
        example = draw(st.sampled_from(["line", "r2", "f-r2", "f-line",
                                        "relative-2-1", "family-3-2"]))
        source, stdin = ["--example", example], None
        bounds += _flag(draw, "--max-states", _MAX_STATES)
        command = draw(st.sampled_from(["ibn-check", "monoid-equiv"]))
    if command == "companion":
        return ["companion", *source, *_flag(draw, "--x", _X)], stdin
    if command == "ibn-check":
        return ["ibn-check", *source,
                "--algebra", draw(st.sampled_from(["cohn", "relative", "leavitt"])),
                *_flag(draw, "--x", _X), *bounds], stdin
    presentation = draw(st.sampled_from(["graph", "cohn"]))
    try:
        graph = (load_example(example)[0] if stdin is None
                 else validate(parse_graph(stdin)))
        rs = (cohn_presentation(graph) if presentation == "cohn"
              else monoid_presentation(incidence(graph)))
        width = rs.num_generators
    except CohnIbnError:
        width = 1  # the graph is refused before the vectors are read
    vectors = st.one_of(
        st.lists(_COEFFS, max_size=8),
        st.lists(st.sampled_from(["1", "0"]), min_size=width, max_size=width),
    ).map(",".join)
    return ["monoid-equiv", *source, "--presentation", presentation,
            f"--vec-a={draw(vectors)}", f"--vec-b={draw(vectors)}", *bounds], stdin


@given(_cli_calls())
@example((["ibn-check", "--example", "r2", "--algebra", "leavitt",
           "--max-coeff", str(2**62), "--max-states", "1"], None))
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_fuzz_never_crashes(cli, monkeypatch, call):
    argv, stdin = call
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    code, _, err = cli(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_REFUTED, EXIT_UNKNOWN), call
    assert "Traceback" not in err
