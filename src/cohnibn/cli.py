"""Command-line front end.

Subcommands: companion, ibn-check, monoid-equiv, examples, family.
Reports are deterministic: identical inputs and flags give byte-identical
output, in both the human text form and the JSON form.

Exit codes: 0 success/certified, 10 refuted/not-equivalent, 20 unknown,
2 usage error, 3 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .certificates import serialize_weights, solve_exact
from .construct import family, regular_subset, relative_companion
from .decision import (
    AlgebraSpec,
    IBN_CERTIFIED,
    IBN_REFUTED,
    IBN_UNKNOWN,
    KIND_RELATIVE,
    audit,
    decide_ibn,
)
from .errors import CohnIbnError, InternalInvariantViolation
from .fixtures import describe_examples, load_example
from .graphio import emit_graph_json, emit_graph_text, graph_as_dict, parse_graph
from .graphs import Graph, validate
from .rewriting import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    ReductionTrace,
    SearchBounds,
    UNKNOWN,
    check_lattice_separation,
    cohn_presentation,
    decide_equivalent,
    incidence,
)

EXIT_OK = 0
EXIT_REFUTED = 10
EXIT_UNKNOWN = 20
EXIT_USAGE = 2
EXIT_INPUT = 3

_EXIT_BY_STATUS = {
    "ok": EXIT_OK,
    IBN_CERTIFIED: EXIT_OK,
    IBN_REFUTED: EXIT_REFUTED,
    IBN_UNKNOWN: EXIT_UNKNOWN,
    EQUIVALENT: EXIT_OK,
    NOT_EQUIVALENT: EXIT_REFUTED,
    UNKNOWN: EXIT_UNKNOWN,
}


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------- input


def _add_input_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("graph_file", nargs="?", metavar="GRAPH",
                     help="graph file path, or - for stdin")
    sub.add_argument("--example", metavar="NAME", help="built-in example name")
    sub.add_argument("--family", nargs=2, type=int, metavar=("N", "M"),
                     help="use the family graph with N vertices, X = last M")


def _add_bounds_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-states", type=int, default=100_000)
    sub.add_argument("--max-coeff", type=int, default=64)
    sub.add_argument("--max-depth", type=int, default=64)


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--output", metavar="PATH", help="write the report here")


def _resolve_input(ns) -> tuple[Graph, tuple[str, ...], str]:
    """Load and validate the graph; returns (graph, suggested X, source tag)."""
    picked = sum(
        1 for v in (ns.graph_file, ns.example, ns.family) if v is not None
    )
    if picked != 1:
        raise _UsageError("provide exactly one of GRAPH, --example, --family")
    if ns.graph_file is not None:
        if ns.graph_file == "-":
            text = sys.stdin.read()
            source = "stdin"
        else:
            text = Path(ns.graph_file).read_text()
            source = f"file:{ns.graph_file}"
        return validate(parse_graph(text)), (), source
    if ns.example is not None:
        graph, x = load_example(ns.example)
        return graph, x, f"example:{ns.example}"
    n, m = ns.family
    graph, x = family(n, m)
    return graph, x, f"family:{n}-{m}"


def _parse_x(value: str | None, default: tuple[str, ...]) -> tuple[str, ...]:
    if value is None:
        return default
    return tuple(part for part in (p.strip() for p in value.split(",")) if part)


def _parse_vector(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(p.strip()) for p in value.split(","))
    except ValueError:
        raise _UsageError(f"cannot parse coefficient vector {value!r}")


def _bounds(ns) -> SearchBounds:
    try:
        return SearchBounds(
            max_states=ns.max_states,
            max_total_coefficient=ns.max_coeff,
            max_depth=ns.max_depth,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))


def _digest(graph: Graph, x: tuple[str, ...]) -> str:
    payload = emit_graph_json(graph)
    if x:
        payload += "x: " + " ".join(x) + "\n"
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------- reports


def _report(command: str, arguments: dict, source: str, digest: str,
            result: dict, status: str) -> dict:
    return {
        "tool": {"name": "cohnibn", "version": __version__},
        "command": command,
        "arguments": arguments,
        "input": {"source": source, "digest": digest},
        "result": result,
        "status": status,
    }


def _trace_dict(trace: ReductionTrace, generators: tuple[str, ...]) -> dict:
    return {
        "start": list(trace.start),
        "steps": [
            {"rule": gen, "generator": generators[gen], "result": list(vec)}
            for gen, vec in trace.steps
        ],
    }


def _vec_str(vec) -> str:
    return "(" + ",".join(str(c) for c in vec) + ")"


def _trace_str(trace: dict) -> str:
    parts = [_vec_str(trace["start"])]
    for step in trace["steps"]:
        parts.append(f"=[{step['generator']}]=> {_vec_str(step['result'])}")
    return " ".join(parts)


def _decision_text(report: dict, body: list[str], *tail: str) -> str:
    """A decision's text: its header, body, bounds and tail, one per line."""
    bounds = report["result"]["bounds"]
    lines = [
        f"command: {report['command']}",
        f"source: {report['input']['source']}",
        f"digest: {report['input']['digest']}",
        *body,
        f"bounds: max-states={bounds['max_states']} "
        f"max-coeff={bounds['max_total_coefficient']} "
        f"max-depth={bounds['max_depth']}",
        *tail,
    ]
    return "\n".join(lines) + "\n"


def _emit(text: str, ns) -> None:
    if ns.output:
        Path(ns.output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_report(report: dict, ns, text: str) -> int:
    """Emit the report in the asked format; returns its status's exit code."""
    if ns.format == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", ns)
    else:
        _emit(text, ns)
    return _EXIT_BY_STATUS[report["status"]]


# ---------------------------------------------------------------- commands


def _cmd_companion(ns) -> int:
    graph, x_default, source = _resolve_input(ns)
    x = regular_subset(graph, _parse_x(ns.x, default=x_default))
    companion = relative_companion(graph, x)
    rs = incidence(companion.graph)
    n = rs.num_generators  # a zero row per sink: the generators past the rules
    rows = rs.rule_add + ((0,) * n,) * (n - rs.num_rules)
    digest = _digest(graph, x)

    report = _report(
        command="companion",
        arguments={"x": list(x)},
        source=source,
        digest=digest,
        result={
            "graph": graph_as_dict(companion.graph),
            "incidence": {
                "order": list(rs.generators),
                "num_regular": rs.num_rules,
                "rows": rows,
            },
            "origin": {
                "vertices": dict(companion.vertex_origin),
                "edges": dict(companion.edge_origin),
            },
        },
        status="ok",
    )

    header = [f"companion of {source} ({digest})"]
    if x:
        header.append("x: " + " ".join(x))
    body = emit_graph_text(companion.graph, comments=tuple(header))
    footer = ["# incidence order: " + " ".join(rs.generators)]
    for name, row in zip(rs.generators, rows):
        footer.append(f"# incidence row {name}: " + " ".join(str(v) for v in row))
    return _emit_report(report, ns, body + "\n".join(footer) + "\n")


def _cmd_ibn_check(ns) -> int:
    graph, x_default, source = _resolve_input(ns)
    if ns.algebra != KIND_RELATIVE and ns.x is not None:
        raise _UsageError("--x only applies to --algebra relative")
    x = _parse_x(ns.x, default=x_default) if ns.algebra == KIND_RELATIVE else ()
    x = regular_subset(graph, x)
    spec = AlgebraSpec(kind=ns.algebra, graph=graph, x=x)
    bounds = _bounds(ns)
    verdict = decide_ibn(spec, bounds)
    if not audit(verdict, spec):
        raise InternalInvariantViolation("verdict failed its own audit")

    digest = _digest(graph, x)
    result = {
        "algebra": ns.algebra,
        "x": list(x),
        "target": graph_as_dict(verdict.target),
        "generators": list(verdict.target.vertices),
        "route": verdict.route,
        "ibn": verdict.ibn,
        "imn": verdict.imn,
        "bounds": dataclasses.asdict(bounds),
        "notes": list(verdict.notes),
        "audit": "pass",
    }
    if verdict.certificate is not None:
        result["certificate"] = {
            "generators": list(verdict.certificate.generators),
            "weights": list(serialize_weights(verdict.certificate)),
        }
    if verdict.witness is not None:
        w = verdict.witness
        result["witness"] = {
            "m": w.m,
            "m_prime": w.m_prime,
            "descendant": list(w.descendant),
            "trace_m": _trace_dict(w.trace_a, verdict.target.vertices),
            "trace_m_prime": _trace_dict(w.trace_b, verdict.target.vertices),
        }

    report = _report("ibn-check", {
        "algebra": ns.algebra,
        "x": list(x),
        "max_states": ns.max_states,
        "max_coeff": ns.max_coeff,
        "max_depth": ns.max_depth,
    }, source, digest, result, verdict.ibn)

    lines = [
        f"algebra: {ns.algebra}" + (f" (x: {' '.join(x)})" if x else ""),
        f"graph: {len(graph.vertices)} vertices, {len(graph.edges)} edges",
        f"target: {len(verdict.target.vertices)} vertices, "
        f"{len(verdict.target.edges)} edges",
        "generators: " + " ".join(verdict.target.vertices),
        f"route: {verdict.route}",
        f"ibn: {verdict.ibn}",
    ]
    if "certificate" in result:
        cert = result["certificate"]
        pairs = zip(cert["generators"], cert["weights"])
        lines.append("certificate: " + " ".join(f"{g}={w}" for g, w in pairs))
    if "witness" in result:
        w = result["witness"]
        lines.append(f"witness: {w['m']}*rho ~ {w['m_prime']}*rho, "
                     f"descendant {_vec_str(w['descendant'])}")
        lines.append("trace m: " + _trace_str(w["trace_m"]))
        lines.append("trace m': " + _trace_str(w["trace_m_prime"]))
    lines.append(f"imn: {verdict.imn}")
    lines.extend(f"note: {note}" for note in verdict.notes)
    return _emit_report(report, ns, _decision_text(report, lines, "audit: pass"))


def _cmd_monoid_equiv(ns) -> int:
    graph, _, source = _resolve_input(ns)
    bounds = _bounds(ns)
    if ns.presentation == "cohn":
        rs = cohn_presentation(graph)
        invariant = None
    else:
        rs = incidence(graph)
        invariant = solve_exact(rs)

    vec_a = _parse_vector(ns.vec_a)
    vec_b = _parse_vector(ns.vec_b)
    outcome = decide_equivalent(vec_a, vec_b, rs, bounds, invariant)
    if outcome.lattice is not None and not check_lattice_separation(
        vec_a, vec_b, rs, outcome.lattice
    ):
        raise InternalInvariantViolation("lattice separation failed its own check")

    result = {
        "presentation": ns.presentation,
        "generators": list(rs.generators),
        "a": list(vec_a),
        "b": list(vec_b),
        "status": outcome.status,
        "bounds": dataclasses.asdict(bounds),
    }
    lines = [
        f"presentation: {ns.presentation}",
        "generators: " + " ".join(rs.generators),
        f"a: {_vec_str(vec_a)}",
        f"b: {_vec_str(vec_b)}",
        f"status: {outcome.status}",
    ]
    if outcome.status == EQUIVALENT:
        result["descendant"] = list(outcome.descendant)
        result["trace_a"] = _trace_dict(outcome.trace_a, rs.generators)
        result["trace_b"] = _trace_dict(outcome.trace_b, rs.generators)
        lines.append(f"descendant: {_vec_str(outcome.descendant)}")
        lines.append("trace a: " + _trace_str(result["trace_a"]))
        lines.append("trace b: " + _trace_str(result["trace_b"]))
    elif outcome.status == NOT_EQUIVALENT:
        result["reason"] = outcome.reason
        lines.append(f"reason: {outcome.reason}")
        if outcome.gamma_values is not None:
            ga, gb = outcome.gamma_values
            result["gamma"] = {"a": str(ga), "b": str(gb)}
            lines.append(f"gamma: a={ga} b={gb}")
        if outcome.lattice is not None:
            sep = outcome.lattice
            names = [rs.generators[i] for i in sep.generators]
            result["lattice"] = {
                "generators": names,
                "functional": list(sep.functional),
                "modulus": sep.modulus,
            }
            lines.append(
                f"lattice: generators {' '.join(names)}, "
                f"functional {_vec_str(sep.functional)}, modulus {sep.modulus}"
            )

    report = _report("monoid-equiv", {
        "presentation": ns.presentation,
        "a": list(vec_a),
        "b": list(vec_b),
        "max_states": ns.max_states,
        "max_coeff": ns.max_coeff,
        "max_depth": ns.max_depth,
    }, source, _digest(graph, ()), result, outcome.status)
    return _emit_report(report, ns, _decision_text(report, lines))


def _cmd_examples(ns) -> int:
    if ns.name is None:
        rows = describe_examples()
        report = _report(
            "examples", {}, "builtin", "sha256:" + hashlib.sha256(b"").hexdigest(),
            {"examples": [{"name": n, "description": d} for n, d in rows]},
            "ok",
        )
        width = max(len(n) for n, _ in rows)
        return _emit_report(
            report, ns, "".join(f"{n:<{width}}  {d}\n" for n, d in rows))

    graph, x = load_example(ns.name)
    if ns.format == "json":
        _emit(emit_graph_json(graph), ns)
    else:
        comments = [f"example: {ns.name}"]
        if x:
            comments.append("x: " + " ".join(x))
        _emit(emit_graph_text(graph, comments=tuple(comments)), ns)
    return EXIT_OK


def _cmd_family(ns) -> int:
    graph, x = family(ns.n, ns.m)
    report = _report(
        "family", {"n": ns.n, "m": ns.m}, f"family:{ns.n}-{ns.m}",
        _digest(graph, x),
        {"graph": graph_as_dict(graph), "x": list(x)},
        "ok",
    )
    comments = (f"family n={ns.n} m={ns.m}", "x: " + " ".join(x))
    return _emit_report(report, ns, emit_graph_text(graph, comments=comments))


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohnibn",
        description="Decide and certify Invariant Basis Number for Cohn, "
                    "relative Cohn, and Leavitt path algebras of finite graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("companion", help="build the (relative) companion graph")
    _add_input_args(p)
    p.add_argument("--x", metavar="LIST", help="comma-separated regular vertices")
    _add_output_args(p)
    p.set_defaults(func=_cmd_companion)

    p = sub.add_parser("ibn-check", help="decide IBN and IMN for an algebra")
    _add_input_args(p)
    p.add_argument("--algebra", choices=("cohn", "relative", "leavitt"),
                   default="cohn")
    p.add_argument("--x", metavar="LIST", help="comma-separated regular vertices")
    _add_bounds_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_ibn_check)

    p = sub.add_parser("monoid-equiv",
                       help="decide equivalence of two monoid elements")
    _add_input_args(p)
    p.add_argument("--presentation", choices=("graph", "cohn"), default="graph")
    p.add_argument("-a", "--vec-a", required=True, metavar="V",
                   help="comma-separated coefficients, printed generator order")
    p.add_argument("-b", "--vec-b", required=True, metavar="V")
    _add_bounds_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_monoid_equiv)

    p = sub.add_parser("examples", help="list or emit built-in example graphs")
    p.add_argument("name", nargs="?", help="example name to emit")
    _add_output_args(p)
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("family", help="emit the family graph and its X set")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    _add_output_args(p)
    p.set_defaults(func=_cmd_family)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return ns.func(ns)
    except _UsageError as exc:
        print(f"cohnibn: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantViolation:
        raise
    except (CohnIbnError, OSError, ValueError) as exc:
        print(f"cohnibn: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        pass  # reported below, once the failed call's frames are freed
    print(
        "cohnibn: error: out of memory: lower --max-coeff, --max-depth or "
        "--max-states",
        file=sys.stderr,
    )
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
