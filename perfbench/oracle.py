"""Verdict oracle for the benchmark, independent of the package under test.

Everything here is rebuilt from the generated input graph with Python
integers and ``Fraction``: the companion target, its incidence matrix,
the consistency of the weight system (an exact rank test), the order of
[1] in K0, certificate equations and step-by-step trace replay.  Nothing
is imported from ``cohnibn``, so a defect there cannot hide itself.

Facts the theory fixes and the oracle enforces:

- the weight system is consistent exactly when ``certified`` is the right
  verdict; ``refuted`` and ``unknown`` are only possible when it is not;
- Cohn algebras are always certified, and the paper's family graphs under
  their relative X are always refuted;
- a refutation m*rho ~ m'*rho needs the order k0 of [1] to divide m' - m;
- a pair built by rewriting one element two ways is never not-equivalent;
- gamma separation is valid only when a - b is outside the row space of
  the relation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

# Exact elimination on targets larger than this is skipped: the weight
# system is then shown consistent by re-checking the program's own
# certificate, which is an exact proof, instead of by rank.
RANK_TEST_MAX_VERTICES = 64


@dataclass(frozen=True)
class Graph:
    """Named vertices and (src, dst) edges, in input order."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Target:
    """A graph in canonical order (regular vertices first) with its matrix."""

    order: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    num_regular: int

    def relations(self) -> list[list[int]]:
        """Rows e_v - A_v, one per regular vertex v."""
        out = []
        for i in range(self.num_regular):
            row = [-a for a in self.rows[i]]
            row[i] += 1
            out.append(row)
        return out


def canonical(graph: Graph) -> Target:
    has_out = {v: False for v in graph.vertices}
    for src, _ in graph.edges:
        has_out[src] = True
    regular = [v for v in graph.vertices if has_out[v]]
    order = tuple(regular + [v for v in graph.vertices if not has_out[v]])
    index = {v: i for i, v in enumerate(order)}
    rows = [[0] * len(order) for _ in order]
    for src, dst in graph.edges:
        rows[index[src]][index[dst]] += 1
    return Target(order, tuple(tuple(r) for r in rows), len(regular))


def companion(graph: Graph, x: tuple[str, ...]) -> Graph:
    """The companion relative to X: a fresh sink v' per regular v outside X,
    and a copy of every edge into v redirected to v'."""
    regular = {src for src, _ in graph.edges}
    dup = [v for v in graph.vertices if v in regular and v not in set(x)]
    prime = {v: v + "'" for v in dup}
    extra = tuple((src, prime[dst]) for src, dst in graph.edges if dst in prime)
    return Graph(graph.vertices + tuple(prime[v] for v in dup), graph.edges + extra)


def rank(rows: list[list[int]]) -> int:
    """Exact rank over Q by fraction-free (Bareiss) elimination."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    width = len(work[0])
    r = 0
    prev = 1
    for col in range(width):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        p = work[r][col]
        for i in range(r + 1, len(work)):
            f = work[i][col]
            work[i] = [(p * a - f * b) // prev for a, b in zip(work[i], work[r])]
        prev = p
        r += 1
        if r == len(work):
            break
    return r


def in_row_space(rows: list[list[int]], vec: list[int]) -> bool:
    return rank(rows + [list(vec)]) == rank(rows)


def weights_consistent(target: Target) -> bool:
    """Whether weights summing to 1 exist that every rule preserves.

    By the Fredholm alternative the system fails exactly when the all-ones
    vector lies in the row space of the relations.
    """
    return not in_row_space(target.relations(), [1] * len(target.order))


def _lattice_basis(rows: list[list[int]]) -> list[list[int]]:
    """An echelon Z-basis of the lattice spanned by integer rows."""
    rows = [list(r) for r in rows if any(r)]
    width = len(rows[0]) if rows else 0
    basis = []
    for col in range(width):
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            head = live[0]
            nxt = [head]
            for r in live[1:]:
                q = r[col] // head[col]
                red = [a - q * b for a, b in zip(r, head)]
                (nxt if red[col] else rows).append(red)
            live = nxt
        if live:
            basis.append(live[0])
        rows = [r for r in rows if any(r)]
    return basis


def k0_order(target: Target) -> int | None:
    """Order of [1] in K0 = Z^n / span(e_v - A_v), or None if infinite.

    Writes the all-ones vector in an echelon Z-basis of the relation
    lattice; the order is the lcm of the coefficients' denominators.
    """
    rest = [Fraction(1)] * len(target.order)
    dens = [1]
    for b in _lattice_basis(target.relations()):
        lead = next(j for j, v in enumerate(b) if v)
        c = rest[lead] / b[lead]
        dens.append(c.denominator)
        rest = [t - c * v for t, v in zip(rest, b)]
    return None if any(rest) else lcm(*dens)


def k0_class(target: Target) -> str:
    """Stratum of a Leavitt graph: consistent, or the size of k0."""
    k0 = k0_order(target)
    if k0 is None:
        return "consistent"
    if k0 == 1:
        return "k0=1"
    return "k0=2..5" if k0 <= 5 else "k0>=6"


# ---------------------------------------------------------------- evidence


def replay(target: Target, trace: dict) -> list[int] | str:
    """Replay a reported trace against the incidence matrix.

    Returns the end vector, or a string saying which step is illegal.
    """
    current = list(trace["start"])
    if len(current) != len(target.order):
        return "trace start has the wrong length"
    for k, step in enumerate(trace["steps"]):
        g = step["rule"]
        if not 0 <= g < target.num_regular or target.order[g] != step["generator"]:
            return f"step {k}: no rule {g} ({step['generator']})"
        if current[g] < 1:
            return f"step {k}: rule {g} not applicable"
        current = [c + a for c, a in zip(current, target.rows[g])]
        current[g] -= 1
        if current != list(step["result"]):
            return f"step {k}: recorded result differs from replay"
    return current


def check_certificate(target: Target, cert: dict) -> str | None:
    if tuple(cert["generators"]) != target.order:
        return "certificate generators differ from the target order"
    w = [Fraction(s) for s in cert["weights"]]
    if sum(w) != 1:
        return "certificate weights do not sum to 1"
    for i in range(target.num_regular):
        if w[i] != sum(a * wj for a, wj in zip(target.rows[i], w)):
            return f"certificate equation fails at {target.order[i]}"
    return None


def check_target(target: Target, reported: dict) -> str | None:
    got = canonical(Graph(
        tuple(reported["vertices"]),
        tuple((e["from"], e["to"]) for e in reported["edges"]),
    ))
    if got != target:
        return "reported target differs from the companion of the input"
    return None


@dataclass(frozen=True)
class IbnCase:
    """What the oracle knows about one ibn-check op before it runs."""

    graph: Graph
    algebra: str
    x: tuple[str, ...]
    family: bool = False

    def target(self) -> Target:
        g = self.graph if self.algebra == "leavitt" else companion(self.graph, self.x)
        return canonical(g)


def check_ibn(case: IbnCase, code: int, report: dict) -> str | None:
    """None when the report is right; otherwise what is wrong with it."""
    target = case.target()
    result = report["result"]
    problem = check_target(target, result["target"])
    if problem:
        return problem
    ibn = result["ibn"]
    expected_code = {"certified": 0, "refuted": 10, "unknown": 20}.get(ibn)
    if code != expected_code:
        return f"exit code {code} for verdict {ibn!r}"
    if case.algebra == "cohn" and ibn != "certified":
        return "a Cohn algebra must be certified"
    if case.family and ibn != "refuted":
        return "a family graph under its X must be refuted"

    if ibn == "certified":
        if "certificate" not in result:
            return "certified without a certificate"
        problem = check_certificate(target, result["certificate"])
        if problem:
            return problem
        if len(target.order) <= RANK_TEST_MAX_VERTICES and not weights_consistent(target):
            return "certified, but the rank test says the weights are inconsistent"
        return None

    if weights_consistent(target):
        return f"{ibn}, but the rank test says a certificate exists"
    if ibn == "unknown":
        return None
    if "witness" not in result:
        return "refuted without a witness"
    w = result["witness"]
    n = len(target.order)
    if not 0 < w["m"] < w["m_prime"]:
        return "witness multiples out of order"
    k0 = k0_order(target)
    if k0 is None or (w["m_prime"] - w["m"]) % k0:
        return f"witness gap {w['m_prime'] - w['m']} is not a multiple of k0={k0}"
    for key, m in (("trace_m", w["m"]), ("trace_m_prime", w["m_prime"])):
        if w[key]["start"] != [m] * n:
            return f"{key} does not start at {m}*rho"
        end = replay(target, w[key])
        if isinstance(end, str):
            return f"{key}: {end}"
        if end != w["descendant"]:
            return f"{key} does not end at the descendant"
    return None


@dataclass(frozen=True)
class EquivCase:
    graph: Graph
    a: tuple[int, ...]
    b: tuple[int, ...]
    joinable: bool


def check_equiv(case: EquivCase, code: int, report: dict) -> str | None:
    target = canonical(case.graph)
    result = report["result"]
    status = result["status"]
    expected_code = {"equivalent": 0, "not-equivalent": 10, "unknown": 20}.get(status)
    if code != expected_code:
        return f"exit code {code} for status {status!r}"
    if list(result["a"]) != list(case.a) or list(result["b"]) != list(case.b):
        return "report is about other elements"
    if status == "equivalent":
        for key, start in (("trace_a", case.a), ("trace_b", case.b)):
            if result[key]["start"] != list(start):
                return f"{key} starts elsewhere"
            end = replay(target, result[key])
            if isinstance(end, str):
                return f"{key}: {end}"
            if end != result["descendant"]:
                return f"{key} does not end at the descendant"
        return None
    if status == "not-equivalent":
        if case.joinable:
            return "a joinable pair came back not-equivalent"
        if result["reason"] == "gamma-separation":
            diff = [p - q for p, q in zip(case.a, case.b)]
            if in_row_space(target.relations(), diff):
                return "gamma separation claimed, but a - b is in the relation span"
    return None
