"""Seeded inputs for the three workloads.

Every workload is a list of rounds, and every round has the same make-up.
For leavitt-small and equiv-queries, graphs are drawn from one seeded
stream and dealt into rounds by their oracle stratum (whether the weight
system is consistent, the order of [1] in K0, whether an invariant can
separate the random pair), in the proportions the stream itself has.  A run
measures whole rounds, so the rare expensive inputs come in a fixed share
instead of a share that swings with the seed.  The strata come from the
oracle, not from the program, so a change to the program cannot change the
corpus.  Cohn-large repeats one fixed set of graphs in every round.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from oracle import (
    EquivCase,
    Graph,
    IbnCase,
    canonical,
    in_row_space,
    k0_class,
    weights_consistent,
)

MULTIPLICITIES = (0, 0, 0, 1, 1, 2)

# Leavitt-small round: 216 generated graphs in the stream's own proportions
# (86.9% consistent, 8.1% k0=1, 3.7% k0=2..5, 1.4% k0>=6, measured over
# 12000 draws), plus two family graphs.
LEAVITT_QUOTA = {"consistent": 188, "k0=1": 17, "k0=2..5": 8, "k0>=6": 3}
LEAVITT_FAMILY = 2
# State caps below the 20000 (leavitt) and 100000 (default) that ROADMAP
# quotes: at those caps one exhausted search or open pair costs 0.3-4 s, so
# a run holds too few of them for its throughput to settle across seeds.
LEAVITT_MAX_STATES = 1000
EQUIV_MAX_STATES = 20000
# Cohn-large round: six ops, which sorted by cost fall into five groups,
# relative-50 < cohn-50 < relative-100 (two ops, each with its own X) <
# cohn-100 < relative-200.  A run of k rounds puts its median in the middle
# of the relative-100 group and its p90 inside the relative-200 group (from
# k = 3 on), never on the edge between two groups, where host noise would
# swap which group it reads.  Cohn at n = 200 (5-7 s an op) is left out: a
# run would hold only four or five of them, and one such op moves by 15%
# with the host's speed while it runs, which no reference timed around it
# removes.
COHN_ROUND = (("cohn", 50), ("relative", 50), ("cohn", 100), ("relative", 100),
              ("relative", 100), ("relative", 200))
# Equiv-queries round: 15 graphs with 2..6 vertices, four pairs each.  The
# strata split graphs whose weight system is inconsistent (13.4% of 10000
# draws) from consistent ones, and those by whether the random pair's
# difference lies in the relation span, so no invariant separates it (7.3%)
# or not (79.3%).
EQUIV_QUOTA = {"separable": 12, "inseparable": 1, "inconsistent": 2}
JOINABLE_PER_GRAPH = 3


@dataclass(frozen=True)
class Op:
    """One CLI call: ``command GRAPH_FILE *flags``, and what the oracle knows."""

    command: str
    graph: Graph
    flags: tuple[str, ...]
    case: IbnCase | EquivCase
    stratum: str


def leavitt_graph(rng: random.Random, min_vertices: int = 1) -> Graph:
    """n uniform in min..6; each ordered pair, loops included, gets an edge
    multiplicity from MULTIPLICITIES with probability 1/2."""
    n = rng.randint(min_vertices, 6)
    names = tuple(f"v{i}" for i in range(n))
    edges = []
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.5:
                edges += [(names[i], names[j])] * rng.choice(MULTIPLICITIES)
    return Graph(names, tuple(edges))


def sparse_graph(rng: random.Random, n: int) -> Graph:
    names = tuple(f"v{i}" for i in range(n))
    return Graph(names, tuple((rng.choice(names), rng.choice(names)) for _ in range(3 * n)))


def family_graph(n: int, m: int) -> tuple[Graph, tuple[str, ...]]:
    """The paper's family: a loop at v1..v(n-1), two loops at vn, and an
    edge from vn to every earlier vertex; X is the last m vertices."""
    names = tuple(f"v{i}" for i in range(1, n + 1))
    top = names[-1]
    edges = [(v, v) for v in names[:-1]] + [(top, top)] * 2
    edges += [(top, v) for v in names[:-1]]
    return Graph(names, tuple(edges)), names[n - m:]


def _deal(stream, quota: dict[str, int], rounds: int, rng: random.Random) -> list[list]:
    """Fill ``rounds`` rounds with quota[s] stream items of each stratum s."""
    queues: dict[str, list] = {s: [] for s in quota}
    out = []
    while len(out) < rounds:
        stratum, item = next(stream)
        queues[stratum].append(item)
        if all(len(queues[s]) >= q for s, q in quota.items()):
            batch = []
            for s, q in quota.items():
                batch += [(s, i) for i in queues[s][:q]]
                del queues[s][:q]
            rng.shuffle(batch)
            out.append(batch)
    return out


def _ibn_flags(algebra: str, x: tuple[str, ...] = (), max_states: int | None = None):
    flags = ["--algebra", algebra]
    if algebra == "relative":
        flags += ["--x", ",".join(x)]
    if max_states is not None:
        flags += ["--max-states", str(max_states)]
    return tuple(flags)


def leavitt_small(seed: int, rounds: int) -> list[list[Op]]:
    rng = random.Random(seed)

    def stream():
        while True:
            g = leavitt_graph(rng)
            yield k0_class(canonical(g)), g

    shuffle = random.Random(f"leavitt-small/{seed}/order")
    fam = random.Random(f"leavitt-small/{seed}/family")
    flags = _ibn_flags("leavitt", max_states=LEAVITT_MAX_STATES)
    out = []
    for batch in _deal(stream(), LEAVITT_QUOTA, rounds, shuffle):
        ops = [Op("ibn-check", g, flags, IbnCase(g, "leavitt", ()), s) for s, g in batch]
        for _ in range(LEAVITT_FAMILY):
            n = fam.randint(2, 14)
            g, x = family_graph(n, fam.randint(1, n))
            ops.append(Op("ibn-check", g, _ibn_flags("relative", x, LEAVITT_MAX_STATES),
                          IbnCase(g, "relative", x, family=True), "family"))
        out.append(ops)
    return out


def cohn_large(seed: int, rounds: int) -> list[list[Op]]:
    """Every round holds the same graphs, one per (algebra, n), drawn from a
    fixed stream; the seed draws X (half of the regular vertices, so that
    its size does not move the cost) afresh for each round, and the order.

    Elimination cost differs by up to 2x between random graphs of one size
    (CV 0.3 at n = 200) and a run holds six to nine rounds, so graphs
    drawn per seed or per round would move throughput and p90 by some 20%.
    """
    fixed = random.Random("cohn-large/graphs")
    drawn = {key: sparse_graph(fixed, key[1]) for key in dict.fromkeys(COHN_ROUND)}
    graphs = [(algebra, n, drawn[algebra, n]) for algebra, n in COHN_ROUND]
    rng = random.Random(seed)
    shuffle = random.Random(f"cohn-large/{seed}/order")
    out = []
    for _ in range(rounds):
        ops = []
        for algebra, n, g in graphs:
            if algebra == "cohn":
                ops.append(Op("ibn-check", g, _ibn_flags("cohn"), IbnCase(g, "cohn", ()),
                              f"cohn-{n}"))
                continue
            regular = canonical(g).order[: canonical(g).num_regular]
            x = tuple(sorted(rng.sample(regular, len(regular) // 2), key=regular.index))
            ops.append(Op("ibn-check", g, _ibn_flags("relative", x),
                          IbnCase(g, "relative", x), f"relative-{n}"))
        shuffle.shuffle(ops)
        out.append(ops)
    return out


def _walk(target, start: list[int], steps: int, rng: random.Random) -> list[int]:
    """Apply ``steps`` random rewrite moves (fewer if none applies)."""
    vec = list(start)
    for _ in range(steps):
        live = [i for i in range(target.num_regular) if vec[i] > 0]
        if not live:
            break
        g = rng.choice(live)
        vec = [c + a for c, a in zip(vec, target.rows[g])]
        vec[g] -= 1
    return vec


def _nonzero(rng: random.Random, n: int) -> list[int]:
    while True:
        vec = [rng.randint(0, 3) for _ in range(n)]
        if any(vec):
            return vec


def equiv_queries(seed: int, rounds: int) -> list[list[Op]]:
    rng = random.Random(seed)
    pairs = random.Random(f"equiv-queries/{seed}/pairs")

    def stream():
        while True:
            g = leavitt_graph(rng, min_vertices=2)
            t = canonical(g)
            n = len(t.order)
            todo = []
            for _ in range(JOINABLE_PER_GRAPH):
                root = _nonzero(pairs, n)
                a = _walk(t, root, pairs.randint(6, 14), pairs)
                b = _walk(t, root, pairs.randint(6, 14), pairs)
                todo.append((a, b, True))
            a, b = _nonzero(pairs, n), _nonzero(pairs, n)
            todo.append((a, b, False))
            if not weights_consistent(t):
                stratum = "inconsistent"
            elif in_row_space(t.relations(), [p - q for p, q in zip(a, b)]):
                stratum = "inseparable"
            else:
                stratum = "separable"
            yield stratum, (g, todo)

    shuffle = random.Random(f"equiv-queries/{seed}/order")
    out = []
    for batch in _deal(stream(), EQUIV_QUOTA, rounds, shuffle):
        ops = []
        for stratum, (g, todo) in batch:
            for a, b, joinable in todo:
                flags = ("-a", ",".join(map(str, a)), "-b", ",".join(map(str, b)),
                         "--max-states", str(EQUIV_MAX_STATES))
                case = EquivCase(g, tuple(a), tuple(b), joinable)
                kind = "joinable" if joinable else "random"
                ops.append(Op("monoid-equiv", g, flags, case, f"{stratum}/{kind}"))
        out.append(ops)
    return out


# Rounds generated per workload: enough for a 35-second run, so that a run
# does not come back to its first round (a round takes about 1.3 s, 5 s
# and 0.3 s).
WORKLOADS = {
    "leavitt-small": (leavitt_small, 36),
    "cohn-large": (cohn_large, 12),
    "equiv-queries": (equiv_queries, 128),
}


def graph_text(graph: Graph) -> str:
    lines = [f"vertex {v};" for v in graph.vertices]
    lines += [f"edge e{k}: {s} -> {d};" for k, (s, d) in enumerate(graph.edges)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Corpus:
    rounds: list[list[Op]]
    argvs: list[list[list[str]]]
    digest: str


def build(workload: str, seed: int, graph_dir: Path) -> Corpus:
    """Generate the workload's rounds and write one file per graph.

    The digest covers every graph file and every argv, in run order, with
    paths relative to ``graph_dir``, so it names the corpus itself.
    """
    make, rounds = WORKLOADS[workload]
    ops_by_round = make(seed, rounds)
    graph_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(f"{workload}\n{seed}\n".encode())
    names: dict[int, str] = {}  # one file per graph object, shared by its ops
    argvs = []
    for ops in ops_by_round:
        round_argvs = []
        for op in ops:
            name = names.get(id(op.graph))
            if name is None:
                name = names[id(op.graph)] = f"g{len(names):05d}.graph"
                text = graph_text(op.graph)
                (graph_dir / name).write_text(text)
                digest.update(f"{name}\n{text}".encode())
            round_argvs.append([op.command, str(graph_dir / name), *op.flags])
            digest.update(f"{op.command} {name} {' '.join(op.flags)}\n".encode())
        argvs.append(round_argvs)
    return Corpus(ops_by_round, argvs, "sha256:" + digest.hexdigest())
