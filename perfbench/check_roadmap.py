"""One-off check that the leavitt-small generator is the one ROADMAP measured.

Runs the raw generator stream for seed 1 (300 graphs, no stratification)
through ``ibn-check --algebra leavitt --max-states 20000`` and compares the
route mix, the number of graphs without a certificate and the number of
pairs the witness search tried with the ROADMAP figures.  Takes about half
a minute.

Usage, from the root of a checkout:  python3 perfbench/check_roadmap.py
"""

from __future__ import annotations

import random
import shutil
import sys
from collections import Counter

import corpus
import harness
from oracle import IbnCase, canonical, weights_consistent
from tracing import Tracer

EXPECTED = {
    "routes": {"certificate": 257, "witness-search": 35, "exhausted": 8},
    "no_certificate": 43,
    "pairs_tried": 172,
}


def main() -> int:
    cli = harness.load_package()
    rng = random.Random(1)
    graphs = [corpus.leavitt_graph(rng) for _ in range(300)]
    work = harness.OUT / "work_check_roadmap"
    shutil.rmtree(work, ignore_errors=True)
    (work / "graphs").mkdir(parents=True)
    flags = ("--algebra", "leavitt", "--max-states", "20000")
    ops, argvs = [], []
    for k, g in enumerate(graphs):
        path = work / "graphs" / f"{k:03d}.graph"
        path.write_text(corpus.graph_text(g))
        ops.append(corpus.Op("ibn-check", g, flags, IbnCase(g, "leavitt", ()), "raw"))
        argvs.append(["ibn-check", str(path), *flags])
    tracer = Tracer()
    try:
        m = harness.measure(cli.main, [argvs], work / "reports", 0, tracer=tracer, max_rounds=1)
    finally:
        tracer.close()
    checked = harness.check([ops], m.records)
    shutil.rmtree(work, ignore_errors=True)
    got = {
        "routes": dict(Counter({k.split(":")[1]: v for k, v in checked.outcomes.items()})),
        "no_certificate": sum(not weights_consistent(canonical(g)) for g in graphs),
        "pairs_tried": tracer.counts["rewriting.pairs_tried"],
    }
    print(f"expected {EXPECTED}\nmeasured {got}\noracle failures {len(checked.failures)}")
    ok = got == EXPECTED and not checked.failures
    print("match" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
