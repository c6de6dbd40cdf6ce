"""Tests of the benchmark itself: oracle, corpus pinning, determinism.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import harness  # noqa: E402
from oracle import (  # noqa: E402
    EquivCase,
    Graph,
    IbnCase,
    canonical,
    check_equiv,
    check_ibn,
    k0_order,
    rank,
    weights_consistent,
)
from tracing import Tracer  # noqa: E402

# Input digests for seed 1; a change to a generator or to the argv must
# update these on purpose.
PINNED = {
    "cohn-large": "sha256:b1ac749813da6fca1559f347a3216a951967c96b523c2c302a57dc8d5bfc88ed",
    "equiv-queries": "sha256:ab721ae00e816bd572f771d38a19fd6c63eab8326fc61620d12097db7335127c",
    "leavitt-small": "sha256:7a35827c956fdda91fe328dee398a026cdc6b1356c2fd3273db8b25a4c531ed2",
}

ROSE2 = Graph(("v",), (("v", "v"), ("v", "v")))
LINE = Graph(("u", "v", "w"), (("u", "v"), ("v", "w")))


@pytest.fixture
def work(request):
    path = harness.OUT / f"test_{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_ops(ops, work: Path, trace: bool):
    work.mkdir(parents=True, exist_ok=True)
    cli = harness.load_package()
    argvs = []
    for k, op in enumerate(ops):
        path = work / f"{k:03d}.graph"
        path.write_text(corpus.graph_text(op.graph))
        argvs.append([op.command, str(path), *op.flags])
    tracer = Tracer() if trace else None
    try:
        m = harness.measure(cli.main, [argvs], work / "reports", 0, tracer=tracer, max_rounds=1)
    finally:
        if tracer:
            tracer.close()
    return m, harness.check([ops], m.records), tracer


# ---------------------------------------------------------------- oracle


def test_rank_and_consistency():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 3, 1], [2, 0, 0], [2, 3, 1]]) == 2
    # Rose with two loops: [1] = 2[1], so no weights exist; the line does.
    assert not weights_consistent(canonical(ROSE2))
    assert weights_consistent(canonical(LINE))


def test_k0_order():
    assert k0_order(canonical(ROSE2)) == 1
    rose3 = Graph(("v",), (("v", "v"),) * 3)
    assert k0_order(canonical(rose3)) == 2
    assert k0_order(canonical(LINE)) is None
    # The family graph's own Leavitt algebra already has [1] = 0 in K0.
    graph, x = corpus.family_graph(4, 2)
    assert k0_order(canonical(graph)) == 1


def _report(argv_tail, graph, work):
    path = work / "g.graph"
    path.write_text(corpus.graph_text(graph))
    out = work / "r.json"
    code = harness.load_package().main([*argv_tail[:1], str(path), *argv_tail[1:],
                                        "--format", "json", "--output", str(out)])
    return code, json.loads(out.read_text())


def test_oracle_accepts_true_and_rejects_tampered_evidence(work):
    case = IbnCase(ROSE2, "cohn", ())
    code, report = _report(["ibn-check", "--algebra", "cohn"], ROSE2, work)
    assert check_ibn(case, code, report) is None
    bad = copy.deepcopy(report)
    bad["result"]["certificate"]["weights"][0] = "7"
    assert "certificate" in check_ibn(case, code, bad)
    assert "exit code" in check_ibn(case, 10, report)

    case = IbnCase(ROSE2, "leavitt", ())
    code, report = _report(["ibn-check", "--algebra", "leavitt"], ROSE2, work)
    assert check_ibn(case, code, report) is None
    bad = copy.deepcopy(report)
    bad["result"]["witness"]["trace_m"]["steps"][0]["result"] = [9]
    assert "trace_m" in check_ibn(case, code, bad)
    bad = copy.deepcopy(report)
    bad["result"]["ibn"] = "certified"
    assert check_ibn(case, 0, bad) is not None

    graph, x = corpus.family_graph(3, 2)
    case = IbnCase(graph, "relative", x, family=True)
    code, report = _report(["ibn-check", "--algebra", "relative", "--x", ",".join(x)], graph, work)
    assert check_ibn(case, code, report) is None
    bad = copy.deepcopy(report)
    bad["result"]["ibn"] = "unknown"
    assert "family" in check_ibn(case, 20, bad)


def test_oracle_on_equivalence(work):
    # In the line graph, u -> v -> w, so (1,0,0) ~ (0,0,1).
    order = canonical(LINE).order
    assert order == ("u", "v", "w")
    case = EquivCase(LINE, (1, 0, 0), (0, 0, 1), joinable=True)
    code, report = _report(["monoid-equiv", "-a", "1,0,0", "-b", "0,0,1"], LINE, work)
    assert check_equiv(case, code, report) is None
    bad = copy.deepcopy(report)
    bad["result"]["trace_a"]["steps"][0]["rule"] = 1
    assert check_equiv(case, code, bad) is not None

    case = EquivCase(LINE, (1, 0, 0), (0, 0, 2), joinable=False)
    code, report = _report(["monoid-equiv", "-a", "1,0,0", "-b", "0,0,2"], LINE, work)
    assert report["result"]["reason"] == "gamma-separation"
    assert check_equiv(case, code, report) is None
    joinable = EquivCase(LINE, (1, 0, 0), (0, 0, 2), joinable=True)
    assert "joinable" in check_equiv(joinable, code, report)


# ---------------------------------------------------------------- corpus


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_corpus_is_pinned_and_seeded(workload, work):
    first = corpus.build(workload, 1, work / "a")
    again = corpus.build(workload, 1, work / "b")
    other = corpus.build(workload, 2, work / "c")
    assert first.digest == again.digest != other.digest
    assert first.digest == PINNED[workload]
    sizes = {len(r) for r in first.rounds}
    assert len(sizes) == 1, "every round has the same number of ops"


def test_leavitt_rounds_keep_their_quota():
    for ops in corpus.leavitt_small(3, 4):
        strata = [op.stratum for op in ops]
        for stratum, quota in corpus.LEAVITT_QUOTA.items():
            assert strata.count(stratum) == quota
        assert strata.count("family") == corpus.LEAVITT_FAMILY


def test_cohn_large_quantiles_sit_inside_one_group():
    # Sorted by algebra and n, one round is relative-50 < cohn-50 <
    # relative-100 x2 < cohn-100 < relative-200; a run of k >= 3 rounds
    # must put its median inside the relative-100 ops and its p90 inside
    # the relative-200 ops.
    cost = {"relative-50": 0, "cohn-50": 1, "relative-100": 2, "cohn-100": 3, "relative-200": 4}
    for k in range(3, 12):
        ops = [op for ops in corpus.cohn_large(7, k) for op in ops]
        ranked = sorted(ops, key=lambda op: cost[op.stratum])
        n = len(ranked)
        assert {ranked[(n - 1) // 2].stratum, ranked[n // 2].stratum} == {"relative-100"}
        p90 = 0.9 * (n - 1)  # zero-based position of the inclusive p90
        assert {ranked[int(p90)].stratum, ranked[int(p90) + 1].stratum} == {"relative-200"}


# ---------------------------------------------------------------- timing


def test_ops_are_scaled_by_the_references_around_them():
    ms = 1_000_000
    nominal = harness.REF_NOMINAL_NS
    m = harness.Measurement()
    # The host runs at nominal speed for 3 s, then at half speed.
    m.refs = [(t * 200 * ms, nominal if t < 15 else 2 * nominal) for t in range(40)]
    m.records = [harness.Record(0, 0, Path("r"), 0, 500 * ms, 10 * ms),
                 harness.Record(0, 1, Path("r"), 0, 6000 * ms, 20 * ms)]
    assert m.scaled_ns() == [10 * ms, 10 * ms]
    assert harness.reference_ns() > 0


# ---------------------------------------------------------------- determinism


DETERMINISTIC = ("rewriting.pairs_tried", "rewriting.states_generated",
                 "rewriting.pruned_firings", "kernels.calls",
                 "certificates.weight_bits_max")


def test_two_traced_runs_agree(work):
    ops = (corpus.leavitt_small(5, 1)[0]
           + corpus.equiv_queries(5, 1)[0]
           + corpus.cohn_large(5, 1)[0][:2])
    seen = []
    for k in range(2):
        m, checked, tracer = run_ops(ops, work / str(k), trace=True)
        assert not checked.failures
        seen.append(({n: tracer.counts[n] for n in DETERMINISTIC}, dict(checked.outcomes)))
    assert seen[0] == seen[1]
    counts, outcomes = seen[0]
    assert counts["rewriting.pairs_tried"] > 0 and counts["certificates.weight_bits_max"] > 0
    assert sum(outcomes.values()) == len(ops)


def test_self_times_add_up_to_op_time(work):
    ops = corpus.leavitt_small(6, 1)[0][:40]
    m, checked, tracer = run_ops(ops, work, trace=True)
    total = sum(tracer.self_times_ns().values())
    op_ns = sum(end - start for op, layer, parent, start, end in tracer.spans if parent < 0)
    assert total == op_ns
    assert not tracer.absent
