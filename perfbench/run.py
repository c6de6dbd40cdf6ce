"""End-to-end benchmark of the cohnibn CLI on seeded corpora.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload leavitt-small --seed 1 --seconds 35 --trace 0

Workloads: leavitt-small, cohn-large, equiv-queries (see BENCHMARK.json for
why each exists), or ``all`` to run the three in turn in one process, where
``peak_rss_mb`` is the peak so far.  End-to-end times are scaled to a
nominal host speed by a reference loop timed between ops (see
``harness.REF_NOMINAL_NS``); the unscaled figures are printed on a comment
line.  With ``--trace 0``
the last line of output is a JSON object carrying the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run.  A
fuller record, stamped with versions and the input digest, is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time

import corpus
import harness
from tracing import COUNTS, LAYERS, OP_LAYER, Tracer

SETUP_REPEATS = 5
# Share of --seconds that a traced run spends on untraced/traced op pairs.
PAIRED_SHARE = 0.1
# op_p90_ms has at least ten samples beyond it only from this many ops on.
P90_MIN_OPS = 100


def setup(workload: str, seed: int, work):
    """Import the package afresh, write the corpus, warm up on the op of
    round 0 with the fewest edges.  Returns the set-up time in seconds,
    raw and scaled to the nominal host speed by the reference loop timed
    three times before and three times after."""
    refs = [harness.reference_ns() for _ in range(3)]
    t0 = time.perf_counter()
    cli = harness.load_package()
    built = corpus.build(workload, seed, work / "graphs")
    smallest = min(range(len(built.rounds[0])), key=lambda i: len(built.rounds[0][i].graph.edges))
    warm = [*built.argvs[0][smallest], "--format", "json", "--output", str(work / "warmup.json")]
    cli.main(warm)
    took = time.perf_counter() - t0
    refs += [harness.reference_ns() for _ in range(3)]
    return cli, built, took, took * harness.REF_NOMINAL_NS / statistics.median(refs)


def end_to_end(m, checked, setup_s: float) -> dict:
    """The timings are scaled to the nominal host speed (harness.scaled_ns)."""
    attempted = len(m.records)
    scaled = m.scaled_ns()
    lat = sorted(ns / 1e6 for ns in scaled)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (attempted / (sum(scaled) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p90_ms": (harness.percentile(lat, 90), "ms"),
        "decided_ratio": (checked.decided / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, m, overhead: float) -> dict:
    op_ns = sum(r.ns for r in m.records)
    self_ns = tracer.self_times_ns()
    out = {}
    for layer in [OP_LAYER, *LAYERS]:
        if layer in tracer.absent:
            continue
        ns = self_ns.get(layer, 0)
        out[f"{layer}_ms"] = (ns / 1e6, "ms")
        out[f"{layer}_share"] = (ns / op_ns, "ratio")
    c = tracer.counts
    for name in COUNTS:
        if name != "rewriting.pairs_joined":
            out[name] = (c[name], "count")
    tried = c["rewriting.pairs_tried"]
    out["rewriting.pairs_joined_ratio"] = (c["rewriting.pairs_joined"] / tried if tried else 0.0,
                                           "ratio")
    out["trace.ops"] = (len(m.records), "count")
    out["trace.ops_per_s"] = (len(m.records) / m.op_elapsed_s(), "1/s")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def tracing_overhead(main, argvs, out_dir, budget_s: float) -> float:
    """Traced over untraced time of the same ops, minus 1.

    Each op of the first rounds runs once untraced and once traced, back to
    back and in alternating order, so that drift in machine speed and the
    warm second call cancel; pairs stop once the untraced calls add up to
    ``budget_s``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    tracer.close()
    ns = {False: 0, True: 0}
    for k, argv in enumerate(op for ops in argvs for op in ops):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            full = [*argv, "--format", "json", "--output", str(out_dir / f"{k:05d}.json")]
            t0 = time.perf_counter_ns()
            try:
                main(full)
            finally:
                ns[traced] += time.perf_counter_ns() - t0
                tracer.close()
        if ns[False] >= budget_s * 1e9:
            break
    return ns[True] / ns[False] - 1


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tag = f"{workload}_s{seed}_t{int(trace)}"
    work = harness.OUT / f"work_{tag}"
    shutil.rmtree(work, ignore_errors=True)
    setups, scaled_setups = [], []
    for _ in range(SETUP_REPEATS):
        cli, built, took, scaled = setup(workload, seed, work)
        setups.append(took)
        scaled_setups.append(scaled)
    setup_s = statistics.median(scaled_setups)
    rounds, argvs = built.rounds, built.argvs

    spans = None
    if not trace:
        m = harness.measure(cli.main, argvs, work / "reports", seconds)
        records = m.records
        metrics = None
    else:
        overhead = tracing_overhead(cli.main, argvs, work / "pairs", seconds * PAIRED_SHARE)
        tracer = Tracer()
        try:
            m = harness.measure(cli.main, argvs, work / "reports", seconds, tracer=tracer)
        finally:
            tracer.close()
        metrics = per_layer(tracer, m, overhead)
        records = m.records
        spans = {"fields": ["op", "layer", "parent", "start_ns", "end_ns"],
                 "spans": tracer.spans, "absent": tracer.absent}
    checked = harness.check(rounds, records)
    if metrics is None:
        metrics = end_to_end(m, checked, setup_s)
    failed_ratio = len(checked.failures) / len(records)
    lat = sorted(r.ns / 1e6 for r in records)
    raw = {"ops_per_s": len(records) / m.op_elapsed_s(), "op_p50_ms": statistics.median(lat),
           "op_p90_ms": harness.percentile(lat, 90), "setup_s": statistics.median(setups),
           "reference_ms": statistics.median(ns for _, ns in m.refs) / 1e6}

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs_sha256": built.digest, "stamp": harness.stamp(),
        "rounds": m.rounds, "ops": len(m.records), "elapsed_s": m.elapsed_s,
        "setup_runs_s": setups, "setup_runs_scaled_s": scaled_setups,
        "raw": raw, "failed_ratio": failed_ratio,
        "outcomes": dict(sorted(checked.outcomes.items())),
        "failures": checked.failures[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if spans is not None:
        (harness.OUT / f"spans_{tag}.json").write_text(json.dumps(spans))
    (harness.OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(f"# {workload} seed={seed} inputs={built.digest}")
    print("# " + " ".join(f"{k}={v}" for k, v in record["stamp"].items()))
    print(f"# {len(records)} ops in {m.rounds} rounds, {m.elapsed_s:.2f} s measured; "
          f"failed_ratio={failed_ratio:.4f} ({len(checked.failures)} of {len(records)})")
    for line in checked.failures[:10]:
        print(f"# FAILED {line}")
    print("# outcomes: " + ", ".join(f"{k}={v}" for k, v in record["outcomes"].items()))
    print("# unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items())
          + f" (times below are scaled to a {harness.REF_NOMINAL_NS / 1e6:g} ms reference loop)")
    if trace and tracer.absent:
        print("# absent layers: " + ", ".join(tracer.absent))
    for name, (value, unit) in metrics.items():
        note = ""
        if name in ("op_p50_ms", "op_p90_ms"):
            note = f"  (n={len(m.records)}"
            if name == "op_p90_ms" and len(m.records) < P90_MIN_OPS:
                note += ", fewer than 10 samples beyond p90"
            note += ")"
        print(f"{name:34s} {value:14.6g} {unit}{note}")
    return {
        "correct": not checked.failures,
        "attempted": len(records),
        "failed": len(checked.failures),
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        harness.load_package()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot load the package: {exc}", file=sys.stderr)
        return 2
    harness.OUT.mkdir(parents=True, exist_ok=True)
    results = [run(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
