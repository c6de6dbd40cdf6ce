"""Closed-loop driver: set up, run whole rounds of CLI calls, check, sum up.

The client is one process making one in-process ``cohnibn.cli.main(argv)``
call at a time, with no threads.  Reports go to ``--output`` files and are
checked by the oracle only after the timer stops.  A fixed reference loop,
timed between ops, gives each op a host-speed scale.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from oracle import IbnCase, check_equiv, check_ibn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Host-speed reference: a fixed pure-Python loop that is no part of cohnibn,
# timed between ops.  On a shared host the same code runs up to 1.7x slower
# from one minute to the next; scaling each op by the reference timed
# around it takes most of that drift out of the reported times.
REF_LOOPS = 60_000
# The reference's time on the host the figures are scaled to: scaled times
# are the times on a host where the loop takes exactly this long.
REF_NOMINAL_NS = 5_000_000
# A reference is timed before an op once this much time has passed since the
# last one (about 2.5% of a run), and an op is scaled by the median of the
# references within REF_WINDOW_NS of its start or end.
REF_EVERY_NS = 200_000_000
REF_WINDOW_NS = 1_000_000_000


def reference_ns() -> int:
    """Time one run of the reference loop."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter_ns() - t0


def load_package():
    """Import cohnibn afresh from this checkout; returns ``cohnibn.cli``."""
    if not (SRC / "cohnibn" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cohnibn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "cohnibn" or m.startswith("cohnibn.")]:
        del sys.modules[name]
    cli = importlib.import_module("cohnibn.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cohnibn was imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Record:
    round: int
    index: int
    report: Path
    code: int | None
    start_ns: int
    ns: int
    error: str = ""


@dataclass
class Measurement:
    records: list[Record] = field(default_factory=list)
    elapsed_s: float = 0.0
    rounds: int = 0
    refs: list[tuple[int, int]] = field(default_factory=list)  # (start_ns, ns)

    def take_reference(self) -> None:
        self.refs.append((time.perf_counter_ns(), reference_ns()))

    def op_elapsed_s(self) -> float:
        """Wall time of the measured rounds without the reference loops."""
        return self.elapsed_s - sum(ns for _, ns in self.refs) / 1e9

    def scaled_ns(self) -> list[float]:
        """Each op's time scaled by REF_NOMINAL_NS over the median reference
        time within REF_WINDOW_NS of the op."""
        starts = [t for t, _ in self.refs]
        out = []
        for rec in self.records:
            lo = bisect.bisect_left(starts, rec.start_ns - REF_WINDOW_NS)
            hi = bisect.bisect_right(starts, rec.start_ns + rec.ns + REF_WINDOW_NS)
            ref = statistics.median(ns for _, ns in self.refs[lo:hi])
            out.append(rec.ns * REF_NOMINAL_NS / ref)
        return out


def measure(main, argvs, report_dir: Path, seconds: float, tracer=None,
            max_rounds: int | None = None) -> Measurement:
    """Run whole rounds, cycling through ``argvs``, until ``seconds`` pass
    (or, when ``max_rounds`` is given, exactly that many rounds).

    The reference loop is timed three times before the first op, before
    any op that starts REF_EVERY_NS or more after the last reference, and
    once after the last op, so every op has a reference on both sides.
    """
    report_dir.mkdir(parents=True, exist_ok=True)
    m = Measurement()
    # Keep the corpus out of the collector's scans, which would otherwise
    # charge its size to whichever op triggers a full collection.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    for _ in range(3):
        m.take_reference()
    while True:
        r = m.rounds
        for i, argv in enumerate(argvs[r % len(argvs)]):
            report = report_dir / f"{r:03d}-{i:03d}.json"
            full = [*argv, "--format", "json", "--output", str(report)]
            error = ""
            if time.perf_counter_ns() - m.refs[-1][0] >= REF_EVERY_NS:
                m.take_reference()
            t0 = time.perf_counter_ns()
            try:
                code = tracer.call_op(len(m.records), main, full) if tracer else main(full)
            except Exception as exc:  # a traceback is a failed op, not a crash
                code, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
            m.records.append(Record(r, i, report, code, t0, t1 - t0, error))
        m.rounds += 1
        if max_rounds is not None:
            if m.rounds >= max_rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    m.take_reference()
    m.elapsed_s = time.perf_counter() - start
    gc.unfreeze()
    return m


@dataclass
class Checked:
    failures: list[str] = field(default_factory=list)
    decided: int = 0
    outcomes: Counter = field(default_factory=Counter)


DECIDED = {"certified", "refuted", "equivalent", "not-equivalent"}


def check(rounds, records: list[Record]) -> Checked:
    """Oracle check of every op's exit code and report."""
    out = Checked()
    for rec in records:
        op = rounds[rec.round % len(rounds)][rec.index]
        where = f"round {rec.round} op {rec.index} ({op.stratum})"
        if rec.code is None:
            out.failures.append(f"{where}: raised {rec.error}")
            continue
        if rec.code not in (0, 10, 20):
            out.failures.append(f"{where}: exit code {rec.code}")
            continue
        try:
            report = json.loads(rec.report.read_text())
            if isinstance(op.case, IbnCase):
                verdict = report["result"]["route"]
                decided = report["result"]["ibn"] in DECIDED
                problem = check_ibn(op.case, rec.code, report)
            else:
                verdict = report["result"]["status"]
                decided = verdict in DECIDED
                problem = check_equiv(op.case, rec.code, report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable report: {type(exc).__name__}: {exc}"
        if problem:
            out.failures.append(f"{where}: {problem}")
            continue
        out.outcomes[f"{op.stratum}:{verdict}"] += 1
        out.decided += decided
    return out


def percentile(sorted_ms: list[float], q: int) -> float:
    if len(sorted_ms) == 1:
        return sorted_ms[0]
    return statistics.quantiles(sorted_ms, n=100, method="inclusive")[q - 1]


def _commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    """What a result depends on besides the code: versions, backend, cores."""
    import numpy

    try:
        backend = importlib.import_module("cohnibn._kernels").BACKEND
    except (ImportError, AttributeError):
        backend = "absent"
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
    }
