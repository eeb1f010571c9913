"""dgnerve benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists): axioms, horn_sweep,
cochain_laws, cli_documents.  Every input is generated from ``--seed``.

``--trace 0`` sets the workload up several times (each time with a fresh
import of the package) and reports the median as ``setup_s``.  It then runs
whole rounds of the workload's op mix, one op at a time with no extra
threads, until the ops have taken ``--seconds`` (scaled, see below), checks
every op's output and prints the end-to-end metrics.  ``ops_per_s`` is ops
over the time spent in them, so checks and speed readings do not count.

Every time in those metrics is scaled to a nominal machine speed (see
:class:`SpeedGauge`): on a shared host the speed of one core drifts by
20-30% over seconds to minutes, more than the bounds allow, and a fixed
reference kernel, timed every quarter second during the ops, slows down
with it.  The run's
length is scaled time too, so a fast or slow spell does not change how
many ops a run makes; with few ops (``axioms``) that count decides where
``op_tail_ms`` falls.  The wall-clock figures go to the record beside the
scaled ones.

``--trace 1`` runs a fixed op list (``Plan.trace_rounds`` rounds, so counts
repeat exactly for a seed) twice: unpatched, then with every traced layer
function wrapped (see tracer.py), and prints the per-layer metrics plus
``trace.overhead_ratio``.  Set-up is traced too.  The two passes must give
identical op results.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.  A
full record -- environment, op counts per kind, the percentile behind
``op_tail_ms``, failures, probe outcomes -- goes to ``.perfbench/`` at the
repository root, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("axioms", "horn_sweep", "cochain_laws", "cli_documents")
# Set-up runs SETUP_REPS times, a fixed count: every fresh import of the
# package leaves some memory behind, so a count that followed the machine's
# speed would move peak_rss_mb with it.
SETUP_REPS = 5
TAIL_BEYOND = 10     # samples that must lie beyond the tail percentile

_now = time.perf_counter


# -- machine speed -------------------------------------------------------------------

# The reference kernel's time at nominal speed; a scaled time reads as wall
# time on a machine where the kernel takes this long.
REFERENCE_NOMINAL_S = 0.0045
REFERENCE_REPS = 3            # kernel runs per reading; the median is kept
READ_EVERY_S = 0.25           # wall time between two readings
# A run also ends once this many times --seconds of wall time have passed,
# however slow the machine.
WALL_LIMIT = 2


def _reference_matrix() -> list[list[Fraction]]:
    rng = random.Random(0)
    return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(10)]
            for _ in range(9)]


_REFERENCE = _reference_matrix()


def reference_kernel() -> list[list[Fraction]]:
    """Gauss-Jordan elimination of a fixed 9x10 rational matrix.

    Exact Fraction arithmetic on lists, like the package's own work, but
    none of the package's code: a change to the program leaves its time
    alone."""
    m = [row[:] for row in _REFERENCE]
    n = len(m)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            continue
        m[c], m[pivot] = m[pivot], m[c]
        inverse = 1 / m[c][c]
        m[c] = [x * inverse for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


class SpeedGauge:
    """Readings of the reference kernel's time, taken through a run.

    Inside ``with gauge:`` an interval timer takes a reading every
    ``READ_EVERY_S``.  Its handler runs in the main thread, between two
    bytecodes of whatever is running, so a long op is read in its middle
    too; no extra thread runs.  :meth:`scaled` takes the readings' own time
    out of an interval and scales the rest by ``REFERENCE_NOMINAL_S`` over
    the mean of the readings in and around it.  A slow spell of the machine
    slows the op and those readings alike and cancels; a slower program is
    slower in scaled time by the same share as in wall time.  Scaling by the
    readings at an op's ends only would miss the swings inside a
    multi-second op."""

    def __init__(self) -> None:
        for _ in range(REFERENCE_REPS):       # warm-up
            reference_kernel()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.readings: list[float] = []
        self._handler: Any = None

    def read(self, *_signal) -> None:
        start = _now()
        times = []
        for _ in range(REFERENCE_REPS):
            begin = _now()
            reference_kernel()
            times.append(_now() - begin)
        self.readings.append(statistics.median(times))
        self.starts.append(start)
        self.ends.append(_now())

    def __enter__(self) -> "SpeedGauge":
        self.read()
        self._handler = signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, READ_EVERY_S, READ_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.read()

    def _inside(self, start: float, end: float) -> range:
        return range(bisect.bisect_left(self.starts, start),
                     bisect.bisect_left(self.starts, end))

    def net(self, start: float, end: float) -> float:
        """The wall time from ``start`` to ``end`` less the readings in it."""
        return end - start - sum(self.ends[i] - self.starts[i]
                                 for i in self._inside(start, end))

    def scaled(self, start: float, end: float) -> float:
        """:meth:`net`, scaled to nominal speed."""
        inside = self._inside(start, end)
        around = self.readings[max(inside.start - 1, 0):inside.stop + 1]
        return self.net(start, end) * REFERENCE_NOMINAL_S / statistics.fmean(
            around)

    def summary(self) -> dict:
        ms = [r * 1e3 for r in self.readings]
        return {"readings": len(ms), "median_ms": statistics.median(ms),
                "min_ms": min(ms), "max_ms": max(ms),
                "nominal_ms": REFERENCE_NOMINAL_S * 1e3}


# -- environment -------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the enclosing git checkout, or "unknown" outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args: argparse.Namespace) -> dict:
    return {"python": platform.python_version(), "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
            "seconds": args.seconds, "workload": args.workload,
            "trace": args.trace}


def load_workloads():
    """Import the package and the workload module afresh."""
    for name in list(sys.modules):
        if name in ("dgnerve", "workloads") or name.startswith("dgnerve."):
            del sys.modules[name]
    return importlib.import_module("workloads")


# -- running ops ---------------------------------------------------------------------

def run_op(op, call=None) -> tuple[float, float, Any, str | None]:
    """(start, end, result, problem) of one op; an escaping exception is a
    failed op, not an aborted run."""
    start = _now()
    try:
        result = call(op) if call else op.run()
    except Exception as exc:
        return start, _now(), None, f"{type(exc).__name__}: {exc}"
    end = _now()
    try:
        problem = op.check(result)
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    return start, end, result, problem


def digest(result: Any) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()


def run_probes(plan, call=None) -> list[dict]:
    """Run the known-defect probes once; record how each ended."""
    outcomes = []
    for op in plan.probes:
        try:
            result = call(op) if call else op.run()
        except Exception as exc:
            outcomes.append({"probe": op.kind, "ok": False,
                             "outcome": "raised " + type(exc).__name__})
            continue
        problem = op.check(result)
        outcomes.append({"probe": op.kind, "ok": problem is None,
                         "outcome": f"exit {result[0]}"
                         + (f" ({problem})" if problem else "")})
    return outcomes


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least
    TAIL_BEYOND samples beyond it; the median when that would fall below
    the median (fewer than 2 * TAIL_BEYOND + 1 samples)."""
    n = len(latencies)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(latencies), 50.0
    index = n - 1 - TAIL_BEYOND
    return sorted(latencies)[index], 100.0 * (index + 1) / n


# -- the two modes ---------------------------------------------------------------------

def set_up(args: argparse.Namespace, workdir: str, gauge: SpeedGauge):
    """Set the workload up repeatedly; (plan, wall times, scaled times)."""
    walls: list[float] = []
    scaled: list[float] = []
    for _ in range(SETUP_REPS):
        start = _now()
        plan = load_workloads().WORKLOADS[args.workload](args.seed, workdir)
        end = _now()
        walls.append(gauge.net(start, end))
        scaled.append(gauge.scaled(start, end))
    return plan, walls, scaled


def measure(args: argparse.Namespace, workdir: str, record: dict) -> dict:
    samples: list[tuple[str, float, float]] = []     # kind, start, end
    failures: list[dict] = []
    with SpeedGauge() as gauge:
        plan, setup_walls, setup_scaled = set_up(args, workdir, gauge)
        elapsed = 0.0            # scaled op time, by the readings so far
        start = _now()
        r = 0
        while True:
            for op in plan.round(r):
                begin, end, _, problem = run_op(op)
                samples.append((op.kind, begin, end))
                if problem is not None:
                    failures.append({"kind": op.kind, "round": r,
                                     "problem": problem})
                elapsed += gauge.scaled(begin, end)
            r += 1
            if (elapsed >= args.seconds
                    or _now() - start >= WALL_LIMIT * args.seconds):
                break
        wall = _now() - start
    probes = run_probes(plan)

    latencies = [gauge.scaled(begin, end) for _, begin, end in samples]
    by_kind: dict[str, list[float]] = {}
    for (kind, _, _), latency in zip(samples, latencies):
        by_kind.setdefault(kind, []).append(latency)
    tail_value, tail_pct = tail(latencies)
    wall_latencies = [gauge.net(begin, end) for _, begin, end in samples]
    attempted = len(latencies)
    record.update({
        "rounds": r, "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted, "failures": failures[:20],
        "op_counts": {k: len(v) for k, v in sorted(by_kind.items())},
        "op_p50_ms_by_kind": {k: statistics.median(v) * 1e3
                              for k, v in sorted(by_kind.items())},
        "tail_percentile": tail_pct, "tail_samples": attempted,
        "setup_times_s": setup_scaled, "setup_wall_s": setup_walls,
        "timed_wall_s": wall, "probes": probes,
        "speed_gauge": gauge.summary(),
        "wall_clock": {
            "op_p50_ms": statistics.median(wall_latencies) * 1e3,
            "op_tail_ms": tail(wall_latencies)[0] * 1e3,
            "ops_per_s": attempted / sum(wall_latencies),
            "setup_s": statistics.median(setup_walls)},
    })
    return {
        "ops_per_s": (attempted / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def trace(args: argparse.Namespace, workdir: str, record: dict) -> dict:
    import tracer as tracing
    workloads = load_workloads()
    tracer = tracing.Tracer()
    with tracer:
        plan = tracer.run_op("setup", "setup", lambda: workloads.WORKLOADS[
            args.workload](args.seed, workdir))
    ops = [op for r in range(plan.trace_rounds) for op in plan.round(r)]

    def one_pass(call=None) -> tuple[float, list, list]:
        start = _now()
        outcomes = [run_op(op, call) for op in ops]
        return (_now() - start, [digest(res) for _, _, res, _ in outcomes],
                [(op.kind, problem) for op, (*_, problem)
                 in zip(ops, outcomes) if problem is not None])

    plain_wall, plain_digests, plain_failures = one_pass()
    ids = {id(op): i for i, op in enumerate(ops)}
    with tracer:
        traced_wall, traced_digests, traced_failures = one_pass(
            lambda op: tracer.run_op(ids[id(op)], op.kind, op.run))
        probes = run_probes(plan, lambda op: tracer.run_op(
            "probe", op.kind, op.run))
    mismatched = [op.kind for op, a, b in zip(ops, plain_digests,
                                               traced_digests) if a != b]
    failures = plain_failures + traced_failures
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-spans.json")
    tracer.write(spans_path)
    record.update({
        "attempted": 2 * len(ops), "failed": len(failures) + len(mismatched),
        "failures": [{"kind": k, "problem": p} for k, p in failures[:20]],
        "traced_result_mismatches": mismatched,
        "op_counts": dict(sorted(Counter(op.kind for op in ops).items())),
        "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
        "probes": probes, "spans_file": os.path.relpath(spans_path, ROOT),
        "spans": len(tracer.spans),
    })
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    return metrics


# -- report ------------------------------------------------------------------------------

def report(record: dict, metrics: dict) -> None:
    env = record["environment"]
    print(f"workload {env['workload']}  seed {env['seed']}  "
          f"seconds {env['seconds']}  trace {env['trace']}")
    print(f"python {env['python']}  git {env['git_sha'][:12]}  "
          f"nproc {env['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<34} {record['failed'] / record['attempted']:>14.6g}"
          f" ({record['failed']} of {record['attempted']} ops)")
    if "tail_percentile" in record:
        print(f"  op_tail_ms is p{record['tail_percentile']:.2f} of "
              f"{record['tail_samples']} samples")
    if "speed_gauge" in record:
        gauge = record["speed_gauge"]
        print(f"  times scaled to a reference kernel of "
              f"{gauge['nominal_ms']:g} ms; it read {gauge['median_ms']:.3f} ms"
              f" (median of {gauge['readings']}, {gauge['min_ms']:.3f}-"
              f"{gauge['max_ms']:.3f})")
        print("  wall clock: " + ", ".join(
            f"{k} {v:.6g}" for k, v in record["wall_clock"].items()))
    counts = record["op_counts"]
    print(f"  op counts ({len(counts)} kinds): "
          + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for failure in record["failures"]:
        print(f"  FAILED {failure['kind']}: {failure['problem']}")
    for probe in record.get("probes", []):
        print(f"  known defect {probe['probe']}: {probe['outcome']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "dgnerve", "__init__.py")):
        print(f"error: no dgnerve package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    record: dict = {"environment": environment(args)}
    try:
        metrics = (trace if args.trace else measure)(args, workdir, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    record_path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1)
    report(record, metrics)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
