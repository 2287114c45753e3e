#!/usr/bin/env python3
"""Benchmark of the deontic engine: one workload, one closed-loop run.

    python3 perfbench/run.py --workload proofs --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the engine is imported from ``src/``.
One caller on one thread runs the workload's fixed op list, the next op
only after the previous one returns: one warm-up pass, then timed passes
until ``--seconds`` have elapsed, at least three.  An op's latency is its
mean time over the timed passes.  On a 2-vCPU VM shared with other
tenants single op times of the same code range over a factor of 1.7
within seconds, and the speed averaged over ten seconds by up to a third.
In 30 s windows of a six-minute recording of ``exhaustive``, per-op means
spread about half as much as per-op best times; on ``proofs`` the two were
close.  ``latency_p50_ms`` is the median over ops, ``ops_per_s`` the
number of ops over the sum of their latencies.  Every result is compared
with the op's known answer outside the timed region; an op that raises,
times out or gives another answer counts as failed.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
``setup_s`` is the median over fresh processes, the rest come from this
one.  With ``--trace 1`` untraced passes alternate with passes that record
spans around the library's public functions; the last line holds the per-layer
metrics, per pass of the op list, and the spans go to ``.perfbench/``.
Lines before the last describe the run: machine, passes, the tail
percentile chosen, and input-property shares.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE.parent / ".perfbench"  # spans of traced runs
SETUP_PROCESSES = 21
HASH_SEED = "0"
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


def time_setups(count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first op being ready, ``count`` times."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "prepare.py"), str(SRC)],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            ready = time.perf_counter()
            child.stdout.read()
        if child.returncode != 0 or line != "ready":
            raise RuntimeError(f"set-up process failed (exit {child.returncode}, said {line!r})")
        times.append(ready - start)
    return times


class Runner:
    """Runs ops, checks their results and keeps per-op latencies."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.phase = "warm-up"  # names the pass in span op ids
        self._checked: dict[int, object] = {}

    def run_op(self, index: int) -> float:
        op = self.ops[index]
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = f"{self.phase}/{index}"
        error = None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # any raise, timeouts included, is a failed op
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None:
            error = self._verify(index, result)
        if error is not None:
            self.failures.append(f"{op.label}: {error}")
        return elapsed

    def _verify(self, index, result):
        op = self.ops[index]
        tracing = self.tracer is not None and self.tracer.active
        if tracing:
            self.tracer.active = False
        try:
            sig = op.sig(result)
            if index in self._checked:
                return None if sig == self._checked[index] else "result differs between passes"
            try:
                reason = op.check(result)
            except Exception as exc:  # a malformed result can break the check itself
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is None:
                self._checked[index] = sig
            return reason
        finally:
            if tracing:
                self.tracer.active = True

    def warm_up(self) -> None:
        for i in range(len(self.ops)):
            self.run_op(i)

    def one_pass(self, label: str) -> list[float]:
        """Runs every op once; returns their latencies."""
        self.phase = label
        return [self.run_op(i) for i in range(len(self.ops))]

    def timed(self, seconds: float, label: str, min_passes: int) -> dict:
        """Whole passes, at least ``min_passes``, until ``seconds`` have elapsed."""
        passes = []
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            passes.append(self.one_pass(f"{label}{len(passes)}"))
        return summary(passes)


def summary(passes: list[list[float]]) -> dict:
    """Each op's mean latency over the passes, the pass times and ops_per_s."""
    mean = [sum(times) / len(passes) for times in zip(*passes)]
    return {"mean": mean, "pass_times": [sum(times) for times in passes],
            "ops_per_s": len(mean) / sum(mean)}


def tail(latencies: list[float]) -> tuple[str, float, int]:
    """The highest percentile of the ladder with at least ten ops beyond it, else the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return f"p{p:g}", ordered[rank - 1], n - rank
    return "max", ordered[-1], 0


def write_spans(spans, stem: str) -> Path:
    """Spans as JSON lines: name, start and end in microseconds, parent index, op."""
    from spans import END, NAME, OP, PARENT, START
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{stem}.jsonl.gz"
    origin = spans[0][START] if spans else 0.0
    with gzip.open(path, "wt") as out:
        for s in spans:
            start, end = (s[START] - origin) * 1e6, (s[END] - origin) * 1e6
            out.write(json.dumps([s[NAME], round(start, 3), round(end, 3), s[PARENT], s[OP]]) + "\n")
    return path.relative_to(HERE.parent)


def describe(name: str, result: dict) -> None:
    q = statistics.quantiles(result["pass_times"], n=4) if len(result["pass_times"]) > 1 else None
    spread = f", quartiles {q[0]:.4f} / {q[2]:.4f} s" if q else ""
    print(f"{name}: passes {len(result['pass_times'])}, median pass "
          f"{statistics.median(result['pass_times']):.4f} s{spread}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes set dict and set layouts, which moved single ops by up to
        # 75% between processes; one fixed seed keeps that out of the comparison.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})

    if not (SRC / "deontic" / "__init__.py").is_file():
        print(f"error: no engine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import deontic
    if Path(deontic.__file__).resolve().parent != SRC / "deontic":
        print(f"error: imported deontic from {deontic.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from prepare import load_setup
    from spans import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(workloads.WORKLOADS)})")
    print(f"machine: {platform.machine()}, {os.cpu_count()} cpus "
          f"({len(os.sched_getaffinity(0))} usable), Python {platform.python_version()}, "
          f"PYTHONHASHSEED={HASH_SEED}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.op, tracer.active = "setup", True
    else:
        # The first spawn fills the bytecode and file caches.  Half the samples
        # are taken after the timed passes, so that a burst of load on the host
        # during one of the two moments moves at most half of them.
        time_setups(1)
        setup_times = time_setups(SETUP_PROCESSES // 2)
    setup = load_setup()
    if tracer is not None:
        tracer.active = False
    ops = workloads.WORKLOADS[args.workload](random.Random(args.seed), setup)
    runner = Runner(ops, tracer)
    runner.warm_up()

    if not args.trace:
        result = runner.timed(args.seconds, "timed", min_passes=3)
        setup_times += time_setups(SETUP_PROCESSES - len(setup_times))
        describe("timed", result)
        label, tail_s, beyond = tail(result["mean"])
        print(f"latency_tail_ms is {label} of {len(ops)} per-op latencies ({beyond} beyond it)")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (result["ops_per_s"], "ops/s"),
            "latency_p50_ms": (statistics.median(result["mean"]) * 1000.0, "ms"),
            "latency_tail_ms": (tail_s * 1000.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        # Untraced and traced passes alternate, so that drift in host speed
        # moves both alike and stays out of the overhead.
        plain_passes, traced_passes = [], []
        start = time.perf_counter()
        while not traced_passes or time.perf_counter() - start < args.seconds:
            plain_passes.append(runner.one_pass(f"untraced{len(plain_passes)}"))
            tracer.active = True
            traced_passes.append(runner.one_pass(f"traced{len(traced_passes)}"))
            tracer.active = False
        tracer.uninstall()
        plain, traced = summary(plain_passes), summary(traced_passes)
        describe("untraced", plain)
        describe("traced", traced)
        path = write_spans(tracer.spans, f"{args.workload}-seed{args.seed}")
        print(f"spans written to {path}")
        metrics, hist = layer_metrics(tracer.spans, len(traced["pass_times"]),
                                      sum(traced["pass_times"]))
        overhead = 1.0 - traced["ops_per_s"] / plain["ops_per_s"]
        metrics["trace.ops_per_s_untraced"] = (plain["ops_per_s"], "ops/s")
        metrics["trace.ops_per_s_traced"] = (traced["ops_per_s"], "ops/s")
        metrics["trace.overhead_share"] = (overhead, "ratio")
        print("is_tautology calls by unit count: " + json.dumps(hist))
        print(f"tracing overhead: {overhead:.1%} of untraced ops_per_s")

    failed = len(runner.failures)
    for reason in runner.failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"failed_share: {failed}/{runner.attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
