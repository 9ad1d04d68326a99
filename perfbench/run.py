#!/usr/bin/env python3
"""Benchmark of cbdsim: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain200 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One run is a closed loop in a single process: one operation at a time,
each turning the workload's model text into traces and checking them,
until ``--seconds`` have passed.  ``--trace 0`` reports the end-to-end
metrics with tracing off; ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics from the traced ones.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's context (host, sample counts, trace hashes).  ``--smoke``
runs every workload at a tiny size, in both modes, and prints every metric
by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from hostclock import HostClock, calibration_s
from tracer import ROOT_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Every reported time is host-normalized by hostclock.HostClock.
SETUP_SECONDS = 1.0
SETUP_BLOCK_S = 0.2
MIN_SETUP_REPS = 5
MIN_OPS = 3
# A traced run alternates untraced and traced operations.
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "sim_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

SELF_TIMED = (
    "dsl.parse", "dsl.validate", "graph.flatten", "graph.dependency_sort",
    "engine.simulate", "engine.compute_step", "engine.flipped_conditions",
    "engine.locate_crossing", "engine.commit", "cli.write_trace",
    "cli.write_impulses", "cli.read_trace", "analysis.compare_traces",
)

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIMED},
    "dsl.source_bytes": "bytes",
    "graph.flat_blocks": "count",
    "graph.cyclic_groups": "count",
    "engine.compute_step.calls": "count",
    "engine.compute_step.p50_us": "us",
    "engine.compute_step.p99_us": "us",
    "engine.locate_crossing.calls": "count",
    "engine.trials_per_event": "calls/event",
    "engine.useful_step_ratio": "ratio",
    "engine.commit.calls": "count",
    "engine.committed_steps": "count",
    "trace.impulse_events": "count",
    "trace.warnings": "count",
    "cli.write_trace.bytes": "bytes",
    "bench.traced_run_s": "s",
    "bench.remainder_s": "s",
    "bench.trace_overhead_s": "s",
}


# --- host context -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_context() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "calibration_s": statistics.median(calibration_s() for _ in range(50)),
    }


# --- measurement --------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """Operations of one workload in one process, and what they produced."""

    def __init__(self, workload, out: Path, clock: HostClock):
        self.workload = workload
        self.clock = clock
        self.out = out
        out.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        # Per untraced operation: normalized run_s, raw run_s, sim_s, steps.
        self.samples: list[tuple[float, float, float, int]] = []
        self.traced_ok: dict[int, object] = {}
        self.factor: dict[int, float] = {}
        self.hashes: dict[str, str] = {}
        self.hashes_stable = True

    def once(self, tracer=None) -> None:
        """One operation, timed, then its check outside the timed region."""
        gc.collect()
        op_id = self.attempted
        self.attempted += 1

        def work():
            return self.workload.operation(self.out, self.clock.now)

        try:
            if tracer is None:
                result, run_s, factor = self.clock.measure(work)
            else:
                result, run_s, factor = self.clock.measure(
                    lambda: tracer.operation(op_id, work))
            problems = self.workload.check(result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems = ["operation raised"]
        if problems:
            self.failed += 1
            print(f"{self.workload.name} op {op_id}: {problems[0]}",
                  file=sys.stderr)
            return
        self._hash(result)
        self.factor[op_id] = factor
        if tracer is None:
            self.samples.append((run_s, run_s / factor, result.sim_s * factor,
                                 result.committed_steps))
        else:
            self.traced_ok[op_id] = result

    def _hash(self, result) -> None:
        for path in result.trace_files + result.impulse_files:
            digest = _sha256(path)
            if self.hashes.setdefault(path.name, digest) != digest:
                self.hashes_stable = False

    def loop(self, seconds: float, min_ops: int, tracer=None) -> None:
        """Closed loop until ``seconds`` pass; with a tracer, every other
        operation is traced."""
        deadline = time.perf_counter() + seconds
        index = 0
        while index < min_ops or time.perf_counter() < deadline:
            traced = tracer is not None and index % 2 == 1
            self.once(tracer if traced else None)
            index += 1


def measure_setup(workload, clock: HostClock, seconds: float,
                  min_reps: int) -> list[float]:
    """Repeated text-to-schedule set-up, in normalized seconds.

    The first, warm-up pass is dropped.  Repetitions run in blocks of about
    SETUP_BLOCK_S, each normalized by the host speed sampled during it.
    """
    import workloads

    def block() -> list[float]:
        times: list[float] = []
        end = clock.now() + SETUP_BLOCK_S
        while not times or clock.now() < end:
            start = clock.now()
            workloads.setup(workload.text, workload.top)
            times.append(clock.now() - start)
        return times

    workloads.setup(workload.text, workload.top)
    normalized: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(normalized) < min_reps or time.perf_counter() < deadline:
        times, _, factor = clock.measure(block)
        normalized += [t * factor for t in times]
    return normalized


def peak_rss_mb(name: str, seed: int, smoke: bool) -> float | None:
    """Peak RSS of a fresh process running one operation; None on failure."""
    command = [sys.executable, str(Path(__file__).resolve()), "--rss-probe",
               "--workload", name, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        child = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        return None
    return json.loads(child.stdout.splitlines()[-1])["peak_rss_kb"] / 1024.0


def rss_probe(workload) -> int:
    out = OUT / f"{workload.name}-rss"
    out.mkdir(parents=True, exist_ok=True)
    result = workload.operation(out, time.perf_counter)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = workload.check(result)
    if problems:
        print(problems[0], file=sys.stderr)
        return 1
    print(json.dumps({"peak_rss_kb": peak_kb}))
    return 0


def end_to_end(run: Run, setup_times: list[float], rss_mb: float | None) -> dict:
    ok = len(run.samples)
    run_s = [s[0] for s in run.samples]
    rates = [s[3] / s[2] for s in run.samples if s[2] > 0.0]
    # The probe's operation is an operation too: its failure counts.
    if rss_mb is None:
        run.attempted += 1
        run.failed += 1
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(run_s) if ok else 0.0,
        "sim_steps_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": rss_mb or 0.0,
        "success_ratio": (run.attempted - run.failed) / run.attempted,
    }


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def per_layer(run: Run, tracer, source_bytes: int, flat, schedule) -> dict:
    ops = run.traced_ok
    n = max(1, len(ops))
    own = tracer.self_times()
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    step_us: list[float] = []
    root_s = 0.0
    trials = 0
    names, name_of, parent = tracer.names, tracer.name_of, tracer.parent
    for span, op in enumerate(tracer.op):
        if op not in ops:
            continue
        factor = run.factor[op]
        name = names[name_of[span]]
        self_s[name] += own[span] * factor
        calls[name] += 1
        if name == ROOT_SPAN:
            root_s += (tracer.end[span] - tracer.start[span]) * factor
        elif name == "engine.compute_step":
            step_us.append(
                (tracer.end[span] - tracer.start[span]) * factor * 1e6)
            up = parent[span]
            if up >= 0 and names[name_of[up]] == "engine.locate_crossing":
                trials += 1
    results = list(ops.values())
    committed = sum(r.committed_steps for r in results)
    untraced = (statistics.fmean(s[0] for s in run.samples)
                if run.samples else 0.0)
    metrics = {f"{layer}.self_s": self_s[layer] / n for layer in SELF_TIMED}
    metrics.update({
        "dsl.source_bytes": source_bytes,
        "graph.flat_blocks": len(flat.blocks),
        "graph.cyclic_groups": sum(group.cyclic for group in schedule),
        "engine.compute_step.calls": calls["engine.compute_step"] / n,
        "engine.compute_step.p50_us": _percentile(step_us, 50),
        "engine.compute_step.p99_us": _percentile(step_us, 99),
        "engine.locate_crossing.calls": calls["engine.locate_crossing"] / n,
        "engine.trials_per_event": (trials / calls["engine.locate_crossing"]
                                    if calls["engine.locate_crossing"] else 0.0),
        "engine.useful_step_ratio": (committed / calls["engine.compute_step"]
                                     if calls["engine.compute_step"] else 0.0),
        "engine.commit.calls": calls["engine.commit"] / n,
        "engine.committed_steps": committed / n,
        "trace.impulse_events": sum(
            len(t.impulses) for r in results for t in r.traces) / n,
        "trace.warnings": sum(
            len(t.warnings) for r in results for t in r.traces) / n,
        "cli.write_trace.bytes": sum(
            p.stat().st_size for r in results[:1] for p in r.trace_files),
        "bench.traced_run_s": root_s / n,
        "bench.remainder_s": self_s[ROOT_SPAN] / n,
        "bench.trace_overhead_s": root_s / n - untraced,
    })
    return metrics


# --- entry points -------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (context, result)."""
    import workloads

    context = {"workload": name, "seed": seed, "seconds": seconds,
               "trace": int(trace), "host": host_context()}
    workload = workloads.WORKLOADS[name](ROOT, seed, smoke)
    context["model"] = workload.size
    clock = HostClock()
    run = Run(workload, OUT / name, clock)
    setup_reps = 1 if smoke else MIN_SETUP_REPS
    setup_seconds = 0.0 if smoke else SETUP_SECONDS
    min_ops = 1 if smoke else MIN_OPS
    if trace:
        flat, schedule = workloads.setup(workload.text, workload.top)
        recorder = Tracer(clock.now)
        with clock:
            run.loop(seconds, 2 * (1 if smoke else MIN_TRACED_PAIRS), recorder)
        metrics = per_layer(run, recorder, len(workload.text.encode()),
                            flat, schedule)
        units = PER_LAYER
        spans = OUT / f"spans-{name}.csv"
        recorder.write_csv(spans)
        context.update({"spans_file": str(spans.relative_to(ROOT)),
                        "spans": len(recorder.op),
                        "absent_layers": recorder.absent,
                        "traced_ops": len(run.traced_ok)})
    else:
        with clock:
            setup_times = measure_setup(workload, clock, setup_seconds,
                                        setup_reps)
            run.loop(seconds, min_ops)
        metrics = end_to_end(run, setup_times,
                             peak_rss_mb(name, seed, smoke))
        units = END_TO_END
        context["setup_samples"] = len(setup_times)
    context.update({
        "run_s_samples": len(run.samples),
        "run_s_raw_median": (statistics.median(s[1] for s in run.samples)
                             if run.samples else None),
        "host_factor_median": (statistics.median(run.factor.values())
                               if run.factor else None),
        "failed_ratio": run.failed / run.attempted,
        "trace_sha256": run.hashes,
        "trace_sha256_stable": run.hashes_stable,
    })
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }
    return context, result


def _declared_metrics() -> tuple[list[str], list[str], list[str]] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return ([w["name"] for w in spec["workloads"]],
            [m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def smoke() -> int:
    """Every workload at a tiny size, both modes, all checks."""
    import workloads

    problems = []
    declared = _declared_metrics()
    if declared is not None:
        names, e2e, layers = declared
        if sorted(names) != sorted(workloads.WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from workloads.py")
        if e2e != list(END_TO_END) or layers != list(PER_LAYER):
            problems.append("BENCHMARK.json metrics differ from run.py")
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            _, result = measure(name, 1, 0.0, trace, smoke=True)
            if not result["correct"] or set(result["metrics"]) != set(
                    PER_LAYER if trace else END_TO_END):
                problems.append(f"{name} trace={int(trace)}: {result}")
            for key, metric in result["metrics"].items():
                print(f"{name:13s} {key:34s} {metric['value']:>16.6g} "
                      f"{metric['unit']}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size, with all checks")
    parser.add_argument("--rss-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "cbdsim" / "__init__.py").is_file():
        print(f"error: cbdsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.smoke and not args.rss_probe:
        return smoke()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.rss_probe:
        return rss_probe(workloads.WORKLOADS[args.workload](
            ROOT, args.seed, args.smoke))
    context, result = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace), smoke=False)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
