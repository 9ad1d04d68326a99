"""Seeded workloads for the cbdsim benchmark.

A workload is one model text plus the operation that turns it into traces
through the public API of ``cbdsim`` and the check that judges the result.
The generators vary constants and initial values with the seed, never the
structure, so every seed of a workload does the same kind and amount of
work.  Checks use only oracles that any correct implementation passes: a
closed form or recurrence computed here, the closed-form bouncing ball, or
the symbolic run of the same text.

Every call into ``cbdsim`` goes through a module attribute (``dsl.parse``,
``engine.simulate``, ...) at call time, so the span recorder in
``tracer.py`` can wrap those names for a traced run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from cbdsim import analysis, cli, dsl, engine, graph

H = 1e-3
REL_TOL = 1e-12
# Tolerance of the closed-form and recurrence checks: loose enough for any
# evaluation order of the same arithmetic, far below any modelling error.
ORACLE_TOL = 1e-9

# Constants of the bundled models/bouncing_ball.cbd (posInt, gravity).
BALL_Y0 = 10.0
BALL_G = 9.81


@dataclass
class Result:
    """What one operation produced, for its check and its metrics."""

    traces: list = field(default_factory=list)
    trace_files: list[Path] = field(default_factory=list)
    impulse_files: list[Path] = field(default_factory=list)
    read_back: tuple = ()
    report: object = None
    sim_s: float = 0.0

    @property
    def committed_steps(self) -> int:
        return sum(len(trace.times) for trace in self.traces)


@dataclass
class Workload:
    name: str
    text: str
    top: str
    # operation(out, clock): ``out`` is the directory for trace files and
    # ``clock`` the time source for ``Result.sim_s``.
    operation: Callable[[Path, Callable[[], float]], Result]
    check: Callable[[Result], list[str]]
    # Model size, as reported in the run's context.
    size: dict = field(default_factory=dict)


# --- shared steps -----------------------------------------------------------


def load(text: str):
    """Model text to a validated model, raising on any diagnostic error."""
    parsed = dsl.parse(text)
    if not parsed.ok:
        raise ValueError("; ".join(str(d) for d in parsed.diagnostics))
    model, diagnostics = dsl.validate(parsed.model)
    if model is None:
        raise ValueError("; ".join(str(d) for d in diagnostics))
    return model


def setup(text: str, top: str):
    """The set-up path: text to a scheduled flat graph."""
    flat = graph.flatten(load(text), top)
    return flat, graph.dependency_sort(flat)


def _simulate(result: Result, clock, model, top: str, **config) -> object:
    start = clock()
    trace = engine.simulate(model, top, engine.SimConfig(**config))
    result.sim_s += clock() - start
    result.traces.append(trace)
    return trace


def _write(result: Result, trace, out: Path, stem: str,
           impulses: bool = False) -> None:
    path = out / f"{stem}.csv"
    cli.write_trace(trace, path, "csv")
    result.trace_files.append(path)
    if impulses:
        log = out / f"{stem}_impulses.csv"
        cli.write_impulses(trace, log, "csv")
        result.impulse_files.append(log)


def _fmt(value: float) -> str:
    return repr(float(value))


def _close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= ORACLE_TOL * max(1.0, abs(expected))


def _check_stream(trace, signal: str, expected: list[float]) -> list[str]:
    samples = trace.signals[signal]
    if len(samples) != len(expected):
        return [f"{signal}: {len(samples)} steps, expected {len(expected)}"]
    for n, (sample, want) in enumerate(zip(samples, expected)):
        if not (_close(sample.left, want) and _close(sample.right, want)):
            return [f"{signal} step {n}: ({sample.left!r}, {sample.right!r}) "
                    f"!= {want!r}"]
    return []


def _steps(t_end: float) -> int:
    return round(t_end / H) + 1


# --- ball_verify --------------------------------------------------------------


def ball_verify(root: Path, seed: int, smoke: bool) -> Workload:
    """The paper's pipeline on the bundled bouncing ball.

    The model text is the bundled file, unchanged; the seed does not alter
    it.  Symbolic and numerical runs are written as CSV, read back and
    compared at 1e-12.
    """
    text = (root / "models" / "bouncing_ball.cbd").read_text()
    t_end = 3.0 if smoke else 20.0
    config = dict(h=H, t_end=t_end, zc_tol=1e-9, h_min=1e-12)

    def operation(out: Path, clock) -> Result:
        result = Result()
        model = load(text)
        for mode in ("symbolic", "numerical"):
            trace = _simulate(result, clock, model, "Main", mode=mode, **config)
            _write(result, trace, out, mode, impulses=True)
        symbolic, numerical = (
            cli.read_trace(path, log)
            for path, log in zip(result.trace_files, result.impulse_files)
        )
        result.report = analysis.compare_traces(symbolic, numerical, REL_TOL)
        result.read_back = (symbolic, numerical)
        return result

    def check(result: Result) -> list[str]:
        problems = []
        if not result.report.ok:
            problems.append(f"compare_traces not ok: {result.report.to_dict()}")
        _, _, bounces = analysis.analytic_bouncing_ball(
            BALL_Y0, 0.0, BALL_G, t_end)
        events = result.read_back[0].impulses
        orders = [event.order for event in events]
        if orders != [0] * len(bounces):
            problems.append(f"impulse orders {orders}, expected one order-0 "
                            f"event for each of {len(bounces)} bounces")
        return problems

    return Workload("ball_verify", text, "Main", operation, check,
                    {"blocks": 15, "t_end": t_end})


# --- chain200 -------------------------------------------------------------------


def chain_text(gain: float, inits: list[float], stages: int) -> str:
    per_stage = len(inits)
    lines = ["cbd Stage(in u; out y) {"]
    lines += [f"  block i{k} = Integrator({_fmt(v)});"
              for k, v in enumerate(inits)]
    lines.append("  u -> i0.in;")
    lines += [f"  i{k - 1}.out -> i{k}.in;" for k in range(1, per_stage)]
    lines += [f"  i{per_stage - 1}.out -> y;", "}", "",
              "cbd Main(out y) {",
              f"  block gain = Constant({_fmt(gain)});",
              "  block close = Multiplier();"]
    lines += [f"  block s{k} = Stage();" for k in range(stages)]
    lines += ["  close.out -> s0.u;"]
    lines += [f"  s{k - 1}.y -> s{k}.u;" for k in range(1, stages)]
    last = f"s{stages - 1}.y"
    lines += ["  gain.out -> close.in1;", f"  {last} -> close.in2;",
              f"  {last} -> y;", "}", ""]
    return "\n".join(lines)


def chain_expected(gain: float, inits: list[float], stages: int,
                   steps: int) -> list[float]:
    """Explicit Euler of the integrator ring, one value of ``y`` per step."""
    x = inits * stages
    ys = [x[-1]]
    for _ in range(steps - 1):
        x = [x[0] + gain * x[-1] * H] + [
            x[k] + x[k - 1] * H for k in range(1, len(x))
        ]
        ys.append(x[-1])
    return ys


def chain200(root: Path, seed: int, smoke: bool) -> Workload:
    """20 instances of a 10-integrator stage in a ring closed by a gain."""
    rng = random.Random(seed)
    stages, per_stage = (2, 3) if smoke else (20, 10)
    t_end = 0.02 if smoke else 1.0
    gain = round(rng.choice((-1, 1)) * rng.uniform(0.1, 0.5), 6)
    inits = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(per_stage)]
    text = chain_text(gain, inits, stages)

    def operation(out: Path, clock) -> Result:
        result = Result()
        trace = _simulate(result, clock, load(text), "Main", mode="symbolic",
                          h=H, t_end=t_end)
        _write(result, trace, out, "chain")
        return result

    def check(result: Result) -> list[str]:
        expected = chain_expected(gain, inits, stages, _steps(t_end))
        return _check_stream(result.traces[0], "y", expected)

    return Workload("chain200", text, "Main", operation, check,
                    {"blocks": stages * per_stage + 2, "t_end": t_end})


# --- loop40 -----------------------------------------------------------------------


def loop_text(adders: int, rate: float, ramp0: float, gain: float) -> str:
    lines = ["cbd Main(out y) {",
             f"  block rate = Constant({_fmt(rate)});",
             f"  block ramp = Integrator({_fmt(ramp0)});",
             f"  block gain = Constant({_fmt(gain)});",
             "  block close = Multiplier();"]
    lines += [f"  block a{k} = Adder();" for k in range(adders)]
    lines += ["  rate.out -> ramp.in;",
              "  ramp.out -> a0.in1;",
              "  close.out -> a0.in2;"]
    for k in range(1, adders):
        lines += [f"  a{k - 1}.out -> a{k}.in1;", f"  ramp.out -> a{k}.in2;"]
    last = f"a{adders - 1}.out"
    lines += [f"  {last} -> close.in1;", "  gain.out -> close.in2;",
              f"  {last} -> y;", "}", ""]
    return "\n".join(lines)


def loop40(root: Path, seed: int, smoke: bool) -> Workload:
    """A chain of adders closed into one algebraic loop by a gain.

    Every adder also adds the ramp r, so the loop output is
    y = N r / (1 - g) at every step.
    """
    rng = random.Random(seed)
    adders = 5 if smoke else 40
    t_end = 0.02 if smoke else 0.3
    rate = round(rng.uniform(0.5, 2.0), 6)
    ramp0 = round(rng.uniform(-1.0, 1.0), 6)
    gain = round(rng.uniform(-0.9, 0.5), 6)
    text = loop_text(adders, rate, ramp0, gain)

    def operation(out: Path, clock) -> Result:
        result = Result()
        trace = _simulate(result, clock, load(text), "Main", mode="symbolic",
                          h=H, t_end=t_end)
        _write(result, trace, out, "loop")
        return result

    def check(result: Result) -> list[str]:
        ramp, expected = ramp0, []
        for _ in range(_steps(t_end)):
            expected.append(adders * ramp / (1.0 - gain))
            ramp += rate * H
        return _check_stream(result.traces[0], "y", expected)

    return Workload("loop40", text, "Main", operation, check,
                    {"blocks": adders + 4, "t_end": t_end})


# --- switch_dense -------------------------------------------------------------------


def switch_text(omega: float, x0: float, v0: float,
                thresholds: list[float]) -> str:
    count = len(thresholds)
    ports = ["x"] + [f"d{k}" for k in range(count)] + \
        [f"q{k}" for k in range(count)]
    lines = [f"cbd Main(out {', '.join(ports)}) {{",
             f"  block stiffness = Constant({_fmt(-omega * omega)});",
             "  block spring = Multiplier();",
             f"  block vel = Integrator({_fmt(v0)});",
             f"  block pos = Integrator({_fmt(x0)});",
             "  stiffness.out -> spring.in1;",
             "  pos.out -> spring.in2;",
             "  spring.out -> vel.in;",
             "  vel.out -> pos.in;",
             "  pos.out -> x;"]
    for k, theta in enumerate(thresholds):
        lines += [f"  block level{k} = Constant({_fmt(-theta)});",
                  f"  block gap{k} = Adder();",
                  f"  block sw{k} = Switch();",
                  f"  block edge{k} = Derivative();",
                  f"  block held{k} = Integrator(0);",
                  f"  pos.out -> gap{k}.in1;",
                  f"  level{k}.out -> gap{k}.in2;",
                  f"  gap{k}.out -> sw{k}.c;",
                  f"  sw{k}.out -> edge{k}.in;",
                  f"  edge{k}.out -> held{k}.in;",
                  f"  edge{k}.out -> d{k};",
                  f"  held{k}.out -> q{k};"]
    lines += ["}", ""]
    return "\n".join(lines)


def switch_dense(root: Path, seed: int, smoke: bool) -> Workload:
    """An oscillator watched by K Switches at staggered thresholds.

    The horizon is one period of the oscillator, so each threshold is
    crossed twice whatever the seeded amplitude, phase and thresholds, and
    every seed locates about the same number of events.
    """
    rng = random.Random(seed)
    count = 3 if smoke else 40
    omega = 2.0 * math.pi
    t_end = 1.0
    amplitude = rng.uniform(0.8, 1.25)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    x0 = round(amplitude * math.cos(phase), 6)
    v0 = round(-amplitude * omega * math.sin(phase), 6)
    # Thresholds inside +-0.8 A keep every crossing away from the turning
    # points, where the condition's slope vanishes.
    thresholds = [
        round(amplitude * (-0.8 + 1.6 * (k + rng.uniform(0.2, 0.8)) / count), 6)
        for k in range(count)
    ]
    text = switch_text(omega, x0, v0, thresholds)
    config = dict(h=H, t_end=t_end, zc_tol=1e-9, h_min=1e-12)

    def operation(out: Path, clock) -> Result:
        result = Result()
        trace = _simulate(result, clock, load(text), "Main", mode="numerical",
                          **config)
        _write(result, trace, out, "numerical")
        return result

    reference = []  # the symbolic run, made once: it depends on the text only

    def check(result: Result) -> list[str]:
        if not reference:
            reference.append(engine.simulate(
                load(text), "Main", engine.SimConfig(mode="symbolic", **config)))
        report = analysis.compare_traces(reference[0], result.traces[0], REL_TOL)
        if not report.ok:
            return [f"compare_traces not ok: {report.to_dict()}"]
        return []

    return Workload("switch_dense", text, "Main", operation, check,
                    {"switches": count, "blocks": 5 * count + 4,
                     "t_end": t_end})


WORKLOADS = {
    "ball_verify": ball_verify,
    "chain200": chain200,
    "loop40": loop40,
    "switch_dense": switch_dense,
}
