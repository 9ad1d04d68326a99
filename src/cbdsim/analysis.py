"""Quantitative analysis: difference tables, magnitude bounds, trace diffs.

The finite-difference table answers "what does a chain of backward
differences do to a unit step": column 0 is the step stream itself and
every further column divides the previous one's backward difference by the
step size.  Column n is the numerical image of the impulse derivative of
order n - 1; its nonzero support spans exactly n steps, which is what
limits how faithfully plain value streams can carry impulse derivatives.
The trace comparison, the oracle that the two modes agree, folds an
impulse log into copies of its streams with ``engine.fold_impulses``, the
spike cascade that a numerical run folds into its own trace.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from .engine import OVERFLOW_LIMIT, ImpulseEvent, Stream, Trace, fold_impulses


class TimeGridMismatch(ValueError):
    """Compared traces committed different time grids."""


@dataclass(frozen=True)
class DiffTable:
    """Backward-difference cascade of a unit step.

    Rows are step offsets m = -1 .. n relative to the step time, columns
    are derivative orders 0 .. n.  Row m = -1 is all zeros and column 0 is
    the unit step stream.
    """

    order: int
    h: float
    columns: tuple[tuple[float, ...], ...]

    def value(self, m: int, k: int) -> float:
        if not -1 <= m <= self.order:
            raise IndexError(f"offset {m} outside -1..{self.order}")
        return self.columns[k][m + 1]

    def column(self, k: int) -> tuple[float, ...]:
        return self.columns[k]

    @property
    def offsets(self) -> range:
        return range(-1, self.order + 1)


def finite_difference_table(n: int, h: float) -> DiffTable:
    """Cascade the backward-difference operator over a unit step.

    The values are computed by actually running the cascade rather than by
    evaluating the binomial closed form, mirroring what a chain of
    difference blocks does; the closed form
    ``(-1)**m * C(n-1, m) / h**n`` is what tests check the result against.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    if not 0.0 < h < math.inf:
        raise ValueError(f"step size must be positive and finite, got {h!r}")
    rows = n + 2  # offsets -1 .. n
    column = tuple(0.0 if m == 0 else 1.0 for m in range(rows))
    columns = [column]
    for _ in range(n):
        previous = columns[-1]
        column = tuple(
            (previous[i] - (previous[i - 1] if i > 0 else 0.0)) / h
            for i in range(rows)
        )
        columns.append(column)
    return DiffTable(order=n, h=h, columns=tuple(columns))


@dataclass(frozen=True)
class MagnitudeEstimate:
    value: float
    overflow_risk: bool


def max_magnitude(n: int, h: float, amplitude: float) -> MagnitudeEstimate:
    """Largest absolute value a difference cascade of depth n can produce.

    Scans the cascade table directly and scales by the largest
    discontinuity amplitude ``D``; flags (but does not reject) results that
    approach the double-precision ceiling.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    table = finite_difference_table(n, h)
    if not 0.0 <= amplitude < math.inf:
        raise ValueError(f"amplitude must be non-negative and finite, got "
                         f"{amplitude!r}")
    peak = max(abs(v) for v in table.column(n))
    # A zero amplitude bounds nothing, even where the peak overflows to inf.
    value = amplitude * peak if amplitude else 0.0
    return MagnitudeEstimate(value=value, overflow_risk=value > OVERFLOW_LIMIT)


def halforder_magnitude_estimate(n: int, h: float, amplitude: float) -> float:
    """Alternative closed-form estimate ``D / h**(n // 2)``.

    Kept alongside the exact table scan because the two disagree for
    n >= 2; both are reported by the command line so the difference stays
    visible.  A quotient beyond the float range saturates: ``inf`` for a
    positive amplitude when ``h**k`` underflows to 0, ``0.0`` when
    ``h**k`` overflows.
    """
    k = n // 2
    try:
        return amplitude / h ** k
    except OverflowError:  # h**k overflows, so the quotient underflows
        return 0.0
    except ZeroDivisionError:  # h**k underflows to 0, so it overflows
        return math.inf if amplitude else 0.0


# --- trace comparison ---------------------------------------------------------


@dataclass
class SignalDeviation:
    signal: str
    max_relative: float
    at_time: float | None


@dataclass
class ImpulseCheck:
    """A logged event against a second log (the two coefficients) or a plain
    trace: the folded spike due on its step, the plain minus the logged left
    limit, and the plain left limit's error from the logged plus the spike."""
    event: ImpulseEvent
    expected: float
    actual: float
    relative_error: float
    ok: bool


@dataclass
class CompareReport:
    ok: bool
    rel_tol: float
    deviations: list[SignalDeviation] = field(default_factory=list)
    impulse_checks: list[ImpulseCheck] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The fields as JSON-ready values, with each impulse check's event
        fields in place of its ``event``."""
        report = asdict(self)
        report["impulse_checks"] = [{**check.pop("event")._asdict(), **check}
                                    for check in report["impulse_checks"]]
        return report


def _relative(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    if scale == 0.0:
        return 0.0
    return abs(x - y) / scale


def compare_traces(a: Trace, b: Trace, rel_tol: float = 1e-12) -> CompareReport:
    """Align two traces on their committed times and compare every step of
    every stream.  Against a trace without a log, an impulse log is first
    folded into its trace's limits as a numerical run encodes it (see
    ``engine.fold_impulses``); two logs are matched event by event.
    ``rel_tol`` must be non-negative and finite."""
    if not 0.0 <= rel_tol < math.inf:
        raise ValueError(f"rel_tol must be non-negative and finite, got "
                         f"{rel_tol!r}")
    if set(a.signals) != set(b.signals):
        raise ValueError("traces watch different signals")
    # List ``!=`` runs in C but matches a shared nan object by identity; a
    # finite sum shows that the grid holds no nan.
    if a.times != b.times or (not math.isfinite(sum(a.times)) and any(
            x != y for x, y in zip(a.times, b.times))):
        raise TimeGridMismatch("committed time grids differ")
    a.check_shape()
    b.check_shape()

    report = CompareReport(ok=True, rel_tol=rel_tol)
    if a.impulses and b.impulses:
        _match_logs(a, b, rel_tol, report)
        signals_a, signals_b = a.signals, b.signals
    else:  # at most one log; an empty one folds to its trace's streams
        signals_a = _fold(a, b, rel_tol, report)
        signals_b = _fold(b, a, rel_tol, report)

    for name, sa in signals_a.items():
        sb = signals_b[name]
        worst = 0.0
        worst_time: float | None = None
        # Equal limits deviate by 0 (or nan at an infinity), which never
        # exceeds ``worst``; memoryviews compare whole columns in C.
        if (memoryview(sa.left) != memoryview(sb.left)
                or memoryview(sa.right) != memoryview(sb.right)):
            for t, la, lb, ra, rb in zip(a.times, sa.left, sb.left,
                                          sa.right, sb.right):
                if la == lb and ra == rb:
                    continue
                deviation = max(_relative(la, lb), _relative(ra, rb))
                if deviation > worst:
                    worst, worst_time = deviation, t
        report.deviations.append(SignalDeviation(name, worst, worst_time))
        if worst > rel_tol:
            report.ok = False
    return report


def _match_logs(a: Trace, b: Trace, rel_tol: float, report: CompareReport) -> None:
    keyed_b = {(e.time, e.signal, e.order): e for e in b.impulses}
    for event in a.impulses:
        other = keyed_b.pop((event.time, event.signal, event.order), None)
        if other is None:
            report.findings.append(
                f"impulse {event} has no counterpart in the second trace"
            )
            report.ok = False
            continue
        error = _relative(event.coefficient, other.coefficient)
        report.impulse_checks.append(ImpulseCheck(
            event, event.coefficient, other.coefficient, error,
            ok=error <= rel_tol,
        ))
        if error > rel_tol:
            report.ok = False
    for event in keyed_b.values():
        report.findings.append(
            f"impulse {event} has no counterpart in the first trace"
        )
        report.ok = False


def _fold(logged: Trace, plain: Trace, rel_tol: float,
          report: CompareReport) -> dict[str, Stream]:
    """``logged``'s streams as a numerical run writes them: copies of the
    streams with events folded by ``engine.fold_impulses``, with an
    ImpulseCheck of each event's step against ``plain``."""
    named = {e.signal for e in logged.impulses}
    folded = {name: Stream(s.left, s.right)
              for name, s in logged.signals.items() if name in named}
    spikes = fold_impulses(logged.times, folded, logged.impulses)
    for e, (step, due) in zip(logged.impulses, spikes):
        base, other = logged.signals[e.signal], plain.signals[e.signal]
        # On the limit the fold summed; ``actual`` may round.
        error = _relative(folded[e.signal].left[step], other.left[step])
        report.impulse_checks.append(ImpulseCheck(
            e, due, other.left[step] - base.left[step], error,
            ok=error <= rel_tol))
        report.ok = report.ok and error <= rel_tol
    return {**logged.signals, **folded}


# --- closed-form bouncing ball -------------------------------------------------


def analytic_bouncing_ball(y0: float, v0: float, g: float, t: float,
                           restitution: float = 1.0,
                           ) -> tuple[float, float, tuple[float, ...]]:
    """Closed-form ballistic flight with velocity reflection at contacts.

    Each flight segment is the parabola ``y = y0 + v0 tau - g tau^2 / 2``;
    contact times are its positive quadratic roots and every contact
    reflects the velocity scaled by the restitution factor.  Returns the
    position and velocity at ``t`` plus all bounce times up to ``t``.
    """
    if not (y0 > 0.0 and g > 0.0):
        raise ValueError("need y0 > 0 and g > 0")
    if not t >= 0.0:
        raise ValueError("time must be non-negative")
    bounces: list[float] = []
    t0, y, v = 0.0, y0, v0
    while True:
        tau_c = (v + math.sqrt(v * v + 2.0 * g * y)) / g
        if t0 + tau_c > t:
            tau = t - t0
            return y + v * tau - 0.5 * g * tau * tau, v - g * tau, tuple(bounces)
        t0 += tau_c
        bounces.append(t0)
        v = -restitution * (v - g * tau_c)
        y = 0.0
        if v <= 0.0:
            # Fully damped: the ball stays on the floor from here on.
            return 0.0, 0.0, tuple(bounces)
