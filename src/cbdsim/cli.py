"""Command line front end: run, table, compare, plotdata.

``run`` simulates a ``.cbd`` model and writes the trace (and optionally the
impulse log) as CSV or JSON; the resolved configuration is echoed to
standard output as a single JSON manifest.  ``table`` prints the
backward-difference cascade of a unit step together with both magnitude
estimates.  ``compare`` aligns two trace files and reports deviations.
``plotdata`` turns a trace into polyline segments split at discontinuities
plus an arrow list for the impulses.

Exit codes: 0 success, 1 model errors, 2 runtime/simulation errors,
3 time-grid mismatch in ``compare``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from itertools import islice, repeat
from pathlib import Path

from . import analysis, dsl
from .engine import (
    EngineError,
    ImpulseEvent,
    SimConfig,
    Stream,
    Trace,
    simulate,
)
from .graph import ModelError

TRACE_HEADER = "time,signal,left,right"
IMPULSE_HEADER = "time,signal,order,coefficient"


def _fmt(x: float) -> str:
    """17 significant digits, enough for exact text round trips."""
    return format(float(x), ".17g")


# --- trace serialization --------------------------------------------------


def write_trace(trace: Trace, path: Path, fmt: str) -> None:
    columns = [(name, s.left, s.right) for name, s in trace.signals.items()]
    if any(not len(left) == len(right) == len(trace.times)
           for _, left, right in columns):
        raise ValueError(f"{path}: ragged trace")
    if fmt == "csv":
        # One template holds a time step's rows and is filled from the
        # columns and the step's time text; "%.17g" % x gives _fmt(x).
        template = "".join("%s" + name.replace("%", "%%") + ",%.17g,%.17g\n"
                           for name, _, _ in columns)
        stamps = ["%.17g," % t for t in trace.times]
        fields = [c for _, left, right in columns for c in (stamps, left, right)]
        with path.open("w") as out:
            out.write(TRACE_HEADER + "\n")
            out.writelines(map(template.__mod__, zip(*fields)))
    else:
        fields = [c for _, left, right in columns for c in (left, right)]
        payload = {"trace": [
            {"time": t, "signal": name, "left": left, "right": right}
            for t, *row in zip(trace.times, *fields)
            for (name, _, _), left, right in zip(columns, row[::2], row[1::2])
        ]}
        path.write_text(json.dumps(payload, indent=1) + "\n")


def write_impulses(trace: Trace, path: Path, fmt: str) -> None:
    if fmt == "csv":
        with path.open("w") as out:
            out.write(IMPULSE_HEADER + "\n")
            out.writelines(map("%.17g,%s,%d,%.17g\n".__mod__, trace.impulses))
    else:
        payload = {"impulses": [e._asdict() for e in trace.impulses]}
        path.write_text(json.dumps(payload, indent=1) + "\n")


def _load(path: Path, is_json: bool):
    """The text of ``path``, or its JSON value when ``is_json``; a file
    that is not UTF-8, or not JSON, is a ``ValueError`` naming it."""
    try:
        text = path.read_text(encoding="utf-8")
        return json.loads(text) if is_json else text
    except ValueError as err:  # UnicodeDecodeError, JSONDecodeError
        raise ValueError(f"{path}: {err}") from err


def read_trace(path: Path, impulse_path: Path | None = None) -> Trace:
    """Load a trace file (CSV or JSON by extension) back into a Trace, and
    the impulse log into ``Trace.impulses``, its only impulse record.  An
    unreadable file or a malformed row, such as one whose time goes
    backwards, is a ``ValueError`` naming the file and any row (JSON) or
    line (CSV)."""
    is_json = path.suffix == ".json"
    if is_json:
        payload = _load(path, True)
        if not isinstance(payload, dict) or "trace" not in payload:
            raise ValueError(f"{path}: not a trace file")
        rows = ((row["time"], row["signal"], row["left"], row["right"])
                for row in payload["trace"])
    else:
        lines = _load(path, False).splitlines()
        if not lines or lines[0] != TRACE_HEADER:
            raise ValueError(f"{path}: not a trace file")
        rows = map(str.split, islice(lines, 1, None), repeat(","))
    trace = Trace(mode="file")
    times = trace.times
    appenders: dict[str, tuple] = {}
    last = object()  # equal to no time field
    try:
        for time_field, name, left, right in rows:
            # The rows of one step repeat its time field; parse it once.
            if time_field != last:
                last = time_field
                t = float(time_field)
                if not times or t > times[-1]:
                    times.append(t)
                elif t != times[-1]:
                    raise ValueError(f"time {t!r} does not follow "
                                     f"{times[-1]!r}")
            pair = appenders.get(name)
            if pair is None:
                stream = trace.signals[name] = Stream()
                pair = appenders[name] = (stream.left.append,
                                          stream.right.append)
            pair[0](float(left))
            pair[1](float(right))
    # A KeyError or TypeError is a JSON row without a field or with one of
    # the wrong type, such as null.
    except (KeyError, TypeError, ValueError) as err:
        # Every row read in full appended one right limit.
        row = sum(len(stream.right) for stream in trace.signals.values())
        where = f"row {row + 1}" if is_json else f"line {row + 2}"
        cause = f"missing key {err}" if isinstance(err, KeyError) else err
        raise ValueError(f"{path}: malformed trace: {where}: {cause}") from err
    if any(len(stream) != len(times) for stream in trace.signals.values()):
        raise ValueError(f"{path}: ragged trace")
    if impulse_path is not None:
        trace.impulses.extend(read_impulses(impulse_path))
    return trace


def read_impulses(path: Path) -> list[ImpulseEvent]:
    """Load an impulse log (CSV or JSON by extension).  An unreadable file
    or a malformed row is a ``ValueError`` naming the file and any row
    (JSON) or line (CSV)."""
    events = []
    if path.suffix == ".json":
        payload = _load(path, True)
        if not isinstance(payload, dict) or "impulses" not in payload:
            raise ValueError(f"{path}: not an impulse log")
        try:
            for row in payload["impulses"]:
                events.append(ImpulseEvent(float(row["time"]), row["signal"],
                                           row["order"],
                                           float(row["coefficient"])))
        # As in read_trace, a KeyError or TypeError is a row without a
        # field or with one of the wrong type, such as null.
        except (KeyError, TypeError, ValueError) as err:
            cause = f"missing key {err}" if isinstance(err, KeyError) else err
            raise ValueError(f"{path}: malformed impulse log: row "
                             f"{len(events) + 1}: {cause}") from err
    else:
        lines = _load(path, False).splitlines()
        if not lines or lines[0] != IMPULSE_HEADER:
            raise ValueError(f"{path}: not an impulse log")
        for number, line in enumerate(lines[1:], 2):
            try:
                time_s, name, order_s, coeff_s = line.split(",")
                events.append(ImpulseEvent(float(time_s), name,
                                           int(order_s), float(coeff_s)))
            except ValueError as err:
                raise ValueError(f"{path}: malformed impulse log: line "
                                 f"{number}: {err}") from err
    for e in events:  # a bool is an int to isinstance, but no order
        if type(e.order) is not int or e.order < 0:
            raise ValueError(f"{path}: impulse order {e.order!r} is not a "
                             f"non-negative integer")
    return events


# --- subcommands ------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    source_path = Path(args.model)
    try:
        text = source_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: {source_path}: {err}", file=sys.stderr)
        return 1
    try:
        model = dsl.load_model(text)
    except dsl.ModelTextError as err:
        for diagnostic in err.diagnostics:
            print(f"{source_path}:{diagnostic}", file=sys.stderr)
        return 1

    watch = tuple(s for s in (args.watch or "").split(",") if s)
    try:
        config = SimConfig(
            mode=args.mode, h=args.step, t_end=args.end,
            zc_tol=args.zc_tol, h_min=args.min_step, watch=watch,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        trace = simulate(model, args.top, config)
    except ModelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except EngineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    out_path = Path(args.out)
    impulse_path = Path(args.impulses) if args.impulses else None
    try:
        write_trace(trace, out_path, args.format)
        if impulse_path is not None:
            write_impulses(trace, impulse_path, args.format)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    manifest = {
        "top": args.top,
        "mode": config.mode,
        "h": config.h,
        "t_end": config.t_end,
        "zc_tol": config.zc_tol,
        "h_min": config.h_min,
        "watched": list(trace.signals),
        "source_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "steps": len(trace.times),
        "impulse_events": len(trace.impulses),
        "warnings": trace.warnings,
        "outputs": {
            "trace": str(out_path),
            "impulses": str(impulse_path) if impulse_path else None,
        },
    }
    print(json.dumps(manifest))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    try:
        table = analysis.finite_difference_table(args.order, args.step)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    header = ["offset"] + [f"order{k}" for k in range(args.order + 1)]
    print(",".join(header))
    for m in table.offsets:
        row = [str(m)] + [_fmt(table.value(m, k)) for k in range(args.order + 1)]
        print(",".join(row))
    if args.order >= 1:
        estimate = analysis.max_magnitude(args.order, args.step, args.amplitude)
        alternative = analysis.halforder_magnitude_estimate(
            args.order, args.step, args.amplitude
        )
        print(f"max_magnitude,{_fmt(estimate.value)}")
        print(f"halforder_estimate,{_fmt(alternative)}")
        if estimate.overflow_risk:
            print("warning: overflow-risk", file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        trace_a = read_trace(Path(args.a), Path(args.impulses_a)
                             if args.impulses_a else None)
        trace_b = read_trace(Path(args.b), Path(args.impulses_b)
                             if args.impulses_b else None)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        report = analysis.compare_traces(trace_a, trace_b, args.rel_tol)
    except analysis.TimeGridMismatch as err:
        print(json.dumps({"ok": False, "error": str(err)}))
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(report.to_dict()))
    return 0 if report.ok else 1


def cmd_plotdata(args: argparse.Namespace) -> int:
    try:
        trace = read_trace(Path(args.trace),
                           Path(args.impulses) if args.impulses else None)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    payload: dict[str, dict] = {}
    for name, stream in trace.signals.items():
        segments: list[list[list[float]]] = []
        current: list[list[float]] = []
        for t, left, right in zip(trace.times, stream.left, stream.right):
            if left != right:
                current.append([t, left])
                segments.append(current)
                current = [[t, right]]
            else:
                current.append([t, left])
        if current:
            segments.append(current)
        arrows = [
            {"time": e.time, "order": e.order, "coefficient": e.coefficient}
            for e in trace.impulses if e.signal == name
        ]
        payload[name] = {"segments": segments, "arrows": arrows}
    text = json.dumps({"signals": payload}, indent=1) + "\n"
    try:
        Path(args.out).write_text(text)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbdsim",
        description="Block diagram simulator with first-class discontinuities "
                    "and impulses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a .cbd model")
    run.add_argument("model")
    run.add_argument("--top", required=True)
    run.add_argument("--mode", choices=["symbolic", "numerical"],
                     default="symbolic")
    run.add_argument("--step", type=float, required=True)
    run.add_argument("--end", type=float, required=True)
    run.add_argument("--zc-tol", type=float, default=1e-9)
    run.add_argument("--min-step", type=float, default=1e-12)
    run.add_argument("--watch", default="")
    run.add_argument("--format", choices=["csv", "json"], default="csv")
    run.add_argument("--out", required=True)
    run.add_argument("--impulses")
    run.set_defaults(handler=cmd_run)

    table = sub.add_parser("table", help="print the difference cascade of a unit step")
    table.add_argument("--order", type=int, required=True)
    table.add_argument("--step", type=float, required=True)
    table.add_argument("--amplitude", type=float, default=1.0)
    table.set_defaults(handler=cmd_table)

    compare = sub.add_parser("compare", help="compare two trace files")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.add_argument("--rel-tol", type=float, default=1e-12)
    compare.add_argument("--impulses-a")
    compare.add_argument("--impulses-b")
    compare.set_defaults(handler=cmd_compare)

    plotdata = sub.add_parser("plotdata", help="emit plot segments and arrows")
    plotdata.add_argument("--trace", required=True)
    plotdata.add_argument("--impulses")
    plotdata.add_argument("--out", required=True)
    plotdata.set_defaults(handler=cmd_plotdata)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
