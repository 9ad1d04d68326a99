"""Command line front end: run, table, compare, plotdata.

``run`` simulates a ``.cbd`` model and writes the trace (and optionally the
impulse log); the resolved configuration is echoed to standard output as a
single JSON manifest.  ``table`` prints the backward-difference cascade of
a unit step together with both magnitude estimates.  ``compare`` aligns two
trace files and reports deviations.  ``plotdata`` turns a trace into
polyline segments split at discontinuities plus an arrow list for the
impulses.  A trace file or impulse log is CSV or JSON by its name
(``file_format``) and is read by one row reader, ``_rows``, which refuses a
file of the wrong form; a malformed row is named by its line (CSV) or row
(JSON), and a log is checked against the time grid and signals of the
trace it is read with.

Exit codes: 0 success, 1 model errors, 2 runtime/simulation errors,
3 time-grid mismatch in ``compare``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path

from . import analysis, dsl
from .engine import (
    EngineError,
    ImpulseEvent,
    SimConfig,
    Stream,
    Trace,
    impulse_steps,
    simulate,
)
from .graph import ModelError

TRACE_HEADER = "time,signal,left,right"
IMPULSE_HEADER = "time,signal,order,coefficient"


def _fmt(x: float) -> str:
    """17 significant digits, enough for exact text round trips."""
    return format(float(x), ".17g")


# --- trace serialization --------------------------------------------------


def file_format(path: Path) -> str:
    """``"json"`` for a ``.json`` file name, ``"csv"`` for any other."""
    return "json" if path.suffix == ".json" else "csv"


def _write_json(path: Path, key: str, header: str, rows) -> None:
    """``rows`` as ``_rows`` reads them: ``key`` holds an object a row."""
    names = header.split(",")
    payload = {key: [dict(zip(names, row)) for row in rows]}
    path.write_text(json.dumps(payload, indent=1) + "\n")


def write_trace(trace: Trace, path: Path, fmt: str) -> None:
    trace.check_shape(f"{path}: ")
    if fmt == "csv":
        # One template holds a time step's rows and is filled from the
        # columns and the step's time text; "%.17g" % x gives _fmt(x).  A
        # right column with its left column's bits (so -0.0 is not 0.0)
        # fills both fields from the left's texts, formatted once.
        columns = [(name, s.left, s.right) for name, s in trace.signals.items()]
        stamps = ["%.17g," % t for t in trace.times]
        template, fields = "", []
        for name, left, right in columns:
            template += "%s" + name.replace("%", "%%")
            if right.tobytes() == left.tobytes():
                left = right = list(map("%.17g".__mod__, left))
                template += ",%s,%s\n"
            else:
                template += ",%.17g,%.17g\n"
            fields += (stamps, left, right)
        with path.open("w") as out:
            out.write(TRACE_HEADER + "\n")
            out.writelines(map(template.__mod__, zip(*fields)))
    else:
        _write_json(path, "trace", TRACE_HEADER, (
            (t, name, s.left[k], s.right[k]) for k, t in enumerate(trace.times)
            for name, s in trace.signals.items()))


def write_impulses(trace: Trace, path: Path, fmt: str) -> None:
    if fmt == "csv":
        with path.open("w") as out:
            out.write(IMPULSE_HEADER + "\n")
            out.writelines(map("%.17g,%s,%d,%.17g\n".__mod__, trace.impulses))
    else:
        _write_json(path, "impulses", IMPULSE_HEADER, trace.impulses)


def _rows(path: Path, header: str, key: str, what: str):
    """The rows of the CSV or JSON (``file_format``) file ``path``, each a
    sequence of the fields ``header`` names, in its order, and whether the
    file is CSV.  A CSV file holds ``header`` on its first line, a JSON
    file an object whose ``key`` holds a list of rows; a JSON row reads its
    fields by name, so a missing one is a ``KeyError`` when it is read.  A
    file that is not UTF-8, not JSON or not of this form is a
    ``ValueError`` naming it, with ``what`` for the form."""
    csv = file_format(path) == "csv"
    try:
        text = path.read_text(encoding="utf-8")
        payload = text.splitlines() if csv else json.loads(text)
    except ValueError as err:  # UnicodeDecodeError, JSONDecodeError
        raise ValueError(f"{path}: {err}") from err
    if csv:
        if payload[:1] != [header]:
            raise ValueError(f"{path}: {what}")
        return map(str.split, islice(payload, 1, None), repeat(",")), csv
    rows = payload.get(key) if isinstance(payload, dict) else None
    if not isinstance(rows, list):
        raise ValueError(f"{path}: {what}")
    return map(itemgetter(*header.split(",")), rows), csv


def _malformed(path: Path, what: str, csv: bool, row: int,
               err: Exception) -> ValueError:
    """The error for row ``row`` (from 1) of ``path``, which ``err`` stops:
    a CSV file names its line, a JSON file the row.  A KeyError or
    TypeError is a JSON row without a field or with one of the wrong type,
    such as null."""
    where = f"line {row + 1}" if csv else f"row {row}"
    cause = f"missing key {err}" if isinstance(err, KeyError) else err
    return ValueError(f"{path}: malformed {what}: {where}: {cause}")


def read_trace(path: Path, impulse_path: Path | None = None) -> Trace:
    """Load a trace file (CSV or JSON, ``file_format``) into a Trace, and
    the impulse log into ``Trace.impulses``, its only impulse record.  An
    unreadable file or a malformed row, such as one whose time goes
    backwards, is a ``ValueError`` naming the file and any row (JSON) or
    line (CSV); so is a logged event that ``engine.impulse_steps``
    refuses on this trace, naming the log."""
    rows, csv = _rows(path, TRACE_HEADER, "trace", "not a trace file")
    trace = Trace()
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
                    unread = appenders.copy()  # the signals not read at t yet
                elif t != times[-1]:
                    raise ValueError(f"time {t!r} does not follow "
                                     f"{times[-1]!r}")
            pair = unread.pop(name, None)
            if pair is None:
                # A signal read at its time already would be dated to the
                # next; one missing at a time leaves its stream short.
                if name in appenders:
                    raise ValueError(f"signal {name!r} repeated at time {t!r}")
                stream = trace.signals[name] = Stream()
                pair = appenders[name] = (stream.left.append,
                                          stream.right.append)
            # A repeated CSV text is the same float; in JSON 0.0 == -0.0.
            pair[0](x := float(left))
            pair[1](x if csv and right == left else float(right))
    except (KeyError, TypeError, ValueError) as err:
        # Every row read in full appended one right limit.
        row = sum(len(stream.right) for stream in trace.signals.values())
        raise _malformed(path, "trace", csv, row + 1, err) from err
    trace.check_shape(f"{path}: ")
    if impulse_path is not None:
        trace.impulses.extend(read_impulses(impulse_path))
        # A TypeError is a JSON signal that is no dict key, such as a
        # list, or that does not sort with another at its step.
        try:
            impulse_steps(times, trace.signals, trace.impulses)
        except (TypeError, ValueError) as err:
            raise ValueError(f"{impulse_path}: {err}") from err
    return trace


def read_impulses(path: Path) -> list[ImpulseEvent]:
    """Load an impulse log (CSV or JSON, ``file_format``).  An unreadable file,
    a malformed row or an order that is not a non-negative integer is a
    ``ValueError`` naming the file and any row (JSON) or line (CSV).  A
    CSV order is parsed by ``int``; a JSON order keeps its JSON type."""
    rows, csv = _rows(path, IMPULSE_HEADER, "impulses",
                      "not an impulse log")
    events = []
    try:
        for time_field, name, order, coefficient in rows:
            events.append(ImpulseEvent(float(time_field), name,
                                       int(order) if csv else order,
                                       float(coefficient)))
    except (KeyError, TypeError, ValueError) as err:
        raise _malformed(path, "impulse log", csv, len(events) + 1,
                         err) from err
    for e in events:  # a bool is an int to isinstance, but no order
        if type(e.order) is not int or e.order < 0:
            raise ValueError(f"{path}: impulse order {e.order!r} is not a "
                             f"non-negative integer")
    return events


# --- subcommands ------------------------------------------------------------


def _error(message: object, code: int) -> int:
    """Print ``message`` as an error on standard error; returns ``code``."""
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_run(args: argparse.Namespace) -> int:
    try:
        text = args.model.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        return _error(f"{args.model}: {err}", 1)
    try:
        model = dsl.load_model(text)
    except dsl.ModelTextError as err:
        for diagnostic in err.diagnostics:
            print(f"{args.model}:{diagnostic}", file=sys.stderr)
        return 1

    watch = tuple(s for s in (args.watch or "").split(",") if s)
    try:
        config = SimConfig(
            mode=args.mode, h=args.step, t_end=args.end,
            zc_tol=args.zc_tol, h_min=args.min_step, watch=watch,
        )
    except ValueError as err:
        return _error(err, 1)

    try:
        trace = simulate(model, args.top, config)
    except ModelError as err:
        return _error(err, 1)
    except EngineError as err:
        return _error(err, 2)

    # A failed write removes the files this run created: no partial result.
    created: list[Path] = []
    try:
        for path, write in ((args.out, write_trace),
                            (args.impulses, write_impulses)):
            if path is not None:
                if not path.exists():
                    created.append(path)
                write(trace, path, file_format(path))
    except OSError as err:
        for path in created:
            path.unlink(missing_ok=True)
        return _error(err, 2)

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
            "trace": str(args.out),
            "impulses": str(args.impulses) if args.impulses else None,
        },
    }
    print(json.dumps(manifest))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    try:
        table = analysis.finite_difference_table(args.order, args.step)
        if args.order >= 1:
            estimate = analysis.max_magnitude(args.order, args.step,
                                              args.amplitude)
    except ValueError as err:
        return _error(err, 1)
    header = ["offset"] + [f"order{k}" for k in range(args.order + 1)]
    print(",".join(header))
    for m in table.offsets:
        row = [str(m)] + [_fmt(table.value(m, k)) for k in range(args.order + 1)]
        print(",".join(row))
    if args.order >= 1:
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
        trace_a = read_trace(args.a, args.impulses_a)
        trace_b = read_trace(args.b, args.impulses_b)
    except (OSError, ValueError) as err:
        return _error(err, 2)
    try:
        report = analysis.compare_traces(trace_a, trace_b, args.rel_tol)
    except analysis.TimeGridMismatch as err:
        print(json.dumps({"ok": False, "error": str(err)}))
        return 3
    except ValueError as err:
        return _error(err, 2)
    print(json.dumps(report.to_dict()))
    return 0 if report.ok else 1


def cmd_plotdata(args: argparse.Namespace) -> int:
    try:
        trace = read_trace(args.trace, args.impulses)
    except (OSError, ValueError) as err:
        return _error(err, 2)
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
        args.out.write_text(text)
    except OSError as err:
        return _error(err, 2)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbdsim",
        description="Block diagram simulator with first-class discontinuities "
                    "and impulses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a .cbd model")
    run.add_argument("model", type=Path)
    run.add_argument("--top", required=True)
    run.add_argument("--mode", choices=["symbolic", "numerical"],
                     default="symbolic")
    run.add_argument("--step", type=float, required=True)
    run.add_argument("--end", type=float, required=True)
    run.add_argument("--zc-tol", type=float, default=1e-9)
    run.add_argument("--min-step", type=float, default=1e-12)
    run.add_argument("--watch", default="")
    run.add_argument("--out", type=Path, required=True)
    run.add_argument("--impulses", type=Path)
    run.set_defaults(handler=cmd_run)

    table = sub.add_parser("table", help="print the difference cascade of a unit step")
    table.add_argument("--order", type=int, required=True)
    table.add_argument("--step", type=float, required=True)
    table.add_argument("--amplitude", type=float, default=1.0)
    table.set_defaults(handler=cmd_table)

    compare = sub.add_parser("compare", help="compare two trace files")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    compare.add_argument("--rel-tol", type=float, default=1e-12)
    compare.add_argument("--impulses-a", type=Path)
    compare.add_argument("--impulses-b", type=Path)
    compare.set_defaults(handler=cmd_compare)

    plotdata = sub.add_parser("plotdata", help="emit plot segments and arrows")
    plotdata.add_argument("--trace", type=Path, required=True)
    plotdata.add_argument("--impulses", type=Path)
    plotdata.add_argument("--out", type=Path, required=True)
    plotdata.set_defaults(handler=cmd_plotdata)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)
