"""The columnar trace: ``Stream`` columns, trace files and the recorder.

A ``Trace`` keeps, per watched signal, one ``Stream``: the left and right
limits as float columns.  A step's impulses are read from the trace's
event log, ``Trace.impulses``, the only impulse record.  These tests read
a stream's columns, its length, its iteration as one ``Limits`` per step
and its equality, round-trip random traces through the CSV and JSON files
bit for bit (a zero next to the zero of the other sign included), keep
the reader's malformed-file errors, reject ragged in-memory traces
without writing a file, pin the overflow warnings and the ``-0.0`` scrub
of the numerical fold, hold the recorder's packed rows to the columns of
the reference stepper, ``tests/reference.py``, and check that a run cuts
them every ``ROW_BUFFER`` limits.
"""

import json
import math
import re
import tempfile
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference
from cbdsim import cli, dsl, engine
from cbdsim.analysis import compare_traces
from cbdsim.blocks import Committed
from cbdsim.engine import (
    EngineError, Limits, SimConfig, Stream, Trace, _Recorder,
    _encode_numerically, simulate,
)
from cbdsim.graph import flatten
from cbdsim.signals import EMPTY_IMPULSES, impulses

from strategies import diagrams


@pytest.fixture(scope="module")
def ball_trace(ball_model):
    return simulate(ball_model, "Main",
                    SimConfig(mode="symbolic", h=1e-3, t_end=2.0,
                              zc_tol=1e-9, h_min=1e-12))


class TestStreamView:
    def test_simulate_records_streams(self, ball_trace):
        for stream in ball_trace.signals.values():
            assert isinstance(stream, Stream)
            assert len(stream) == len(ball_trace.times)

    def test_iteration_yields_limits_only(self, ball_trace):
        force = ball_trace.signals["force"]
        samples = list(force)
        assert len(samples) == len(force)
        for k, s in enumerate(samples):
            assert type(s) is Limits
            assert (s.left, s.right) == (force.left[k], force.right[k])
        # A reader of per-step impulses fails loudly: they are in the log.
        assert not hasattr(samples[0], "impulses")

    def test_equality(self, ball_trace):
        y = ball_trace.signals["y"]
        copy = Stream(y.left, y.right)
        assert copy == y
        assert copy is not y
        copy.right[3] += 1.0
        assert copy != y
        copy = Stream(y.left, y.right)
        copy.left[3] += 1.0
        assert copy != y
        assert y != list(y)


# --- trace files ------------------------------------------------------------

SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310,
           2.2250738585072014e-308, 1e308]
LIMITS = st.one_of(st.sampled_from(SPECIAL), st.floats())
NAMES = ["y", "v", "force", "det/contact", "b/c", "p%d"]


@st.composite
def traces(draw):
    times = sorted(set(draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=6))))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4,
                          unique=True))
    column = st.lists(LIMITS, min_size=len(times), max_size=len(times))
    trace = Trace(times=times)
    for name in names:
        # A right column of its own, the left column itself, or the left
        # with a few entries replaced, some by the zero of the other sign:
        # the writer shares a column's texts only where the bits repeat.
        left = draw(column)
        shape = draw(st.sampled_from(["own", "left", "patched"]))
        right = draw(column) if shape == "own" else list(left)
        if shape == "patched":
            for i in draw(st.lists(st.integers(0, len(left) - 1),
                                   min_size=1, max_size=3)):
                flipped = math.copysign(0.0, -math.copysign(1.0, left[i]))
                right[i] = draw(st.one_of(st.just(flipped), LIMITS))
        trace.signals[name] = Stream(left, right)
    return trace


def _hexed(trace):
    return ([t.hex() for t in trace.times],
            {name: ([x.hex() for x in s.left], [x.hex() for x in s.right])
             for name, s in trace.signals.items()})


@settings(max_examples=150, deadline=None)
@given(trace=traces(), fmt=st.sampled_from(["csv", "json"]))
def test_write_read_round_trip(trace, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, f"a.{fmt}"), Path(tmp, f"b.{fmt}")
        cli.write_trace(trace, first, fmt)
        back = cli.read_trace(first)
        assert list(back.signals) == list(trace.signals)
        assert _hexed(back) == _hexed(trace)
        cli.write_trace(back, second, fmt)
        assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_zero_next_to_the_other_zero_reads_back(tmp_path, fmt, zero):
    """A right limit that is the zero of the other sign reads back as
    written, in a column of its own and in one whose limits repeat.  Limits
    are compared by ``float.hex``, because ``Stream`` equality (like JSON's
    floats) takes 0.0 for -0.0."""
    trace = Trace(times=[0.0, 1.0])
    trace.signals["s"] = Stream([zero, zero], [-zero, zero])
    trace.signals["t"] = Stream([zero, -zero], [zero, -zero])
    path = tmp_path / f"zeros.{fmt}"
    cli.write_trace(trace, path, fmt)
    assert _hexed(cli.read_trace(path)) == _hexed(trace)


@settings(max_examples=100, deadline=None)
@given(st.one_of(diagrams(), diagrams(last="Product")),
       st.sampled_from((0.1, 0.25)))
def test_random_diagram_files_round_trip(diagram, h):
    """Each mode's CSV trace and impulse log read back to the simulated
    trace, and a second run writes the same bytes.  The initial instant
    t = 0 is a state: every right limit equals its left limit and no
    impulse is logged there."""
    text, watch = diagram
    model = dsl.load_model(text)
    for mode in ("symbolic", "numerical"):
        config = SimConfig(mode=mode, h=h, t_end=2.0, zc_tol=1e-4,
                           h_min=1e-4, watch=watch)
        written = []
        with tempfile.TemporaryDirectory() as tmp:
            for run in ("a", "b"):
                try:
                    trace = simulate(model, "Main", config)
                except EngineError:
                    break  # only a completed run writes files
                assert all(s.left[0].hex() == s.right[0].hex()
                           for s in trace.signals.values())
                assert all(e.time != 0.0 for e in trace.impulses)
                out = Path(tmp, f"{run}.csv")
                log = Path(tmp, f"{run}_impulses.csv")
                cli.write_trace(trace, out, "csv")
                cli.write_impulses(trace, log, "csv")
                back = cli.read_trace(out, log)
                assert back.times == trace.times
                assert list(back.signals) == list(trace.signals)
                assert back.signals == trace.signals
                assert back.impulses == trace.impulses
                written.append((out.read_bytes(), log.read_bytes()))
        assert len(set(written)) <= 1


class TestReadErrors:
    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,y,1,1\n")
        with pytest.raises(ValueError, match="not a trace file"):
            cli.read_trace(path)

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="not a trace file"):
            cli.read_trace(path)

    def test_ragged_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,signal,left,right\n"
                        "0,y,1,1\n0,v,2,2\n0.5,y,3,3\n")
        with pytest.raises(ValueError, match="ragged trace"):
            cli.read_trace(path)

    def test_ragged_json(self, tmp_path):
        path = tmp_path / "t.json"
        rows = [{"time": 0.0, "signal": "y", "left": 1.0, "right": 1.0},
                {"time": 0.5, "signal": "y", "left": 2.0, "right": 2.0},
                {"time": 0.5, "signal": "v", "left": 3.0, "right": 3.0}]
        path.write_text(json.dumps({"trace": rows}))
        with pytest.raises(ValueError, match="ragged trace"):
            cli.read_trace(path)

    def test_row_with_missing_field(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,signal,left,right\n0,y,1\n")
        with pytest.raises(ValueError):
            cli.read_trace(path)


def _ragged():
    trace = Trace(times=[0.0, 0.5])
    trace.signals["y"] = Stream([1.0, 2.0], [1.0, 2.0])
    trace.signals["v"] = Stream([3.0], [3.0])
    return trace


class TestRaggedInMemory:
    def test_csv_write_rejects_a_short_stream(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="ragged trace"):
            cli.write_trace(_ragged(), path, "csv")
        assert not path.exists()

    def test_json_write_rejects_a_short_stream(self, tmp_path):
        path = tmp_path / "t.json"
        with pytest.raises(ValueError, match="ragged trace"):
            cli.write_trace(_ragged(), path, "json")
        assert not path.exists()

    def test_compare_rejects_a_short_stream(self):
        with pytest.raises(ValueError):
            compare_traces(_ragged(), _ragged())


def _short_right():
    """A trace whose one stream has two left limits and one right limit."""
    return Trace(times=[0.0, 0.5],
                 signals={"y": Stream([1.0, 2.0], [1.0])})


class TestShortRightColumn:
    """The shape check reads the right column as well as the left."""

    def test_compare_rejects_it(self):
        whole = Trace(times=[0.0, 0.5],
                      signals={"y": Stream([1.0, 2.0], [1.0, 99.0])})
        for a, b in (_short_right(), whole), (whole, _short_right()):
            with pytest.raises(ValueError, match="^ragged trace$"):
                compare_traces(a, b)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_rejects_it(self, tmp_path, fmt):
        path = tmp_path / f"t.{fmt}"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                             f"ragged trace$"):
            cli.write_trace(_short_right(), path, fmt)
        assert not path.exists()


# --- overflow screen of the numerical fold -----------------------------------

def _columns(*cells):
    """Step columns from one ``[left, right, vector]`` cell per signal."""
    return list(map(list, zip(*cells)))


def _folded(names, *steps):
    """The trace a numerical run makes of ``(t, columns)`` steps: recorded
    symbolically, then encoded by ``_encode_numerically``, whose overflow
    warnings are the trace's."""
    recorder = _Recorder({name: k for k, name in enumerate(names)})
    for t, columns in steps:
        recorder.record(Committed(t, *columns))
    trace = recorder.flush()
    trace.warnings = [w for *_, w in _encode_numerically(trace)]
    return trace


def _warning(name, t):
    return f"overflow-risk: |{name}| exceeds 1e+300 at t={t!r}"


class TestOverflowScreen:
    def test_nan_limit_warns_nothing(self):
        trace = _folded("ab", (0.0, _columns([math.nan, math.nan, EMPTY_IMPULSES],
                                             [1.0, math.nan, EMPTY_IMPULSES])))
        assert trace.warnings == []
        assert math.isnan(trace.signals["a"].left[0])

    def test_nan_ahead_of_a_large_limit(self):
        trace = _folded("ab", (0.0, _columns([math.nan, math.nan, EMPTY_IMPULSES],
                                             [1.0, -1e301, EMPTY_IMPULSES])))
        assert trace.warnings == [_warning("b", 0.0)]

    def test_infinite_spike_warns(self):
        # A quiet first step, then an order-0 impulse over a step of 1e-310.
        trace = _folded("a", (0.0, _columns([0.0, 0.0, EMPTY_IMPULSES])),
                        (1e-310, _columns([0.0, 0.0, impulses({0: 1.0})])))
        a = trace.signals["a"]
        assert (a.left[1], a.right[1], trace.impulses) == \
            (math.inf, math.inf, [])
        assert trace.warnings == [_warning("a", 1e-310)]

    def test_warnings_in_signal_order_at_each_step(self):
        # After a quiet first step, an order-1 impulse over a step of
        # 1e-160 spikes to +inf and leaves -inf due at the next step.
        trace = _folded(
            "abc",
            (0.0, _columns([0.0, 0.0, EMPTY_IMPULSES],
                           [1.0, 1.0, EMPTY_IMPULSES],
                           [1.0, 1.0, EMPTY_IMPULSES])),
            (1e-160, _columns([0.0, 0.0, impulses({1: 1.0})],
                              [1.0, 1.0, EMPTY_IMPULSES],
                              [1e301, 1e301, EMPTY_IMPULSES])),
            (2e-160, _columns([0.0, 0.0, EMPTY_IMPULSES],
                              [-1e301, 2.0, EMPTY_IMPULSES],
                              [1.0, 1.0, EMPTY_IMPULSES])),
            (3e-160, _columns([0.0, 0.0, EMPTY_IMPULSES],
                              [1e300, -1e300, EMPTY_IMPULSES],
                              [1.0, 1.0, EMPTY_IMPULSES])))
        assert trace.signals["a"].left.tolist() == \
            [0.0, math.inf, -math.inf, 0.0]
        assert trace.warnings == [
            _warning("a", 1e-160), _warning("c", 1e-160),
            _warning("a", 2e-160), _warning("b", 2e-160),
        ]

    @pytest.mark.parametrize("value, warns", [
        (1e300, False),
        (-1e300, False),
        (math.nextafter(1e300, math.inf), True),
        (-math.nextafter(1e300, math.inf), True),
        # The screen's byte test first passes at 2**993; the scan decides.
        (2.0 ** 996, False),
        (2.0 ** 997, True),
        (-2.0 ** 997, True),
    ])
    def test_limit_at_the_boundary(self, value, warns):
        trace = _folded("ab", (0.0, _columns([1.0, 1.0, EMPTY_IMPULSES],
                                             [1.0, value, EMPTY_IMPULSES])))
        assert trace.warnings == ([_warning("b", 0.0)] if warns else [])


def test_only_a_negative_zero_becomes_zero():
    """The fold scans a column for ``-0.0`` only where some float's high
    byte is 0x80: ``-0.0`` becomes ``0.0``, while ``-5e-324``, whose high
    byte is 0x80 too, and the float after ``0.0`` whose low byte is 0x80,
    which the byte search matches across the two, keep their bits."""
    shifted = 1.0 + 2.0 ** -45  # its low byte is 0x80
    assert engine._NEGATIVE_ZERO in array("d", [0.0, shifted, 0.0]).tobytes()
    trace = _folded("abc", *[(t, _columns(*cells)) for t, cells in [
        (0.0, [[-0.0, 0.0, EMPTY_IMPULSES], [-5e-324, 0.0, EMPTY_IMPULSES],
               [0.0, shifted, EMPTY_IMPULSES]]),
        (1.0, [[1.0, -0.0, EMPTY_IMPULSES], [0.0, -5e-324, EMPTY_IMPULSES],
               [shifted, 0.0, EMPTY_IMPULSES]]),
        (2.0, [[-0.0, -0.0, EMPTY_IMPULSES], [-5e-324, 1e301, EMPTY_IMPULSES],
               [0.0, -1e301, EMPTY_IMPULSES]]),
    ]])
    assert {name: [(a.hex(), b.hex()) for a, b in stream]
            for name, stream in trace.signals.items()} == {
        "a": [(x.hex(), y.hex()) for x, y in [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)]],
        "b": [(x.hex(), y.hex()) for x, y in [(-5e-324, 0.0), (0.0, -5e-324),
                                              (-5e-324, 1e301)]],
        "c": [(x.hex(), y.hex()) for x, y in [(0.0, shifted), (shifted, 0.0),
                                              (0.0, -1e301)]],
    }
    assert trace.warnings == [_warning("b", 2.0), _warning("c", 2.0)]


# --- the recorder's rows against the reference stepper's columns --------------

# A top definition without output ports watches no signal.
NO_OUTPUTS = "cbd Top() { block m = Main(); }\n"


@settings(max_examples=40, deadline=None)
@given(st.one_of(diagrams(), diagrams(last="Product")),
       st.sampled_from((0.1, 0.25)),
       st.sampled_from((1, 5, 64, engine.ROW_BUFFER)), st.data())
def test_recorder_rows_match_the_per_column_recorder(diagram, h, row_buffer,
                                                     data):
    """No signal, the one output, one drawn signal and every block, in
    both modes, with the rows cut into columns every ``row_buffer``
    limits: the reference stepper, which appends each limit to its column,
    gives the same trace, impulse log and warnings, or the same error."""
    text, names = diagram
    model = dsl.load_model(text + NO_OUTPUTS)
    every = tuple(flatten(model, "Main").blocks)
    watches = [("Top", ()), ("Main", ()),
               ("Main", (data.draw(st.sampled_from(names)),)), ("Main", every)]
    for top, watch in watches:
        for mode in ("symbolic", "numerical"):
            config = SimConfig(mode=mode, h=h, t_end=2.0, zc_tol=1e-4,
                               h_min=1e-4, watch=watch)
            with mock.patch.object(engine, "ROW_BUFFER", row_buffer):
                trace, rows = reference.matches(model, top, config)
            if top == "Top" and trace is not None:
                assert rows[1:3] == ([], [])


@pytest.mark.parametrize("row_buffer", [1, 7, 64])
def test_recorder_cuts_its_rows_at_the_row_buffer(row_buffer, ball_model):
    """Every flush during the run finds ``ROW_BUFFER`` limits or more, but
    less than one row more; the last, at the end of the run, fewer."""
    buffered = []

    def flush(self, flush=_Recorder.flush):
        buffered.append(len(self.right))
        return flush(self)

    with mock.patch.object(engine, "ROW_BUFFER", row_buffer), \
            mock.patch.object(_Recorder, "flush", flush):
        trace = simulate(ball_model, "Main", SimConfig(h=1e-3, t_end=0.5))
    width = len(trace.signals)
    assert len(buffered) > 1
    assert all(row_buffer <= n < row_buffer + width for n in buffered[:-1])
    assert buffered[-1] < row_buffer
