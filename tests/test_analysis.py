import math

import pytest

from cbdsim.analysis import (
    MagnitudeEstimate,
    TimeGridMismatch,
    analytic_bouncing_ball,
    compare_traces,
    finite_difference_table,
    halforder_magnitude_estimate,
    max_magnitude,
)
from cbdsim.engine import ImpulseEvent, Stream, Trace

G = 9.81


class TestFiniteDifferenceTable:
    def test_first_order_spike(self):
        table = finite_difference_table(1, 0.1)
        assert table.value(0, 1) == pytest.approx(10.0)
        assert table.value(1, 1) == 0.0
        assert table.value(-1, 1) == 0.0

    def test_second_order_pair(self):
        table = finite_difference_table(2, 0.1)
        assert table.value(0, 2) == pytest.approx(100.0)
        assert table.value(1, 2) == pytest.approx(-100.0)
        assert table.value(2, 2) == 0.0

    def test_third_order_pattern(self):
        table = finite_difference_table(3, 1.0)
        assert [table.value(m, 3) for m in range(4)] == [1.0, -2.0, 1.0, 0.0]

    def test_pre_event_row_is_zero(self):
        table = finite_difference_table(4, 0.5)
        assert all(table.value(-1, k) == 0.0 for k in range(5))

    def test_column_zero_is_unit_step(self):
        table = finite_difference_table(3, 0.25)
        assert [table.value(m, 0) for m in table.offsets] == [0, 1, 1, 1, 1]

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("h", [1.0, 0.1, 0.01])
    def test_binomial_closed_form(self, n, h):
        table = finite_difference_table(n, h)
        for m in table.offsets:
            expected = 0.0
            if 0 <= m <= n - 1:
                expected = (-1.0) ** m * math.comb(n - 1, m) / h ** n
            got = table.value(m, n)
            if h == 1.0:
                assert got == expected
            else:
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_columns_telescope(self, n):
        h = 0.1
        table = finite_difference_table(n, h)
        for k in range(1, n + 1):
            total = math.fsum(table.value(m, k) * h for m in table.offsets)
            final = table.value(n, k - 1)
            assert total == pytest.approx(final, rel=1e-9, abs=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            finite_difference_table(-1, 0.1)
        with pytest.raises(ValueError):
            finite_difference_table(1, 0.0)


class TestMaxMagnitude:
    def test_single_spike(self):
        assert max_magnitude(1, 0.01, 1.0).value == pytest.approx(100.0)

    def test_amplitude_scales(self):
        assert max_magnitude(3, 1.0, 2.0).value == pytest.approx(4.0)

    def test_middle_binomial_dominates(self):
        assert max_magnitude(5, 0.1, 1.0).value == pytest.approx(6e5, rel=1e-9)

    def test_overflow_flagged(self):
        estimate = max_magnitude(12, 1e-30, 1.0)
        assert estimate.overflow_risk

    @pytest.mark.parametrize("h, amplitude, message", [
        (math.inf, 1.0, "step size"), (0.1, math.nan, "amplitude"),
        (0.1, math.inf, "amplitude"),
    ])
    def test_non_finite_step_or_amplitude_rejected(self, h, amplitude,
                                                   message):
        # The step is checked by ``finite_difference_table``.
        with pytest.raises(ValueError, match=f"^{message} must be "):
            max_magnitude(2, h, amplitude)

    @pytest.mark.parametrize("h", [0.1, 1e-200])
    def test_zero_amplitude_bounds_nothing(self, h):
        # At 1e-200 the table peak overflows to inf, and 0 * inf is nan.
        assert max_magnitude(4, h, 0.0) == MagnitudeEstimate(0.0, False)

    def test_halforder_estimate(self):
        assert halforder_magnitude_estimate(6, 0.1, 1.0) == pytest.approx(1e3)
        assert halforder_magnitude_estimate(1, 0.1, 2.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("h, expected", [(1e-200, math.inf), (1e200, 0.0)])
    def test_halforder_estimate_saturates(self, h, expected):
        # h**2 underflows to 0 at 1e-200 and overflows at 1e200.
        assert halforder_magnitude_estimate(4, h, 1.0) == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_binomial_peak(self, n):
        h, amplitude = 0.5, 2.5
        expected = amplitude * math.comb(n - 1, (n - 1) // 2) / h ** n
        assert max_magnitude(n, h, amplitude).value == pytest.approx(
            expected, rel=1e-9
        )


def _trace(times, values, impulses=()):
    trace = Trace(times=list(times))
    trace.signals["s"] = Stream(values, values)
    trace.impulses = list(impulses)
    return trace


class TestCompareTraces:
    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1.0])
    def test_rel_tol_must_be_non_negative_and_finite(self, rel_tol):
        a = _trace([0.0, 0.1], [1.0, 2.0])
        with pytest.raises(ValueError, match="^rel_tol must be non-negative "
                                             "and finite"):
            compare_traces(a, a, rel_tol)

    def test_identical_traces(self):
        a = _trace([0.0, 0.1, 0.2], [1.0, 2.0, 3.0])
        report = compare_traces(a, _trace([0.0, 0.1, 0.2], [1.0, 2.0, 3.0]))
        assert report.ok
        assert report.deviations[0].max_relative == 0.0

    def test_grid_mismatch(self):
        a = _trace([0.0, 0.1], [1.0, 2.0])
        b = _trace([0.0, 0.2], [1.0, 2.0])
        with pytest.raises(TimeGridMismatch):
            compare_traces(a, b)

    def test_shared_nan_time_is_a_mismatch(self):
        # One nan object in both grids: a list ``==`` would match it by
        # identity, but nan equals no time.
        times = [0.0, math.nan]
        with pytest.raises(TimeGridMismatch):
            compare_traces(_trace(times, [1.0, 2.0]), _trace(times, [1.0, 2.0]))

    def test_different_signals_rejected(self):
        a = _trace([0.0], [1.0])
        b = Trace(times=[0.0])
        b.signals["other"] = Stream([1.0], [1.0])
        with pytest.raises(ValueError):
            compare_traces(a, b)

    def test_deviation_detected(self):
        a = _trace([0.0, 0.1], [1.0, 2.0])
        b = _trace([0.0, 0.1], [1.0, 2.5])
        report = compare_traces(a, b, rel_tol=1e-12)
        assert not report.ok
        assert report.deviations[0].at_time == 0.1

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_deviation_in_one_limit_detected(self, side):
        a = _trace([0.0, 0.1, 0.2], [1.0, 2.0, 3.0])
        b = _trace([0.0, 0.1, 0.2], [1.0, 2.0, 3.0])
        getattr(b.signals["s"], side)[1] = 2.5
        report = compare_traces(a, b, rel_tol=1e-12)
        assert not report.ok
        assert report.deviations[0].max_relative == pytest.approx(0.2)
        assert report.deviations[0].at_time == 0.1

    def test_order_zero_spike_match(self):
        event = ImpulseEvent(0.1, "s", 0, 3.0)
        a = _trace([0.0, 0.1], [0.0, 0.0], [event])
        b = _trace([0.0, 0.1], [0.0, 3.0 / 0.1])
        report = compare_traces(a, b, rel_tol=1e-12)
        assert report.ok
        assert report.impulse_checks[0].ok

    def test_spike_mismatch_fails(self):
        event = ImpulseEvent(0.1, "s", 0, 3.0)
        a = _trace([0.0, 0.1], [0.0, 0.0], [event])
        b = _trace([0.0, 0.1], [0.0, 17.0])
        report = compare_traces(a, b, rel_tol=1e-12)
        assert not report.ok

    def test_order_two_spike_spreads_over_three_steps(self):
        # {2: 1} at t = 0.1 is due as (1, -2, 1) / h**3 at that step and the
        # two after it; a plain trace without the cascade fails.
        event = ImpulseEvent(0.1, "s", 2, 1.0)
        times = [0.0, 0.1, 0.2, 0.3, 0.4]
        a = _trace(times, [0.0] * 5, [event])
        cascade = [0.0] + [c / 0.1 ** 3 for c in (1.0, -2.0, 1.0)] + [0.0]
        report = compare_traces(a, _trace(times, cascade), rel_tol=1e-12)
        assert report.ok and report.findings == []
        assert report.deviations[0].max_relative == 0.0
        [check] = report.impulse_checks
        assert (check.expected, check.actual, check.ok) == \
            (cascade[1], cascade[1], True)
        report = compare_traces(a, _trace(times, [0.0] * 5), rel_tol=1e-12)
        assert not report.ok and not report.impulse_checks[0].ok
        assert report.deviations[0].at_time == 0.1

    def test_cascade_left_due_reaches_a_later_event(self):
        # An order-1 term still due at the step of a second event adds to
        # that event's spike.
        events = [ImpulseEvent(0.1, "s", 1, 1.0), ImpulseEvent(0.2, "s", 0, 3.0)]
        times = [0.0, 0.1, 0.2, 0.3]
        a = _trace(times, [1.0] * 4, events)
        spikes = [0.0, 1.0 / 0.1 ** 2, -1.0 / 0.1 ** 2 + 3.0 / 0.1, 0.0]
        b = _trace(times, [1.0 + spike for spike in spikes])
        report = compare_traces(a, b, rel_tol=1e-12)
        assert report.ok
        assert [c.expected for c in report.impulse_checks] == spikes[1:3]

    @pytest.mark.parametrize("event, message", [
        (ImpulseEvent(0.1, "ghost", 0, 3.0), "'ghost'"),
        # The recorder never writes one: step 0 has no step length.
        (ImpulseEvent(0.0, "s", 0, 3.0), "after its first step"),
    ])
    def test_impulse_the_recorder_cannot_write_rejected(self, event, message):
        a = _trace([0.0, 0.1], [0.0, 0.0], [event])
        with pytest.raises(ValueError, match=message):
            compare_traces(a, _trace([0.0, 0.1], [0.0, 30.0]))

    def test_log_to_log_comparison(self):
        event = ImpulseEvent(0.1, "s", 0, 3.0)
        a = _trace([0.0, 0.1], [0.0, 0.0], [event])
        b = _trace([0.0, 0.1], [0.0, 0.0], [event])
        report = compare_traces(a, b)
        assert report.ok and report.impulse_checks[0].ok

    @pytest.mark.parametrize("events_a, events_b, findings", [
        ([ImpulseEvent(0.1, "s", 0, 3.0), ImpulseEvent(0.1, "s", 1, 2.0)],
         [ImpulseEvent(0.1, "s", 0, 3.0)],
         ["impulse ImpulseEvent(time=0.1, signal='s', order=1, "
          "coefficient=2.0) has no counterpart in the second trace"]),
        ([ImpulseEvent(0.1, "s", 0, 3.0)],
         [ImpulseEvent(0.1, "s", 0, 3.0), ImpulseEvent(0.2, "s", 0, 1.0)],
         ["impulse ImpulseEvent(time=0.2, signal='s', order=0, "
          "coefficient=1.0) has no counterpart in the first trace"]),
    ])
    def test_log_to_log_unmatched_event(self, events_a, events_b, findings):
        times = [0.0, 0.1, 0.2]
        report = compare_traces(_trace(times, [0.0] * 3, events_a),
                                _trace(times, [0.0] * 3, events_b))
        assert not report.ok and report.findings == findings
        assert [c.ok for c in report.impulse_checks] == [True]

    def test_log_to_log_coefficient_mismatch(self):
        a = _trace([0.0, 0.1], [0.0, 0.0], [ImpulseEvent(0.1, "s", 0, 3.0)])
        b = _trace([0.0, 0.1], [0.0, 0.0], [ImpulseEvent(0.1, "s", 0, 4.0)])
        report = compare_traces(a, b)
        assert not report.ok and report.findings == []
        [check] = report.impulse_checks
        assert (check.expected, check.actual, check.ok) == (3.0, 4.0, False)
        assert check.relative_error == 0.25

    def test_spike_time_off_the_grid_rejected(self):
        event = ImpulseEvent(0.05, "s", 0, 3.0)
        a = _trace([0.0, 0.1], [0.0, 0.0], [event])
        with pytest.raises(ValueError):
            compare_traces(a, _trace([0.0, 0.1], [0.0, 0.0]))


class TestAnalyticBouncingBall:
    def test_initial_instant(self):
        y, v, bounces = analytic_bouncing_ball(10.0, 0.0, G, 0.0)
        assert (y, v) == (10.0, 0.0)
        assert bounces == ()

    def test_first_contact(self):
        t_c = math.sqrt(2.0 * 10.0 / G)
        y, v, bounces = analytic_bouncing_ball(10.0, 0.0, G, 2.0)
        assert bounces == (pytest.approx(t_c, rel=1e-12),)
        assert t_c == pytest.approx(1.4278431, abs=1e-7)
        # Velocity right before contact.
        y_before, v_before, _ = analytic_bouncing_ball(10.0, 0.0, G,
                                                       t_c - 1e-12)
        assert v_before == pytest.approx(-math.sqrt(2 * G * 10.0), rel=1e-9)
        assert v_before == pytest.approx(-14.0071410, abs=1e-6)

    def test_contact_height_is_zero(self):
        t_c = math.sqrt(2.0 * 10.0 / G)
        y, _, _ = analytic_bouncing_ball(10.0, 0.0, G, t_c)
        assert abs(y) <= 1e-12

    def test_second_flight_apex_recovers_height(self):
        t_c = math.sqrt(2.0 * 10.0 / G)
        apex_time = 2.0 * t_c  # full reflection: apex one flight later
        y, v, _ = analytic_bouncing_ball(10.0, 0.0, G, apex_time)
        assert y == pytest.approx(10.0, rel=1e-9)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_restitution_scales_velocity(self):
        t_c = math.sqrt(2.0 * 10.0 / G)
        _, v, _ = analytic_bouncing_ball(10.0, 0.0, G, t_c + 1e-9,
                                         restitution=0.5)
        assert v == pytest.approx(0.5 * math.sqrt(2 * G * 10.0), rel=1e-6)

    def test_no_restitution_rests_on_the_floor(self):
        t_c = math.sqrt(2.0 * 10.0 / G)
        y, v, bounces = analytic_bouncing_ball(10.0, 0.0, G, 5.0,
                                               restitution=0.0)
        assert (y, v) == (0.0, 0.0)
        assert bounces == (pytest.approx(t_c, rel=1e-12),)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            analytic_bouncing_ball(0.0, 0.0, G, 1.0)
        with pytest.raises(ValueError):
            analytic_bouncing_ball(10.0, 0.0, G, -1.0)
