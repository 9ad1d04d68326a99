import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from cbdsim import cli
from cbdsim.engine import SimConfig, Stream, Trace, simulate

from conftest import MODELS

G = 9.81


def run_ball(ball_path, tmp_path, mode="symbolic", fmt="csv", tag=""):
    out = tmp_path / f"trace_{mode}{tag}.{fmt}"
    imp = tmp_path / f"impulses_{mode}{tag}.{fmt}"
    argv = [
        "run", str(ball_path), "--top", "Main", "--mode", mode,
        "--step", "1e-3", "--end", "2", "--zc-tol", "1e-9",
        "--min-step", "1e-12",
        "--out", str(out), "--impulses", str(imp),
    ]
    code = cli.main(argv)
    return code, out, imp


def run_chain(tmp_path, mode):
    """The bundled step_chain model run to t = 1 at h = 0.1 in ``mode``."""
    out = tmp_path / f"chain_{mode}.csv"
    imp = tmp_path / f"chain_impulses_{mode}.csv"
    code = cli.main([
        "run", str(MODELS / "step_chain.cbd"), "--top", "Chain",
        "--mode", mode, "--step", "0.1", "--end", "1",
        "--out", str(out), "--impulses", str(imp),
    ])
    assert code == 0
    return out, imp


def write_null_fields(tmp_path):
    """A valid JSON trace, and a JSON trace and impulse log with a null field."""
    row = {"time": 0.0, "signal": "y", "left": 1.0, "right": 1.0}
    event = {"time": 0.0, "signal": "y", "order": 0, "coefficient": None}
    paths = [tmp_path / name for name in
             ("trace.json", "null_trace.json", "null_impulses.json")]
    paths[0].write_text(json.dumps({"trace": [row]}))
    paths[1].write_text(json.dumps({"trace": [{**row, "time": None}]}))
    paths[2].write_text(json.dumps({"impulses": [event]}))
    return paths


class TestRun:
    def test_symbolic_run_writes_trace_and_impulses(self, ball_path, tmp_path,
                                                    capsys):
        code, out, imp = run_ball(ball_path, tmp_path)
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["mode"] == "symbolic"
        assert manifest["impulse_events"] == 1
        assert manifest["watched"] == ["y", "v", "force"]
        assert len(manifest["source_sha256"]) == 64
        lines = imp.read_text().splitlines()
        assert lines[0] == "time,signal,order,coefficient"
        assert len(lines) == 2
        time_s, signal, order_s, coefficient_s = lines[1].split(",")
        assert signal == "force" and order_s == "0"
        assert abs(float(time_s) - math.sqrt(2 * 10 / G)) < 1e-3
        assert float(coefficient_s) == pytest.approx(
            2 * math.sqrt(2 * G * 10), rel=1e-3
        )

    def test_unknown_top_exits_one(self, ball_path, tmp_path, capsys):
        code = cli.main([
            "run", str(ball_path), "--top", "Nope", "--step", "1e-3",
            "--end", "1", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        assert "Nope" in capsys.readouterr().err

    def test_bad_model_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cbd"
        bad.write_text("cbd Main(out y){ block c = Quux(); c.out -> y; }")
        code = cli.main([
            "run", str(bad), "--top", "Main", "--step", "1e-3",
            "--end", "1", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        assert "unknown block kind" in capsys.readouterr().err

    @pytest.mark.parametrize("text, expected", [
        # parse errors: the scanner's, then the parser's
        ("cbd Main(out y){ block c = Constant(1) c.out -> y; @ }", [
            "1:52: error: unexpected character '@'",
            "1:40: error: expected ';', got 'c'",
            "1:52: error: expected 'block' or a link, got '@'",
        ]),
        # validation errors
        ("cbd Main(out y){\n  block c = Constant(1);\n"
         "  block n = Negator();\n  c -> n;\n  q -> y;\n}\n", [
             "4:8: error: link into 'n' must name an input port",
             "5:3: error: unknown link source 'q'",
             "3:3: error: input port 'in' of 'n' has no driver",
         ]),
    ])
    def test_model_errors_print_every_diagnostic(self, tmp_path, capsys,
                                                 text, expected):
        bad = tmp_path / "bad.cbd"
        bad.write_text(text)
        code = cli.main([
            "run", str(bad), "--top", "Main", "--step", "1e-3",
            "--end", "1", "--out", str(tmp_path / "t.csv"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"{bad}:{line}"
                                             for line in expected]
        assert not (tmp_path / "t.csv").exists()

    def test_runtime_error_exits_two(self, tmp_path, capsys):
        broken = tmp_path / "div.cbd"
        broken.write_text(
            "cbd Main(out y){ block z = Constant(0); block i = Inverter(); "
            "z.out -> i.in; i.out -> y; }"
        )
        code = cli.main([
            "run", str(broken), "--top", "Main", "--step", "0.1",
            "--end", "1", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 2
        assert "i:" in capsys.readouterr().err

    def test_model_file_not_utf8_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cbd"
        bad.write_bytes("// caf\xe9\n".encode("latin-1"))
        code = cli.main([
            "run", str(bad), "--top", "Main", "--step", "1e-3",
            "--end", "1", "--out", str(tmp_path / "t.csv"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ")
        assert "utf-8" in captured.err

    @pytest.mark.parametrize("option", ["--out", "--impulses"])
    def test_write_into_missing_directory_exits_two(self, ball_path, tmp_path,
                                                    capsys, option):
        paths = {"--out": str(tmp_path / "t.csv"),
                 "--impulses": str(tmp_path / "i.csv")}
        paths[option] = str(tmp_path / "missing" / "x.csv")
        code = cli.main([
            "run", str(ball_path), "--top", "Main", "--step", "1e-2",
            "--end", "0.1", "--out", paths["--out"],
            "--impulses", paths["--impulses"],
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "missing" in captured.err

    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_log_write_removes_only_what_the_run_created(
            self, ball_path, tmp_path, capsys, existed):
        out = tmp_path / "t.csv"
        if existed:
            out.write_text("an earlier trace\n")
        log = tmp_path / "missing" / "i.csv"
        code = cli.main([
            "run", str(ball_path), "--top", "Main", "--step", "1e-2",
            "--end", "0.1", "--out", str(out), "--impulses", str(log),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: [Errno 2] No such file or directory: "
                                f"{str(log)!r}\n")
        assert sorted(tmp_path.iterdir()) == ([out] if existed else [])

    @pytest.mark.parametrize("option, value", [
        ("--end", "inf"), ("--step", "inf"), ("--zc-tol", "nan"),
        ("--min-step", "-inf"),
    ])
    def test_non_finite_config_exits_one(self, tmp_path, capsys, option,
                                         value):
        # An infinite end time would run forever; no simulation may start.
        argv = {"--step": "0.1", "--end": "1", "--zc-tol": "1e-9",
                "--min-step": "1e-12", option: value}
        with mock.patch.object(cli, "simulate",
                               side_effect=AssertionError("simulated")):
            code = cli.main([
                "run", str(MODELS / "step_chain.cbd"), "--top", "Chain",
                "--out", str(tmp_path / "x.csv"),
                *(f"{name}={text}" for name, text in argv.items()),
            ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "must be finite" in captured.err
        assert not (tmp_path / "x.csv").exists()

    def test_numerical_impulse_file_is_header_only(self, ball_path, tmp_path,
                                                   capsys):
        code, out, imp = run_ball(ball_path, tmp_path, mode="numerical")
        assert code == 0
        capsys.readouterr()
        assert imp.read_text() == "time,signal,order,coefficient\n"

    def test_trace_text_round_trips_exactly(self, ball_path, tmp_path, capsys):
        code, out, imp = run_ball(ball_path, tmp_path)
        capsys.readouterr()
        trace = cli.read_trace(out, imp)
        reloaded = tmp_path / "reloaded.csv"
        cli.write_trace(trace, reloaded, "csv")
        assert reloaded.read_text() == out.read_text()

    def test_trace_text_of_special_values(self, tmp_path):
        inf, nan = math.inf, math.nan
        trace = Trace(times=[0.0, 1 / 3], signals={
            "a": Stream([-0.0, nan], [inf, -inf]),
            "b/c": Stream([5e-324, 0.1], [1e308, -2.5]),
        })
        out = tmp_path / "special.csv"
        cli.write_trace(trace, out, "csv")
        assert out.read_text() == (
            "time,signal,left,right\n"
            "0,a,-0,inf\n0,b/c,4.9406564584124654e-324,1e+308\n"
            "0.33333333333333331,a,nan,-inf\n"
            "0.33333333333333331,b/c,0.10000000000000001,-2.5\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_read_back_streams_equal_the_simulated_ones(
            self, ball_path, ball_model, tmp_path, capsys, fmt):
        code, out, imp = run_ball(ball_path, tmp_path, fmt=fmt)
        capsys.readouterr()
        simulated = simulate(ball_model, "Main", SimConfig(
            h=1e-3, t_end=2.0, zc_tol=1e-9, h_min=1e-12))
        back = cli.read_trace(out, imp)
        assert back.times == simulated.times
        assert back.impulses == simulated.impulses
        assert back.signals == simulated.signals
        assert [e.signal for e in back.impulses] == ["force"]

    def test_json_format_mirrors_csv(self, ball_path, tmp_path, capsys):
        code, out_json, imp_json = run_ball(ball_path, tmp_path, fmt="json")
        code, out_csv, imp_csv = run_ball(ball_path, tmp_path, tag="_c")
        capsys.readouterr()
        payload = json.loads(out_json.read_text())
        assert set(payload) == {"trace"}
        assert set(payload["trace"][0]) == {"time", "signal", "left", "right"}
        from_json = cli.read_trace(out_json, imp_json)
        from_csv = cli.read_trace(out_csv, imp_csv)
        assert from_json.times == from_csv.times
        assert from_json.signals == from_csv.signals
        assert from_json.impulses == from_csv.impulses

    def test_watch_selects_signals(self, ball_path, tmp_path, capsys):
        out = tmp_path / "watched.csv"
        code = cli.main([
            "run", str(ball_path), "--top", "Main", "--step", "1e-3",
            "--end", "0.01", "--watch", "y,det/contact",
            "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["watched"] == ["y", "det/contact"]
        trace = cli.read_trace(out)
        assert set(trace.signals) == {"y", "det/contact"}

    def test_determinism_byte_identical(self, ball_path, tmp_path, capsys):
        _, out1, imp1 = run_ball(ball_path, tmp_path, tag="_a")
        _, out2, imp2 = run_ball(ball_path, tmp_path, tag="_b")
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert imp1.read_bytes() == imp2.read_bytes()

    @pytest.mark.parametrize("mode", ["symbolic", "numerical"])
    @pytest.mark.parametrize("trace_name, log_name", [
        ("t.json", "i.json"), ("t.csv", "i.json"), ("t.json", "i.log"),
    ])
    def test_each_written_file_has_the_format_of_its_name(
            self, ball_path, tmp_path, capsys, mode, trace_name, log_name):
        out, imp = tmp_path / trace_name, tmp_path / log_name
        assert cli.main(["run", str(ball_path), "--top", "Main", "--mode",
                         mode, "--step", "1e-3", "--end", "2",
                         "--out", str(out), "--impulses", str(imp)]) == 0
        for path, key, header in ((out, "trace", cli.TRACE_HEADER),
                                  (imp, "impulses", cli.IMPULSE_HEADER)):
            if path.suffix == ".json":
                assert set(json.loads(path.read_text())) == {key}
            else:
                assert path.read_text().startswith(header + "\n")
        capsys.readouterr()
        # A numerical log is empty, so one side's log is the whole check.
        logs = ["--impulses-a", str(imp)]
        if mode == "symbolic":
            logs += ["--impulses-b", str(imp)]
        assert cli.main(["compare", str(out), str(out), *logs]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_format_option_is_refused(self, ball_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["run", str(ball_path), "--top", "Main", "--step", "1e-3",
                      "--end", "2", "--format", "json",
                      "--out", str(tmp_path / "t.json")])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()


class TestTable:
    def test_first_order(self, capsys):
        assert cli.main(["table", "--order", "1", "--step", "0.1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "offset,order0,order1"
        assert out[1].startswith("-1,0,0")
        assert out[2].split(",")[2] == "10"
        assert any(line.startswith("max_magnitude,") for line in out)
        assert any(line.startswith("halforder_estimate,") for line in out)

    def test_order_zero_prints_step_column(self, capsys):
        assert cli.main(["table", "--order", "0", "--step", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(",")[1] for line in out[1:]] == ["0", "1"]

    def test_cascade_maximum_reported(self, capsys):
        assert cli.main(["table", "--order", "5", "--step", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "max_magnitude,600000" in out

    def test_invalid_arguments(self, capsys):
        assert cli.main(["table", "--order", "2", "--step", "0"]) == 1

    @pytest.mark.parametrize("option, value, name", [
        ("--step", "inf", "step size"), ("--amplitude", "nan", "amplitude"),
        ("--amplitude", "inf", "amplitude"),
    ])
    def test_non_finite_step_or_amplitude_exits_one(self, capsys, option,
                                                    value, name):
        argv = ["table", "--order", "2", "--step", "0.1", option, value]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} must be ")

    @pytest.mark.parametrize("step, estimate, err", [
        ("1e-200", "inf", "warning: overflow-risk\n"), ("1e200", "0", ""),
    ])
    def test_extreme_finite_step_saturates(self, capsys, step, estimate, err):
        # h**2 underflows to 0 at 1e-200 and overflows at 1e200.
        assert cli.main(["table", "--order", "4", "--step", step]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == f"halforder_estimate,{estimate}"
        assert captured.err == err

    def test_zero_amplitude_at_an_extreme_step_reads_zero(self, capsys):
        argv = ["table", "--order", "4", "--step", "1e-200", "--amplitude", "0"]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-2:] == ["max_magnitude,0",
                                                  "halforder_estimate,0"]
        assert captured.err == ""

    def test_python_dash_m_runs_the_command_line(self, capsys):
        argv = ["table", "--order", "1", "--step", "0.5"]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-m", "cbdsim", *argv],
                                capture_output=True, text=True, env=env,
                                timeout=60)
        assert (result.returncode, result.stderr) == (0, "")
        assert cli.main(argv) == 0
        assert result.stdout == capsys.readouterr().out


class TestCompare:
    def test_identical_files(self, ball_path, tmp_path, capsys):
        _, out1, imp1 = run_ball(ball_path, tmp_path, tag="_a")
        _, out2, imp2 = run_ball(ball_path, tmp_path, tag="_b")
        capsys.readouterr()
        code = cli.main([
            "compare", str(out1), str(out2),
            "--impulses-a", str(imp1), "--impulses-b", str(imp2),
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["ok"]

    def test_symbolic_vs_numerical(self, ball_path, tmp_path, capsys):
        _, sym, sym_imp = run_ball(ball_path, tmp_path, mode="symbolic")
        _, num, _ = run_ball(ball_path, tmp_path, mode="numerical")
        capsys.readouterr()
        code = cli.main([
            "compare", str(sym), str(num),
            "--rel-tol", "1e-12", "--impulses-a", str(sym_imp),
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["ok"]
        assert len(report["impulse_checks"]) == 1

    def test_step_chain_modes_agree_at_every_order(self, tmp_path, capsys):
        # Orders 0, 1 and 2 at t = 0.5, the last two spreading over the
        # following steps of the numerical trace.
        sym, sym_imp = run_chain(tmp_path, "symbolic")
        num, _ = run_chain(tmp_path, "numerical")
        capsys.readouterr()
        code = cli.main(["compare", str(sym), str(num),
                         "--impulses-a", str(sym_imp)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["ok"]
        logged = [line.split(",")[1:3]
                  for line in sym_imp.read_text().splitlines()[1:]]
        assert logged == [["d1", "0"], ["d2", "1"], ["d3", "2"]]
        assert [[c["signal"], str(c["order"])]
                for c in report["impulse_checks"]] == logged
        assert all(c["relative_error"] == 0.0
                   for c in report["impulse_checks"])
        assert all(d["max_relative"] == 0.0 for d in report["deviations"])
        assert report["findings"] == []

    def test_report_keys_follow_the_dataclass_fields(self, tmp_path, capsys):
        sym, sym_imp = run_chain(tmp_path, "symbolic")
        num, _ = run_chain(tmp_path, "numerical")
        capsys.readouterr()
        cli.main(["compare", str(sym), str(num), "--impulses-a", str(sym_imp)])
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["ok", "rel_tol", "deviations",
                                "impulse_checks", "findings"]
        assert list(report["deviations"][0]) == ["signal", "max_relative",
                                                 "at_time"]
        assert list(report["impulse_checks"][0]) == [
            "time", "signal", "order", "coefficient", "expected", "actual",
            "relative_error", "ok"]

    @pytest.mark.parametrize("rel_tol", ["nan", "inf", "-1"])
    def test_rel_tol_negative_or_not_finite_exits_two(
            self, tmp_path, capsys, rel_tol):
        # Two traces 80% apart: a nan tolerance would pass them.
        paths = []
        for name, value in (("a", 1.0), ("b", 5.0)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"trace": [
                {"time": t, "signal": "y", "left": value, "right": value}
                for t in (0.0, 1.0)]}))
        assert cli.main(["compare", *map(str, paths),
                         "--rel-tol", rel_tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: rel_tol must be non-negative and "
                                f"finite, got {float(rel_tol)!r}\n")

    def test_impulse_on_an_unknown_signal_exits_two(self, tmp_path, capsys):
        sym, sym_imp = run_chain(tmp_path, "symbolic")
        num, _ = run_chain(tmp_path, "numerical")
        time_field = sym_imp.read_text().splitlines()[1].split(",")[0]
        with sym_imp.open("a") as log:
            log.write(f"{time_field},ghost,0,1\n")
        capsys.readouterr()
        code = cli.main(["compare", str(sym), str(num),
                         "--impulses-a", str(sym_imp)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert "'ghost'" in captured.err

    def test_mismatched_step_exits_three(self, ball_path, tmp_path, capsys):
        _, out1, _ = run_ball(ball_path, tmp_path, tag="_a")
        other = tmp_path / "coarse.csv"
        cli.main([
            "run", str(ball_path), "--top", "Main", "--step", "2e-3",
            "--end", "2", "--out", str(other),
        ])
        capsys.readouterr()
        assert cli.main(["compare", str(out1), str(other)]) == 3

    def test_unreadable_input(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert cli.main(["compare", str(missing), str(missing)]) == 2
        trace, null_trace, null_log = write_null_fields(tmp_path)
        assert cli.main(["compare", str(null_trace), str(trace)]) == 2
        assert cli.main(["compare", str(trace), str(trace),
                         "--impulses-a", str(null_log)]) == 2
        errors = capsys.readouterr().err
        assert str(null_trace) in errors and str(null_log) in errors


def run_with_order(tmp_path, capsys, fmt, order):
    """The impulse log, and ``compare``'s and ``plotdata``'s exit codes and
    standard error, for a two-step trace of ``y`` with one impulse of
    ``order`` logged at its second step."""
    if fmt == "csv":
        return run_with_log(tmp_path, capsys, "csv", f"1,y,{order},1")
    return run_with_log(tmp_path, capsys, "json", json.dumps({"impulses": [
        {"time": 1.0, "signal": "y", "order": order, "coefficient": 1.0}]}))


def run_with_log(tmp_path, capsys, fmt, body):
    """As ``run_with_order``, for an impulse log of ``body``, after the
    header in CSV."""
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"trace": [
        {"time": t, "signal": "y", "left": 0.0, "right": 0.0}
        for t in (0.0, 1.0)]}))
    log = tmp_path / f"impulses.{fmt}"
    log.write_text(f"{cli.IMPULSE_HEADER}\n{body}\n" if fmt == "csv" else body)
    outcomes = []
    for argv in (["compare", str(trace), str(trace), "--impulses-a", str(log)],
                 ["plotdata", "--trace", str(trace), "--impulses", str(log),
                  "--out", str(tmp_path / "plot.json")]):
        code = cli.main(argv)
        outcomes.append((code, capsys.readouterr().err))
    return log, outcomes


class TestImpulseOrders:
    """An impulse log is outside input: every order must be a non-negative
    integer, or ``compare`` and ``plotdata`` stop with exit code 2."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_order_exits_two(self, tmp_path, capsys, fmt):
        _, outcomes = run_with_order(tmp_path, capsys, fmt, -1)
        for code, err in outcomes:
            assert code == 2
            assert err.startswith("error: ")
            assert "non-negative integer" in err

    @pytest.mark.parametrize("order", [0.75, True])
    def test_fractional_or_boolean_json_order_exits_two(self, tmp_path,
                                                        capsys, order):
        log, outcomes = run_with_order(tmp_path, capsys, "json", order)
        for code, err in outcomes:
            assert code == 2
            assert err == (f"error: {log}: impulse order {order!r} is not "
                           f"a non-negative integer\n")

    @pytest.mark.parametrize("row, cause", [
        ("1,y,1.5,1", "invalid literal for int() with base 10: '1.5'"),
        ("1,y,1", "not enough values to unpack (expected 4, got 3)"),
        ("soon,y,0,1", "could not convert string to float: 'soon'"),
    ], ids=["fractional-order", "three-fields", "non-numeric-time"])
    def test_malformed_csv_row_names_the_file(self, tmp_path, capsys, row,
                                              cause):
        log, outcomes = run_with_log(tmp_path, capsys, "csv", row)
        for code, err in outcomes:
            assert code == 2
            assert err == (f"error: {log}: malformed impulse log: line 2: "
                           f"{cause}\n")


EVENT = {"time": 1.0, "signal": "y", "order": 0, "coefficient": 1.0}


@pytest.mark.parametrize("target, name, body, cause", [
    ("log", "bad.json", b'{"impulses": [}',
     "Expecting value: line 1 column 15 (char 14)"),
    ("trace", "bad.csv", b"\xfftime,signal,left,right\n",
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("log", "bad.json", json.dumps({"rows": [EVENT]}).encode(),
     "not an impulse log"),
    ("log", "bad.json", json.dumps({"impulses": [
        EVENT, {k: v for k, v in EVENT.items() if k != "coefficient"}]}
    ).encode(), "malformed impulse log: row 2: missing key 'coefficient'"),
    ("log", "bad.json", json.dumps({"impulses": [{**EVENT, "time": "abc"}]}
                                   ).encode(),
     "malformed impulse log: row 1: could not convert string to float: "
     "'abc'"),
    ("trace", "bad.json", b'{"trace": [}',
     "Expecting value: line 1 column 12 (char 11)"),
    ("log", "bad.csv", b"\xfftime,signal,order,coefficient\n",
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("log", "bad.csv", f"{cli.TRACE_HEADER}\n1,y,0,1\n".encode(),
     "not an impulse log"),
    ("log", "bad.json", json.dumps([EVENT]).encode(), "not an impulse log"),
    ("log", "bad.json", b'{"impulses": 5}', "not an impulse log"),
    ("log", "bad.json", b'{"impulses": null}', "not an impulse log"),
    ("log", "bad.json", json.dumps({"impulses": EVENT}).encode(),
     "not an impulse log"),
    ("trace", "bad.json", b'{"trace": 5}', "not a trace file"),
    ("trace", "bad.json", b'{"trace": null}', "not a trace file"),
], ids=["invalid-json", "invalid-utf8", "no-impulses-key", "missing-field",
        "non-numeric-string", "trace-invalid-json", "log-invalid-utf8",
        "log-with-trace-header", "log-list", "log-rows-number",
        "log-rows-null", "log-rows-object", "trace-rows-number",
        "trace-rows-null"])
def test_unreadable_file_is_named(tmp_path, capsys, target, name, body,
                                  cause):
    """``compare`` and ``plotdata`` exit 2 and name the file they cannot
    read, whatever stops the reading."""
    bad, trace, log = (tmp_path / n for n in (name, "trace.json", "log.json"))
    bad.write_bytes(body)
    trace.write_text(json.dumps({"trace": [
        {"time": t, "signal": "y", "left": 0.0, "right": 0.0}
        for t in (0.0, 1.0)]}))
    log.write_text(json.dumps({"impulses": [EVENT]}))
    paths = {"trace": str(trace), "log": str(log), target: str(bad)}
    for argv in (["compare", paths["trace"], paths["trace"],
                  "--impulses-a", paths["log"]],
                 ["plotdata", "--trace", paths["trace"],
                  "--impulses", paths["log"],
                  "--out", str(tmp_path / "plot.json")]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}: {cause}\n"


@pytest.mark.parametrize("event, cause", [
    ({**EVENT, "time": 0.5},
     "impulse time 0.5 is not on the time grid after its first step"),
    ({**EVENT, "time": 0.0},
     "impulse time 0.0 is not on the time grid after its first step"),
    ({**EVENT, "signal": "q"}, "impulse on 'q', which the trace does not hold"),
    ({**EVENT, "signal": ["y"]}, "unhashable type: 'list'"),
], ids=["off-grid", "first-step", "unknown-signal", "list-signal"])
def test_log_that_does_not_fit_its_trace_is_named(tmp_path, capsys, event,
                                                  cause):
    """``compare`` and ``plotdata`` check each logged event against the
    trace the log is read with, and name the log."""
    log, outcomes = run_with_log(tmp_path, capsys, "json",
                                 json.dumps({"impulses": [event]}))
    for code, err in outcomes:
        assert code == 2
        assert err == f"error: {log}: {cause}\n"


class TestMalformedTraces:
    """A trace file is outside input too: a malformed row stops ``compare``
    with exit code 2 and an error naming the file and the row."""

    @pytest.mark.parametrize("rows, where, cause", [
        ("0,y,1,1\n0.1,y,2\n", "line 3",
         "not enough values to unpack (expected 4, got 3)"),
        ("0,y,1,1\n0.1,y,2,2,2\n", "line 3",
         "too many values to unpack (expected 4)"),
        ("0,y,1,1\n0.1,y,abc,2\n", "line 3",
         "could not convert string to float: 'abc'"),
        ("0,y,1,1\n0.1,y,2,abc\n", "line 3",
         "could not convert string to float: 'abc'"),
        ("0,y,1,1\n0,v,1,1\n0.2,y,2,2\n0.2,v,2,2\n0.1,y,3,3\n",
         "line 6", "time 0.1 does not follow 0.2"),
        # Read on, the second a would be dated to t = 1, where a is missing.
        ("0,a,1,1\n0,a,2,2\n0,b,3,3\n1,b,4,4\n", "line 3",
         "signal 'a' repeated at time 0.0"),
        ("0,a,1,1\n0,b,1,1\n1,b,2,2\n1.0,b,3,3\n1,a,2,2\n", "line 5",
         "signal 'b' repeated at time 1.0"),
    ], ids=["three-fields", "five-fields", "non-numeric-left",
            "non-numeric-right", "time-backwards", "repeated-signal",
            "repeated-under-another-time-text"])
    def test_csv_row(self, tmp_path, capsys, rows, where, cause):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{cli.TRACE_HEADER}\n{rows}")
        assert cli.main(["compare", str(bad), str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: malformed trace: {where}: {cause}\n")

    def test_json_row_with_a_missing_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"trace": [
            {"time": 0.0, "signal": "y", "left": 1.0, "right": 1.0},
            {"time": 0.1, "signal": "y", "left": 2.0}]}))
        assert cli.main(["compare", str(bad), str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: malformed trace: row 2: missing key 'right'\n")

    def test_json_row_repeating_a_signal_at_its_time(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"trace": [
            {"time": t, "signal": name, "left": x, "right": x}
            for t, name, x in [(0.0, "a", 1.0), (0.0, "a", 2.0),
                               (0.0, "b", 3.0), (1.0, "b", 4.0)]]}))
        assert cli.main(["compare", str(bad), str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: malformed trace: row 2: signal 'a' repeated at "
            f"time 0.0\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_of_a_step_read_in_any_signal_order(self, tmp_path, fmt):
        rows = [(0.0, "a", 1.0, 1.0), (0.0, "b", 2.0, 2.5),
                (1.0, "b", 3.0, 3.0), (1.0, "a", 4.0, 4.5),
                (2.0, "a", 5.0, 5.0), (2.0, "b", 6.0, 6.0)]
        path = tmp_path / f"shuffled.{fmt}"
        if fmt == "csv":
            path.write_text(cli.TRACE_HEADER + "\n" + "".join(
                f"{t},{name},{left},{right}\n" for t, name, left, right in rows))
        else:
            path.write_text(json.dumps({"trace": [dict(zip(
                cli.TRACE_HEADER.split(","), row)) for row in rows]}))
        trace = cli.read_trace(path)
        assert trace.times == [0.0, 1.0, 2.0]
        assert trace.signals == {"a": Stream([1.0, 4.0, 5.0], [1.0, 4.5, 5.0]),
                                 "b": Stream([2.0, 3.0, 6.0], [2.5, 3.0, 6.0])}

    @pytest.mark.parametrize("payload", [
        [], {"rows": []}, {"trace": 5}, {"trace": None}, {"trace": {"a": 1}}])
    def test_json_without_trace_rows(self, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: not a "
                                             f"trace file$"):
            cli.read_trace(bad)


class TestPlotData:
    def test_unreadable_input(self, tmp_path, capsys):
        trace, null_trace, null_log = write_null_fields(tmp_path)
        plot = str(tmp_path / "plot.json")
        assert cli.main(["plotdata", "--trace", str(null_trace),
                         "--out", plot]) == 2
        assert cli.main(["plotdata", "--trace", str(trace), "--impulses",
                         str(null_log), "--out", plot]) == 2
        errors = capsys.readouterr().err
        assert str(null_trace) in errors and str(null_log) in errors

    def test_write_into_missing_directory_exits_two(self, tmp_path, capsys):
        trace, _, _ = write_null_fields(tmp_path)
        code = cli.main(["plotdata", "--trace", str(trace), "--out",
                         str(tmp_path / "missing" / "p.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "missing" in captured.err

    def test_ball_segments_and_arrows(self, ball_path, tmp_path, capsys):
        _, out, imp = run_ball(ball_path, tmp_path)
        capsys.readouterr()
        plot = tmp_path / "plot.json"
        code = cli.main([
            "plotdata", "--trace", str(out), "--impulses", str(imp),
            "--out", str(plot),
        ])
        assert code == 0
        payload = json.loads(plot.read_text())["signals"]
        # The velocity jumps once: two polyline segments.  The position is
        # continuous: one segment.  The force carries the single arrow.
        assert len(payload["v"]["segments"]) == 2
        assert len(payload["y"]["segments"]) == 1
        assert len(payload["force"]["arrows"]) == 1
        arrow = payload["force"]["arrows"][0]
        assert arrow["order"] == 0

    def test_segment_count_matches_discontinuities(self, ball_path, tmp_path,
                                                   capsys):
        _, out, imp = run_ball(ball_path, tmp_path)
        capsys.readouterr()
        plot = tmp_path / "plot.json"
        cli.main(["plotdata", "--trace", str(out), "--impulses", str(imp),
                  "--out", str(plot)])
        trace = cli.read_trace(out, imp)
        payload = json.loads(plot.read_text())["signals"]
        for name, samples in trace.signals.items():
            jumps = sum(1 for s in samples if s.left != s.right)
            assert len(payload[name]["segments"]) == jumps + 1

    def test_empty_impulse_log_yields_no_arrows(self, ball_path, tmp_path,
                                                capsys):
        _, out, imp = run_ball(ball_path, tmp_path, mode="numerical")
        capsys.readouterr()
        plot = tmp_path / "plot.json"
        cli.main(["plotdata", "--trace", str(out), "--impulses", str(imp),
                  "--out", str(plot)])
        payload = json.loads(plot.read_text())["signals"]
        assert all(not entry["arrows"] for entry in payload.values())


class TestNumberFormat:
    def test_seventeen_significant_digits(self):
        value = 1.4278431229270645
        assert cli._fmt(value) == "1.4278431229270645"
        assert float(cli._fmt(value)) == value
        assert float(cli._fmt(1 / 3)) == 1 / 3
