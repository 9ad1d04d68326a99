"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; nothing defers to later calibration.  The
bouncing-ball contact-time bound in criterion 1 (1e-6 s at h = 1e-3) is
met because the bundled ball integrates with the second-order Integrator;
an explicit first-order one would cross the floor about h/2 after the
closed-form root.
"""

import json
import math
import random
import time

import pytest

from cbdsim import cli, dsl
from cbdsim.analysis import (
    analytic_bouncing_ball,
    finite_difference_table,
    max_magnitude,
)
from cbdsim.engine import SimConfig, simulate
from cbdsim.signals import (
    add_samples,
    extract_order_zero,
    impulses,
    leibniz_product,
    negate_sample,
    sample,
    shift_orders_up,
)

G = 9.81
H = 1e-3


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")


@pytest.fixture(scope="module")
def ball_runs(ball_model):
    runs = {}
    for mode in ("symbolic", "numerical"):
        start = time.perf_counter()
        runs[mode] = simulate(ball_model, "Main",
                              SimConfig(mode=mode, h=H, t_end=2.0,
                                        zc_tol=1e-9, h_min=1e-12))
        runs[f"{mode}_runtime"] = time.perf_counter() - start
    return runs


def test_criterion_1_bouncing_ball_vs_closed_form(ball_runs):
    trace = ball_runs["symbolic"]
    runtime = ball_runs["symbolic_runtime"]
    t_closed = math.sqrt(2.0 * 10.0 / G)
    _, _, bounces = analytic_bouncing_ball(10.0, 0.0, G, 2.0)
    assert bounces[0] == pytest.approx(t_closed, rel=1e-12)

    assert len(trace.impulses) >= 1
    event = trace.impulses[0]
    index = trace.times.index(event.time)
    v_left = trace.signals["v"].left[index]
    v_right = trace.signals["v"].right[index]

    time_ok = abs(event.time - t_closed) <= 1e-6
    momentum_ok = abs(v_right + v_left) <= 1e-9 * abs(v_left)
    log_ok = (
        len(trace.impulses) == 1
        and event.order == 0
        and abs(event.coefficient - (-2.0 * v_left))
        <= 1e-9 * abs(2.0 * v_left)
    )
    runtime_ok = runtime < 1.0

    detail = (
        f"contact time |{event.time:.7f} - {t_closed:.7f}| = "
        f"{abs(event.time - t_closed):.3e} vs 1e-6 -> "
        f"{'ok' if time_ok else 'FAIL'}; "
        f"momentum |v_r + v_l|/|v_l| = "
        f"{abs(v_right + v_left) / abs(v_left):.1e} -> "
        f"{'ok' if momentum_ok else 'FAIL'}; "
        f"impulse log (1 event, order 0, -2 v_l) -> "
        f"{'ok' if log_ok else 'FAIL'}; "
        f"runtime {runtime:.2f}s -> {'ok' if runtime_ok else 'FAIL'}"
    )
    ok = time_ok and momentum_ok and log_ok and runtime_ok
    _report(1, ok, detail)
    assert momentum_ok and log_ok and runtime_ok, detail
    assert time_ok, (
        "located contact misses the closed-form root; check that the "
        "ball's integrators use order 2; " + detail
    )


def test_criterion_2_symbolic_equals_numerical(ball_path, ball_runs,
                                               tmp_path, capsys):
    start = time.perf_counter()
    files = {}
    for mode in ("symbolic", "numerical"):
        out = tmp_path / f"{mode}.csv"
        imp = tmp_path / f"{mode}_imp.csv"
        code = cli.main([
            "run", str(ball_path), "--top", "Main", "--mode", mode,
            "--step", str(H), "--end", "2", "--zc-tol", "1e-9",
            "--min-step", "1e-12", "--out", str(out), "--impulses", str(imp),
        ])
        assert code == 0
        files[mode] = (out, imp)
    capsys.readouterr()
    code = cli.main([
        "compare", str(files["symbolic"][0]), str(files["numerical"][0]),
        "--rel-tol", "1e-12", "--impulses-a", str(files["symbolic"][1]),
    ])
    report = json.loads(capsys.readouterr().out)
    runtime = time.perf_counter() - start

    compare_ok = code == 0 and report["ok"]
    symbolic = ball_runs["symbolic"]
    numerical = ball_runs["numerical"]
    event = symbolic.impulses[0]
    index = symbolic.times.index(event.time)
    h_star = symbolic.times[index] - symbolic.times[index - 1]
    spike = numerical.signals["force"].left[index]
    spike_ok = (
        abs(spike - event.coefficient / h_star)
        <= 1e-9 * abs(event.coefficient / h_star)
    )
    runtime_ok = runtime < 2.0
    ok = compare_ok and spike_ok and runtime_ok
    _report(2, ok, (
        f"cmd_compare exit {code}, ok={report['ok']} at 1e-12; spike "
        f"{spike:.6e} vs coefficient/h* {event.coefficient / h_star:.6e}; "
        f"runtime {runtime:.2f}s"
    ))
    assert ok


def test_criterion_3_difference_table_reproduction():
    start = time.perf_counter()
    ok = True
    worst = ""
    for n in range(1, 7):
        for h in (1.0, 0.1, 0.01):
            table = finite_difference_table(n, h)
            for m in table.offsets:
                expected = 0.0
                if 0 <= m <= n - 1:
                    expected = (-1.0) ** m * math.comb(n - 1, m) / h ** n
                got = table.value(m, n)
                if h == 1.0:
                    good = got == expected
                else:
                    scale = max(abs(expected), abs(got), 1.0)
                    good = abs(got - expected) <= 1e-9 * scale
                if not good:
                    ok = False
                    worst = f"n={n} h={h} m={m}: {got} vs {expected}"
            # Support spans exactly n steps, preceded by a zero row.
            nonzero = [m for m in table.offsets if table.value(m, n) != 0.0]
            if nonzero != list(range(0, n)):
                ok = False
                worst = f"n={n} h={h}: support {nonzero}"
    runtime = time.perf_counter() - start
    runtime_ok = runtime < 0.1
    _report(3, ok and runtime_ok,
            f"orders 1..6, h in {{1, 0.1, 0.01}}; runtime {runtime * 1e3:.1f}ms"
            + (f"; first failure {worst}" if worst else ""))
    assert ok and runtime_ok


def test_criterion_4_derivative_chain_delay(chain_model):
    symbolic = simulate(chain_model, "Chain",
                        SimConfig(mode="symbolic", h=0.125, t_end=1.0,
                                  watch=("d1", "d2", "d3", "d4")))
    numerical = simulate(chain_model, "Chain",
                         SimConfig(mode="numerical", h=0.125, t_end=1.0,
                                   watch=("d1", "d2", "d3", "d4")))
    tau = 0.5
    h = 0.125
    ok = True
    details = []
    for k in range(1, 5):
        name = f"d{k}"
        events = [e for e in symbolic.impulses if e.signal == name]
        single = (len(events) == 1 and events[0].order == k - 1
                  and events[0].time == tau)
        index = numerical.times.index(tau)
        stream = numerical.signals[name]
        support = [
            i - index for i, s in enumerate(stream)
            if s.left != 0.0 or s.right != 0.0
        ]
        structural = support == list(range(0, k))
        ok = ok and single and structural
        details.append(f"{name}: impulse order {k - 1} at {tau} -> "
                       f"{'ok' if single else 'FAIL'}, numerical support "
                       f"{support} -> {'ok' if structural else 'FAIL'}")
    _report(4, ok, "; ".join(details))
    assert ok


def test_criterion_5_product_rule_example():
    u_derivatives = [-G * 1.44, -G, 0.0]
    out = leibniz_product(u_derivatives, impulses({2: 20.0}))
    expected = {2: -282.528, 1: 392.4}
    ok = (
        set(dict(out.items())) == {1, 2}
        and abs(out.coefficient(2) - expected[2]) <= 1e-12 * abs(expected[2])
        and abs(out.coefficient(1) - expected[1]) <= 1e-12 * abs(expected[1])
    )
    _report(5, ok, f"coefficients {dict(out.items())} vs {expected}")
    assert ok


def test_criterion_6_impulse_integrates_to_unit_step(chain_model):
    trace = simulate(chain_model, "Chain",
                     SimConfig(mode="symbolic", h=0.125, t_end=1.0,
                               watch=("held",)))
    index = trace.times.index(0.5)
    stream = trace.signals["held"]
    before_ok = all(x == 0.0 for x in stream.left[:index]
                    + stream.right[:index])
    at_ok = stream.left[index] == 0.0 and stream.right[index] == 1.0
    after_ok = all(x == 1.0 for x in stream.left[index + 1:]
                   + stream.right[index + 1:])
    ok = before_ok and at_ok and after_ok
    _report(6, ok, (
        f"before all zero: {before_ok}; at impulse (0, 1): {at_ok}; "
        f"after all one: {after_ok}"
    ))
    assert ok


def _random_vector(rng, max_order=4):
    coeffs = {}
    for order in rng.sample(range(max_order + 1), rng.randint(0, max_order)):
        coeffs[order] = rng.uniform(-100.0, 100.0)
    return impulses(coeffs)


def _random_sample(rng):
    return sample(rng.uniform(-100, 100), rng.uniform(-100, 100),
                  _random_vector(rng).to_dict())


def test_criterion_7_property_suites(ball_path, tmp_path, capsys):
    rng = random.Random(0x5EED)
    algebra_ok = True
    for _ in range(1000):
        a, b = _random_sample(rng), _random_sample(rng)
        algebra_ok &= add_samples(a, b) == add_samples(b, a)
        algebra_ok &= negate_sample(negate_sample(a)) == a
        v = _random_vector(rng)
        algebra_ok &= extract_order_zero(shift_orders_up(v)) == (0.0, v)

    # Multiplier impulse path against a termwise expansion with
    # independently computed backward-difference derivative estimates.
    product_ok = True
    for _ in range(1000):
        order = rng.randint(0, 3)
        coeffs = {order: rng.uniform(-50, 50)}
        for extra in range(order):
            if rng.random() < 0.5:
                coeffs[extra] = rng.uniform(-50, 50)
        vector = impulses(coeffs)
        u_derivs = [rng.uniform(-10, 10) for _ in range(order + 1)]
        got = leibniz_product(u_derivs, vector)
        expected: dict[int, float] = {}
        for i, a in vector.items():
            for k in range(i + 1):
                term = a * math.comb(i, k) * u_derivs[k] * (-1.0) ** k
                expected[i - k] = expected.get(i - k, 0.0) + term
        for target in set(expected) | {o for o, _ in got.items()}:
            x, y = got.coefficient(target), expected.get(target, 0.0)
            scale = max(abs(x), abs(y), 1.0)
            product_ok &= abs(x - y) <= 1e-12 * scale

    fuzz_ok = True
    for _ in range(10_000):
        length = rng.randrange(0, 50)
        text = bytes(rng.randrange(0, 256) for _ in range(length))
        try:
            dsl.parse(text.decode("latin-1"))
        except Exception:
            fuzz_ok = False
            break

    determinism_ok = True
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"det_{tag}.csv"
        imp = tmp_path / f"det_{tag}_imp.csv"
        cli.main([
            "run", str(ball_path), "--top", "Main", "--step", str(H),
            "--end", "2", "--out", str(out), "--impulses", str(imp),
        ])
        outs.append((out.read_bytes(), imp.read_bytes()))
    capsys.readouterr()
    determinism_ok = outs[0] == outs[1]

    ok = algebra_ok and product_ok and fuzz_ok and determinism_ok
    _report(7, ok, (
        f"algebra laws (1000 cases): {algebra_ok}; product vs termwise "
        f"oracle (1000 cases, orders <= 3, 1e-12): {product_ok}; parser "
        f"fuzz (10^4 byte strings): {fuzz_ok}; byte-identical reruns: "
        f"{determinism_ok}"
    ))
    assert ok


def test_criterion_8_magnitude_equals_table_scan():
    def oracle(n, h, amplitude):
        # Independent cascade: build the columns with explicit loops.
        rows = n + 2
        step = [0.0] + [1.0] * (rows - 1)
        column = step
        for _ in range(n):
            nxt = []
            for i in range(rows):
                prev = column[i - 1] if i > 0 else 0.0
                nxt.append((column[i] - prev) / h)
            column = nxt
        return amplitude * max(abs(v) for v in column)

    ok = True
    worst = ""
    for n in range(1, 13):
        for h in (1.0, 0.5, 0.1):
            for amplitude in (1.0, 2.5):
                got = max_magnitude(n, h, amplitude).value
                want = oracle(n, h, amplitude)
                if got != want:
                    ok = False
                    worst = f"n={n} h={h} D={amplitude}: {got} vs {want}"
    _report(8, ok, "n <= 12, h in {1, 0.5, 0.1}, D in {1, 2.5}"
            + (f"; first failure {worst}" if worst else ""))
    assert ok
