"""A slow stepper that states the README's semantics as code.

``run`` does what ``engine.simulate`` does without its shortcuts: every trial
is a full phase 1, every commit sweeps every group until nothing changes, and
the trace is built and encoded numerically a column per watched signal.  It
reads the engine's tables and t = 0 step, patches nothing and needs no
pytest.  A list passed as ``steps`` receives every step it commits, t = 0
first.  ``bisect`` states the bisection of a step, for ``run`` and for the
tests that replay the engine's.
"""

import heapq
from array import array
from collections import deque

from cbdsim import blocks as bk, engine
from cbdsim.graph import flatten
from cbdsim.signals import EMPTY_IMPULSES


def run(model, top, config, steps=None):
    eng = engine.Engine(flat := flatten(model, top), config)
    watched = engine.resolve_watches(flat, config.watch)
    nodes, phase1, past = eng.nodes, eng.phase1, deque(eng.past, bk.HISTORY_DEPTH)
    conditions = [n.in_idx[-1] for n in nodes if n.kind in ("Switch", "Decision")]
    # The condition closure: back from the conditions to Integrators and Delays.
    stack, seen = conditions[:], set()
    steps = [] if steps is None else steps
    steps.append(past[-1])
    while stack:
        if (idx := stack.pop()) not in seen:
            seen.add(idx)
            if nodes[idx].kind not in ("Integrator", "Delay"):
                stack += nodes[idx].in_idx
    closure = {nodes[i].path for members, _ in eng.groups
               if seen.intersection(members) for i in members}

    def flipped(lefts):
        return [c for c in conditions
                if (lefts[c] >= 0.0) != (past[-1].rights[c] >= 0.0)]

    def trial(dt, stands=False):  # with stands, it fails unless a condition flips
        try:
            return phase1(past, dt)
        except engine.EngineError as err:  # each names its block first
            if str(err).split(": ")[0] in closure:
                raise
            if not flipped(lefts := phase1(past, dt, True)) and stands:
                raise
            return lefts

    def commit(t, lefts):
        rights, vectors = lefts[:], [EMPTY_IMPULSES] * len(nodes)
        for _ in range(len(nodes) + 2):
            changed = None
            for members, cyclic in eng.groups:
                if cyclic:
                    if bad := [i for i in members if any(
                            not vectors[d].is_empty for d in nodes[i].in_idx)]:
                        raise engine.ImpulseInLoop(
                            f"{nodes[bad[0]].path}: impulse entering an algebraic loop")
                    plan = eng.loop_plans[members]
                    solved = plan.solve(*(rights[d] for d in plan.inputs))
                    news = [(i, x, vectors[i]) for i, x in zip(members, solved)]
                else:
                    node = nodes[members[0]]
                    try:
                        news = [(node.idx, *node.right(node, past, lefts, rights,
                                                      vectors, t))]
                    except bk.BlockError as err:
                        raise engine.SimulationError(node.path, err) from err
                for i, right, vector in news:
                    if right != rights[i] or vector != vectors[i]:
                        engine._require_finite_right(nodes[i], right, vector)
                        rights[i], vectors[i], changed = right, vector, i
            if changed is None:
                break
        else:
            raise engine.UnstablePropagation(
                f"{nodes[changed].path}: impulse propagation failed to stabilise")
        if over := [i for i, v in enumerate(vectors) if v.max_order > engine.MAX_ORDER]:
            raise engine.MaxOrderExceeded(f"{nodes[over[0]].path}: impulse order "
                                          f"{vectors[over[0]].max_order} exceeds "
                                          f"the maximum {engine.MAX_ORDER}")
        past.append(bk.Committed(t, lefts, rights, vectors))
        steps.append(past[-1])

    t, underflows, located = 0.0, [], deque(maxlen=engine.ZENO_WINDOW)
    while t + config.h <= config.t_end + 1e-9 * config.h:
        h = config.h
        if flipped(lefts := trial(h, stands=True)):
            h, crossing = bisect(trial, flipped, h, lefts, config)
            lefts = phase1(past, h)
            if max(abs(lefts[c]) for c in flipped(lefts) or crossing) > config.zc_tol:
                underflows.append((len(steps), -1, f"step-underflow: tolerance "
                                   f"not met at t={t + h!r}"))
            located.append(t)
        else:
            located.clear()
        commit(t := t + h, lefts)
        if len(located) == located.maxlen and \
                t - located[0] <= located.maxlen * config.h_min * (1 + 1e-9):
            raise engine.ZenoSuspected(f"{located.maxlen} consecutive event-located "
                                       f"steps advanced only {t - located[0]!r}s")
    trace = engine.Trace([s.t for s in steps], {
        name: engine.Stream([s.lefts[i] for s in steps], [s.rights[i] for s in steps])
        for name, i in watched.items()}, [
        engine.ImpulseEvent(s.t, name, *item) for s in steps
        for name, i in watched.items() for item in s.vectors[i].items()])
    overflows = []
    if config.mode == engine.NUMERICAL:
        engine.fold_impulses(trace.times, trace.signals, trace.impulses)
        trace.impulses.clear()
        for position, (name, stream) in enumerate(trace.signals.items()):
            stream.left, stream.right = (array("d", [x + 0.0 for x in column])
                                         for column in (stream.left, stream.right))
            overflows += [(k, position, f"overflow-risk: |{name}| exceeds "
                           f"{engine.OVERFLOW_LIMIT:g} at t={trace.times[k]!r}")
                          for k, limits in enumerate(stream)
                          if any(abs(x) > engine.OVERFLOW_LIMIT for x in limits)]
        overflows.sort()
    trace.warnings = [w for *_, w in heapq.merge(underflows, overflows)]
    return trace


def bisect(trial, flipped, h, lefts, config):
    """Bisect the step of size ``h``, whose left limits are ``lefts``,
    onto the earliest crossing of the conditions that ``flipped(lefts)``
    names, with the left limits ``trial(dt)`` of each midpoint ``dt``.
    Returns the located size, at least ``h_min``, and the conditions
    flipped at the last step that flipped."""
    lo, crossing = 0.0, flipped(lefts)
    while max(abs(lefts[c]) for c in crossing) > config.zc_tol \
            and h - lo > config.h_min and lo < 0.5 * (lo + h) < h:
        if mid_crossing := flipped(mid_lefts := trial(mid := 0.5 * (lo + h))):
            h, lefts, crossing = mid, mid_lefts, mid_crossing
        else:
            lo = mid
    return max(h, config.h_min), crossing


def outcome(run_, *args):
    """``run_(*args)``, its signals in order by ``float.hex``, or None and its error."""
    try:
        trace = run_(*args)
    except engine.EngineError as err:
        return None, (type(err).__name__, getattr(err, "block_path", None), str(err))
    signals = [(n, [(a.hex(), b.hex()) for a, b in s]) for n, s in trace.signals.items()]
    impulses = [(e.time.hex(), *e[1:3], e.coefficient.hex()) for e in trace.impulses]
    return trace, ([t.hex() for t in trace.times], signals, impulses, trace.warnings)


def matches(model, top, config):
    """``simulate``'s trace (None if it failed) and outcome, ``run``'s too."""
    trace, fast = outcome(engine.simulate, model, top, config)
    assert outcome(run, model, top, config)[1] == fast, (top, config)
    return trace, fast
