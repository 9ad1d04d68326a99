"""Stepping loop, algebraic-loop solving, event location and trace capture.

Each kind's phase-1 template and ``right`` kernel in ``blocks.KINDS``
define what a block computes; this module decides when they run.  An
:class:`Engine` schedules its flat graph, keeps its newest committed steps
and builds every table a step reads once, when it is constructed, then
commits t = 0, a state: phase 1 alone, from the first-step templates, every
right limit its left limit and no impulses.  Each later step runs in two
phases over the schedule:

* phase 1 fixes every signal's left limit (integrators and delays replay
  the last committed step, everything else folds its inputs' left limits),
  in one function generated per phase-1 plan; a trial step is phase 1 only,
* the commit of the step that stands runs phase 2, which computes impulse
  vectors and right limits, sweeping the schedule until the values stop
  changing so that jumps produced by integrators late in the schedule still
  reach their consumers within the same step, then appends the step, at
  its time, to ``Engine.past``, the committed steps every kernel reads.

A step's values are three columns indexed by node, a ``blocks.Committed``:
``lefts``, written by phase 1, and ``rights`` and ``vectors``, created only
when phase 2 sweeps; on a step it skips, ``rights is lefts`` and
``vectors`` is one shared all-empty tuple.
Phase 1 runs as generated straight-line source: each block's template
filled in, in schedule order but the condition closure's first (below), a
solve call per algebraic loop, which replays the loop's elimination as
generated source too, then one sum screening every left limit.  Values are
bound by name, so a plan's source depends only on the diagram's structure,
a replay's only on the elimination's shape; code is cached by the source.

Jumps and impulses originate only at a Switch or Decision whose selection
flips and at a Delay replaying a jump or an impulse.  Phase 2 sweeps only
the cones of the sources that fire, each source with every block that
reads it within the step (an algebraic loop in a cone is swept whole);
every other block would reproduce its left limit.  A quiet step, where no
source fires, skips phase 2.  While no Delay fires, ``simulate`` hands the
generated phase 1 the recorder's buffers, and it loops over its one body,
committing and recording each step, until a condition flips, a guard or
the screen fails or the run ends; a quiet commit fires no Delay.  A
non-finite left limit, or a non-finite right limit set by phase 2, stops
the run with a ``SimulationError`` naming the block.

A condition sign change bisects the step.  A bisection trial stops phase 1
after the condition closure, the blocks the crossing test reads within a
step, so a discarded trial checks nothing outside it; given the bisection's
state, the generated phase 1 runs every trial of a bisection in its one
body, each with the unrolled flip test, and returns the located size.
Every located step ends with the full step's phase 1, ``compute_step(dt)``,
once, at the located size.  An ``EngineError`` in a full trial of size ``h``
stands unless the step's closure trial, ``compute_step(h, closure=True)``,
flips a condition, whose earlier event the bisection then locates.

Both execution modes share this evaluator and one recorder, which packs
each committed step's watched limits into rows, cut into per-signal
columns, a :class:`Stream` each, and logs one event per impulse coefficient,
``Trace.impulses``, the only impulse record.  That is the symbolic trace.
A numerical trace is a function of it: after the run,
:func:`fold_impulses` folds every coefficient into its signal's columns as
the finite-difference spikes it stands for (an order-n coefficient spreads
over n + 1 steps), and the run empties the log, makes ``-0.0`` limits ``0.0``
and screens for overflow.  ``compare_traces`` folds copies of the streams.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import linecache
import math
import operator
import struct
import weakref
from array import array
from bisect import bisect_left
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

from . import blocks as bk
from .blocks import BlockError
from .graph import FlatGraph, Model, ModelError, dependency_sort, flatten
from .signals import EMPTY_IMPULSES, ImpulseVector

SYMBOLIC = "symbolic"
NUMERICAL = "numerical"

SINGULAR_TOLERANCE = 1e-12
OVERFLOW_LIMIT = 1e300
_NEGATIVE_ZERO = array("d", [-0.0]).tobytes()
# A double whose high byte, sign masked, is below 0x7E has |x| < 2**993 < 1e300.
_HIGH_BYTE = _NEGATIVE_ZERO.index(0x80)
_BELOW_LIMIT = bytes(b for b in range(256) if b & 0x7F < 0x7E)
ZENO_WINDOW = 1000
ROW_BUFFER = 1 << 14  # the limits a recorder buffers per side between flushes
# The highest impulse order a step may carry before MaxOrderExceeded.
MAX_ORDER = 16


class EngineError(RuntimeError):
    pass


class NonlinearLoop(EngineError):
    pass


class SingularLoop(EngineError):
    pass


class ImpulseInLoop(EngineError):
    pass


class ZenoSuspected(EngineError):
    pass


class MaxOrderExceeded(EngineError):
    pass


class NonIncreasingTime(EngineError):
    """A commit time did not exceed the previous commit time."""


class UnstablePropagation(EngineError):
    """Phase 2 still changed a block, which the message names, in its last
    sweep."""


class SimulationError(EngineError):
    """A block error with the offending block path attached."""

    def __init__(self, block_path: str, cause: Exception):
        super().__init__(f"{block_path}: {cause}")
        self.block_path = block_path
        self.cause = cause


@dataclass(frozen=True)
class SimConfig:
    mode: str = "symbolic"
    h: float = 1e-3
    t_end: float = 1.0
    zc_tol: float = 1e-9
    h_min: float = 1e-12
    watch: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in (SYMBOLIC, NUMERICAL):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("h", "h_min", "t_end", "zc_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.h > 0.0 and 0.0 < self.h_min <= self.h):
            raise ValueError("need 0 < h_min <= h")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        if not self.zc_tol > 0.0:
            raise ValueError("zc_tol must be positive")


class ImpulseEvent(NamedTuple):
    time: float
    signal: str
    order: int
    coefficient: float


class Limits(NamedTuple):
    left: float
    right: float


class Stream:
    """One signal's recorded limits, stored as columns.

    ``left`` and ``right`` hold one limit per committed step; the signal's
    impulses are the trace's, in ``Trace.impulses``.  ``len`` counts the
    steps, iteration yields one :class:`Limits` per step and ``==``
    compares the columns.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: Iterable[float] = (), right: Iterable[float] = ()):
        self.left = array("d", left)
        self.right = array("d", right)

    def __len__(self) -> int:
        return len(self.left)

    def __iter__(self) -> Iterator[Limits]:
        return map(Limits, self.left, self.right)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Stream):
            return NotImplemented
        return self.left == other.left and self.right == other.right


@dataclass
class Trace:
    times: list[float] = field(default_factory=list)
    signals: dict[str, Stream] = field(default_factory=dict)
    impulses: list[ImpulseEvent] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def check_shape(self, prefix: str = "") -> None:
        """Raise ``ValueError(prefix + "ragged trace")`` unless every
        stream's left and right columns hold one limit per time."""
        if any(not len(s.left) == len(s.right) == len(self.times)
               for s in self.signals.values()):
            raise ValueError(prefix + "ragged trace")


# --- internal node table ---------------------------------------------------

@dataclass(slots=True)
class _Node:
    idx: int
    path: str
    kind: str
    params: dict[str, float]
    in_idx: tuple[int, ...]
    right: Callable = field(init=False, repr=False)
    # The kind's constants from ``params``, None for a kind without.
    const: object = field(init=False, repr=False)

    def __post_init__(self) -> None:
        info = bk.KINDS[self.kind]
        self.right = info.right
        self.const = info.const(self.params) if info.const else None


class _Cells(tuple):
    """A node's input cell names; formatted with a separator as its
    format spec (``{x: + }``), they join into ``a + b``."""

    def __format__(self, sep: str) -> str:
        return sep.join(self)


# A linecache name per compiled source, even for one source compiled twice.
_serial = itertools.count(1)


@functools.lru_cache(maxsize=16)
def _compile(source: str):
    """The code of a generated module, whose source ``linecache`` holds
    while the code lives, so a traceback through it shows its lines."""
    filename = f"<cbdsim generated code {next(_serial)}>"
    code = compile(source, filename, "exec")
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    weakref.finalize(code, linecache.cache.pop, filename, None)
    return code


def _generate(params: Iterable[str], signature: str, body: list[str]) -> Callable:
    """``bind(*params)`` of generated code: it binds ``params`` by name and
    returns the function ``signature`` whose lines are ``body``."""
    namespace: dict = {}
    exec(_compile("\n".join(
        [f"def bind({', '.join(params)}):", f"    def {signature}:"]
        + [f"        {line}" for line in body]
        + [f"    return {signature.partition('(')[0]}", ""])), vars(bk), namespace)
    return namespace["bind"]


def _phase1_function(nodes: Sequence[_Node],
                     groups: list[tuple[tuple[int, ...], bool]],
                     loop_plans: dict, first: bool, closure: Iterable = (),
                     conditions: Sequence[tuple[int, int]] = (),
                     watched: Iterable[int] = (), quiet: tuple = ()) -> Callable:
    """Phase 1 of ``groups``, every node's, in one function ``(past, dt)``
    that returns the left limits, indexed by node; ``first`` picks the first
    step's templates.  A block's guard, and then a screen of the left
    limits, raise a ``SimulationError`` naming the failing block.  The later
    steps' function, ``(past, dt, closure=False, run=None, locate=None)``,
    runs ``closure``'s groups first, and with ``closure`` returns after them
    (None outside them).

    With ``run``, a recorder's buffers ``(t_stop, times, left, right,
    pack, flush, row_buffer)``, the later steps' function repeats its one
    body.  It commits each step that changes no sign of the ``conditions``
    (block, condition input pairs) against ``R`` and ends after its start
    (``rights is lefts``, vectors ``quiet``) and records it (``pack`` of
    the ``watched`` limits, ``flush`` at ``row_buffer``), and returns None
    once the next step would end after ``t_stop``; any other step it
    returns uncommitted.  The caller must not pass ``run`` while a Delay
    fires.

    With ``closure`` and ``locate``, ``(lo, hi, mag, crossing, zc_tol,
    h_min)``, it runs the bisection of ``Engine.locate_crossing`` from its
    midpoint ``dt``: ``crossing`` are the conditions that flip at the step
    ``hi``, ``mag`` their largest magnitude.  After each closure trial it
    moves ``hi``, ``mag`` and ``crossing`` to the trial if a condition
    flips, else ``lo``, and runs the next midpoint in the same body; it
    returns ``(hi, crossing)`` once ``mag`` is within ``zc_tol``, ``hi -
    lo`` within ``h_min`` or no float lies between them."""

    def cells(in_idx):
        return _Cells(f"v{j}" for j in in_idx)

    def fail(idx, *values):
        cause = bk.KINDS[nodes[idx].kind].guard[1](*values)
        raise SimulationError(nodes[idx].path, cause) from cause

    def screen(lefts):
        for idx in order:
            if lefts[idx] is not None and not math.isfinite(lefts[idx]):
                raise SimulationError(nodes[idx].path, bk.NonFiniteValue(
                    f"left limit {lefts[idx]!r} is not finite"))

    def padded(computed):
        named = {i: f"v{i}" for i in computed}
        return f"[{', '.join(named.get(i, 'None') for i in range(len(nodes)))}]"

    def screened(total, lefts):
        # A sum of finite floats is finite unless it overflows, so one sum
        # screens the step and the scan runs only when the sum is not finite.
        return [f"if not math.isfinite(sum({total})):", f"    screen({lefts})"]

    # A bisection trial's flip test: the flipped pairs, their largest magnitude.
    trial = ["flips, m = [], 0.0"]
    for idx, c in conditions:
        trial += [f"if (v{c} >= 0.0) != (R[{c}] >= 0.0):",
                  f"    flips.append(({idx}, {c}))", f"    m = max(m, abs(v{c}))"]
    trial += ["if flips:", "    hi, mag, crossing = dt, m, flips",
              "else:", "    lo = dt", "dt = 0.5 * (lo + hi)",
              "if not (mag > zc_tol and hi - lo > h_min and lo < dt < hi):",
              "    return hi, crossing", "h2 = 0.5 * dt * dt", "continue"]
    bound = {"fail": fail, "screen": screen}
    body = []
    closure, order = set(closure), []
    for k, (members, cyclic) in enumerate(
            sorted(groups, key=lambda group: group not in closure)):
        if k == len(closure) and not first:
            closed = padded(order)
            body += ["if closure:"] + [f"    {line}" for line in screened(
                f"({''.join(f'v{i}, ' for i in order)})", closed)
                + ["if not locate:", f"    return {closed}"] + trial]
        order += members
        if cyclic:
            plan = loop_plans[members]
            bound[f"solve{members[0]}"] = plan.solve
            body.append(f"{''.join(f'v{m}, ' for m in members)}= "
                        f"solve{members[0]}({cells(plan.inputs):, })")
            continue
        node = nodes[members[0]]
        info = bk.KINDS[node.kind]
        template = (first and info.first) or info.template
        if callable(template):
            template = template(node)
        x = cells(node.in_idx)
        if node.const is not None:
            bound[f"k{node.idx}"] = node.const
        if info.guard:
            body += [f"if {info.guard[0].format(x=x)}:",
                     f"    fail({node.idx}, {x:, })"]
        body.append(f"v{node.idx} = " + template.format(
            x=x, s=node.in_idx, i=node.idx, k=f"k{node.idx}"))
    body += [f"lefts = {padded(order)}"] + screened("lefts", "lefts")
    if first:
        return _generate(bound, "first_step(past, dt)",
                         body + ["return lefts"])(*bound.values())
    bound["quiet"] = quiet
    bound["new"] = tuple.__new__  # a Committed without its Python __new__
    stop = " or ".join(["not run"] + [f"(v{c} >= 0.0) != (R[{c}] >= 0.0)"
                                      for _, c in conditions]
                       + ["not (t_new := t + dt) > t"])
    body += [f"if {stop}:", "    return lefts",
             "past.append(new(Committed, (t_new, lefts, lefts, quiet)))",
             "times.append(t_new)",
             f"left.frombytes(row := pack({''.join(f'v{i}, ' for i in watched)}))",
             "right.frombytes(row)",
             "if len(right) >= row_buffer:", "    flush()",
             "if t_new + dt > t_stop:", "    return None",
             # The names the prologue would bind from ``past`` now.
             "Q, L, R, dq, slope, t = R, lefts, lefts, t_new - t, True, t_new"]
    return _generate(bound, "later_steps(past, dt, closure=False, run=None, "
                     "locate=None)", [
        "P = past[-1]", "L, R = P.lefts, P.rights", "slope = len(past) > 1",
        "if slope:", "    Q, dq = past[-2].rights, P.t - past[-2].t",
        "h2 = 0.5 * dt * dt", "if run:",
        "    t, (t_stop, times, left, right, pack, flush, row_buffer) = P.t, run",
        "if locate:", "    lo, hi, mag, crossing, zc_tol, h_min = locate",
        "while True:"] + [f"    {line}" for line in body])(*bound.values())


def _reach(starts: Iterable[int], step: Callable[[int], Iterable[int]],
           ) -> set[int]:
    """``starts`` and every block reached from them along ``step``."""
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        for idx in step(frontier.pop()):
            if idx not in seen:
                seen.add(idx)
                frontier.append(idx)
    return seen


# --- linear loop solving ----------------------------------------------------

class _LoopPlan:
    """Solve plan of one linear algebraic loop ``A x = b``.

    Gauss-Jordan pivots and factors depend on ``A`` alone, which changes
    only with the Multipliers' outside factors.  The plan eliminates ``A``
    once per tuple of those factors into straight-line code that replays
    the operations on each ``b`` (row swaps as renamings), bit-identical to
    eliminating the augmented matrix.  It binds pivots and factors by name,
    so a refactor with the same pivot rows and eliminations re-binds them.
    """

    def __init__(self, nodes: list[_Node], members: Sequence[int]):
        self.path = nodes[members[0]].path
        position = {idx: j for j, idx in enumerate(members)}
        n = len(members)
        self.matrix = [[0.0] * n for _ in range(n)]
        # The outside inputs: ``solve``'s arguments and the replay's ``kJ``.
        self.inputs = sorted({d for i in members for d in nodes[i].in_idx} - {*position})
        self.signature = ", ".join(f"k{d}" for d in self.inputs)
        self.rhs: list[str] = []
        self.gains: list[tuple[int, int]] = []
        products = []  # each gain's factor, its outside inputs' product
        for row, idx in enumerate(members):
            node = nodes[idx]
            self.matrix[row][row] = 1.0
            cols = [position[d] for d in node.in_idx if d in position]
            outside = tuple(d for d in node.in_idx if d not in position)
            if node.kind in ("Adder", "Negator"):
                sign = 1.0 if node.kind == "Adder" else -1.0
                for col in cols:
                    self.matrix[row][col] -= sign
                # b[row] summed from 0.0 in input order, one statement a term.
                self.rhs += [f"b{row} = {f'b{row}' if k else '0.0'} + {sign} * k{d}"
                             for k, d in enumerate(outside)] or [f"b{row} = 0.0"]
            elif node.kind != "Multiplier":
                raise NonlinearLoop(
                    f"{node.path}: {node.kind} is not solvable inside an algebraic loop"
                )
            elif len(cols) != 1:
                raise NonlinearLoop(
                    f"{node.path}: multiplier with {len(cols)} in-loop inputs"
                )
            else:
                self.gains.append((row, cols[0]))
                # The Multiplier's template, ``math.prod``'s floats; 1 of none.
                products.append(bk.KINDS["Multiplier"].template(node).format(
                    x=_Cells(f"k{d}" for d in outside)) or "1")
                self.rhs.append(f"b{row} = 0.0")
        self.factors = self.body = None
        self.gain_factors = _generate((), f"factors({self.signature})",
                                      [f"return ({''.join(f'{p}, ' for p in products)})"])()

    def _factor(self, factors: tuple[float, ...]) -> None:
        a = [row[:] for row in self.matrix]
        for (row, col), factor in zip(self.gains, factors):
            a[row][col] -= factor
        n = len(a)
        b, body, values = [f"b{row}" for row in range(n)], self.rhs[:], {}
        for col in range(n):
            pivot_row = max(range(col, n), key=lambda r: abs(a[r][col]))
            if abs(a[pivot_row][col]) < SINGULAR_TOLERANCE:
                raise SingularLoop(f"{self.path}: algebraic loop system is singular")
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
            pivot = a[col][col]
            # No later step reads a column <= col, and an update reads only
            # its own column: the columns after col change alone.
            a[col][col + 1:] = tail = [value / pivot for value in a[col][col + 1:]]
            body.append(f"{b[col]} = {b[col]} / p{col}")
            values[f"p{col}"] = pivot
            for row in range(n):
                if row != col and a[row][col] != 0.0:
                    factor = a[row][col]
                    a[row][col + 1:] = [rv - factor * cv for rv, cv
                                        in zip(a[row][col + 1:], tail)]
                    body.append(f"{b[row]} = {b[row]} - f{col}_{row} * {b[col]}")
                    values[f"f{col}_{row}"] = factor
        body.append(f"return [{', '.join(b)}]")
        if body != self.body:
            self.body, self.bind = body, _generate(
                values, f"replay({self.signature})", body)
        self.factors, self.replay = factors, self.bind(*values.values())

    def solve(self, *values: float) -> list[float]:
        """Member values, in member order, given the values of ``inputs``."""
        factors = self.gain_factors(*values)
        if factors != self.factors:
            self._factor(factors)
        return self.replay(*values)


def _require_finite_right(node: _Node, right: float,
                          vector: ImpulseVector) -> None:
    if not math.isfinite(right):
        raise SimulationError(node.path, bk.NonFiniteValue(
            f"right limit {right!r} is not finite"
        ))
    for order, value in vector.items():
        if not math.isfinite(value):
            raise SimulationError(node.path, bk.NonFiniteValue(
                f"order-{order} impulse coefficient {value!r} is not finite"
            ))


class Engine:
    """Owns the node table and schedule of a flat graph and ``past``, its
    newest ``blocks.HISTORY_DEPTH`` committed steps, oldest first.

    Construction builds the tables the steps read: the node table and
    schedule groups, a solve plan per algebraic loop (``NonlinearLoop``
    for a loop that is not linear), the cone of every Switch, Decision and
    Delay, the condition closure, the watched signals (``resolve_watches``)
    and the phase-1 function of later steps, then commits t = 0 (module
    docstring).  A trial, ``compute_step``, is
    phase 1 and leaves ``past`` as is; ``commit`` runs phase 2 of the step
    that stands.
    """

    def __init__(self, flat: FlatGraph, config: SimConfig):
        self.config = config
        self.watched = resolve_watches(flat, config.watch)
        index_of = {path: i for i, path in enumerate(flat.blocks)}
        self.nodes = nodes = [
            _Node(i, path, block.kind, block.params, tuple(
                index_of[block.inputs[port]]
                for port in bk.input_ports(block.kind, len(block.inputs))))
            for i, (path, block) in enumerate(flat.blocks.items())
        ]
        self.groups: list[tuple[tuple[int, ...], bool]] = [
            (tuple(index_of[p] for p in g.members), g.cyclic)
            for g in dependency_sort(flat)
        ]
        self.past: deque[bk.Committed] = deque(maxlen=bk.HISTORY_DEPTH)
        self.loop_plans = {members: _LoopPlan(nodes, members)
                           for members, cyclic in self.groups if cyclic}
        # The Switches and Decisions, as (block, condition input) indices.
        self.conditions = [(n.idx, n.in_idx[-1]) for n in nodes
                           if n.kind in ("Switch", "Decision")]
        # The Delays, as (block, input) indices.
        self.delays = [(n.idx, n.in_idx[0]) for n in nodes if n.kind == "Delay"]
        group_of = {idx: g for g, (members, _) in enumerate(self.groups)
                    for idx in members}
        # Phase 2 reads every input's values of the current step, except at a
        # Delay, which replays the last committed step: a change spreads
        # along these edges.
        readers: list[list[int]] = [[] for _ in nodes]
        for n in nodes:
            for dep in () if n.kind == "Delay" else n.in_idx:
                readers[dep].append(n.idx)
        # Source block -> schedule positions of its cone: the groups of the
        # source and of every block that reads it within one step.
        self.cones = {
            idx: sorted({group_of[i] for i in _reach([idx], readers.__getitem__)})
            for idx, _ in self.conditions + self.delays
        }
        # The condition closure: the groups whose left limits the crossing
        # test reads.  The walk goes backwards from every condition input
        # and stops at the kinds that consume their input one step late
        # (Integrators and Delays), whose phase 1 reads only the committed
        # steps; the closure holds the groups of the blocks reached, loops
        # whole.
        inputs = [() if bk.KINDS[n.kind].previous_input else n.in_idx
                  for n in nodes]
        seen = _reach([cond for _, cond in self.conditions], inputs.__getitem__)
        self.closure = [self.groups[g]
                        for g in sorted({group_of[idx] for idx in seen})]
        plans = nodes, self.groups, self.loop_plans
        self.quiet_vectors = (EMPTY_IMPULSES,) * len(nodes)
        self.phase1 = _phase1_function(
            *plans, first=False, closure=self.closure,
            conditions=self.conditions,
            watched=self.watched.values(), quiet=self.quiet_vectors)
        self.firing: list[int] = []  # the Delays that fire at the next commit
        lefts = _phase1_function(*plans, first=True)(self.past, config.h)
        self.past.append(bk.Committed(0.0, lefts, lefts, self.quiet_vectors))

    # -- stepping ------------------------------------------------------------

    def compute_step(self, dt: float, closure: bool = False,
                     ) -> tuple[list[float], list[tuple[int, int]]]:
        """Phase 1 of a step of size ``dt`` after the engine's committed
        steps, of the condition closure alone with ``closure``: the left
        limits, None outside, and flipped conditions, for located full
        trials and, with ``closure``, failure retries (a quiet step and a
        bisection trial skip it)."""
        lefts = self.phase1(self.past, dt, closure)
        return lefts, self.flipped_conditions(lefts)

    def _phase2_loop(self, members: tuple[int, ...], rights: list[float],
                     vectors: list[ImpulseVector]) -> int | None:
        """Solve the loop ``members`` into ``rights``; returns the last
        member whose value changed, None if none did."""
        for idx in members:
            for dep in self.nodes[idx].in_idx:
                if not vectors[dep].is_empty:
                    raise ImpulseInLoop(
                        f"{self.nodes[idx].path}: impulse entering an algebraic loop"
                    )
        plan = self.loop_plans[members]
        solved = plan.solve(*map(rights.__getitem__, plan.inputs))
        changed = None
        for idx, value in zip(members, solved):
            if rights[idx] != value:
                _require_finite_right(self.nodes[idx], value, vectors[idx])
                rights[idx] = value
                changed = idx
        return changed

    def commit(self, t: float, lefts: list[float],
               flipped: list[tuple[int, int]]) -> bk.Committed:
        """Phase 2 of the step at time ``t`` whose phase 1 gave ``lefts``
        and ``flipped``; appends the step to ``past``, which drops its
        oldest step when full, and returns it.  ``t`` must follow the last
        commit.  Phase 2 sweeps the cones of the sources that fire, the
        flipped conditions and the ``firing`` Delays (module docstring)."""
        nodes, past = self.nodes, self.past
        if not t > past[-1].t:
            raise NonIncreasingTime(
                f"commit time {t!r} does not follow the previous commit "
                f"at {past[-1].t!r}"
            )
        if not (flipped or self.firing):
            past.append(bk.Committed(t, lefts, lefts, self.quiet_vectors))
            return past[-1]
        sources = [idx for idx, _ in flipped] + self.firing
        sweep = [self.groups[g] for g in
                 sorted(set().union(*map(self.cones.__getitem__, sources)))]

        rights = lefts[:]
        vectors = [EMPTY_IMPULSES] * len(nodes)
        limit = len(nodes) + 2
        for _ in range(limit):
            changed = None  # the last block the sweep changed
            for members, cyclic in sweep:
                if cyclic:
                    solved = self._phase2_loop(members, rights, vectors)
                    changed = changed if solved is None else solved
                    continue
                idx = members[0]
                node = nodes[idx]
                try:
                    right, vector = node.right(node, past, lefts, rights,
                                               vectors, t)
                except BlockError as err:
                    raise SimulationError(node.path, err) from err
                if right != rights[idx] or vector != vectors[idx]:
                    _require_finite_right(node, right, vector)
                    rights[idx] = right
                    vectors[idx] = vector
                    changed = idx
            if changed is None:
                break
        else:
            raise UnstablePropagation(f"{nodes[changed].path}: impulse "
                                      f"propagation failed to stabilise")

        # Blocks outside the sweep carry no impulses; the error names the
        # first offending block in node order.
        over = [idx for members, _ in sweep for idx in members
                if vectors[idx].max_order > MAX_ORDER]
        if over:
            idx = min(over)
            raise MaxOrderExceeded(
                f"{nodes[idx].path}: impulse order {vectors[idx].max_order} "
                f"exceeds the maximum {MAX_ORDER}"
            )
        self.firing = [idx for idx, src in self.delays
                       if lefts[src] != rights[src] or not vectors[src].is_empty]
        past.append(bk.Committed(t, lefts, rights, vectors))
        return past[-1]

    # -- event handling --------------------------------------------------------

    def flipped_conditions(self, lefts: list[float],
                           ) -> list[tuple[int, int]]:
        """The (block, condition input) pairs of the Switches and Decisions
        selecting, from the condition's left limit, otherwise than they hold.

        Comparing the left limit against the held selection means that
        jumps inside a committed sample (consequences of an event, not
        causes) do not re-trigger location.
        """
        flipped = []
        held = self.past[-1].rights
        for idx, cond in self.conditions:
            if (lefts[cond] >= 0.0) != (held[cond] >= 0.0):
                flipped.append((idx, cond))
        return flipped

    def locate_crossing(self, h: float, lefts: list[float],
                        flipped: list[tuple[int, int]],
                        ) -> tuple[float, list[float], list[tuple[int, int]], bool]:
        """Bisect the step of size ``h`` onto the earliest condition crossing.

        ``lefts`` and ``flipped`` are ``compute_step``'s result for the step
        ``h``, of its condition closure at least.  While the largest flipped
        magnitude exceeds ``zc_tol``, ``hi - lo`` exceeds ``h_min`` and a
        float lies strictly between them, a closure trial at the midpoint
        moves ``hi`` (and the magnitude and flipped conditions) to it if a
        condition flips, else ``lo``; the generated phase 1 runs these
        trials in one call (``_phase1_function``).  Then the full step's
        phase 1 runs once, at the located size, ``h`` included.  Returns the
        located step size, that step's left limits and flipped conditions,
        and whether the bisection bottomed out at ``h_min`` without reaching
        the value tolerance (the step is committed regardless).
        """
        cfg = self.config
        if not flipped:
            raise EngineError("locate_crossing called without a sign change")
        hi, crossing = h, flipped
        mag = max(abs(lefts[c]) for _, c in flipped)
        # The loop's test at lo = 0: 0 < h / 2 < h for any h > h_min > 0.
        if mag > cfg.zc_tol and h > cfg.h_min:
            hi, crossing = self.phase1(self.past, 0.5 * h, True, None, (
                0.0, h, mag, flipped, cfg.zc_tol, cfg.h_min))
        hi = max(hi, cfg.h_min)
        lefts, flipped = self.compute_step(hi)
        underflow = max(abs(lefts[c]) for _, c in flipped or crossing) \
            > cfg.zc_tol
        return hi, lefts, flipped, underflow


# --- trace recording --------------------------------------------------------

class _Recorder:
    """Records committed steps into a symbolic trace: per step its time, a
    packed row of watched left limits and one of right limits (the left row
    again where phase 2 skipped), and a swept step's impulse events."""

    def __init__(self, watched: dict[str, int]):
        self.trace = Trace(signals={name: Stream() for name in watched})
        indices = list(watched.values())
        # ``itemgetter`` returns a lone item bare: under two signals, a slice.
        self.take = operator.itemgetter(*indices) if len(indices) > 1 else \
            operator.itemgetter(slice(*indices, indices[0] + 1 if indices else 0))
        self.pack = struct.Struct(f"{len(indices)}d").pack
        self.left, self.right = array("d"), array("d")

    def record(self, step: bk.Committed) -> None:
        t, lefts, rights, vectors = step
        self.trace.times.append(t)
        self.left.frombytes(row := self.pack(*self.take(lefts)))
        if rights is not lefts:
            row = self.pack(*self.take(rights))
            for name, vector in zip(self.trace.signals, self.take(vectors)):
                if vector is not EMPTY_IMPULSES and not vector.is_empty:
                    self.trace.impulses += [ImpulseEvent(t, name, *item)
                                            for item in vector.items()]
        self.right.frombytes(row)
        if len(self.right) >= ROW_BUFFER:
            self.flush()

    def flush(self) -> Trace:
        """Cut the buffered rows into the watched columns; returns the trace."""
        width = len(self.trace.signals)
        for k, stream in enumerate(self.trace.signals.values()):
            stream.left += self.left[k::width]
            stream.right += self.right[k::width]
        del self.left[:], self.right[:]
        return self.trace


def impulse_steps(times: list[float], signals: dict[str, Stream],
                  log: list[ImpulseEvent]) -> list[int]:
    """The step of ``times`` at which each event of ``log`` sits.  An event
    off the time grid, at step 0 (which has no step length) or on a signal
    missing from ``signals`` is a ``ValueError``; the events are checked
    by step, then as tuples."""
    steps = [bisect_left(times, e.time) for e in log]  # times increase
    for step, (t, name, _, _) in sorted(zip(steps, log)):
        if not 0 < step < len(times) or times[step] != t:
            raise ValueError(f"impulse time {t!r} is not on the time grid "
                             f"after its first step")
        if name not in signals:
            raise ValueError(f"impulse on {name!r}, which the trace does "
                             f"not hold")
    return steps


def fold_impulses(times: list[float], signals: dict[str, Stream],
                  log: list[ImpulseEvent]) -> list[tuple[int, float]]:
    """Fold ``log`` into the columns of ``signals``, in place, as spikes;
    returns each event's step and the spike due there.

    An event (order n, coefficient a) at a step of length ``dt`` is due as
    ``a (-1)**m C(n, m) / dt**(n + 1)`` m = 0 .. n steps on, on both
    limits.  An event that ``impulse_steps`` refuses is a ``ValueError``.
    """
    steps = impulse_steps(times, signals, log)
    # The terms due at each (signal, step), in the order they are summed:
    # by the step, then the order, of the event each comes from.
    terms: dict[tuple[str, int], list[float]] = {}
    for step, (t, name, order, coefficient) in sorted(zip(steps, log)):
        scale = (t - times[step - 1]) ** (order + 1)
        for m in range(order + 1):
            terms.setdefault((name, step + m), []).append(
                coefficient * (-1.0) ** m * math.comb(order, m) / scale)
    # Summed in order from 0.0: ``sum`` compensates since Python 3.12.
    due = {key: functools.reduce(operator.add, amounts, 0.0)
           for key, amounts in terms.items()}
    for (name, step), spike in due.items():
        if step < len(times):
            signals[name].left[step] += spike
            signals[name].right[step] += spike
    return [(step, due[e.signal, step]) for e, step in zip(log, steps)]


def _encode_numerically(trace: Trace) -> list[tuple[int, int, str]]:
    """Make a symbolic ``trace`` numerical, in place, one column at a time:
    fold and empty its log and make every ``-0.0`` limit ``0.0``.  Returns
    an ``overflow-risk`` warning for each step and signal with a limit
    beyond ``OVERFLOW_LIMIT``, as (step, signal position, message)."""
    fold_impulses(trace.times, trace.signals, trace.impulses)
    trace.impulses.clear()
    flagged = []
    for position, (name, stream) in enumerate(trace.signals.items()):
        for column in stream.left, stream.right:
            # x + 0.0 changes only a -0.0, whose high byte is 0x80; the byte
            # search may also match across two floats, which costs one
            # needless pass.
            data = column.tobytes()
            if 0x80 in data[_HIGH_BYTE::8] and _NEGATIVE_ZERO in data:
                column[:] = array("d", [x + 0.0 for x in column])
        # The per-step scan runs only if some high byte allows |x| > the limit.
        if any(c.tobytes()[_HIGH_BYTE::8].translate(None, _BELOW_LIMIT)
               for c in (stream.left, stream.right)):
            flagged += ((k, position, f"overflow-risk: |{name}| exceeds "
                         f"{OVERFLOW_LIMIT:g} at t={trace.times[k]!r}")
                        for k, (a, b) in enumerate(stream)
                        if abs(a) > OVERFLOW_LIMIT or abs(b) > OVERFLOW_LIMIT)
    return sorted(flagged)


def resolve_watches(flat: FlatGraph, watch: Sequence[str]) -> dict[str, int]:
    """Map requested signal names to node indices.

    Top-level output port names and flattened block paths are both
    accepted; an empty request watches all top-level output ports.
    """
    index_of = {path: i for i, path in enumerate(flat.blocks)}
    if not watch:
        return {name: index_of[path] for name, path in flat.outputs.items()}
    resolved = {}
    for name in watch:
        if name in flat.outputs:
            resolved[name] = index_of[flat.outputs[name]]
        elif name in index_of:
            resolved[name] = index_of[name]
        else:
            raise ModelError(f"unknown watched signal {name!r}")
    return resolved


def simulate(model: Model, top: str, config: SimConfig) -> Trace:
    """Flatten, schedule and run the model until the end time.

    The first committed step is the initial instant t = 0; thereafter the
    loop takes nominal steps of size ``h``, shortened by bisection whenever
    a Switch or Decision condition changes sign, so that committed steps
    land on crossing times within the configured tolerance.  While no
    Delay fires, phase 1 runs with the recorder's buffers and commits and
    records the quiet steps itself (``_phase1_function``), up to the first
    step that is not quiet, which it returns uncommitted; that step and a
    failed phase 1 go through ``compute_step``, ``locate_crossing`` and
    ``commit``, from the time of the last committed step.  A numerical run
    then folds its log into its streams (:func:`_encode_numerically`).
    """
    flat = flatten(model, top)
    engine = Engine(flat, config)
    recorder = _Recorder(engine.watched)

    t = 0.0
    recorder.record(engine.past[-1])
    h, phase1, past = config.h, engine.phase1, engine.past

    underflows = []  # (step, -1, message), ahead of the step's overflows
    # Start times of the latest consecutive event-located steps.
    located_starts: deque[float] = deque(maxlen=ZENO_WINDOW)
    end_slack = config.t_end + 1e-9 * h
    times = recorder.trace.times
    run = (end_slack, times, recorder.left, recorder.right, recorder.pack,
           recorder.flush, ROW_BUFFER)
    while t + h <= end_slack:
        try:
            # A quiet commit leaves ``firing`` empty: only a swept one sets it.
            lefts = phase1(past, h, False, None if engine.firing else run)
        except EngineError:
            # As in bisection, a block outside the closure fails only a full
            # step; a located step's own full trial raises again at h.
            lefts, flipped = engine.compute_step(h, closure=True)
            if not flipped:
                raise
        else:
            if lefts is None:  # quiet up to the end
                break
            flipped = engine.flipped_conditions(lefts)
        if past[-1].t != t:  # phase 1 committed quiet steps
            t = past[-1].t
            located_starts.clear()
        if flipped:
            h_star, lefts, flipped, underflow = engine.locate_crossing(h, lefts, flipped)
            if underflow:
                underflows.append((len(times), -1,
                                   f"step-underflow: tolerance not met at "
                                   f"t={t + h_star!r}"))
            located_starts.append(t)
        else:
            h_star = h
            located_starts.clear()
        t_new = t + h_star
        recorder.record(engine.commit(t_new, lefts, flipped))
        if len(located_starts) == ZENO_WINDOW and (t_new - located_starts[0]) \
                <= ZENO_WINDOW * config.h_min * (1 + 1e-9):
            raise ZenoSuspected(
                f"{ZENO_WINDOW} consecutive event-located steps "
                f"advanced only {t_new - located_starts[0]!r}s"
            )
        t = t_new
    trace = recorder.flush()
    overflows = _encode_numerically(trace) if config.mode == NUMERICAL else []
    trace.warnings = [w for *_, w in heapq.merge(underflows, overflows)]
    return trace
