"""Per-step operational semantics of the primitive blocks.

Each block kind has one :class:`KindInfo` entry in :data:`KINDS`: its
ports and parameters, and the two parts that define it, shared by the
symbolic and numerical modes:

* a phase-1 template, the source of an expression for the output's left
  limit from the inputs' left limits (integrators and delays replay the
  last committed step and ignore current inputs),
* a ``right`` kernel, which produces the right limit and the impulse
  vector from the full input samples.

The kernels work on the step's columns: within a step, ``lefts[i]``,
``rights[i]`` and ``vectors[i]`` are the left limit, right limit and
ImpulseVector of the block with node index ``i``.  A node exposes ``idx``,
``in_idx`` (its inputs' indices, in port order) and ``const`` (what its
kind's ``const`` computed from its parameters, None for a kind without).

No block keeps state: a block's memory is a value of a committed step.
Every kernel also reads ``past``, the newest ``HISTORY_DEPTH`` committed
steps as :class:`Committed` columns, oldest first, never empty when a
kernel runs (the engine commits t = 0 from the first-step templates
alone).  An Integrator accumulates onto the last step's right
limits, a Derivative differences against them, a Delay replays its
input's last sample, a Switch or Decision holds the sign its condition had
at the last commit, and a Multiplier estimates derivatives over every
step of ``past``.

A template is a ``str.format`` string over ``{x[j]}``, the name of input
``j``'s left limit in this step (``{x:SEP}`` joins them all by ``SEP``),
``{s[j]}``, input ``j``'s node index, ``{i}``, the block's own, and
``{k}``, the name bound to its ``const``.  Its expression reads ``L`` and
``R``, the last step's left and right limits (``R`` is also the held
condition column), ``dt``, ``slope`` (true from the third step on), ``Q``,
the right limits of the step before the last, ``dq``, the time between
the two, ``h2``, ``dt**2 / 2``, and this module's names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce  # noqa: F401  (read by wide Adders' template)
from math import prod  # noqa: F401  (read by wide Multipliers' template)
from operator import add  # noqa: F401  (read by wide Adders' template)
from typing import Callable, NamedTuple, Sequence

from .signals import (
    EMPTY_IMPULSES,
    ImpulseVector,
    add_vectors,
    extract_order_zero,
    impulses,
    leibniz_product,
    negate_vector,
    shift_orders_up,
)

DIV_TOLERANCE = 1e-300
# The newest committed steps the engine keeps, the longest history a
# Multiplier estimates derivatives from.
HISTORY_DEPTH = 4


class BlockError(ValueError):
    """Base class for per-block stepping errors."""


class BothInputsImpulsive(BlockError):
    """A product of two impulse-carrying signals is not defined."""


class InsufficientHistory(BlockError):
    """Not enough retained samples to estimate the required derivatives."""


class ImpulseOnInverter(BlockError):
    """The Inverter requires an impulse-free input."""


class DivisionNearZero(BlockError):
    """Inverter input magnitude at or below the division tolerance."""


class ImpulseOnCondition(BlockError):
    """Switch and Decision conditions must be impulse-free."""


class ImpulseAtSwitchingInstant(BlockError):
    """Decision branches may not carry impulses while the selection flips."""


class NonFiniteValue(BlockError):
    """A block produced an infinite or NaN limit."""


def heaviside(x: float) -> float:
    """Unit step, 1 for x >= 0."""
    return 1.0 if x >= 0.0 else 0.0


VARIADIC_MIN_INPUTS = 2
WIDE_ADDER = 100  # Adders, Multipliers this wide fold: a + b + … nests too deep
INTEGRATOR_ORDERS = (1, 2)


# --- the committed steps -------------------------------------------------

class Committed(NamedTuple):
    """One committed step: its time and its columns, indexed by node."""
    t: float
    lefts: Sequence[float]
    rights: Sequence[float]
    vectors: Sequence[ImpulseVector]


# --- derivative estimation for the Multiplier ----------------------------

def estimate_derivatives(times: Sequence[float], values: Sequence[float],
                         max_order: int) -> list[float]:
    """Backward estimates of value derivatives at the newest time.

    Uses Newton divided differences over the trailing samples, which reduce
    to plain backward finite differences on a uniform grid and stay correct
    across event-shortened steps.  One table over the newest
    ``max_order + 1`` samples serves every order: after level k its newest
    entry is the divided difference of the newest k + 1 samples.
    """
    if len(values) < max_order + 1:
        raise InsufficientHistory(
            f"need {max_order + 1} retained samples for derivative order "
            f"{max_order}, have {len(values)}"
        )
    ts = times[-(max_order + 1):]
    table = list(values[-(max_order + 1):])
    derivs = [table[-1]]
    for level in range(1, max_order + 1):
        for i in range(len(table) - 1, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (ts[i] - ts[i - level])
        derivs.append(table[-1] * math.factorial(level))
    return derivs


# --- right kernels and templates -------------------------------------------

def _constant_right(node, past, lefts, rights, vectors, t):
    return node.const, EMPTY_IMPULSES


def _adder_right(node, past, lefts, rights, vectors, t):
    right = rights[node.in_idx[0]]
    vector = vectors[node.in_idx[0]]
    for i in node.in_idx[1:]:
        right += rights[i]
        vector = add_vectors(vector, vectors[i])
    return right, vector


def _negator_right(node, past, lefts, rights, vectors, t):
    src = node.in_idx[0]
    return -rights[src], negate_vector(vectors[src])


def _multiplier_right(node, past, lefts, rights, vectors, t):
    """An impulse of order >= 1 expands against the derivatives of the
    other inputs' product, estimated from its values at the committed
    steps and at this step's left limits."""
    ins = node.in_idx
    right = math.prod(rights[i] for i in ins)
    impulsive = [j for j, i in enumerate(ins) if not vectors[i].is_empty]
    if not impulsive:
        return right, EMPTY_IMPULSES
    if len(impulsive) > 1:
        raise BothInputsImpulsive(
            "more than one multiplier input carries impulses"
        )
    j = impulsive[0]
    vector = vectors[ins[j]]
    order = vector.max_order
    # Smooth factor u = product of the other inputs, sampled at left limits.
    current = math.prod(lefts[i] for k, i in enumerate(ins) if k != j)
    if order == 0:
        return right, leibniz_product([current], vector)
    series = [
        math.prod(step.lefts[i] for k, i in enumerate(ins) if k != j)
        for step in past
    ] + [current]
    u_derivs = estimate_derivatives([step.t for step in past] + [t],
                                    series, order)
    return right, leibniz_product(u_derivs, vector)


def _too_small(value: float) -> DivisionNearZero:
    return DivisionNearZero(f"inverter input magnitude {value!r} too small")


def _inverter_right(node, past, lefts, rights, vectors, t):
    src = node.in_idx[0]
    if not vectors[src].is_empty:
        raise ImpulseOnInverter("cannot invert an impulse-carrying signal")
    value = rights[src]
    if abs(value) <= DIV_TOLERANCE:
        raise _too_small(value)
    return 1.0 / value, EMPTY_IMPULSES


def _integrator_template(node) -> str:
    """Order 1 adds the previous input's right limit times the step to the
    previous output's right limit; order 2 adds ``dt**2 / 2`` times the
    input's slope over the last committed step, the variable-step two-step
    Adams-Bashforth update.  The slope pairs the input's left limit with
    the right limit before it, so a jump inside a sample never enters it.
    The first step emits the initial condition and the second, having no
    slope yet, is explicit."""
    explicit = "R[{i}] + R[{s[0]}] * dt"
    if node.params.get("order", 1) != 2:
        return explicit
    return (f"{explicit} + h2 * ((L[{{s[0]}}] - Q[{{s[0]}}]) / dq) "
            f"if slope else {explicit}")


def _integrator_right(node, past, lefts, rights, vectors, t):
    """An order-0 impulse on the input becomes a jump carried by the right
    limit; higher orders shift down one order and pass through."""
    jump, rest = extract_order_zero(vectors[node.in_idx[0]])
    return lefts[node.idx] + jump, rest


def _derivative_right(node, past, lefts, rights, vectors, t):
    """Input impulses move up one order; an in-sample jump of the input
    emits an order-0 impulse with the jump as its coefficient."""
    src = node.in_idx[0]
    vector = shift_orders_up(vectors[src])
    if lefts[src] != rights[src]:
        vector = add_vectors(vector, impulses({0: rights[src] - lefts[src]}))
    return lefts[node.idx], vector


def _switch_right(node, past, lefts, rights, vectors, t):
    src = node.in_idx[0]
    if not vectors[src].is_empty:
        raise ImpulseOnCondition("switch condition must be impulse-free")
    return heaviside(rights[src]), EMPTY_IMPULSES


def _decision_right(node, past, lefts, rights, vectors, t):
    u, v, c = node.in_idx
    if not vectors[c].is_empty:
        raise ImpulseOnCondition("decision condition must be impulse-free")
    right_selects_u = rights[c] >= 0.0
    # The held selection: the condition's right limit at the last commit.
    left_selects_u = past[-1].rights[c] >= 0.0
    selected = u if right_selects_u else v
    if left_selects_u != right_selects_u:
        if not (vectors[u].is_empty and vectors[v].is_empty):
            raise ImpulseAtSwitchingInstant(
                "decision branches must be impulse-free while the selection flips"
            )
        return rights[selected], EMPTY_IMPULSES
    return rights[selected], vectors[selected]


def _delay_right(node, past, lefts, rights, vectors, t):
    last = past[-1]
    src = node.in_idx[0]
    return last.rights[src], last.vectors[src]


def _init(params: dict[str, float]) -> float:
    return params.get("init", 0.0)


# --- the per-kind table -------------------------------------------------------

@dataclass(frozen=True)
class KindInfo:
    inputs: tuple[str, ...]   # fixed port names; empty tuple + variadic for n-ary kinds
    # The phase-1 template after the first step, or a function of the
    # node that picks it (by the Integrator's order, a sum's or product's width).
    template: str | Callable[..., str]
    right: Callable
    variadic: bool = False
    params: tuple[str, ...] = ()
    # True when the block consumes its data input one step late, which
    # removes it from the current-step dependency graph; its template reads
    # only the committed steps.
    previous_input: bool = False
    # The first step's template, where it differs from ``template``.
    first: str | None = None
    # (condition template, error from the inputs' left limits), for a kind
    # whose phase 1 can fail.
    guard: tuple[str, Callable[..., BlockError]] | None = None
    # The node's constants from its parameters, computed once into
    # ``node.const``; set exactly for the kinds with parameters.
    const: Callable[[dict[str, float]], object] | None = None


KINDS: dict[str, KindInfo] = {
    "Constant": KindInfo((), "{k}", _constant_right, params=("value",),
                         const=lambda params: params["value"]),
    "Adder": KindInfo((), lambda node: "{x: + }" if len(node.in_idx) < WIDE_ADDER
                      else "reduce(add, ({x:, },))", _adder_right, variadic=True),
    "Negator": KindInfo(("in",), "-{x[0]}", _negator_right),
    "Multiplier": KindInfo((), lambda node: "{x: * }" if len(node.in_idx) < WIDE_ADDER
                           else "prod(({x:, },))", _multiplier_right, variadic=True),
    "Inverter": KindInfo(("in",), "1.0 / {x[0]}", _inverter_right,
                         guard=("abs({x[0]}) <= DIV_TOLERANCE", _too_small)),
    "Integrator": KindInfo(("in",), _integrator_template, _integrator_right,
                           params=("init", "order"), previous_input=True,
                           first="{k}", const=_init),
    # Backward difference against the previous right limit, which excludes
    # an in-sample jump; the first step emits the initial output.
    "Derivative": KindInfo(("in",), "({x[0]} - R[{s[0]}]) / dt",
                           _derivative_right, params=("init",), first="{k}",
                           const=_init),
    # The output stream is piecewise constant, so its left limit is the
    # held selection: the sign of the condition's right limit at the last
    # commit, and on the first step of its own left limit.
    "Switch": KindInfo(("c",), "1.0 if R[{s[0]}] >= 0.0 else 0.0",
                       _switch_right,
                       first="1.0 if {x[0]} >= 0.0 else 0.0"),
    # Forward ``u`` or ``v``, selected limit-wise by the held sign of ``c``.
    "Decision": KindInfo(("u", "v", "c"), "{x[0]} if R[{s[2]}] >= 0.0 else {x[1]}",
                         _decision_right,
                         first="{x[0]} if {x[2]} >= 0.0 else {x[1]}"),
    # Replay the previous input sample verbatim; the first output is the
    # initial parameter.
    "Delay": KindInfo(("in",), "L[{s[0]}]", _delay_right, params=("init",),
                      previous_input=True, first="{k}", const=_init),
}


def input_ports(kind: str, count: int) -> tuple[str, ...]:
    """Port names for an instance of ``kind`` with ``count`` inputs."""
    info = KINDS[kind]
    if info.variadic:
        return tuple(f"in{i + 1}" for i in range(count))
    return info.inputs
