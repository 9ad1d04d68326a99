"""Distribution-valued step samples and the impulse coefficient algebra.

At each committed step a signal has a left limit, a right limit and a
sparse :class:`ImpulseVector` of impulse coefficients indexed by derivative
order (order 0 is the plain impulse, order 1 its first derivative, and so
on).  The engine keeps them as columns indexed by node, one per quantity
(``blocks.Committed``); a :class:`StepSample` is one signal's three values
at one step.  A single vector serves both limits, so a jump in a signal
lives entirely in the left/right pair and never in the impulse part.

All operations here are pure; samples and vectors are immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence


class InsufficientDerivatives(ValueError):
    """A derivative sequence is too short for the impulse orders present."""


def _clean_coefficients(coeffs: Mapping[int, float]) -> dict[int, float]:
    """Validate orders and drop exact-zero coefficients."""
    cleaned: dict[int, float] = {}
    for order, value in coeffs.items():
        if isinstance(order, bool) or not isinstance(order, int) or order < 0:
            raise ValueError(
                f"impulse order must be a non-negative integer, got {order!r}"
            )
        value = float(value)
        if value != 0.0:
            cleaned[order] = value
    return cleaned


class ImpulseVector:
    """Sparse association from impulse derivative order to coefficient.

    Zero coefficients are removed eagerly, so ``is_empty`` doubles as the
    structural "carries no impulses" test that Switch, Decision and
    Inverter rely on.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, float] | None = None):
        self._coeffs: dict[int, float] = _clean_coefficients(coeffs or {})

    @property
    def is_empty(self) -> bool:
        return not self._coeffs

    @property
    def max_order(self) -> int:
        """Largest stored order; -1 when the vector is empty."""
        return max(self._coeffs) if self._coeffs else -1

    def coefficient(self, order: int) -> float:
        return self._coeffs.get(order, 0.0)

    def items(self) -> list[tuple[int, float]]:
        return sorted(self._coeffs.items())

    def to_dict(self) -> dict[int, float]:
        return dict(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ImpulseVector):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in self.items())
        return f"ImpulseVector({{{inner}}})"


EMPTY_IMPULSES = ImpulseVector()


def impulses(coeffs: Mapping[int, float] | None = None) -> ImpulseVector:
    """Convenience constructor that reuses the shared empty vector."""
    vector = ImpulseVector(coeffs)
    return EMPTY_IMPULSES if vector.is_empty else vector


@dataclass(frozen=True, slots=True)
class StepSample:
    """One signal observation at one committed time."""

    left: float
    right: float
    impulses: ImpulseVector = field(default=EMPTY_IMPULSES)


def sample(left: float, right: float | None = None,
           coeffs: Mapping[int, float] | None = None) -> StepSample:
    """Shorthand constructor; a single value means left == right."""
    if right is None:
        right = left
    return StepSample(float(left), float(right), impulses(coeffs))


def add_vectors(a: ImpulseVector, b: ImpulseVector) -> ImpulseVector:
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    total = a.to_dict()
    for order, value in b.items():
        total[order] = total.get(order, 0.0) + value
    return impulses(total)


def negate_vector(v: ImpulseVector) -> ImpulseVector:
    if v.is_empty:
        return v
    return impulses({order: -value for order, value in v.items()})


def add_samples(a: StepSample, b: StepSample) -> StepSample:
    """Componentwise sum; impulse coefficients add orderwise."""
    return StepSample(a.left + b.left, a.right + b.right,
                      add_vectors(a.impulses, b.impulses))


def negate_sample(a: StepSample) -> StepSample:
    return StepSample(-a.left, -a.right, negate_vector(a.impulses))


def shift_orders_up(v: ImpulseVector) -> ImpulseVector:
    """Differentiate the impulse part: order i moves to order i + 1."""
    if v.is_empty:
        return v
    return impulses({order + 1: value for order, value in v.items()})


def extract_order_zero(v: ImpulseVector) -> tuple[float, ImpulseVector]:
    """Integrate the impulse part.

    Returns the order-0 coefficient (the jump an integrator applies) and
    the remaining coefficients, each shifted down one order.
    """
    if v.is_empty:
        return 0.0, v
    jump = v.coefficient(0)
    rest = {order - 1: value for order, value in v.items() if order > 0}
    return jump, impulses(rest)


def leibniz_product(u_derivatives: Sequence[float], v: ImpulseVector) -> ImpulseVector:
    """Multiply an impulse vector by a smooth function.

    ``u_derivatives`` lists the function and its derivatives at the impulse
    time, ``[u, u', u'', ...]``.  A coefficient ``a`` at order ``i``
    contributes ``a * C(i, k) * u_derivatives[k] * (-1)**k`` at order
    ``i - k`` for every ``k`` up to ``i``; order 0 with ``k = 0`` is the
    plain sampling property.
    """
    if v.is_empty:
        return v
    top = v.max_order
    if len(u_derivatives) < top + 1:
        raise InsufficientDerivatives(
            f"need {top + 1} derivative values for impulse order {top}, "
            f"got {len(u_derivatives)}"
        )
    terms: dict[int, list[float]] = {}
    for order, a in v.items():
        for k in range(order + 1):
            term = a * math.comb(order, k) * u_derivatives[k] * (-1.0) ** k
            terms.setdefault(order - k, []).append(term)
    # Terms of one order can cancel, so they are summed exactly; fsum
    # refuses inf - inf and overflowing sums, which get the IEEE sum.
    try:
        sums = {o: math.fsum(ts) for o, ts in terms.items()}
    except (ValueError, OverflowError):
        sums = {o: sum(ts) for o, ts in terms.items()}
    return impulses(sums)
