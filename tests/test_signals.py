import math

import pytest
from hypothesis import example, given, strategies as st

from cbdsim.signals import (
    EMPTY_IMPULSES,
    ImpulseVector,
    InsufficientDerivatives,
    StepSample,
    add_samples,
    extract_order_zero,
    impulses,
    leibniz_product,
    negate_sample,
    sample,
    shift_orders_up,
)

G = 9.81


def vec(d):
    return ImpulseVector(d)


class TestImpulseVector:
    def test_zero_coefficients_dropped(self):
        assert vec({0: 0.0, 1: 2.0}) == vec({1: 2.0})
        assert vec({0: 0.0}).is_empty

    def test_orders_validated(self):
        with pytest.raises(ValueError):
            vec({-1: 1.0})
        with pytest.raises(ValueError):
            vec({0.5: 1.0})

    def test_max_order(self):
        assert vec({}).max_order == -1
        assert vec({0: 1, 3: 2}).max_order == 3


class TestAddSamples:
    def test_additive_identity_on_impulse_part(self):
        out = add_samples(sample(1, 1), sample(2, 2, {0: 3}))
        assert out == sample(3, 3, {0: 3})

    def test_cancellation_yields_empty_vector(self):
        out = add_samples(sample(0, 0, {0: 3}), sample(0, 0, {0: -3}))
        assert out == sample(0, 0)
        assert out.impulses.is_empty

    def test_orderwise_addition(self):
        out = add_samples(sample(1, 2, {1: 5}), sample(4, 8, {0: 2, 1: -1}))
        assert out == sample(5, 10, {0: 2, 1: 4})


class TestNegateSample:
    def test_zero_fixed_point(self):
        assert negate_sample(sample(0, 0)) == sample(0, 0)

    def test_componentwise(self):
        assert negate_sample(sample(1, -2, {0: 3})) == sample(-1, 2, {0: -3})


class TestShiftOrdersUp:
    def test_empty(self):
        assert shift_orders_up(EMPTY_IMPULSES).is_empty

    def test_single(self):
        assert shift_orders_up(vec({0: 2.5})) == vec({1: 2.5})

    def test_per_order(self):
        assert shift_orders_up(vec({0: 1, 2: -4})) == vec({1: 1, 3: -4})


class TestExtractOrderZero:
    def test_empty(self):
        jump, rest = extract_order_zero(EMPTY_IMPULSES)
        assert jump == 0.0 and rest.is_empty

    def test_contact_jump(self):
        # Velocity change of an elastic bounce from 10m: 2 * sqrt(2 * g * 10).
        coefficient = 2.0 * math.sqrt(2.0 * G * 10.0)
        jump, rest = extract_order_zero(vec({0: coefficient}))
        assert jump == coefficient and rest.is_empty

    def test_order_decrement(self):
        jump, rest = extract_order_zero(vec({0: 1, 2: 20}))
        assert jump == 1.0
        assert rest == vec({1: 20})


class TestLeibnizProduct:
    def test_sampling_property(self):
        assert leibniz_product([7.0], vec({0: 3.0})) == vec({0: 21.0})

    def test_linear_factor_order_two(self):
        # u(t) = -g t at tau = 1.44 against a single order-2 coefficient 20.
        u = [-G * 1.44, -G, 0.0]
        out = leibniz_product(u, vec({2: 20.0}))
        assert out.coefficient(2) == pytest.approx(-28.8 * G, rel=1e-12)
        assert out.coefficient(1) == pytest.approx(40.0 * G, rel=1e-12)
        assert out.coefficient(0) == 0.0

    def test_first_order_rule(self):
        # u * d'(t) pairs as u d' - u' d.
        u, du = 3.25, -1.5
        out = leibniz_product([u, du], vec({1: 1.0}))
        assert out == vec({1: u, 0: -du})

    def test_insufficient_derivatives(self):
        with pytest.raises(InsufficientDerivatives):
            leibniz_product([1.0], vec({1: 1.0}))

    def test_empty_vector_needs_nothing(self):
        assert leibniz_product([], EMPTY_IMPULSES).is_empty


# --- property suites ---------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
orders = st.integers(min_value=0, max_value=4)
vectors = st.dictionaries(orders, finite, max_size=4).map(impulses)
samples = st.builds(StepSample, finite, finite, vectors)


def _ulp_bound(*values: float) -> float:
    scale = max(abs(v) for v in values) or 1.0
    return 2.0 * math.ulp(scale)


@given(samples, samples)
def test_addition_commutes_exactly(a, b):
    assert add_samples(a, b) == add_samples(b, a)


@given(samples, samples, samples)
def test_addition_associates_to_one_ulp(a, b, c):
    left = add_samples(add_samples(a, b), c)
    right = add_samples(a, add_samples(b, c))
    bound = _ulp_bound(a.left, b.left, c.left, left.left)
    assert abs(left.left - right.left) <= bound
    assert abs(left.right - right.right) <= _ulp_bound(
        a.right, b.right, c.right, left.right
    )
    for order in set(dict(left.impulses.items()) | dict(right.impulses.items())):
        x = left.impulses.coefficient(order)
        y = right.impulses.coefficient(order)
        assert abs(x - y) <= _ulp_bound(
            a.impulses.coefficient(order),
            b.impulses.coefficient(order),
            c.impulses.coefficient(order),
            x,
        )


@given(samples)
def test_negation_is_an_involution(a):
    assert negate_sample(negate_sample(a)) == a


@given(vectors)
def test_extract_inverts_shift(v):
    jump, rest = extract_order_zero(shift_orders_up(v))
    assert jump == 0.0
    assert rest == v


@given(vectors)
def test_leibniz_with_unit_constant_is_identity(v):
    u = [1.0] + [0.0] * max(v.max_order, 0)
    assert leibniz_product(u, v) == v


def brute_force_product(u_derivs, v):
    """Termwise expansion of the product sum, accumulated independently."""
    terms: dict[int, list[float]] = {}
    for order, a in v.items():
        for k in range(order + 1):
            value = a * math.comb(order, k) * u_derivs[k] * (-1.0) ** k
            terms.setdefault(order - k, []).append(value)
    return {o: math.fsum(vals) for o, vals in terms.items()}


@given(
    st.dictionaries(orders, finite, min_size=1, max_size=4).map(impulses),
    st.lists(finite, min_size=5, max_size=5),
)
# Order 0 cancels from about 1.6e4 to 1.0; summed term by term it was off
# by 1.3e-12 relative.
@example(impulses({2: 3.0, 3: 16536.0, 4: 16537.0}),
         [0.0, 0.0, 1e-09, 1.0, 1.0])
def test_leibniz_matches_brute_force(v, u_derivs):
    expected = brute_force_product(u_derivs, v)
    got = leibniz_product(u_derivs, v)
    for order, value in expected.items():
        scale = max(abs(value), abs(got.coefficient(order)), 1.0)
        assert abs(got.coefficient(order) - value) <= 1e-12 * scale


def test_leibniz_keeps_ieee_sums_where_fsum_refuses():
    # Infinities of both signs at order 0 give nan, and terms whose sum
    # overflows give inf, as plain float addition does.
    out = leibniz_product([1.0, math.inf], impulses({0: math.inf, 1: 1.0}))
    assert math.isnan(out.coefficient(0))
    out = leibniz_product([1.0, -1e308], impulses({0: 1e308, 1: 1.0}))
    assert out.coefficient(0) == math.inf
