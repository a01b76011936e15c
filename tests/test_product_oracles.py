"""Closed-form oracles on products of scalar systems.

For dx_i = (a_i + u_i) x_i + c_i u_i + d_i with independent controls
u in [-1, 1]^n (`product_scalar_system`) the monodromy of a periodic control
is diagonal, so its Floquet exponents are a_i + mean_t u_i(t), each in the
Morse interval [a_i - 1, a_i + 1], and its margin is min_i |rho_i - 1| of the
multipliers rho_i = exp(a_i tau + integral of u_i over the period).  A
constant control u with a_i + u_i != 0 for every i has the one periodic
solution at its equilibrium x_i = -(c_i u_i + d_i) / (a_i + u_i).
"""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from affinecontrol.floquet import Unique, floquet_of, periodic_solution
from affinecontrol.system import PiecewiseControl

from conftest import product_scalar_system

# a 1-D and a 2-D product, and the 3-D fixture a = (2, -2, -3), c = 1, d = 0
LINE = ([0.5], [1.0], [0.0])
PLANE = ([1.0, -1.5], [0.5, -1.0], [0.2, 0.0])
FIXTURE = ([2.0, -2.0, -3.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])


def coefficients(n):
    return st.tuples(*(st.lists(st.floats(lo, hi), min_size=n, max_size=n)
                       for lo, hi in ((-3.0, 3.0), (-2.0, 2.0), (-2.0, 2.0))))


@st.composite
def products_and_controls(draw):
    n = draw(st.integers(1, 3))
    a, c, d = draw(coefficients(n))
    k = draw(st.integers(1, 4))
    values = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
                           min_size=k, max_size=k))
    durations = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    return (a, c, d), PiecewiseControl(values, durations)


@settings(max_examples=120, deadline=None)
@given(products_and_controls())
@example((LINE, PiecewiseControl([[0.3], [-0.9]], [0.7, 0.2])))
@example((PLANE, PiecewiseControl([[1.0, -1.0]], [0.8])))
@example((FIXTURE, PiecewiseControl([[1.0, -1.0, 0.5], [-1.0, 1.0, -0.5]], [0.4, 0.6])))
# multipliers e**3 and e**-6, where (trace/2) - |(a - d)/2| loses the small one
@example((([1.0, -2.0], [0.0, 0.0], [0.0, 0.0]), PiecewiseControl(np.zeros((3, 2)), [1.0] * 3)))
def test_floquet_exponents_are_the_mean_rates(case):
    product, ctrl = case
    a = np.asarray(product[0])
    sys = product_scalar_system(*product)
    _, data = floquet_of(sys, ctrl)
    rates = a + ctrl.durations @ ctrl.values / ctrl.period
    order = np.argsort(-rates, kind="stable")
    np.testing.assert_allclose(data.exponents, rates[order], rtol=0.0, atol=1e-9)
    assert np.all(data.exponents >= a[order] - 1.0 - 1e-9)
    assert np.all(data.exponents <= a[order] + 1.0 + 1e-9)
    # the multipliers exp(rate_i tau) of the diagonal monodromy, which n <= 2
    # takes in closed form and n = 3 from LAPACK, each to its own relative
    # accuracy, the small one too; over 4000 draws, half at the extremes
    # (|a_i + u_i| = 4 over 4 segments), a multiplier was off by 18 eps of
    # itself and the margin by 14 eps (1 + largest multiplier) at most,
    # against a bound of 1e-13 (450 eps)
    multipliers = np.exp(a * ctrl.period + ctrl.durations @ ctrl.values)
    margin = np.min(np.abs(multipliers - 1.0))
    assert abs(data.margin - margin) <= 1e-13 * (1.0 + multipliers.max())
    assert data.multipliers.dtype == np.float64  # in descending modulus
    np.testing.assert_allclose(data.multipliers, multipliers[order], rtol=1e-13, atol=0.0)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    coefficients(n), st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))),
    st.floats(0.5, 2.0))
@example((LINE, [0.3]), 0.7)
@example((PLANE, [-0.5, 1.0]), 1.5)
@example((FIXTURE, [1.0, -1.0, 0.5]), 1.0)
@example((FIXTURE, [-1.0, 0.0, 1.0]), 0.5)
def test_constant_control_has_the_equilibrium_as_unique_periodic_solution(case, period):
    (a, c, d), u = map(np.asarray, case[0]), np.asarray(case[1])
    assume(np.all(np.abs(a + u) >= 0.1))
    sys = product_scalar_system(a, c, d)
    solution = periodic_solution(sys, PiecewiseControl.constant(u, period))
    assert isinstance(solution, Unique)
    np.testing.assert_allclose(solution.x0, -(c * u + d) / (a + u), rtol=1e-9, atol=1e-10)
