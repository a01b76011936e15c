"""The closed-form multipliers of planar monodromies (`floquet._spectrum` for
n <= 2), against a 40-digit mpmath eigen-solve of the same floats.

Stacks (k, 2, 2) mix six families: random matrices, near-Jordan
[[1, b], [eps, 1]], rotations (|rho| = 1), diag(1 +- 1e-10, x), zero, and
singular slices; each slice may also be scaled by 2**300 or 2**-300.  Every
multiplier lies within BOUND * eps * max|phi| of the reference and every
margin within BOUND * eps * (max|phi| + 1), max|phi| the largest entry of the
slice.  The families keep the discriminant ((a - d)/2)**2 + b c free of
cancellation between its two terms; where they cancel (a slice close to a
Jordan block with a != d) the multipliers lose about half their digits to
LAPACK's `eigvals` as well, whose 2 x 2 step (dlanv2) forms the same sum.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from affinecontrol.floquet import (
    ControlSampler,
    _spectrum,
    concat_path,
    continuation,
    floquet_of,
    hyperbolicity_scan,
)
from affinecontrol.system import AffineSystem, PiecewiseControl

from conftest import damped_oscillator_system, random_system, symmetric_coupling_system

EPS = np.finfo(float).eps
# over 4000 slices of these families the largest error was 1.7 eps for a
# multiplier and 1.0 eps for a margin; (trace/2)**2 - det in place of the
# discriminant is off by about 1e3 eps on a near-Jordan slice
BOUND = 8.0
FAMILIES = ("random", "near_jordan", "rotation", "near_identity", "zero", "singular")


def family_slice(family, rng):
    if family == "random":
        return rng.normal(size=(2, 2))
    if family == "near_jordan":
        b = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
        return np.array([[1.0, b], [rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17.0, -1.0),
                                    1.0]])
    if family == "rotation":
        angle = rng.uniform(-np.pi, np.pi)
        return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    if family == "near_identity":
        return np.diag([1.0 + rng.choice([-1e-10, 1e-10]), rng.normal()])
    if family == "zero":
        return np.zeros((2, 2))
    # rank one with small whole entries, so exactly singular
    return np.outer(rng.integers(-4, 5, 2), rng.integers(-4, 5, 2)).astype(float)


@st.composite
def planar_stacks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    draws = draw(st.lists(st.tuples(st.sampled_from(FAMILIES), st.sampled_from([0, 0, 300, -300])),
                          min_size=1, max_size=6))
    return np.stack([np.ldexp(family_slice(family, rng), power) for family, power in draws])


def reference(M):
    """The eigenvalues of the float matrix M and its margin min |rho - 1|, at 40 digits."""
    mpmath.mp.dps = 40
    rho = mpmath.eig(mpmath.matrix(M.tolist()), left=False, right=False)
    return np.array([complex(r) for r in rho]), float(min(abs(r - 1) for r in rho))


def check_against_reference(phi):
    multipliers, margins = _spectrum(phi)
    assert multipliers.shape == (phi.shape[0], 2) and margins.shape == (phi.shape[0],)
    double = False
    for M, got, margin in zip(phi, multipliers, margins):
        ref, ref_margin = reference(M)
        size = np.abs(M).max()
        error = min(np.abs(got - ref).max(), np.abs(got[::-1] - ref).max())
        assert error <= BOUND * EPS * size
        assert abs(margin - ref_margin) <= BOUND * EPS * (size + 1.0)
        double |= bool(abs(ref[0] - ref[1]) <= BOUND * EPS * size)
    # the dtype rule of np.linalg.eigvals: float64 when every imaginary part is
    # zero; at a double multiplier, such as a nilpotent slice's, eigvals'
    # imaginary parts are rounding noise (1e-15 i for [[8, 8], [-8, -8]])
    assert (multipliers.dtype == np.float64) == (not np.any(multipliers.imag))
    if not double:
        assert multipliers.dtype == np.linalg.eigvals(phi).dtype


@settings(max_examples=150, deadline=None)
@given(planar_stacks())
# the monodromy of diag(600, -2) over tau = 1, whose entries of 3.8e260 would
# overflow the unscaled discriminant
@example(np.diag(np.exp([600.0, -2.0]))[None])
def test_planar_multipliers_match_high_precision(phi):
    check_against_reference(phi)


def test_planar_multipliers_take_one_monodromy_and_scalar_stacks():
    M = np.array([[1.0, 2.0], [-3.0, 0.5]])
    multipliers, margin = _spectrum(M)
    assert multipliers.shape == (2,) and np.ndim(margin) == 0
    stacked = _spectrum(M[None])
    assert np.array_equal(multipliers, stacked[0][0]) and margin == stacked[1][0]
    scalar = np.array([[[2.5]], [[-0.25]]])
    multipliers, margins = _spectrum(scalar)
    assert multipliers.dtype == np.float64 and np.array_equal(multipliers, scalar[:, 0])
    assert np.array_equal(margins, [1.5, 1.25])


@pytest.mark.parametrize("n", [2, 3])
def test_floquet_of_orders_the_multipliers_by_descending_modulus(n):
    # a rotation by one radian, and for n = 3 a growing third axis
    A = np.zeros((n, n))
    A[0, 1], A[1, 0] = -1.0, 1.0
    if n == 3:
        A[2, 2] = 0.5
    sys = AffineSystem(A, np.zeros((1, n, n)), np.zeros((n, 1)), np.zeros(n), [-1.0], [1.0])
    _, data = floquet_of(sys, PiecewiseControl.constant([0.0], 1.0))
    expected = [np.exp(1j), np.exp(-1j)]  # a complex pair, positive imaginary part first
    if n == 3:
        expected.insert(0, np.exp(0.5))
    assert data.multipliers.dtype == np.complex128
    np.testing.assert_allclose(data.multipliers, expected, rtol=0.0, atol=1e-13)
    np.testing.assert_array_equal(data.exponents, np.log(np.abs(data.multipliers)))


class RefusedLapack(RuntimeError):
    pass


def refuse(*args, **kwargs):
    raise RefusedLapack("np.linalg.eigvals was called")


def test_planar_scan_and_continuation_call_no_eigvals(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    scan = hyperbolicity_scan(damped_oscillator_system(), ControlSampler(), 400, seed=3)
    assert np.all(np.isfinite(scan.margins)) and scan.margins.size == 400
    path = concat_path(PiecewiseControl.constant([-0.7], 1.0),
                       PiecewiseControl.constant([-0.4], 1.0))
    result = continuation(symmetric_coupling_system(), path, 40)  # a crossing off the mesh
    assert len(result.crossings) == 1
    _, data = floquet_of(damped_oscillator_system(), PiecewiseControl.constant([0.5], 1.0))
    assert data.multipliers.shape == (2,)
    # a 3-D monodromy still goes to LAPACK
    sys3 = random_system(np.random.default_rng(0), n=3)
    with pytest.raises(RefusedLapack):
        floquet_of(sys3, PiecewiseControl.constant([0.2], 1.0))
