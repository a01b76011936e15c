"""Tests for monodromy, Floquet data, the trichotomy, scans, and continuation."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from affinecontrol import floquet
from affinecontrol.config import Tolerances
from affinecontrol.floquet import (
    AffineFamily,
    ControlPath,
    ControlSampler,
    EigenSolverError,
    Obstructed,
    Unique,
    concat_path,
    continuation,
    floquet_of,
    forced_integral,
    hyperbolicity_scan,
    periodic_solution,
    principal_matrix,
)
from affinecontrol.system import AffineSystem, PiecewiseControl, simulate

from conftest import (
    damped_oscillator_system,
    planar_saddle_system,
    random_control,
    random_system,
    symmetric_coupling_system,
)

TOL = Tolerances()


def scalar_relaxation():
    # dx/dt = -x + u
    return AffineSystem([[-1.0]], [[[0.0]]], [[1.0]], [0.0], [-2.0], [2.0])


# ------------------------------------------------------------ principal_matrix

def test_principal_matrix_constant_control():
    sys = planar_saddle_system()
    ctrl = PiecewiseControl.constant([0.4], period=2.0)
    got = principal_matrix(sys, ctrl, 1.3, 0.2)
    assert np.allclose(got, expm(1.1 * sys.system_matrix([0.4])), atol=1e-12)


def test_principal_matrix_two_segment_product():
    sys = planar_saddle_system()
    ctrl = PiecewiseControl.from_segments([([0.7], 0.6), ([-0.3], 0.9)])
    got = principal_matrix(sys, ctrl, 1.5, 0.0)
    expected = expm(0.9 * sys.system_matrix([-0.3])) @ expm(0.6 * sys.system_matrix([0.7]))
    assert np.allclose(got, expected, atol=1e-12)


def test_principal_matrix_diagonal_period_one():
    sys = planar_saddle_system()
    ctrl = PiecewiseControl.constant([0.0], period=1.0)
    assert np.allclose(principal_matrix(sys, ctrl, 1.0, 0.0),
                       np.diag([np.e**2, np.e**-2]), atol=1e-12)


def test_principal_matrix_cocycle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        sys = random_system(rng, n=3, m=1)
        ctrl = random_control(rng, m=1, segments=3)
        r, s, t = np.sort(rng.uniform(0.0, 2.5, size=3))
        left = principal_matrix(sys, ctrl, t, s) @ principal_matrix(sys, ctrl, s, r)
        right = principal_matrix(sys, ctrl, t, r)
        assert np.allclose(left, right, atol=1e-10)


def test_principal_matrix_reversed_arguments():
    sys = planar_saddle_system()
    ctrl = PiecewiseControl.from_segments([([1.0], 0.5), ([-1.0], 0.5)])
    back = principal_matrix(sys, ctrl, 0.0, 1.0)
    fwd = principal_matrix(sys, ctrl, 1.0, 0.0)
    assert np.allclose(back @ fwd, np.eye(2), atol=1e-10)


# ------------------------------------------------------------------ floquet_of

def test_floquet_identity_system():
    sys = AffineSystem(np.zeros((2, 2)), np.zeros((1, 2, 2)), np.zeros((2, 1)),
                       np.zeros(2), [-1.0], [1.0])
    _, data = floquet_of(sys, PiecewiseControl.constant([0.3], 0.7))
    assert np.allclose(data.multipliers, 1.0)
    assert np.allclose(data.exponents, 0.0)
    assert data.unit_multiplier and data.margin <= 1e-15
    assert data.unit_eigenspace.shape == (2, 2)


def test_floquet_oscillator_at_minus_one():
    # state matrix [[0,1],[0,-3]]: multipliers {1, e^-3}, eigenvector (1,0)
    sys = damped_oscillator_system(rho=1.1, d=0.5)
    _, data = floquet_of(sys, PiecewiseControl.constant([-1.0], 1.0))
    mult = np.sort(np.abs(data.multipliers))
    assert np.allclose(mult, [np.exp(-3.0), 1.0], atol=1e-12)
    assert np.allclose(np.sort(data.exponents), [-3.0, 0.0], atol=1e-12)
    assert data.unit_multiplier
    direction = data.unit_eigenspace[:, 0]
    assert abs(abs(direction[0]) - 1.0) < 1e-9 and abs(direction[1]) < 1e-9


def overflowing_system():
    # e^{400 * 2} overflows, so the monodromy over period 2 holds inf and NaN
    return AffineSystem(np.diag([400.0, -1.0]), np.zeros((1, 2, 2)), np.zeros((2, 1)),
                        np.zeros(2), [-1.0], [1.0])


ENTRIES = [
    lambda sys, ctrl: floquet_of(sys, ctrl),
    lambda sys, ctrl: principal_matrix(sys, ctrl, ctrl.period, 0.0),
    lambda sys, ctrl: periodic_solution(sys, ctrl),
    lambda sys, ctrl: hyperbolicity_scan(sys, ControlSampler(include=(ctrl,)), 3, seed=0),
]
ENTRY_IDS = ["floquet_of", "principal_matrix", "periodic_solution", "hyperbolicity_scan"]


@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_non_finite_monodromy_raises_eigen_solver_error(entry):
    ctrl = PiecewiseControl.constant([0.0], 2.0)
    with pytest.raises(EigenSolverError, match="control 0") as exc:
        entry(overflowing_system(), ctrl)
    assert exc.value.condition == np.inf


@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_overflowing_generator_raises_eigen_solver_error_without_warning(entry):
    # A(u) dt = 2e308 overflows before the exponential; under
    # `filterwarnings = error` a warning from the product would fail this
    sys = AffineSystem(np.diag([1e308, -1.0]), np.zeros((1, 2, 2)), np.zeros((2, 1)),
                       np.zeros(2), [-1.0], [1.0])
    with pytest.raises(EigenSolverError, match="control 0"):
        entry(sys, PiecewiseControl.constant([0.0], 2.0))


def forced_overflow_system():
    # Phi = diag(e, e^-2) over period 2, but the forcing column 2e308 of the
    # augmented generator overflows, so the forced integral is not finite
    return AffineSystem(np.diag([0.5, -1.0]), np.zeros((1, 2, 2)), np.zeros((2, 1)),
                        [1e308, 1e308], [-1.0], [1.0])


def test_forced_overflow_leaves_the_monodromy_answers():
    sys, ctrl = forced_overflow_system(), PiecewiseControl.constant([0.0], 2.0)
    phi = np.diag([np.e, np.exp(-2.0)])
    monodromy, data = floquet_of(sys, ctrl)
    assert np.allclose(monodromy.phi, phi, rtol=1e-15, atol=0.0)
    assert abs(data.margin - (1.0 - np.exp(-2.0))) <= 1e-15 and not data.unit_multiplier
    assert np.allclose(principal_matrix(sys, ctrl, 2.0, 0.0), phi, rtol=1e-15, atol=0.0)
    # what reads the forced integral still raises
    for entry in (periodic_solution, forced_integral):
        with pytest.raises(EigenSolverError, match="control 0"):
            entry(sys, ctrl)


@pytest.mark.parametrize("count", [0, 5])
def test_forced_overflow_scan_keeps_its_margins(count):
    # count 0: the argmin control's forcing column 2e308 overflows, so its
    # augmented map is not finite; count 5: a sampled argmin's forced integral
    # is finite (6.2e307), but its periodic point (I - Phi)^-1 b is past the
    # float range.  Either way there is no bracket-rank proxy.
    sys, ctrl = forced_overflow_system(), PiecewiseControl.constant([0.0], 2.0)
    report = hyperbolicity_scan(sys, ControlSampler(include=(ctrl,)), count, seed=0)
    assert report.count == count + 1 and np.all(np.isfinite(report.margins))
    assert report.margins[0] == floquet_of(sys, ctrl)[1].margin
    assert report.min_margin == report.margins.min()
    assert report.rank_proxy is None and report.rank_proxy_full is None


def test_forcing_near_the_float_range_keeps_the_forced_integral():
    # |d|_1 tau = 6e306 entered the augmented generator unscaled: its Phi
    # block came out I and the periodic point overflowed with a warning
    a, tau = np.array([0.5, -1.0]), 0.3
    sys = AffineSystem(np.diag(a), np.zeros((1, 2, 2)), np.zeros((2, 1)),
                       [1e307, 1e307], [-1.0], [1.0])
    ctrl = PiecewiseControl.constant([0.0], tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = forced_integral(sys, ctrl)
        solution = periodic_solution(sys, ctrl)
    assert np.allclose(b, 1e307 * np.expm1(a * tau) / a, rtol=1e-12, atol=0.0)
    assert isinstance(solution, Unique)
    assert np.allclose(solution.x0, 1e307 / -a, rtol=1e-12, atol=0.0)


def test_a_small_forcing_entry_beside_a_large_one_is_kept():
    # |d|_1 tau = 3e306 scales the forcing column by 2**-1017, in which
    # d_2 tau = 3e-301 underflows to 0: the forced integral lost its second
    # entry and the periodic point its second coordinate
    a, tau = np.array([0.5, -1.0]), 0.3
    d = np.array([1e307, 1e-300])
    sys = AffineSystem(np.diag(a), np.zeros((1, 2, 2)), np.zeros((2, 1)), d, [-1.0], [1.0])
    ctrl = PiecewiseControl.constant([0.0], tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = forced_integral(sys, ctrl)
        solution = periodic_solution(sys, ctrl)
    assert np.allclose(b, d * np.expm1(a * tau) / a, rtol=1e-12, atol=0.0)
    assert b[1] > 2.5e-301
    assert isinstance(solution, Unique)
    assert np.allclose(solution.x0, d / -a, rtol=1e-12, atol=0.0)


def test_floquet_planar_saddle_margin():
    sys = planar_saddle_system()
    _, data = floquet_of(sys, PiecewiseControl.constant([0.0], 1.0))
    assert np.allclose(np.sort(np.abs(data.multipliers)),
                       [np.exp(-2.0), np.exp(2.0)], atol=1e-12)
    assert abs(data.margin - min(np.e**2 - 1.0, 1.0 - np.e**-2)) < 1e-12
    assert not data.unit_multiplier


def test_exponents_invariant_under_period_doubling():
    rng = np.random.default_rng(8)
    for _ in range(5):
        sys = random_system(rng, n=3, m=1)
        ctrl = random_control(rng, m=1, segments=2)
        doubled = PiecewiseControl(np.vstack([ctrl.values, ctrl.values]),
                                   np.concatenate([ctrl.durations, ctrl.durations]))
        _, d1 = floquet_of(sys, ctrl)
        _, d2 = floquet_of(sys, doubled)
        assert np.allclose(np.sort(d1.exponents), np.sort(d2.exponents), atol=1e-10)


# ------------------------------------------------------------- forced_integral

def test_forced_integral_unforced_is_zero():
    sys = planar_saddle_system().homogeneous()
    ctrl = PiecewiseControl.from_segments([([0.5], 0.3), ([-0.5], 0.4)])
    assert np.allclose(forced_integral(sys, ctrl), 0.0, atol=1e-15)


def test_forced_integral_scalar_closed_form():
    # dx/dt = -x + 1 over tau = ln 2: integral of e^{-(tau-s)} ds = 1 - 1/2
    sys = scalar_relaxation()
    ctrl = PiecewiseControl.constant([1.0], period=np.log(2.0))
    assert abs(forced_integral(sys, ctrl)[0] - 0.5) < 1e-14


def test_forced_integral_matches_quadrature():
    # adaptive quadrature of Phi(tau, s) (C u(s) + d) as the oracle
    rng = np.random.default_rng(21)
    systems = [damped_oscillator_system(rho=1.1, d=0.5),
               random_system(rng, n=3, m=2)]
    controls = [PiecewiseControl.constant([-1.0], 1.0),
                random_control(rng, m=2, segments=3)]
    for sys, ctrl in zip(systems, controls):
        tau = ctrl.period
        expected = np.zeros(sys.n)
        for i in range(sys.n):
            def integrand(s, i=i):
                phi = principal_matrix(sys, ctrl, tau, s)
                return (phi @ sys.forcing(ctrl.value_at(s)))[i]
            breaks = np.concatenate([[0.0], np.cumsum(ctrl.durations)])
            expected[i] = sum(
                quad(integrand, a, b, limit=200)[0]
                for a, b in zip(breaks[:-1], breaks[1:]))
        got = forced_integral(sys, ctrl)
        assert np.linalg.norm(got - expected) <= 1e-8 * (1.0 + np.linalg.norm(expected))


# ----------------------------------------------------------- periodic_solution

def test_periodic_solution_scalar_unique():
    sys = scalar_relaxation()
    for tau in (0.3, 1.0, 4.2):
        sol = periodic_solution(sys, PiecewiseControl.constant([1.0], tau))
        assert isinstance(sol, Unique)
        assert abs(sol.x0[0] - 1.0) < 1e-12


def test_periodic_solution_everything_periodic():
    sys = AffineSystem(np.zeros((3, 3)), np.zeros((1, 3, 3)), np.zeros((3, 1)),
                       np.zeros(3), [-1.0], [1.0])
    sol = periodic_solution(sys, PiecewiseControl.constant([0.5], 1.0))
    assert isinstance(sol, AffineFamily)
    assert sol.basis.shape == (3, 3)
    assert np.allclose(sol.y0, 0.0)


def test_periodic_solution_oscillator_obstructed_when_unforced_axis():
    # with d = 0 the forcing (0, -1) has a component outside Im(I - Phi):
    # Phi = e^{A(-1)} = [[1, (1-e^-3)/3], [0, e^-3]], so Im(I - Phi) is
    # spanned by (-1/3, 1); explicit check below reproduces the residual.
    sys = damped_oscillator_system(rho=1.1, d=0.0)
    ctrl = PiecewiseControl.constant([-1.0], 1.0)
    sol = periodic_solution(sys, ctrl)
    assert isinstance(sol, Obstructed)
    b = forced_integral(sys, ctrl)
    image_dir = np.array([-1.0 / 3.0, 1.0])
    image_dir /= np.linalg.norm(image_dir)
    expected_residual = np.linalg.norm(b - image_dir * (image_dir @ b))
    assert expected_residual > 1e-3
    assert abs(sol.residual - expected_residual) < 1e-10


def test_periodic_solution_oscillator_affine_family_when_aligned():
    # zero forcing keeps b = 0 in the image, so the family along (1, 0) appears
    sys = damped_oscillator_system(rho=1.1, d=0.0).homogeneous()
    sol = periodic_solution(sys, PiecewiseControl.constant([-1.0], 1.0))
    assert isinstance(sol, AffineFamily)
    assert sol.basis.shape[1] == 1


def test_unique_solutions_verified_by_resimulation():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 40:
        sys = random_system(rng, n=int(rng.integers(1, 5)), m=1)
        ctrl = random_control(rng, m=1, segments=int(rng.integers(1, 4)))
        _, data = floquet_of(sys, ctrl)
        if data.margin <= 1e-3:
            continue
        sol = periodic_solution(sys, ctrl)
        assert isinstance(sol, Unique)
        back = simulate(sys, ctrl, sol.x0, ctrl.period).states[-1]
        assert np.linalg.norm(back - sol.x0) <= 1e-8 * (1.0 + np.linalg.norm(sol.x0))
        checked += 1


# --------------------------------------------------- appendix convergence suite

def _perturbation_ladder(rng, sys, base, gaps):
    """Controls at given L1 distances from `base`, staying in the control box."""
    w = rng.uniform(-1.0, 1.0, size=base.values.shape)
    w /= np.sum(np.abs(w).sum(axis=1) * base.durations)  # unit L1 size
    out = []
    for gap in gaps:
        values = base.values + gap * w
        values = np.clip(values, sys.omega_lo, sys.omega_hi)
        out.append(PiecewiseControl(values, base.durations))
    return out


def test_appendix_convergence_with_gronwall_envelope():
    rng = np.random.default_rng(29)
    gaps = [1e-1, 1e-2, 1e-3, 1e-4]
    for _ in range(6):
        sys = random_system(rng, n=3, m=1)
        base = random_control(rng, m=1, segments=3, level=0.5)
        ladder = _perturbation_ladder(rng, sys, base, gaps)
        tau = base.period
        ts = np.linspace(0.0, tau, 9)
        base_phis = {(t, s): principal_matrix(sys, base, t, s)
                     for t in ts for s in ts if s <= t}
        # L1 norm of the base matrix path and the uniform bound sup ||Phi||
        int_p0 = sum(np.linalg.norm(sys.system_matrix(u), 2) * dt
                     for u, dt in base.pieces(0.0, tau))
        sup_phi = max(np.linalg.norm(p, 2) for p in base_phis.values())
        sups = []
        for ctrl in ladder:
            sup_diff = 0.0
            c1 = sup_phi
            for (t, s), p0 in base_phis.items():
                pk = principal_matrix(sys, ctrl, t, s)
                sup_diff = max(sup_diff, np.linalg.norm(pk - p0, 2))
                c1 = max(c1, np.linalg.norm(pk, 2))
            l1_gap = sum(np.linalg.norm(sys.system_matrix(uk) - sys.system_matrix(u0), 2) * dt
                         for (uk, dt), (u0, _) in
                         zip(ctrl.pieces(0.0, tau), base.pieces(0.0, tau)))
            envelope = c1 * l1_gap * np.exp(int_p0)
            assert sup_diff <= envelope * (1.0 + 1e-9)
            sups.append(sup_diff)
        # decreasing with the gap (allow equality at rounding level)
        assert all(s2 <= s1 * 1.05 + 1e-14 for s1, s2 in zip(sups, sups[1:]))


def test_appendix_continuity_of_unique_initial_values():
    rng = np.random.default_rng(41)
    gaps = [1e-1, 1e-2, 1e-3, 1e-4]
    done = 0
    while done < 5:
        sys = random_system(rng, n=3, m=1)
        base = random_control(rng, m=1, segments=2, level=0.5)
        _, data = floquet_of(sys, base)
        if data.margin <= 1e-3:
            continue
        sol0 = periodic_solution(sys, base)
        assert isinstance(sol0, Unique)
        errs = []
        ok = True
        for ctrl in _perturbation_ladder(rng, sys, base, gaps):
            _, dk = floquet_of(sys, ctrl)
            if dk.margin <= 1e-3:
                ok = False
                break
            solk = periodic_solution(sys, ctrl)
            errs.append(np.linalg.norm(solk.x0 - sol0.x0))
        if not ok:
            continue
        assert all(e2 <= e1 * 1.05 + 1e-12 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-2 * max(errs[0], 1e-12) + 1e-12
        done += 1


# --------------------------------------------------------- hyperbolicity scan

def test_scan_planar_saddle_not_refuted():
    sys = planar_saddle_system()
    sampler = ControlSampler(kind="bang", period_range=(0.5, 3.0))
    report = hyperbolicity_scan(sys, sampler, count=200, seed=0)
    assert report.verdict == "NOT-REFUTED"
    assert report.min_margin >= 1.0 - np.exp(-0.5)
    assert report.witness is None


def test_scan_symmetric_coupling_refuted_by_constant_witness():
    sys = symmetric_coupling_system()
    witness = PiecewiseControl.constant([-0.5], 1.0)
    sampler = ControlSampler(include=(witness,))
    report = hyperbolicity_scan(sys, sampler, count=50, seed=0)
    assert report.verdict == "REFUTED"
    assert report.min_margin <= 1e-10
    assert report.witness is not None


def test_scan_trivial_system_refuted_immediately():
    sys = AffineSystem(np.zeros((2, 2)), np.zeros((1, 2, 2)), np.zeros((2, 1)),
                       np.zeros(2), [-1.0], [1.0])
    report = hyperbolicity_scan(sys, ControlSampler(), count=3, seed=1)
    assert report.verdict == "REFUTED"
    assert report.min_margin <= 1e-14


def test_scan_deterministic_in_seed():
    sys = planar_saddle_system()
    r1 = hyperbolicity_scan(sys, ControlSampler(), count=50, seed=7)
    r2 = hyperbolicity_scan(sys, ControlSampler(), count=50, seed=7)
    assert np.array_equal(r1.margins, r2.margins)


def test_scan_without_controls_raises():
    sys = planar_saddle_system()
    with pytest.raises(ValueError, match="no controls"):
        hyperbolicity_scan(sys, ControlSampler(), 0, seed=0)
    witness = PiecewiseControl.constant([0.0], 1.0)
    for sampler in (ControlSampler(), ControlSampler(include=(witness,))):
        with pytest.raises(ValueError, match="count must be >= 0"):
            hyperbolicity_scan(sys, sampler, -1, seed=0)



@pytest.mark.parametrize("settings, message", [
    ({"kind": "bangz"}, "kind must be"),
    ({"kind": "Bang"}, "kind must be"),
    ({"period_range": (0.0, 1.0)}, "period_range"),
    ({"period_range": (-1.0, 2.0)}, "period_range"),
    ({"period_range": (2.0, 1.0)}, "period_range"),
    ({"period_range": (1.0, np.inf)}, "period_range"),
    ({"period_range": (np.nan, 1.0)}, "period_range"),
    ({"segments_range": (0, 0)}, "segments_range"),
    ({"segments_range": (0, 3)}, "segments_range"),
    ({"segments_range": (3, 2)}, "segments_range"),
])
def test_sampler_rejects_bad_settings(settings, message):
    with pytest.raises(ValueError, match=message):
        ControlSampler(**settings)


def test_scan_rejects_include_of_other_control_dimension():
    sampler = ControlSampler(include=(PiecewiseControl.constant([0.1, 0.2]),))
    for count in (0, 3):
        with pytest.raises(ValueError, match="control dimension 2 does not match"):
            hyperbolicity_scan(planar_saddle_system(), sampler, count, seed=0)


def test_sampler_accepts_degenerate_ranges():
    sys = planar_saddle_system()
    sampler = ControlSampler(kind="levels", period_range=(1.5, 1.5), segments_range=(2, 2))
    values, durations, counts = sampler.sample_batch(np.random.default_rng(0), sys, 1, start=0)
    ctrl = PiecewiseControl(values, durations)
    assert counts.tolist() == [2] and ctrl.num_segments == 2 and abs(ctrl.period - 1.5) <= 1e-15


# ------------------------------------------------------------- paths and runs

def test_concat_path_endpoints_and_junction():
    sys = planar_saddle_system()
    u = PiecewiseControl.from_segments([([1.0], 0.5), ([-0.5], 0.7)])
    v = PiecewiseControl.from_segments([([-1.0], 0.4), ([0.2], 0.9)])
    path = concat_path(u, v)
    c0 = path.at(0.0)
    assert c0.same_as(u)
    c1 = path.at(1.0)
    assert c1.same_as(v)
    mid = path.at(0.5)
    phi_mid = principal_matrix(sys, mid, mid.period, 0.0)
    expected = (principal_matrix(sys, v, v.period, 0.0)
                @ principal_matrix(sys, u, u.period, 0.0))
    assert np.allclose(phi_mid, expected, atol=1e-11)


def test_control_path_is_constant_exactly_when_its_endpoints_are_the_same():
    # constant is read off u and v, so no flag can contradict them
    u = PiecewiseControl.from_segments([([1.0], 0.5), ([-0.5], 0.7)])
    v = PiecewiseControl.from_segments([([-1.0], 0.4), ([0.2], 0.9)])
    path = ControlPath(u, v)
    assert not path.constant
    assert path.at(0.0).same_as(u) and path.at(1.0).same_as(v)
    same = ControlPath(u, PiecewiseControl(u.values, u.durations))
    assert same.constant and all(same.at(a) is u for a in (0.0, 0.5, 1.0))
    with pytest.raises(TypeError):
        ControlPath(u, v, constant=True)


def test_control_path_rejects_mixed_control_dimensions():
    u, v = PiecewiseControl.constant([0.1]), PiecewiseControl.constant([0.1, 0.2])
    for make in (ControlPath, concat_path):
        with pytest.raises(ValueError, match="controls have different dimensions"):
            make(u, v)


def test_concat_path_monodromy_continuity():
    sys = planar_saddle_system()
    u = PiecewiseControl.constant([0.8], 1.1)
    v = PiecewiseControl.from_segments([([-0.6], 0.5), ([0.1], 0.8)])
    path = concat_path(u, v)

    def phi_at(alpha):
        c = path.at(alpha)
        return principal_matrix(sys, c, c.period, 0.0)

    # Cauchy behavior on dyadic refinement of the worst mesh interval
    for level in (4, 8, 16, 32):
        mesh = np.linspace(0.0, 1.0, level + 1)
        jumps = [np.linalg.norm(phi_at(a1) - phi_at(a0))
                 for a0, a1 in zip(mesh[:-1], mesh[1:])]
        if level == 4:
            first = max(jumps)
        last = max(jumps)
    assert last <= 0.3 * first


def test_continuation_constant_path_records_identical():
    sys = planar_saddle_system()
    u = PiecewiseControl.constant([0.3], 1.0)
    result = continuation(sys, concat_path(u, u), steps=5)
    assert not result.crossings
    sols = [r.solution.x0 for r in result.records]
    assert all(np.allclose(s, sols[0]) for s in sols)
    assert len({r.tau for r in result.records}) == 1
    assert len({r.det_gap for r in result.records}) == 1


def test_continuation_hyperbolic_path_no_crossing():
    sys = planar_saddle_system()
    u = PiecewiseControl.constant([-0.8], 1.0)
    v = PiecewiseControl.constant([0.8], 1.0)
    result = continuation(sys, concat_path(u, v), steps=21)
    assert not result.crossings
    assert all(isinstance(r.solution, Unique) for r in result.records)
    assert max(r.norm_x for r in result.records) < 50.0
    alphas = [r.alpha for r in result.records]
    assert alphas == sorted(alphas)
    taus = [r.tau for r in result.records]
    assert min(taus) >= 1.0 - 1e-12 and max(taus) <= 2.0 + 1e-12


def test_continuation_detects_blowup_crossing():
    sys = symmetric_coupling_system()
    u = PiecewiseControl.constant([-0.7], 1.0)
    v = PiecewiseControl.constant([-0.4], 1.0)
    result = continuation(sys, concat_path(u, v), steps=41)
    assert len(result.crossings) == 1
    crossing = result.crossings[0]
    assert crossing.margin <= 1e-8
    # kernel at the crossing is the diagonal direction (1, 1)/sqrt(2)
    kernel = crossing.kernel[:, 0]
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(kernel - diag), np.linalg.norm(kernel + diag)) < 1e-6
    # approaching the crossing the unique solutions blow up along the kernel
    near = [r for r in result.records if r.refined and np.isfinite(r.norm_x)]
    assert max(r.norm_x for r in near) >= 1e3
    tight = [r for r in near if r.norm_x >= 1e3]
    assert tight and all(r.kernel_angle <= 0.05 for r in tight)
    # norm growth of roughly 10x per decade of approach
    by_alpha = sorted(near, key=lambda r: abs(r.alpha - crossing.alpha))
    assert by_alpha[0].norm_x >= 10.0 * by_alpha[-1].norm_x


@pytest.mark.parametrize("steps", [41, 40])  # the crossing on a mesh node, and between
def test_continuation_ladder_is_six_decades_around_the_crossing(steps):
    sys = symmetric_coupling_system()
    path = concat_path(PiecewiseControl.constant([-0.7], 1.0),
                       PiecewiseControl.constant([-0.4], 1.0))
    result = continuation(sys, path, steps)
    (crossing,) = result.crossings
    spacing = 1.0 / (steps - 1)
    ladder = [a for j in range(6)
              for a in (crossing.alpha - 0.5 * spacing * 10.0 ** (-j),
                        crossing.alpha + 0.5 * spacing * 10.0 ** (-j))
              if 0.0 < a < 1.0]
    assert len(ladder) == 12
    alphas = [r.alpha for r in result.records]
    assert alphas == sorted(alphas)
    assert [r.alpha for r in result.records if r.refined] == sorted(ladder)
    assert [r.alpha for r in result.records if not r.refined] == np.linspace(
        0.0, 1.0, steps).tolist()


def test_continuation_solutions_match_periodic_solution():
    # the mesh node 0.75 sits on the crossing, so the batch of Unique
    # solves skips one record, which `_solutions` classifies by least squares
    sys = symmetric_coupling_system()
    path = concat_path(PiecewiseControl.constant([-0.7], 1.0),
                       PiecewiseControl.constant([-0.4], 1.0))
    records = continuation(sys, path, steps=41).records
    kinds = [type(r.solution).__name__ for r in records]
    assert kinds.count("Unique") == len(records) - 1
    for r in records:
        single = periodic_solution(sys, r.control)
        assert type(r.solution) is type(single)
        if hasattr(single, "x0"):
            assert np.array_equal(r.solution.x0, single.x0)


def test_bisection_stops_on_node_and_at_float_resolution(monkeypatch):
    # every batch of period maps counts, augmented or monodromies alone: the
    # bisection steps read only the monodromy
    batches = []
    for name in ("_period_maps", "_monodromies"):
        def counting(sys, values, durations, counts, maps=getattr(floquet, name)):
            batches.append(len(counts))
            return maps(sys, values, durations, counts)

        monkeypatch.setattr(floquet, name, counting)
    sys = symmetric_coupling_system()
    path = concat_path(PiecewiseControl.constant([-0.7], 1.0),
                       PiecewiseControl.constant([-0.4], 1.0))
    # alpha = 3/4 is node 30 of 41: the mesh batch, the crossing itself, then
    # its ladder of 2 x 6 offsets, all inside (0, 1)
    on_node = continuation(sys, path, steps=41)
    assert [c.alpha for c in on_node.crossings] == [0.75]
    assert batches == [41, 1, 12]
    batches.clear()
    off_mesh = continuation(sys, path, steps=40)
    assert len(off_mesh.crossings) == 1
    crossing = off_mesh.crossings[0]
    assert abs(crossing.alpha - 0.75) <= 1e-12
    assert crossing.margin <= TOL.unit_tol
    steps = len(batches) - 3
    # bracket 1/39 wide, halved until it no longer splits near 0.75
    assert 40 <= steps < 60 and set(batches[1:-1]) == {1}
    assert batches[0] == 40 and batches[-1] == 12


def test_continuation_rejects_bad_steps():
    u = PiecewiseControl.constant([0.1], 1.0)
    with pytest.raises(ValueError):
        continuation(planar_saddle_system(), concat_path(u, u), steps=1)


COUPLING_PATH = (PiecewiseControl.constant([-0.7], 1.0), PiecewiseControl.constant([-0.4], 1.0))


def test_whole_number_inputs_of_the_floquet_entry_points():
    # whole floats are taken as ints; 40.5 and NaN raise ValueError naming
    # the input, None a TypeError (a None seed no longer draws fresh entropy)
    sys = symmetric_coupling_system()
    path = concat_path(*COUPLING_PATH)
    whole, exact = continuation(sys, path, 41.0), continuation(sys, path, 41)
    assert np.array_equal(whole.alphas, exact.alphas)
    assert np.array_equal(whole.det_gaps, exact.det_gaps)
    sampler = ControlSampler()
    assert np.array_equal(hyperbolicity_scan(sys, sampler, 10.0, np.float64(3.0)).margins,
                          hyperbolicity_scan(sys, sampler, 10, 3).margins)
    calls = {"steps": lambda v: continuation(sys, path, v),
             "count": lambda v: hyperbolicity_scan(sys, sampler, v, 0),
             "seed": lambda v: hyperbolicity_scan(sys, sampler, 10, v),
             "segments_range": lambda v: ControlSampler(segments_range=(1, v))}
    for name, call in calls.items():
        for bad in (40.5, np.nan):
            with pytest.raises(ValueError, match=f"{name} must be whole"):
                call(bad)
        with pytest.raises(TypeError):
            call(None)
    with pytest.raises(ValueError, match="segments_range must be whole"):
        ControlSampler(segments_range=(1.5, 3))
    sampler = ControlSampler(segments_range=(1.0, 3.0))
    assert sampler.segments_range == (1, 3) and type(sampler.segments_range[0]) is int
    assert sampler == ControlSampler(segments_range=(1, 3))


def test_continuation_makes_its_records_on_first_read(monkeypatch):
    made = []
    record = floquet.ContinuationRecord

    def counting(*args, **kwargs):
        made.append(1)
        return record(*args, **kwargs)

    monkeypatch.setattr(floquet, "ContinuationRecord", counting)
    result = continuation(symmetric_coupling_system(), concat_path(*COUPLING_PATH), 41)
    assert made == [] and "records" not in vars(result)
    records = result.records
    assert len(made) == len(records) == result.alphas.size == 41 + 12
    assert result.records is records
    # the columns are the records' fields, in alpha order
    assert [r.alpha for r in records] == result.alphas.tolist()
    assert [r.det_gap for r in records] == result.det_gaps.tolist()
    assert [r.refined for r in records] == result.refined.tolist()
    for r, x, sol in zip(records, result.points, result.solutions):
        if sol is None:
            assert type(r.solution) is Unique and np.array_equal(r.solution.x0, x)
            assert not np.shares_memory(r.solution.x0, result.points)
        else:
            assert r.solution is sol
