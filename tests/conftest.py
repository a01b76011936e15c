"""Shared builders for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from affinecontrol.system import AffineSystem, PiecewiseControl

SRC = Path(__file__).resolve().parents[1] / "src"


def run_isolated(code: str, timeout: float) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout's package.
    A crash there fails the calling test through the return code, and a hang
    through `subprocess.TimeoutExpired` (the child is killed), not the run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout)


def planar_saddle_system() -> AffineSystem:
    """Planar system with decoupled expanding/contracting axes.

    A = diag(2, -2), B = I, c = (3, 3), d = (3, 0), controls in [-1, 1].
    Its only control set with interior is the box (-2, 0) x [-1, 3].
    """
    return AffineSystem(
        A=np.diag([2.0, -2.0]),
        B=np.eye(2)[None, :, :],
        C=np.array([[3.0], [3.0]]),
        d=np.array([3.0, 0.0]),
        omega_lo=[-1.0],
        omega_hi=[1.0],
    )


def symmetric_coupling_system() -> AffineSystem:
    """Planar system whose state matrix [[2u, 1], [1, 2u]] loses hyperbolicity
    at u = -1/2 and u = 1/2; forcing (0, u), controls in [-1, 1]."""
    return AffineSystem(
        A=np.array([[0.0, 1.0], [1.0, 0.0]]),
        B=(2.0 * np.eye(2))[None, :, :],
        C=np.array([[0.0], [1.0]]),
        d=np.zeros(2),
        omega_lo=[-1.0],
        omega_hi=[1.0],
    )


def detuned_coupling_system(eps: float = 0.05) -> AffineSystem:
    """Detuned variant of the symmetric coupling: state matrix
    [[2u, 1], [1, (2+eps)u]]; restores the rank condition on directions."""
    B = np.array([[2.0, 0.0], [0.0, 2.0 + eps]])
    return AffineSystem(
        A=np.array([[0.0, 1.0], [1.0, 0.0]]),
        B=B[None, :, :],
        C=np.array([[0.0], [1.0]]),
        d=np.zeros(2),
        omega_lo=[-1.0],
        omega_hi=[1.0],
    )


def damped_oscillator_system(rho: float = 1.1, d: float = 0.5) -> AffineSystem:
    """Controlled linear oscillator with state matrix [[0, 1], [-1-u, -3]],
    forcing (0, u + d), controls in [-rho, rho]; loses hyperbolicity at u = -1."""
    return AffineSystem(
        A=np.array([[0.0, 1.0], [-1.0, -3.0]]),
        B=np.array([[0.0, 0.0], [-1.0, 0.0]])[None, :, :],
        C=np.array([[0.0], [1.0]]),
        d=np.array([0.0, float(d)]),
        omega_lo=[-float(rho)],
        omega_hi=[float(rho)],
    )


def drifting_lane_system() -> AffineSystem:
    """Linear system dx = diag(0, -1) x + (1, 1)^T u with u in [-1, 1]:
    neutrally stable first axis, so the control set is unbounded along it."""
    return AffineSystem(
        A=np.diag([0.0, -1.0]),
        B=np.zeros((1, 2, 2)),
        C=np.array([[1.0], [1.0]]),
        d=np.zeros(2),
        omega_lo=[-1.0],
        omega_hi=[1.0],
    )


def product_scalar_system(a, c, d) -> AffineSystem:
    """Product of n scalar systems dx_i = (a_i + u_i) x_i + c_i u_i + d_i with
    independent controls u in [-1, 1]^n: A = diag(a), B_i = e_i e_i^T, C = diag(c)."""
    a, c, d = (np.asarray(x, dtype=float).reshape(-1) for x in (a, c, d))
    n = a.size
    return AffineSystem(A=np.diag(a), B=np.eye(n)[:, :, None] * np.eye(n)[:, None, :],
                        C=np.diag(c), d=d, omega_lo=-np.ones(n), omega_hi=np.ones(n))


def random_system(rng: np.random.Generator, n: int = 3, m: int = 1,
                  scale: float = 1.0) -> AffineSystem:
    A = scale * rng.normal(size=(n, n))
    B = scale * 0.5 * rng.normal(size=(m, n, n))
    C = scale * rng.normal(size=(n, m))
    d = scale * rng.normal(size=n)
    return AffineSystem(A, B, C, d, -np.ones(m), np.ones(m))


def random_control(rng: np.random.Generator, m: int = 1, segments: int = 3,
                   period_range=(0.5, 2.0), level: float = 1.0) -> PiecewiseControl:
    tau = rng.uniform(*period_range)
    durations = rng.dirichlet(np.ones(segments)) * tau
    values = rng.uniform(-level, level, size=(segments, m))
    return PiecewiseControl(values, durations)
