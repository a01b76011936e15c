"""Property tests of `system._expm`, the stacked matrix exponential behind
every segment map.

Stacks of n x n slices (n = 1-5) of five kinds: zero, diagonal, upper
triangular, nilpotent and dense, with 1-norms from 0 up to MAX_EXP_GROWTH,
the largest step the chunked flows take.  The reference is a 30-digit
mpmath exponential.  scipy's `expm` is compared only on slices of 1-norm
<= 2: above that its own error, measured on dense and triangular slices
against an extended-precision reference, reaches 8.5e-13 · max(1, ||E||_1)
at norms 2-8 and 5.7e-12 at norms 40-50, too close to or past the bound,
while this kernel stays near 1e-13.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from affinecontrol import system
from affinecontrol.config import MAX_EXP_GROWTH
from affinecontrol.system import _expm

mpmath = pytest.importorskip("mpmath")

KINDS = ("zero", "diagonal", "upper", "nilpotent", "dense")
TOL = 1e-12
SCIPY_NORM = 2.0


def one_norm(M):
    return float(np.abs(M).sum(axis=0).max())


@st.composite
def slices(draw, n):
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.normal(size=(n, n))
    M = {"zero": 0.0 * M, "diagonal": np.diag(np.diag(M)), "upper": np.triu(M),
         "nilpotent": np.triu(M, 1), "dense": M}[kind]
    norm = draw(st.one_of(st.just(MAX_EXP_GROWTH), st.floats(0.0, MAX_EXP_GROWTH)))
    return M * (norm / one_norm(M)) if one_norm(M) > 0.0 else M


@st.composite
def stacks(draw, max_slices=4):
    n = draw(st.integers(1, 5))
    return np.stack(draw(st.lists(slices(n), min_size=1, max_size=max_slices)))


def reference(M):
    mpmath.mp.dps = 30
    return np.array(mpmath.expm(mpmath.matrix(M.tolist())).tolist(), dtype=float)


@settings(max_examples=40, deadline=None)
@given(stacks())
def test_expm_matches_high_precision_and_scipy(X):
    E = _expm(X)
    for M, got in zip(X, E):
        ref = reference(M)
        assert one_norm(got - ref) <= TOL * max(1.0, one_norm(ref))
        if one_norm(M) <= SCIPY_NORM:
            sp = expm(M)
            assert one_norm(got - sp) <= TOL * max(1.0, one_norm(sp))


@settings(max_examples=60, deadline=None)
@given(stacks(max_slices=8), st.integers(1, 3))
def test_expm_slices_ignore_the_rest_of_the_stack(X, slab):
    E = _expm(X)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(system, "_EXPM_SLAB", slab)
        in_slabs = _expm(X)
    for i, M in enumerate(X):
        alone = _expm(M[None])[0]
        assert np.array_equal(E[i], alone)
        assert np.array_equal(in_slabs[i], alone)


@settings(max_examples=40, deadline=None)
@given(stacks(), st.sampled_from([np.inf, -np.inf, np.nan]), st.data())
def test_expm_non_finite_slice_does_not_spoil_its_neighbours(X, bad, data):
    i = data.draw(st.integers(0, X.shape[0] - 1))
    entry = data.draw(st.tuples(st.integers(0, X.shape[1] - 1),
                                st.integers(0, X.shape[1] - 1)))
    spoiled = X.copy()
    spoiled[(i,) + entry] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = _expm(spoiled)
    assert not np.isfinite(E[i]).all()
    for j in range(X.shape[0]):
        if j != i:
            assert np.array_equal(E[j], _expm(X[j][None])[0])


def test_expm_overflow_gives_non_finite_without_warning():
    X = np.stack([np.diag([800.0, -1.0]), np.diag([0.5, -1.0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = _expm(X)
    assert not np.isfinite(E[0]).all()
    assert np.allclose(E[1], np.diag(np.exp([0.5, -1.0])), rtol=1e-15, atol=0.0)
