"""Property tests of `system._expm`, the stacked matrix exponential behind
every segment map, of `system._scaled`, its scaling step, and of
`system._solve_stack`, its solve for the Pade quotient, which works in the
entry-major (p, p + r, k) layout of `_expm`'s slabs; the tests here pass it
stacks (k, p, p) and transpose in and out (`solve`).

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
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm

from affinecontrol import system
from affinecontrol.config import MAX_EXP_GROWTH
from affinecontrol.system import _expm, _scaled, _solve_stack

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
    # `_EXPM_SLAB` counts entries: slabs of `slab` slices, and of one slice
    # when the count is below one slice's entries
    E = _expm(X)
    for entries in (slab * X.shape[-1] ** 2, slab):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(system, "_EXPM_SLAB", entries)
            in_slabs = _expm(X)
        for i, M in enumerate(X):
            assert np.array_equal(in_slabs[i], E[i])
    for i, M in enumerate(X):
        assert np.array_equal(E[i], _expm(M[None])[0])


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


def reference_scaled(A):
    """The scaling step as `_expm` first had it, on a stack A (k, p, p): the
    1-norm from short-axis reductions, and 2**-s applied by `np.ldexp`, with
    zeros for a slice of non-finite norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(A).sum(axis=1).max(axis=1)
        bad = ~np.isfinite(norm)
        frac, exp = np.frexp(np.where(bad, 0.0, norm) / system._THETA13)
        s = np.maximum(exp - (frac == 0.5), 0)
        return np.ldexp(np.where(bad[:, None, None], 0.0, A), -s[:, None, None]), s, bad


@st.composite
def scaling_stacks(draw):
    """Stacks (k, n, n), n = 1-5, each slice scaled to a 1-norm of 2**e, e from
    -1074 (subnormal entries) to 1023 (near overflow, s up to 1022), or zero,
    or theta_13 2**e exactly (the frac == 0.5 edge of the ceiling); some slices
    get an inf or NaN entry, or sum past the largest double."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = []
    for kind in draw(st.lists(st.sampled_from(["zero", "power", "theta", "inf", "nan",
                                               "overflow"]), min_size=1, max_size=8)):
        M = rng.normal(size=(n, n))
        e = draw(st.integers(-1074, 1023))
        if kind == "zero":
            M[...] = 0.0
        elif kind == "theta":  # one entry, so the 1-norm is theta 2**e exactly
            M = np.zeros((n, n))
            M[rng.integers(n), rng.integers(n)] = np.ldexp(system._THETA13, min(e, 1020))
        else:
            M = np.ldexp(M / np.abs(M).sum(axis=0).max(), e)
        if kind in ("inf", "nan"):
            M[rng.integers(n), rng.integers(n)] = np.inf if kind == "inf" else np.nan
        if kind == "overflow":  # finite entries whose column sum overflows
            M[:, 0] = 1.5e308
        X.append(M)
    return np.stack(X)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_exp2_of_the_scaling_exponents_is_exact():
    s = np.arange(1023)
    assert np.array_equal(bits(np.exp2(-s)), bits(np.ldexp(1.0, -s)))


@settings(max_examples=200, deadline=None)
@given(scaling_stacks())
def test_scaling_is_the_reference_bit_for_bit(X):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, s, bad = _scaled(X.transpose(1, 2, 0))
    got = got.transpose(2, 0, 1)
    ref, ref_s, ref_bad = reference_scaled(X)
    assert np.array_equal(s, ref_s) and s.dtype == ref_s.dtype
    assert np.array_equal(bad, ref_bad)
    assert np.array_equal(bits(got[~bad]), bits(ref[~bad]))  # signed zeros too
    assert np.isnan(got[bad]).all()
    assert s.max(initial=0) <= 1022


@settings(max_examples=60, deadline=None)
@given(st.one_of(scaling_stacks(), stacks(max_slices=8)))
def test_expm_is_the_reference_scaling_bit_for_bit(X):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = _expm(X)

    def entry_major_reference(A):
        ref, s, bad = reference_scaled(A.transpose(2, 0, 1))
        return ref.transpose(1, 2, 0), s, bad

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(system, "_scaled", entry_major_reference)
        expected = _expm(X)
    assert np.array_equal(bits(E), bits(expected))


@st.composite
def linear_systems(draw, max_slices=6):
    """Stacks A (k, p, p) and B (k, p, r).  A slice of A is one of the five
    kinds plus the identity, or of small integers, whose equal moduli tie for
    the pivot; its rows are shuffled, so zero leading entries need a pivot."""
    p = draw(st.integers(1, 5))
    A = np.stack(draw(st.lists(slices(p), min_size=1, max_size=max_slices))) + np.eye(p)
    k = A.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = rng.random(k) < 0.3
    A[ties] = rng.integers(-2, 3, size=(int(ties.sum()), p, p))
    A = A[np.arange(k)[:, None], rng.permuted(np.tile(np.arange(p), (k, 1)), axis=1)]
    B = rng.normal(size=(k, p, draw(st.integers(1, 3))))
    return A, B * draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]))


def solve(A, B):
    """`_solve_stack` of stacks A (k, p, p) and B (k, p, r): X (k, p, r), through
    a fresh entry-major working array [A | B] (p, p + r, k)."""
    W = np.concatenate([A, B], axis=2).transpose(1, 2, 0).copy()
    return _solve_stack(W).transpose(2, 0, 1)


def reference_solve(A, B):
    """One slice, by the loops that `_solve_stack` runs across a stack: at
    step j row j trades places with each later row whose entry in column j is
    larger in modulus than its own, so it ends up with the first largest, and
    the rows below are eliminated; back substitution goes column by column."""
    p = A.shape[0]
    W = np.hstack([A, B])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(p - 1):
            for i in range(j + 1, p):
                if abs(W[i, j]) > abs(W[j, j]):
                    W[[j, i]] = W[[i, j]]
            for i in range(j + 1, p):
                W[i, j + 1:] -= W[i, j] / W[j, j] * W[j, j + 1:]
        X = W[:, p:]
        for j in reversed(range(p)):
            X[j] /= W[j, j]
            for i in range(j):
                X[i] -= W[i, j] * X[j]
    return X


def exactly_singular(M):
    """Whether the square float matrix M is singular, by elimination in exact
    rational arithmetic: a LAPACK determinant of a singular slice of small
    integers can round to a tiny nonzero value."""
    W = [[Fraction(float(x)) for x in row] for row in M]
    p = len(W)
    for j in range(p):
        pivot = next((i for i in range(j, p) if W[i][j] != 0), None)
        if pivot is None:
            return True
        W[j], W[pivot] = W[pivot], W[j]
        for i in range(j + 1, p):
            f = W[i][j] / W[j][j]
            W[i] = [a - f * b for a, b in zip(W[i], W[j])]
    return False


@settings(max_examples=80, deadline=None)
@given(linear_systems())
def test_solve_stack_backward_error(system_pair):
    A, B = system_pair
    # a slice of integers, or a diagonal entry of -1 against the identity,
    # can be exactly singular
    assume(np.all(np.linalg.det(A) != 0.0))
    assume(not any(exactly_singular(Ai) for Ai in A))
    X = solve(A, B)
    for Ai, Bi, Xi in zip(A, B, X):
        assert one_norm(Ai @ Xi - Bi) <= 1e-14 * one_norm(Ai) * one_norm(Xi)


@settings(max_examples=80, deadline=None)
@given(linear_systems(max_slices=8))
def test_solve_stack_slices_are_the_per_slice_loop_and_ignore_the_stack(system_pair):
    A, B = system_pair
    X = solve(A, B)
    for i in range(A.shape[0]):
        alone = solve(A[i:i + 1], B[i:i + 1])[0]
        assert np.array_equal(X[i], alone, equal_nan=True)  # bit for bit
        assert np.array_equal(X[i], reference_solve(A[i], B[i]), equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(stacks(max_slices=8))
def test_expm_leaves_its_input_alone(X):
    # one slice included: there the entry-major transpose of a slab is a view
    for x in (X, X[:1]):
        before = x.copy()
        _expm(x)
        assert np.array_equal(x, before)


@settings(max_examples=60, deadline=None)
@given(linear_systems(), st.sampled_from(["singular", "nan"]), st.data())
def test_solve_stack_bad_slice_spoils_only_itself(system_pair, kind, data):
    A, B = system_pair
    i = data.draw(st.integers(0, A.shape[0] - 1))
    row, col = data.draw(st.tuples(st.integers(0, A.shape[1] - 1),
                                   st.integers(0, A.shape[1] - 1)))
    spoiled = A.copy()
    if kind == "singular":
        spoiled[i, :, col] = 0.0
    else:
        spoiled[i, row, col] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X = solve(spoiled, B)
        clean = solve(A, B)
    assert not np.isfinite(X[i]).all()
    for j in range(A.shape[0]):
        if j != i:
            assert np.array_equal(X[j], clean[j], equal_nan=True)
