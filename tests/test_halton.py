"""The in-package scrambled Halton offsets match SciPy's sampler."""

import numpy as np
from scipy.stats import qmc

from affinecontrol.reach import _halton_offsets


def test_halton_offsets_match_scipy_bit_for_bit():
    # scipy computes each point from its index alone, so the first n rows of
    # random(8) are random(n) of a fresh sampler
    for seed in range(51):
        for d in range(1, 7):
            expected = qmc.Halton(d=d, scramble=True, seed=seed).random(8)
            for n in range(1, 9):
                assert np.array_equal(_halton_offsets(d, n, seed), expected[:n]), (seed, d, n)

