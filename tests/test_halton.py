"""The in-package scrambled Halton offsets match SciPy's sampler, and the
test offsets built on them are memoised."""

import numpy as np
from scipy.stats import qmc

from affinecontrol.reach import _halton_offsets, _test_offsets


def test_halton_offsets_match_scipy_bit_for_bit():
    # scipy computes each point from its index alone, so the first n rows of
    # random(8) are random(n) of a fresh sampler
    for seed in range(51):
        for d in range(1, 7):
            expected = qmc.Halton(d=d, scramble=True, seed=seed).random(8)
            for n in range(1, 9):
                assert np.array_equal(_halton_offsets(d, n, seed), expected[:n]), (seed, d, n)



def test_test_offsets_are_memoised_and_read_only():
    # the graph builders share one array per (cell_dims, pts_per_box, seed)
    offsets = _test_offsets(3, 5, 7)
    assert _test_offsets(3, 5, 7) is offsets
    assert not offsets.flags.writeable
    expected = np.vstack([np.full((1, 3), 0.5), _halton_offsets(3, 4, 7)])
    assert np.array_equal(offsets, expected)
    assert not np.array_equal(_test_offsets(3, 5, 8), offsets)
