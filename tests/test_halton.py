"""The in-package scrambled Halton offsets, and that the package avoids scipy.stats."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.stats import qmc

from affinecontrol.reach import _halton_offsets

SRC = Path(__file__).resolve().parents[1] / "src"


def test_halton_offsets_match_scipy_bit_for_bit():
    # scipy computes each point from its index alone, so the first n rows of
    # random(8) are random(n) of a fresh sampler
    for seed in range(51):
        for d in range(1, 7):
            expected = qmc.Halton(d=d, scramble=True, seed=seed).random(8)
            for n in range(1, 9):
                assert np.array_equal(_halton_offsets(d, n, seed), expected[:n]), (seed, d, n)


def test_import_does_not_load_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import affinecontrol, sys; "
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy.stats')); "
            "assert not loaded, loaded")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
