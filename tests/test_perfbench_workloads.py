"""Every benchmark workload runs one pass on the library as it stands, with
all of its checks passing."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_pass_has_no_failed_operation(name):
    ops = WORKLOADS.Operations()
    summary, _ = WORKLOADS.WORKLOADS[name](3).run(ops)
    assert ops.failed == 0, ops.problems
    assert ops.attempted > 0
    assert summary is not None


@pytest.mark.parametrize("seed", range(10))
def test_floquet_path_checks_hold_at_every_seed(seed):
    # the seed drives the scan's sampler, so its checks must hold whichever
    # seed the benchmark is run with
    ops = WORKLOADS.Operations()
    WORKLOADS.WORKLOADS["floquet_path"](seed).run(ops)
    assert ops.failed == 0, ops.problems
