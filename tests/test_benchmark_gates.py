"""Each benchmark workload passes its correctness gate at the default seed.

perfbench/workloads.py holds the three benchmark workloads and the gate a
timed run must pass: exit codes, exact check counts and the sha256 of the
canonical output.  Running every workload once here means a change that
alters a benchmark-size report fails the test suite, not only the
benchmark.  perfbench/ is only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_passes_its_gate_at_the_default_seed(name):
    workload = WORKLOADS.WORKLOADS[name]
    seed = WORKLOADS.DEFAULT_SEED
    outcome = workload.run(WORKLOADS.draw_mu(seed))
    assert WORKLOADS.problems(workload, seed, outcome) == []
