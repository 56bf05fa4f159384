import os
import random
import sys
from pathlib import Path

import pytest

# Let test modules import the shared oracle helpers as plain `oracles`.
sys.path.insert(0, os.path.dirname(__file__))

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def benchmark_batch(tmp_path):
    """The seed-1 operations of a workload of perfbench/, seeded as its run.py seeds them."""

    def batch(workload):
        sys.path.insert(0, str(_PERFBENCH))  # workloads imports its sibling module checks
        try:
            import workloads
        finally:
            sys.path.remove(str(_PERFBENCH))
        return workloads.WORKLOADS[workload](random.Random(f"{workload}-1"), tmp_path)

    return batch
