"""The benchmark's in-process workloads, at its default seed, must give
every report the digest perfbench/digests.json pins, so that a changed
report fails here as well as in the benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 2026  # the seed digests.json was written at


def workloads():
    """perfbench/workloads.py, imported under its own name without writing
    bytecode beside it; sys.path is restored afterwards, so perfbench's
    top-level modules shadow no later import."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))  # for its sibling import of calib
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("workload", ["free_adjunction", "structure_laws"])
def test_reports_match_the_pinned_digests(workload):
    wl = workloads()
    pinned = json.loads((PERFBENCH / "digests.json").read_text())[workload]
    got = {}
    for name, thunk, gate in wl.WORKLOADS[workload](SEED):
        rep = thunk()
        assert gate(rep) is None, name
        got[name] = wl.digest(rep)
    assert got == pinned
