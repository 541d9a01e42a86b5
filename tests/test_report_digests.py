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


def workloads(name="workloads"):
    """perfbench/<name>.py, imported under its own name without writing
    bytecode beside it; sys.path is restored afterwards, so perfbench's
    top-level modules shadow no later import."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
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


def test_cli_reports_match_the_pinned_digests(tmp_path, monkeypatch, capsys):
    # the benchmark's cli_cold commands, run in process on the inputs it
    # writes: every report it pins keeps its digest
    from gmcat.cli import main
    wl, clicmd = workloads(), workloads("clicmd")
    pinned = json.loads((PERFBENCH / "digests.json").read_text())["cli_cold"]
    clicmd.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    got = {}
    for name, argv, gate in clicmd.commands(SEED):
        capsys.readouterr()
        code = main(argv)
        rep = clicmd.parse_report(capsys.readouterr().out, argv, tmp_path)
        assert clicmd.gate(gate, code, rep) is None, name
        got[name] = wl.digest(rep)
    assert {name: got.get(name) for name in pinned} == pinned
