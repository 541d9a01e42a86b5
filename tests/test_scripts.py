"""Smoke runs of the README's scripts, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("operad", ["barratt_eccles", "associativity"])
def test_hom_table_matches_closed_form(operad):
    out = run_script("hom_table.py", "--operad", operad, "--max-arity", "3")
    assert "all cells match the closed form" in out


def test_hom_table_hat():
    out = run_script("hom_table.py", "--max-arity", "3", "--hat")
    assert "provisional hom sizes" in out


def test_unit_defect_demo():
    out = run_script("unit_defect_demo.py", "--truncate", "3")
    symmetric = out.split("associativity:")[0]
    assert "identified by the quotient: True" in symmetric


def test_unreached_lists_the_statements_a_run_never_reaches(tmp_path):
    # one passing and one failing test: the failure does not stop the listing
    probe = tmp_path / "test_probe.py"
    probe.write_text("from gmcat.finset import canon_key\n\n"
                     "def test_none():\n    assert canon_key(None) == (0,)\n\n"
                     "def test_fails():\n    assert canon_key(1) == (0,)\n")
    out = run_script("unreached.py", str(probe))
    assert "pytest exit code 1 under tracing" in out
    listed = out.split("under tracing")[1]
    # canon_key returned at None and at an int, and nothing else ran
    finset = {line.split(": ", 1)[1] for line in listed.splitlines()
              if line.startswith("  finset.py:")}
    assert "return (3, x)" in finset
    assert not {"return (0,)", "return (2, x)"} & finset
    adjoint = next(line for line in listed.splitlines() if line.startswith("adjoint:"))
    missed, _, of = adjoint.split()[1:4]
    assert missed == of != "0"
    assert listed.rstrip().endswith("statements unreached")


@pytest.mark.parametrize("given, seed", [([], "0"), (["--hypothesis-seed=5"], "5"),
                                         (["--hypothesis-seed", "7"], "7")],
                         ids=["default", "equals", "separate"])
def test_unreached_pins_the_hypothesis_seed_unless_given_one(given, seed, tmp_path):
    # the probe passes only if pytest received the printed seed
    probe = tmp_path / "test_seed.py"
    probe.write_text("def test_seed(request):\n"
                     f"    assert request.config.getoption('hypothesis_seed') == {seed!r}\n")
    out = run_script("unreached.py", str(probe), *given)
    assert f"pytest exit code 0 under tracing, hypothesis seed {seed}\n" in out
