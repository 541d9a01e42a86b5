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
