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


def test_unreached_lists_the_node_ids_that_reach_each_function(tmp_path):
    # identity_perm runs as the module is collected, the rest inside tests
    probe = tmp_path / "test_probe.py"
    probe.write_text("from gmcat.finset import fibres, identity_perm, sort_labels\n\n"
                     "ONE = identity_perm(1)\n\n"
                     "def test_sort():\n    assert sort_labels([2, 1]) == (1, 2)\n\n"
                     "def test_fibres():\n    assert fibres([1], str) == {'1': [1]}\n")
    out = run_script("unreached.py", "--by-function", str(probe))
    assert "pytest exit code 0 under tracing" in out
    reached, counts = {}, {}
    for line in out.split("node ids reaching each function\n")[1].splitlines():
        if line.startswith("  "):
            reached[name].append(line.strip())
        else:
            name, count = line.rsplit(": ", 1)
            reached[name], counts[name] = [], int(count)
    assert counts == {name: len(ids) for name, ids in reached.items()}
    # each id as pytest prints it, relative to its root directory
    short = {name: [i.rsplit("/", 1)[-1] for i in ids] for name, ids in reached.items()}
    assert short["finset.sort_labels"] == short["finset.canon_key"] == [
        "test_probe.py::test_sort"]
    assert short["finset.fibres"] == ["test_probe.py::test_fibres"]
    assert short["finset.identity_perm"] == ["test_probe.py"]
    assert short["finset.Perm.__post_init__"] == ["test_probe.py"]
    assert short["finset.perms"] == short["adjoint.hat_compose"] == []
    assert short["adjoint.counit_report.judge"] == []


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


def test_mutants_lists_the_faults_a_selection_misses(tmp_path):
    # a two-function probe package: the tests catch the dropped failure and
    # the dropped `return False`, not the dropped raise or count
    package = tmp_path / "src" / "gmcat"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "probe.py").write_text(
        "def negatives(xs):\n"
        "    failures, bounded = [], 0\n"
        "    for x in xs:\n"
        "        if x < 0:\n"
        "            failures.append(x)\n"
        "        if x > 9:\n"
        "            bounded += 1\n"
        "    return failures, bounded\n\n\n"
        "def positive(x):\n"
        "    if x > 99:\n"
        "        raise ValueError('too large')\n"
        "    if x <= 0:\n"
        "        return False\n"
        "    return True\n")
    probe = tmp_path / "test_probe.py"
    probe.write_text("from gmcat.probe import negatives, positive\n\n"
                     "def test_negatives():\n    assert negatives([-1, 2])[0] == [-1]\n\n"
                     "def test_positive():\n    assert positive(1) and not positive(0)\n")
    out = run_script("mutants.py", "--src", str(tmp_path / "src"), "probe", str(probe))
    assert out.splitlines()[:4] == [
        "killed probe.py:5: failures.append(x)",
        "survived probe.py:7: bounded += 1",
        "survived probe.py:13: raise ValueError('too large')",
        "killed probe.py:15: return False"]
    assert "hypothesis seed 0; 4 mutants, 2 survived\n" in out
    # the working copy is not written
    assert "raise ValueError" in (package / "probe.py").read_text()
