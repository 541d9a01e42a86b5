"""Plant one fault at a time in a module of src/gmcat and list the faults
that a pytest selection does not catch.

Each mutant replaces one statement of the module with `pass`: a
`failures.append(...)`, a `return False`, a `raise ...` or a
`bounded += 1`, the statements through which a check reports what it
found. The package is copied to a temporary directory, the one statement
is replaced there, and the selection runs in a fresh pytest process on
the copy (the working tree is never written). A mutant survives when the
selection still passes. The selection first runs on the unmutated copy,
and the script stops if that run fails. Hypothesis draws from seed 0
unless the arguments give --hypothesis-seed, as in unreached.py.

    python scripts/mutants.py opmonad tests/test_opmonad.py
    python scripts/mutants.py fincat tests/test_fincat.py -k functor

--src names the directory that holds the gmcat package (default: this
repository's src).
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from unreached import with_hypothesis_seed

SRC = Path(__file__).resolve().parent.parent / "src"


def _reports(stmt):
    """Whether stmt is one of the statements a mutant removes."""
    if isinstance(stmt, ast.Raise):
        return True
    if isinstance(stmt, ast.Return):
        return isinstance(stmt.value, ast.Constant) and stmt.value.value is False
    if isinstance(stmt, ast.AugAssign):
        return (isinstance(stmt.target, ast.Name) and stmt.target.id == "bounded"
                and isinstance(stmt.op, ast.Add)
                and isinstance(stmt.value, ast.Constant) and stmt.value.value == 1)
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        f = stmt.value.func
        return (isinstance(f, ast.Attribute) and f.attr == "append"
                and isinstance(f.value, ast.Name) and f.value.id == "failures")
    return False


def sites(source):
    """The statements a mutant removes, in source order."""
    found = [s for s in ast.walk(ast.parse(source)) if _reports(s)]
    return sorted(found, key=lambda s: (s.lineno, s.col_offset))


def mutate(source, stmt):
    """source with stmt replaced by `pass` (ast offsets count UTF-8 bytes)."""
    lines = source.encode().splitlines(keepends=True)
    head = lines[stmt.lineno - 1][:stmt.col_offset]
    tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:]
    lines[stmt.lineno - 1:stmt.end_lineno] = [head + b"pass" + tail]
    return b"".join(lines).decode()


def run(package_root, pytest_args):
    """pytest's exit code on the selection, importing gmcat from package_root.
    No bytecode is written: two mutants of one size written within a second
    would pass the timestamp check of a stale cache."""
    env = dict(os.environ, PYTHONPATH=str(package_root), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-o", f"pythonpath={package_root}", *pytest_args],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", type=Path, default=SRC,
                    help="directory holding the gmcat package")
    ap.add_argument("module", help="module of the gmcat package, e.g. opmonad")
    ap.add_argument("pytest_args", nargs=argparse.REMAINDER,
                    help="test paths and pytest options")
    args = ap.parse_args()
    pytest_args, seed = with_hypothesis_seed(args.pytest_args)
    source = (args.src / "gmcat" / f"{args.module}.py").read_text()
    with tempfile.TemporaryDirectory() as root:
        copy = Path(root) / "gmcat"
        shutil.copytree(args.src / "gmcat", copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / f"{args.module}.py"
        code = run(root, pytest_args)
        if code:
            sys.exit(f"the selection fails unmutated (pytest exit code {code})")
        survivors, planted = [], sites(source)
        for stmt in planted:
            target.write_text(mutate(source, stmt))
            code = run(root, pytest_args)
            where = (f"{args.module}.py:{stmt.lineno}: "
                     f"{source.splitlines()[stmt.lineno - 1].strip()}")
            print(f"{'survived' if code == 0 else 'killed'} {where}", flush=True)
            if code == 0:
                survivors.append(where)
    print(f"\nhypothesis seed {seed}; {len(planted)} mutants, "
          f"{len(survivors)} survived")
    for where in survivors:
        print(f"  {where}")


if __name__ == "__main__":
    main()
