"""List the function-body statements of src/gmcat that a test run never reaches.

Runs pytest in this process on the given arguments (test paths, and any
other pytest options such as --deselect) under a `sys.settrace` line
tracer, then prints, per module of src/gmcat, each statement inside a
function body that never ran. A statement counts as reached when any line
of its own (its header, for a compound statement) ran. Docstrings,
`pass`, `global`/`nonlocal` and `try:` headers compile to no traced line
and are not listed. Tests that fail under tracing (a time budget, a
hypothesis deadline) do not stop the listing; pytest's exit code is
printed with it. Hypothesis draws from seed 0 unless the arguments give
--hypothesis-seed, so two runs on one tree list the same statements; the
seed is printed too.

    python scripts/unreached.py tests/test_finset.py
    python scripts/unreached.py tests --deselect tests/test_acceptance.py::test_criterion_7_adjunction_suite
"""

import argparse
import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gmcat"
SILENT = (ast.Pass, ast.Global, ast.Nonlocal, ast.Try)


def _own_lines(stmt):
    """The lines that belong to stmt itself, not to the statements under it."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    inner = [s for field in ("body", "orelse", "finalbody")
             for s in getattr(stmt, field, ())]
    last = min(s.lineno for s in inner) - 1 if inner else stmt.end_lineno
    return range(first, max(first, last) + 1)


def _body_statements(tree):
    """(statement, its own lines) for every statement inside a function body."""
    out = []

    def visit(stmts, in_function):
        for stmt in stmts:
            is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            docstring = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            if in_function and not docstring and not isinstance(stmt, SILENT):
                out.append((stmt, _own_lines(stmt)))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, ()), in_function or is_def)
            for handler in getattr(stmt, "handlers", ()):
                visit(handler.body, in_function)
    visit(tree.body, False)
    return out


def trace(pytest_args):
    """Run pytest under the line tracer: (exit code, {file name: lines run})."""
    root, ran = str(PACKAGE), {}

    def local(frame, event, _):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, _):
        name = frame.f_code.co_filename
        if not name.startswith(root):
            return None
        ran.setdefault(name, set())
        return local
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    return code, ran


def with_hypothesis_seed(pytest_args):
    """(pytest_args, the hypothesis seed they give), adding seed 0 if none."""
    for i, arg in enumerate(pytest_args):
        if arg.startswith("--hypothesis-seed="):
            return pytest_args, arg.split("=", 1)[1]
        if arg == "--hypothesis-seed" and i + 1 < len(pytest_args):
            return pytest_args, pytest_args[i + 1]
    return [*pytest_args, "--hypothesis-seed=0"], "0"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("pytest_args", nargs=argparse.REMAINDER,
                    help="test paths and pytest options")
    args = ap.parse_args()
    pytest_args, seed = with_hypothesis_seed(args.pytest_args)
    code, ran = trace(pytest_args)
    total = 0
    print(f"\npytest exit code {int(code)} under tracing, hypothesis seed {seed}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        statements = _body_statements(ast.parse(source))
        seen = ran.get(str(path), set())
        missed = [s for s, own in statements if not seen.intersection(own)]
        total += len(missed)
        print(f"{path.stem}: {len(missed)} of {len(statements)} statements unreached")
        for stmt in missed:
            print(f"  {path.name}:{stmt.lineno}: {lines[stmt.lineno - 1].strip()}")
    print(f"total: {total} statements unreached")


if __name__ == "__main__":
    main()
