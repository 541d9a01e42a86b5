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

With --by-function (before the pytest arguments) it also lists, per
function of src/gmcat, the pytest node ids that reach it: the tests that
called it, and the test modules whose collection (module-level set-up)
called it. Each id is a valid pytest argument, so a mutation check can
run only the tests that reach the function it mutates.

    python scripts/unreached.py tests/test_finset.py
    python scripts/unreached.py tests --deselect tests/test_acceptance.py::test_criterion_7_adjunction_suite
    python scripts/unreached.py --by-function tests/test_finset.py
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


def _functions(tree):
    """(dotted name, first line) for every function in tree, methods and
    nested functions named under their class or function. The first line
    is the one a code object starts at: the first decorator's, if any."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    out.append((prefix + child.name, min(
                        [child.lineno] + [d.lineno for d in child.decorator_list])))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)
    visit(tree, "")
    return out


class _CurrentNode:
    """A pytest plugin that tracks the node whose code runs: the test being
    run, or the module being collected (and so imported)."""

    def __init__(self):
        self.nodeid = None

    def pytest_collectstart(self, collector):
        self.nodeid = collector.nodeid

    def pytest_runtest_logstart(self, nodeid, location):
        self.nodeid = nodeid


def trace(pytest_args):
    """Run pytest under the line tracer: (exit code, {file name: lines run},
    {(file name, first line of a function): node ids that called it})."""
    root, ran, callers = str(PACKAGE), {}, {}
    node = _CurrentNode()

    def local(frame, event, _):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, _):
        name = frame.f_code.co_filename
        if not name.startswith(root):
            return None
        ran.setdefault(name, set())
        callers.setdefault((name, frame.f_code.co_firstlineno), set()).add(node.nodeid)
        return local
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args],
                           plugins=[node])
    finally:
        sys.settrace(None)
    return code, ran, callers


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
    ap.add_argument("--by-function", action="store_true",
                    help="also list the node ids that reach each function")
    ap.add_argument("pytest_args", nargs=argparse.REMAINDER,
                    help="test paths and pytest options")
    args = ap.parse_args()
    pytest_args, seed = with_hypothesis_seed(args.pytest_args)
    code, ran, callers = trace(pytest_args)
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
    if args.by_function:
        print("\nnode ids reaching each function")
        for path in sorted(PACKAGE.glob("*.py")):
            for name, first in _functions(ast.parse(path.read_text())):
                ids = sorted(n for n in callers.get((str(path), first), ())
                             if n is not None)
                print(f"{path.stem}.{name}: {len(ids)}")
                for nodeid in ids:
                    print(f"  {nodeid}")


if __name__ == "__main__":
    main()
