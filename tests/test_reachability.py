"""Every construction in src/gmcat is reached from outside its own unit tests.

Definitions are resolved by name, with `ast`: each top-level def, class and
module-level assignment, and each non-dunder method. A definition is live
when its name is referenced from the CLI entry point, `scripts/`,
`perfbench/`, `tests/test_acceptance.py`, or from the body of another live
definition (string constants count, for `getattr` and the tracer's tables).
A class's dunder methods live with their class. A definition that only its
own unit tests call is dead code, unless KEEP names it with a reason.

Names are simple names, not qualified ones, so a dead method that shares
its name with a live definition (a method `act` beside `CatOperad.act`, say)
counts as live: this test cannot see it, and review has to.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gmcat"

# what stays though no criterion, script or CLI path reaches it: checks of
# statements of the paper, test oracles and the algebra encoder; a name
# leaves this list when live code reaches it
KEEP = {
    "validate_monad_laws": "the monad laws of D, a statement of the paper",
    "validate_monad_category": "DC is a category, a statement of the paper",
    "validate_coeq_fork": "the coequalizer fork of L, a statement of the paper",
    "descent_report": "descent along the hom-set quotient, a statement of the paper",
    "kappa_report": "the comparison maps kappa, a statement of the paper",
    "over_point_form": "the over-point form of a multicategory, a statement of the paper",
    "transport_presheaf": "the presheaf transport that over_point_form rests on",
    "to_algebra": "the only check that L(M) satisfies the algebra laws",
    "validate_functor": "the functor-law oracle of the unit tests",
    "is_pullback": "the universal-property oracle of the unit tests",
    "encode_algebra": "writes the algebra JSON that the CLI reads",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _references(nodes):
    """The names, attributes and identifier-like strings under the nodes."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                out.add(node.value)
    return out


def _definitions():
    """(qualified name, simple name, referenced names) per definition, and
    the names that module-level statements which define nothing reference."""
    defs, roots = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((f"{mod}.{node.name}", node.name, _references([node])))
            elif isinstance(node, ast.ClassDef):
                own = [*node.bases, *node.decorator_list, *node.keywords]
                for item in node.body:
                    name = getattr(item, "name", None)
                    if name is None or _is_dunder(name):
                        own.append(item)
                    else:
                        defs.append((f"{mod}.{node.name}.{name}", name,
                                     _references([item])))
                defs.append((f"{mod}.{node.name}", node.name, _references(own)))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                refs = _references([node.value] if node.value else [])
                for t in targets:
                    if isinstance(t, ast.Name) and not _is_dunder(t.id):
                        defs.append((f"{mod}.{t.id}", t.id, refs))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _references([node])
    return defs, roots


def _outside_roots():
    files = [*sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    return _references([ast.parse(p.read_text()) for p in files])


def _live(defs, roots):
    live, frontier = set(), set(roots)
    while frontier:
        name = frontier.pop()
        for qual, simple, refs in defs:
            if simple == name and qual not in live:
                live.add(qual)
                frontier |= refs - {simple}
    return live


def test_every_definition_is_reached():
    defs, roots = _definitions()
    live = _live(defs, roots | _outside_roots() | set(KEEP))
    dead = sorted(qual for qual, _, _ in defs if qual not in live)
    assert dead == [], f"only their own unit tests reach {dead}"


def test_keep_list_names_only_otherwise_dead_definitions():
    defs, roots = _definitions()
    names = {simple for _, simple, _ in defs}
    assert set(KEEP) <= names, f"kept but not defined: {sorted(set(KEEP) - names)}"
    live = _live(defs, roots | _outside_roots())
    reached = sorted(qual for qual, simple, _ in defs if simple in KEEP and qual in live)
    assert reached == [], f"live code reaches {reached}; drop them from KEEP"
