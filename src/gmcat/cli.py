"""Batch front end: load structures, run the validators, emit reports.

Targets are builtin names or JSON files (see docs/formats.md). Exit codes:
0 all checks pass, 1 a verified violation, 2 unusable input or config,
3 a requested computation does not fit inside the truncation, 4 an internal
error (an unexpected exception; its traceback goes to stderr).
"""

import argparse
import json
import os
import sys
import time
import traceback
from collections import Counter

from . import jsonio
from .adjoint import (L, check_triangles, counit_report, hat_L,
                      hat_unit_report, unit_report, witness_hat_unit_failure)
from .catoperad import BUILTIN_OPERADS, freeness_report, validate_operad
from .dalgebra import (free_algebra, terminal_algebra, underlying,
                       validate_algebra, z2_discrete_algebra)
from .dmulticat import (_encode, _level_unit_obj, terminal_multicat,
                        validate_classical, validate_multicat)
from .errors import BoundExceeded, StructuralError
from .fincat import terminal_category, validate_category
from .report import (DEFAULT_BOUND, DEFAULT_TRUNCATE, RunConfig, build, check,
                     emit, exit_code, from_validator)


def build_parser():
    p = argparse.ArgumentParser(
        prog="gmcat",
        description="Validate finite operads of categories, multicategories "
                    "over them, and their algebras; enumerate free-algebra "
                    "hom-sets and check the adjunction identities.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--operad", metavar="NAME|PATH",
                        help="ambient operad (builtin name or operad JSON)")
        sp.add_argument("--truncate", type=int, default=DEFAULT_TRUNCATE,
                        help="builtin operad truncation level")
        sp.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                        help="arity bound for checks (default 3)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for sampled coherence checks")
        sp.add_argument("--hom", nargs=2, metavar=("SRC", "TGT"),
                        help="hom-set to enumerate: arity or JSON label list")
        sp.add_argument("--hat", action="store_true",
                        help="use the provisional construction (no quotient)")
        sp.add_argument("--require-sigma-free", action="store_true",
                        dest="require_sigma_free",
                        help="fail unless every level action is free")
        sp.add_argument("--out", metavar="PATH",
                        help="write the JSON report here instead of stdout")

    v = sub.add_parser("validate", help="run a structure's validator")
    v.add_argument("kind", choices=["operad", "multicat", "algebra"])
    v.add_argument("target", help="builtin name or JSON path")
    common(v)

    f = sub.add_parser("free", help="enumerate a hom-set of the free algebra")
    f.add_argument("target", help="multicategory: builtin name or JSON path")
    common(f)

    u = sub.add_parser("underlying",
                       help="validate an algebra and dump its multicategory")
    u.add_argument("target", help="algebra: builtin name or JSON path")
    common(u)

    c = sub.add_parser("check-adjunction",
                       help="unit, counit, and triangle identities")
    c.add_argument("multicat", help="builtin name or JSON path")
    c.add_argument("algebra", help="builtin name or JSON path")
    common(c)
    return p


def _config(args):
    targets = {"validate": lambda a: (a.kind, a.target),
               "free": lambda a: (a.target,),
               "underlying": lambda a: (a.target,),
               "check-adjunction": lambda a: (a.multicat, a.algebra)}
    return RunConfig(command=args.command, targets=targets[args.command](args),
                     operad=args.operad, truncate=args.truncate,
                     bound=args.bound, seed=args.seed,
                     hom=tuple(args.hom) if args.hom else None, hat=args.hat,
                     require_sigma_free=args.require_sigma_free, out=args.out)


# ---------------------------------------------------------------------------
# target loading

def _load_doc(path, kinds):
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    doc = jsonio.load(path)
    if "kind" not in doc and isinstance(doc.get("dump"), dict):
        doc = doc["dump"]  # accept a report file produced with --out
    if doc.get("kind") not in kinds:
        raise StructuralError(
            f"{path}: expected one of {sorted(kinds)}, got {doc.get('kind')!r}")
    return doc


def _operad_target(target, cfg):
    if target in BUILTIN_OPERADS:
        return BUILTIN_OPERADS[target](cfg.truncate)
    return jsonio.decode_operad(_load_doc(target, {"operad"}))


def _operad_for(cfg):
    op = _operad_target(cfg.operad or "barratt_eccles", cfg)
    if op.max_level < cfg.bound:
        raise StructuralError(
            f"operad truncation {op.max_level} below arity bound {cfg.bound}")
    return op


def _multicat_target(target, cfg, lawful=False):
    """Returns (multicat or None, checks accumulated while loading). With
    `lawful`, a multicategory read from JSON must first pass the axioms
    `validate multicat` checks: on a failure it comes back as None, with
    that check; a passing check stays out of the report."""
    if target == "terminal":
        return terminal_multicat(_operad_for(cfg)), []
    if target == "terminal_symmetric":
        return terminal_multicat(_operad_target("barratt_eccles", cfg)), []
    if target == "terminal_nonsymmetric":
        return terminal_multicat(_operad_target("associativity", cfg)), []
    doc = _load_doc(target, {"dmulticat", "classical_multicat"})
    if doc["kind"] == "dmulticat":
        M, checks = jsonio.decode_multicat(doc), []
    else:
        cm = jsonio.decode_classical(doc)
        symmetric = doc.get("symmetric", bool(cm.act))
        rep = validate_classical(cm, symmetric)  # _encode reuses the report
        pre = from_validator("classical multicategory axioms", rep)
        if pre["status"] != "pass":
            return None, [pre]
        op = (_operad_for(cfg) if cfg.operad else _operad_target(
            "barratt_eccles" if symmetric else "associativity", cfg))
        M, checks = _encode(cm, op, symmetric, rep), [pre]
    if lawful:
        axioms = from_validator("multicategory axioms",
                                validate_multicat(M, seed=cfg.seed))
        if axioms["status"] == "fail":
            return None, checks + [axioms]
    return M, checks


def _algebra_target(target, cfg, lawful=False):
    """Returns (algebra or None, checks), with `lawful` as for
    _multicat_target: an algebra read from JSON must first pass the checks
    `validate algebra` runs."""
    if target in ("z2_discrete", "z2"):
        return z2_discrete_algebra(_operad_for(cfg)), []
    if target == "terminal":
        return terminal_algebra(_operad_for(cfg)), []
    if target == "free":
        return free_algebra(_operad_for(cfg), terminal_category(), cfg.bound), []
    A = jsonio.decode_algebra(_load_doc(target, {"algebra"}))
    checks = _algebra_checks(A, cfg) if lawful else []
    if any(c["status"] == "fail" for c in checks):
        return None, checks
    return A, []


def _object_spec(spec, M, op):
    """An object of the free algebra: an arity or a JSON list of labels (over
    the least object of its level), or an object-level element (any orbit)."""
    try:
        n = int(spec)
    except ValueError:
        try:
            doc = json.loads(spec)
        except json.JSONDecodeError:
            raise StructuralError(
                f"hom spec {spec!r} is neither an arity nor a JSON list")
    else:
        if n < 0:
            raise StructuralError(f"hom spec {spec!r} is a negative arity")
        if len(M.objects) != 1:
            raise StructuralError(
                "arity shorthand needs a single-object multicategory")
        doc = [M.objects[0]] * n
    if isinstance(doc, list):
        doc = {"j": 0, "d": _level_unit_obj(op, len(doc)), "xs": doc}
    if not (isinstance(doc, dict) and doc.get("j") == 0 and "d" in doc
            and isinstance(doc.get("xs"), list)):
        raise StructuralError(f"hom spec {spec!r} must be a JSON list or "
                              "an object-level element")
    e = jsonio.decode_elem(op, doc)
    for x in e.xs:
        if x not in M.objects:
            raise StructuralError(f"{x!r} is not an object of the multicategory")
    return e


def _algebra_checks(A, cfg):
    """The carrier's category laws, then the algebra laws, which read the
    carrier's tables and so run only on a carrier that passed."""
    checks = [from_validator("carrier category laws", validate_category(A.carrier))]
    if checks[0]["status"] != "fail":
        checks.append(from_validator("algebra laws", validate_algebra(A, cfg.bound)))
    return checks


# ---------------------------------------------------------------------------
# commands

def cmd_validate(cfg):
    kind, target = cfg.targets
    checks = []
    if kind == "operad":
        op = _operad_target(target, cfg)
        checks.append(from_validator("operad laws", validate_operad(op)))
        if cfg.require_sigma_free:
            rep = freeness_report(op)
            checks.append(from_validator(
                "sigma freeness", {**rep, "failures": rep["witnesses"]}))
    elif kind == "multicat":
        M, checks = _multicat_target(target, cfg)
        if M is not None:
            checks.append(from_validator(
                "multicategory axioms", validate_multicat(M, seed=cfg.seed)))
    else:
        checks = _algebra_checks(_algebra_target(target, cfg)[0], cfg)
    return build(cfg, checks)


def cmd_free(cfg):
    if cfg.hom is None:
        raise StructuralError("free needs --hom SRC TGT")
    M, checks = _multicat_target(cfg.targets[0], cfg, lawful=True)
    if M is None:
        return build(cfg, checks)
    op = M.operad
    a, b = (_object_spec(spec, M, op) for spec in cfg.hom)
    lz = hat_L(M) if cfg.hat else L(M)
    classes = lz.hom(a, b)
    if cfg.hat:
        listing = [{"morphism": repr(h)} for h in classes]
    else:
        listing = [{"representative": repr(h), "members": len(lz.members(h))}
                   for h in classes]
    checks.append(check("hom enumeration", True,
                        counts={"classes": len(classes)}))
    dump = {"source": repr(a), "target": repr(b),
            "count": len(classes), "classes": listing}
    return build(cfg, checks, dump)


def cmd_underlying(cfg):
    A, _ = _algebra_target(cfg.targets[0], cfg)
    checks = _algebra_checks(A, cfg)
    if any(c["status"] == "fail" for c in checks):
        return build(cfg, checks)
    U = underlying(A, cfg.bound)
    by_arity = Counter(map(U.arity, U.morphisms))
    checks.append(check("underlying multimorphisms", True,
                        counts={"morphisms": len(U.morphisms),
                                **{f"arity_{n}": c
                                   for n, c in sorted(by_arity.items())}}))
    dump = jsonio.encode_multicat(U)
    dump["morphisms_by_arity"] = {str(n): c for n, c in sorted(by_arity.items())}
    return build(cfg, checks, dump)


def cmd_check_adjunction(cfg):
    M, checks = _multicat_target(cfg.targets[0], cfg, lawful=True)
    if M is None:
        return build(cfg, checks)
    A, loaded = _algebra_target(cfg.targets[1], cfg, lawful=True)
    if A is None:
        return build(cfg, checks + loaded)
    if (M.operad.name, M.operad.max_level) != (A.operad.name,
                                               A.operad.max_level):
        raise StructuralError(
            f"operad mismatch: multicategory over {M.operad.name}"
            f"({M.operad.max_level}), algebra over {A.operad.name}"
            f"({A.operad.max_level})")
    dump = None
    if cfg.hat:
        rep = hat_unit_report(M)
        checks.append(from_validator("unit checklist (provisional)", rep))
        if not rep["ok"]:
            w = witness_hat_unit_failure(M)
            if w is not None:
                dump = {"unit_defect": {k: repr(v) for k, v in w.items()}}
    else:
        checks.append(from_validator("unit multicategory-map checklist",
                                     unit_report(M)))
    checks.append(from_validator("counit algebra map",
                                 counit_report(A, bound=cfg.bound)))
    tri = check_triangles(M, A, bound=cfg.bound)
    checks.append(from_validator(
        "triangle identities",
        {**tri, "failures": tri["triangle_U"] + tri["triangle_L"]}))
    return build(cfg, checks, dump)


_COMMANDS = {"validate": cmd_validate, "free": cmd_free,
             "underlying": cmd_underlying,
             "check-adjunction": cmd_check_adjunction}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        report = _COMMANDS[cfg.command](cfg)
    except json.JSONDecodeError as exc:
        print(f"error: JSON parse failure: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, StructuralError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a crash must not read as a failed check
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    emit(report, cfg, time.perf_counter() - t0)
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
