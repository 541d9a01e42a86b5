"""In-process workloads: inputs built from gmcat's public API, and their checks.

Each workload is a list of named checks. A check is a thunk that returns a
report and a gate that says whether the report is the verdict the check
must give; the gate holds for every seed. Inputs follow the acceptance
battery (truncation 4, arity bound 3, the 5x5 hom grid, 100 squares per
monad), with two exceptions that let a run hold three passes. The
word-case pair (terminal non-symmetric, free algebra) is checked at bound
2, with carrier bound 2: at bound 3 its counit check takes 4 s a pass
with carrier bound 2, and about 30 s with carrier bound 3. The symmetric
pair keeps bound 3 and runs the same code. And `structure_laws` leaves
out `validate_operad(barratt_eccles(4))`, about 5 s a pass, which
`cli_cold` runs as its first command.

The cartesian checks draw their squares and naturality maps from the
acceptance battery's seed, not from SEED: the sizes of the twelve random
maps swing the largest check's time by a third from seed to seed, which
would hide a change of that size. SEED still drives the covers, the orbit
squares, the coherence sample and the order of the hom grid.

Run as a script, this module is the child process of one measured run:

    python3 perfbench/workloads.py WORKLOAD SEED MODE OUT

MODE is `setup` (import and build only), `run` (a cold pass and a warm
pass), `cold` (the cold pass alone), `base` (a cold pass that does not
read the host's speed), `spans` or `counts` (one cold pass under the
tracer). The child writes its measurements as JSON to OUT: each check's
wall time and its time scaled to the reference speed (calib.py).
"""

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from math import comb
from random import Random

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import calib  # noqa: E402

TRUNCATE = 4
BOUND = 3
WORD_BOUND = 2
CARTESIAN_SEED = 2026   # the acceptance battery's; see the module docstring


def digest(rep):
    from gmcat.report import jsonable
    text = json.dumps(jsonable(rep), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# helpers rebuilt from the public API (the test suite has its own copies)

def chaotic_sym(n):
    from gmcat.fincat import category
    from gmcat.finset import perms
    objs = [p.images for p in perms(n)]
    mors = [(a, b) for a in objs for b in objs]
    return category(objs, mors, {m: m[0] for m in mors},
                    {m: m[1] for m in mors}, {o: (o, o) for o in objs},
                    {((b, c), (a, b2)): (a, c)
                     for (b, c) in mors for (a, b2) in mors if b2 == b})


def sym2_monoid():
    from gmcat.fincat import category
    comp = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s",
            ("s", "s"): "e"}
    return category(("*",), ("e", "s"), {"e": "*", "s": "*"},
                    {"e": "*", "s": "*"}, {"*": "e"}, comp)


def regular_action(n, orbits=1):
    from gmcat.finset import GroupAction, Perm, perms
    G = perms(n)
    carrier = tuple((o, g.images) for o in range(orbits) for g in G)
    table = {(s, (o, gi)): (o, s.compose(Perm(gi)).images)
             for s in G for (o, gi) in carrier}
    return GroupAction(G, carrier, table, free=True)


def seeded_covers(seed, count):
    """Projections from categories of elements: each (base, presheaf) pair
    once in a seeded order, then the first pairs again, so that every seed
    checks the same covers. Drawing all of them, as the acceptance battery
    does, makes the work swing several-fold by seed."""
    from gmcat.fincat import (c0_presheaf, c1_presheaf, discrete_category,
                              grothendieck, terminal_category)
    rng = Random(seed)
    bases = [terminal_category, lambda: discrete_category(("a", "b")),
             sym2_monoid, lambda: chaotic_sym(2)]
    pairs = [(b, p) for b in bases for p in (c0_presheaf, c1_presheaf)]
    drawn = list(pairs)
    rng.shuffle(drawn)
    drawn += pairs[:count - len(pairs)]
    return [grothendieck(sheaf(base()))[1] for base, sheaf in drawn[:count]]


def seeded_orbit_squares(seed, count):
    """Pullback squares of free group actions with seeded equivariant maps.
    Every seed uses the same shapes (group order and orbit counts), in a
    seeded order; drawing the shapes too, as the acceptance battery does,
    makes the work swing two-fold by seed."""
    from gmcat.finset import Perm, finset, fn, perms
    rng = Random(seed)
    shapes = [(n, na, nb, nz) for n in (2, 3) for na in (1, 2)
              for nb in (1, 2) for nz in (1, 2)]
    shapes = [shapes[i % len(shapes)] for i in range(count)]
    rng.shuffle(shapes)
    out = []
    for n, na, nb, nz in shapes:
        A, B, Z = (regular_action(n, k) for k in (na, nb, nz))
        G = perms(n)

        def eqmap(src_orbits):
            targets = [(rng.randrange(nz), rng.choice(G))
                       for _ in range(src_orbits)]

            def f(x):
                o, gi = x
                i, h = targets[o]
                return (i, Perm(gi).compose(h).images)
            return f

        f = fn(finset(A.carrier), finset(Z.carrier), eqmap(na))
        g = fn(finset(B.carrier), finset(Z.carrier), eqmap(nb))
        out.append((f, g, A, B, Z))
    return out


# ---------------------------------------------------------------------------
# gates

def is_ok(rep):
    return None if rep["ok"] else "expected ok, got a failure"


def hom_grid_gate(grid):
    for key, size in sorted(grid.items()):
        kind, m, n = key.split("_")
        m, n = int(m), int(n)
        if kind == "sym":
            want = n ** m
        else:
            want = (1 if m == 0 else 0) if n == 0 else comb(m + n - 1, n - 1)
        if size != want:
            return f"{key}: {size} classes, closed form {want}"
    return None


def all_ok(reps):
    bad = [i for i, r in enumerate(reps) if not r["ok"]]
    return f"items {bad} failed" if bad else None


def comm_free_gate(rep):
    if rep["ok"] or "fixed_point" not in rep["witnesses"][0]:
        return "expected a fixed-point witness against sigma-freeness"
    return None


def cartesian_gate(rep):
    if not rep["ok"]:
        return "expected ok, got a failure"
    if rep["squares"]["checked"] != 100:
        return f"{rep['squares']['checked']} squares checked, want 100"
    if not (rep["eta_naturality"]["checked"] and
            rep["mu_naturality"]["checked"]):
        return "no naturality square checked"
    return None


def comm_negative_gate(rep):
    if rep["ok"] or not rep["mu_naturality"]["failures"]:
        return "expected mu-naturality failures over the commutative operad"
    return None


def hat_unit_sym_gate(rep):
    kinds = {k for k, _ in rep["failures"]}
    if rep["ok"] or kinds != {"action not preserved"}:
        return f"expected only action failures, got ok={rep['ok']} {kinds}"
    return None


def triangles_sym_gate(rep):
    if not rep["ok"]:
        return "expected ok, got a failure"
    if not (rep["checked_U"] and rep["checked_L"]):
        return "triangles checked nothing"
    return None


def witness_gate(rep):
    if rep["witness"] is None or not rep["repaired"]:
        return "expected a provisional-unit witness the quotient repairs"
    return None


def underlying_gate(rep):
    if not rep["ok"]:
        return "expected ok, got a failure"
    return None if rep["m3"] > 0 else "no composable triple enumerated"


# ---------------------------------------------------------------------------
# workloads: build(seed) -> [(name, thunk, gate)]
#
# Thunks call through the module (`adjoint.counit_report`), never through a
# name bound at set-up, so that the traced run sees every call.

def free_adjunction(seed):
    """Criteria 6-8: the free construction, its unit, counit and triangles."""
    from gmcat import adjoint, catoperad, dalgebra, dmulticat, fincat, opmonad

    BE = catoperad.barratt_eccles(TRUNCATE)
    ASS = catoperad.associativity_operad(TRUNCATE)
    Mb, Ma = dmulticat.terminal_multicat(BE), dmulticat.terminal_multicat(ASS)
    z2 = dalgebra.z2_discrete_algebra(BE)
    fr = dalgebra.free_algebra(ASS, fincat.terminal_category(),
                               carrier_bound=WORD_BOUND)
    cells = [(m, n) for m in range(5) for n in range(5)]
    Random(seed).shuffle(cells)

    def hom_grid():
        lb, la = adjoint.L(Mb), adjoint.L(Ma)
        grid = {}
        for m, n in cells:
            for kind, op, M, lz in (("sym", BE, Mb, lb), ("word", ASS, Ma, la)):
                a = opmonad.elements_of(op, 0, M.objects, m)[0]
                b = opmonad.elements_of(op, 0, M.objects, n)[0]
                grid[f"{kind}_{m}_{n}"] = len(lz.hom(a, b))
        return grid

    def witness():
        w = adjoint.witness_hat_unit_failure(Mb)
        return {"witness": None if w is None else {k: repr(v)
                                                   for k, v in w.items()},
                "repaired": w is not None and adjoint.coeq_equiv(
                    Mb, w["lhs"], w["rhs"])}

    return [
        ("hom_grid", hom_grid, hom_grid_gate),
        ("unit_sym", lambda: adjoint.unit_report(Mb), is_ok),
        ("unit_word", lambda: adjoint.unit_report(Ma), is_ok),
        ("counit_sym", lambda: adjoint.counit_report(z2, bound=BOUND), is_ok),
        ("counit_word", lambda: adjoint.counit_report(fr, bound=WORD_BOUND),
         is_ok),
        ("tri_sym", lambda: adjoint.check_triangles(Mb, z2, bound=BOUND),
         triangles_sym_gate),
        ("tri_word", lambda: adjoint.check_triangles(Ma, fr,
                                                     bound=WORD_BOUND),
         is_ok),
        ("hat_unit_sym", lambda: adjoint.hat_unit_report(Mb),
         hat_unit_sym_gate),
        ("hat_unit_word", lambda: adjoint.hat_unit_report(Ma), is_ok),
        ("witness", witness, witness_gate),
    ]


def structure_laws(seed):
    """Criteria 1-5: operad laws, cartesian squares, covers, orbits."""
    from gmcat import catoperad, dalgebra, dmulticat, finset, opmonad

    BE = catoperad.barratt_eccles(TRUNCATE)
    ASS = catoperad.associativity_operad(TRUNCATE)
    COMM = catoperad.commutative_operad(TRUNCATE)
    z2 = dalgebra.z2_discrete_algebra(BE)
    covers = seeded_covers(seed, 10)
    squares = seeded_orbit_squares(seed, 50)

    checks = [
        ("ass_laws", lambda: catoperad.validate_operad(ASS), is_ok),
        ("be_free", lambda: catoperad.freeness_report(BE), is_ok),
        ("ass_free", lambda: catoperad.freeness_report(ASS), is_ok),
        ("comm_free", lambda: catoperad.freeness_report(COMM),
         comm_free_gate),
    ]
    for op in (BE, ASS):
        for j in (0, 1):
            checks.append((f"cartesian_{op.name}_{j}",
                           lambda op=op, j=j: opmonad.check_cartesian(
                               op, j, seed=CARTESIAN_SEED + j, squares=100,
                               bound=BOUND),
                           cartesian_gate))
    checks += [
        ("cartesian_comm_negative",
         lambda: opmonad.check_cartesian(COMM, 0, seed=CARTESIAN_SEED,
                                         squares=10, bound=BOUND),
         comm_negative_gate),
        ("covers", lambda: [opmonad.check_preserves_cover(BE, F, BOUND)
                            for F in covers], all_ok),
        ("orbits", lambda: [finset.orbit_pullback_report(*sq)
                            for sq in squares], all_ok),
        ("underlying_z2",
         lambda: dmulticat.validate_multicat(
             dalgebra.underlying(z2, bound=BOUND), coherence_budget=5000,
             seed=seed),
         underlying_gate),
    ]
    return checks


WORKLOADS = {"free_adjunction": free_adjunction,
             "structure_laws": structure_laws}


# ---------------------------------------------------------------------------
# one measured pass

def run_pass(checks):
    """Run every check once; each record notes the call's perf_counter()
    ends, which `finish` turns into times."""
    records = []
    for name, thunk, gate in checks:
        t0 = time.perf_counter()
        try:
            rep, error = thunk(), None
        except Exception as exc:  # a crash is a failed check, not a stop
            rep, error = None, f"crash: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        records.append({"name": name, "span": (t0, t1),
                        "digest": None if error else digest(rep),
                        "error": error or gate(rep)})
    return records


def finish(records, times):
    """The pass: wall and reference time (calib.py) per check and summed."""
    for r in records:
        r["wall_s"], r["ref_s"] = times(*r.pop("span"))
    return {"wall_s": sum(r["wall_s"] for r in records),
            "ref_s": sum(r["ref_s"] for r in records), "records": records}


def main(workload, seed, mode, out):
    """Modes `setup`, `run` and `cold` read the host's speed throughout
    (calib.Meter); `base`, `spans` and `counts`, the traced run's passes,
    do not, so that no reading lands inside a span."""
    meter = calib.Meter()
    passes, result = {}, {}
    with meter if mode in ("setup", "run", "cold") else contextlib.nullcontext():
        t0 = time.perf_counter()
        import gmcat.cli  # noqa: F401  (imports every gmcat module)
        result["import_s"] = time.perf_counter() - t0
        import tracer
        checks = WORKLOADS[workload](seed)
        setup = (t0, time.perf_counter())
        if mode in ("run", "cold", "base"):
            result["hygiene"] = tracer.leftover_wrappers()
            passes["cold"] = run_pass(checks)
            if mode == "run":
                passes["warm"] = run_pass(checks)
        elif mode != "setup":
            t = tracer.Tracer(mode, run_id=f"{workload}-{seed}")
            t.install()
            try:
                passes["cold"] = run_pass(checks)
            finally:
                t.restore()
            result["hygiene"] = tracer.leftover_wrappers()
            result["trace"] = t.summary()
            t.write_spans(out + ".spans.jsonl")
    times = meter.times if meter.readings else lambda t0, t1: (t1 - t0,) * 2
    result["setup_wall_s"], result["setup_s"] = times(*setup)
    for name, records in passes.items():
        result[name] = finish(records, times)
    result["maxrss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4])
