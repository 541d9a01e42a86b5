"""Acceptance battery: one test per criterion, with stated runtime budgets.

Each test prints a single [criterion N] line; seeds are fixed so every
report here is reproducible byte for byte (criterion 9 re-runs the whole
battery's report-producing suites and compares serialized bytes).
"""

import json
import time
from math import comb
from random import Random

from gmcat.adjoint import (L, check_triangles, coeq_equiv, counit_report,
                           hat_unit_report, unit_report,
                           witness_hat_unit_failure)
from gmcat.catoperad import (associativity_operad, barratt_eccles,
                             commutative_operad, freeness_report,
                             is_sigma_free, validate_operad)
from gmcat.dalgebra import (free_algebra, underlying, z2_discrete_algebra)
from gmcat.dmulticat import terminal_multicat, validate_multicat
from gmcat.fincat import (c0_presheaf, c1_presheaf, discrete_category,
                          grothendieck, is_target_cover, terminal_category)
from gmcat.finset import (Perm, finset, fn, is_equivariant,
                          orbit_pullback_report, perms)
from gmcat.opmonad import check_cartesian, check_preserves_cover, elements_of
from gmcat.report import jsonable

from test_fincat import chaotic_sym, sym2_monoid
from test_finset import regular_action

SEED = 2026
BE = barratt_eccles(4)
ASS = associativity_operad(4)
COMM = commutative_operad(4)


def obj(op, M, n):
    return elements_of(op, 0, M.objects, n)[0]


# ---------------------------------------------------------------------------
# seeded generators shared by criteria 3, 4, and 9

def seeded_covers(seed, count):
    rng = Random(seed)
    bases = [terminal_category, lambda: discrete_category(("a", "b")),
             sym2_monoid, lambda: chaotic_sym(2)]
    sheaves = [c0_presheaf, c1_presheaf]
    out = []
    for _ in range(count):
        C = rng.choice(bases)()
        _, proj = grothendieck(rng.choice(sheaves)(C))
        out.append(proj)
    return out


def seeded_orbit_squares(seed, count):
    rng = Random(seed)
    for _ in range(count):
        n = rng.choice([2, 3])
        na, nb, nz = (rng.randint(1, 2) for _ in range(3))
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
        yield f, g, A, B, Z


# ---------------------------------------------------------------------------
# report-producing suites (run once normally, twice for criterion 9)

def operad_suite():
    return {"be": validate_operad(BE), "ass": validate_operad(ASS),
            "be_free": freeness_report(BE), "ass_free": freeness_report(ASS),
            "comm_free": freeness_report(COMM)}


def cartesian_suite(squares=100):
    out = {}
    for op in (BE, ASS):
        for j in (0, 1):
            out[f"{op.name}_{j}"] = check_cartesian(
                op, j, seed=SEED + j, squares=squares, bound=3)
    out["comm_negative"] = check_cartesian(COMM, 0, seed=SEED, squares=10,
                                           bound=3)
    return out


def cover_suite():
    return [check_preserves_cover(BE, F, 3) for F in seeded_covers(SEED, 10)]


def orbit_suite():
    reports = []
    for f, g, A, B, Z in seeded_orbit_squares(SEED, 50):
        assert is_equivariant(f, A, Z) and is_equivariant(g, B, Z)
        reports.append(orbit_pullback_report(f, g, A, B, Z))
    return reports


def underlying_suite():
    U = underlying(z2_discrete_algebra(BE), bound=3)
    return validate_multicat(U, coherence_budget=5000, seed=SEED)


def hom_grid_suite(top=4):
    Mb, Ma = terminal_multicat(BE), terminal_multicat(ASS)
    lb, la = L(Mb), L(Ma)
    grid = {}
    for m in range(top + 1):
        for n in range(top + 1):
            grid[f"sym_{m}_{n}"] = len(lb.hom(obj(BE, Mb, m), obj(BE, Mb, n)))
            grid[f"word_{m}_{n}"] = len(la.hom(obj(ASS, Ma, m),
                                               obj(ASS, Ma, n)))
    return grid


def adjunction_suite(bound=3):
    Mb, Ma = terminal_multicat(BE), terminal_multicat(ASS)
    z2 = z2_discrete_algebra(BE)
    fr = free_algebra(ASS, terminal_category(), carrier_bound=bound)
    return {"unit_sym": unit_report(Mb), "unit_word": unit_report(Ma),
            "counit_sym": counit_report(z2, bound=bound),
            "counit_word": counit_report(fr, bound=bound),
            "tri_sym": check_triangles(Mb, z2, bound=bound),
            "tri_word": check_triangles(Ma, fr, bound=bound)}


def hat_witness_suite():
    Mb, Ma = terminal_multicat(BE), terminal_multicat(ASS)
    w = witness_hat_unit_failure(Mb)
    return {"hat_unit_sym": hat_unit_report(Mb),
            "hat_unit_word": hat_unit_report(Ma),
            "witness": None if w is None else {k: repr(v)
                                               for k, v in w.items()},
            "repaired": w is not None and coeq_equiv(Mb, w["lhs"], w["rhs"])}


def render(rep):
    return json.dumps(jsonable(rep), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_operad_suite():
    t0 = time.perf_counter()
    rep = operad_suite()
    assert rep["be"]["ok"] and rep["ass"]["ok"]
    assert rep["be_free"]["ok"] and rep["ass_free"]["ok"]
    assert is_sigma_free(BE) and is_sigma_free(ASS)
    assert not rep["comm_free"]["ok"]
    assert "fixed_point" in rep["comm_free"]["witnesses"][0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[criterion 1] operad suite: PASS ({elapsed:.1f}s < 5s)")


def test_criterion_2_cartesian_suite():
    t0 = time.perf_counter()
    rep = cartesian_suite()
    for key in ("barratt_eccles_0", "barratt_eccles_1",
                "associativity_0", "associativity_1"):
        r = rep[key]
        assert r["ok"], (key, r)
        assert r["squares"]["checked"] == 100
        assert r["eta_naturality"]["checked"] > 0
        assert r["mu_naturality"]["checked"] > 0
    neg = rep["comm_negative"]
    assert not neg["ok"] and neg["mu_naturality"]["failures"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\n[criterion 2] cartesian suite: PASS ({elapsed:.1f}s < 10s, "
          f"{len(neg['mu_naturality']['failures'])} negative witnesses)")


def test_criterion_3_cover_suite():
    covers = seeded_covers(SEED, 10)
    assert len(covers) == 10
    for F in covers:
        assert is_target_cover(F)[0]
    reports = cover_suite()
    assert all(r["ok"] for r in reports)
    checked = sum(r["target"]["checked"] for r in reports)
    assert checked > 0
    print(f"\n[criterion 3] cover suite: PASS (10 functors, "
          f"{checked} liftings)")


def test_criterion_4_orbit_suite():
    reports = orbit_suite()
    assert len(reports) == 50
    assert all(r["ok"] for r in reports)
    print("\n[criterion 4] orbit suite: PASS (50 squares)")


def test_criterion_5_underlying_suite():
    t0 = time.perf_counter()
    rep = underlying_suite()
    assert rep["ok"], rep["failures"][:3]
    assert rep["m3"] > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\n[criterion 5] underlying multicategory suite: PASS "
          f"({elapsed:.1f}s < 30s, m2={rep['m2']}, m3={rep['m3']})")


def test_criterion_6_free_construction_oracle():
    t0 = time.perf_counter()
    grid = hom_grid_suite(4)
    for m in range(5):
        for n in range(5):
            assert grid[f"sym_{m}_{n}"] == n ** m, ("sym", m, n)
            want = (1 if m == 0 else 0) if n == 0 else comb(m + n - 1, n - 1)
            assert grid[f"word_{m}_{n}"] == want, ("word", m, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\n[criterion 6] free-construction oracle: PASS "
          f"({elapsed:.1f}s < 120s, grids 5x5 exact)")


def test_criterion_7_adjunction_suite():
    t0 = time.perf_counter()
    rep = adjunction_suite(bound=3)
    elapsed = time.perf_counter() - t0
    for key, r in rep.items():
        assert r["ok"], (key, r["failures"][:2] if "failures" in r else r)
    assert rep["tri_sym"]["checked_U"] > 0
    # checked_L counts the classes of L(terminal) within the bound: n^m
    # and C(m+n-1, n-1) per pair of arities, as criterion 6's grid
    assert rep["tri_sym"]["checked_L"] == sum(
        n ** m for m in range(4) for n in range(4)) == 60
    assert rep["tri_word"]["checked_L"] == sum(
        comb(m + n - 1, n - 1) if n else int(m == 0)
        for m in range(4) for n in range(4)) == 35
    assert elapsed < 10.0
    print(f"\n[criterion 7] adjunction suite: PASS ({elapsed:.1f}s < 10s, "
          f"U={rep['tri_sym']['checked_U']}+{rep['tri_word']['checked_U']}, "
          f"L={rep['tri_sym']['checked_L']}+{rep['tri_word']['checked_L']}, "
          f"counit classes={rep['counit_sym']['classes']}"
          f"+{rep['counit_word']['classes']})")


def test_criterion_8_provisional_unit_defect():
    rep = hat_witness_suite()
    assert not rep["hat_unit_sym"]["ok"]
    kinds = {k for k, _ in rep["hat_unit_sym"]["failures"]}
    assert kinds == {"action not preserved"}
    assert rep["hat_unit_word"]["ok"]
    assert rep["witness"] is not None and rep["repaired"]
    print(f"\n[criterion 8] provisional-unit defect: PASS "
          f"(witness {rep['witness']['f']}, repaired by the quotient)")


def test_criterion_9_determinism():
    suites = {"operad": operad_suite,
              "cartesian": lambda: cartesian_suite(squares=40),
              "cover": cover_suite,
              "orbit": orbit_suite,
              "underlying": underlying_suite,
              "hom_grid": lambda: hom_grid_suite(3),
              "adjunction": lambda: adjunction_suite(bound=2),
              "hat_witness": hat_witness_suite}
    for name, suite in suites.items():
        assert render(suite()) == render(suite()), name
    print(f"\n[criterion 9] determinism: PASS "
          f"({len(suites)} suites byte-identical on re-run)")