"""The counit, triangle, descent and materialization checks against copies
of their hand-looped forms, and the one read of each hom-set they make.

The references below walk L's bounded hom-sets with their own object x
object x hom loops, one per check, as the checks did before they shared
`LazyDAlgebra.morphisms_upto`. The inputs are ones the report digests do
not pin.
"""

import pytest

import gmcat.adjoint as adjoint
from gmcat.adjoint import (L, HatMorphism, check_triangles, counit_hat,
                           counit_report, descent_report, hat_compose,
                           hat_source, hat_target, hat_xi1, to_algebra,
                           unit_map)
from gmcat.catoperad import associativity_operad, barratt_eccles
from gmcat.dalgebra import (DAlgebra, terminal_algebra, underlying,
                            z2_discrete_algebra)
from gmcat.dmulticat import from_symmetric, terminal_multicat
from gmcat.errors import BoundExceeded, StructuralError
from gmcat.fincat import category
from gmcat.finset import fibre_product
from gmcat.opmonad import elements_within, eta, map_elem
from test_dmulticat import pairing_classical


def reference_counit_report(A, bound=2):
    op = A.operad
    U = underlying(A, bound)
    LU = L(U)
    objs = LU.objects_upto(bound)
    failures, classes_seen, bounded = [], 0, 0
    eps, broken = {}, set()
    for a in objs:
        for b in objs:
            for cls in LU.hom(a, b):
                classes_seen += 1
                try:
                    values = {counit_hat(A, m) for m in LU.members(cls)}
                except BoundExceeded:
                    bounded += 1
                    continue
                if len(values) != 1:
                    failures.append(("not constant on a class", cls))
                    broken.add(cls)
                    continue
                eps[cls] = values.pop()
                if A.carrier.src[eps[cls]] != A.xi0(a) or \
                   A.carrier.tgt[eps[cls]] != A.xi0(b):
                    failures.append(("endpoint mismatch", cls))
    for a in objs:
        if LU.ident(a) in broken:
            continue
        if LU.ident(a) not in eps:
            bounded += 1
        elif eps[LU.ident(a)] != A.carrier.ident[A.xi0(a)]:
            failures.append(("identity not preserved", a))
    for f, g in fibre_product(eps, LU.src, eps, LU.tgt):
        try:
            h = LU.compose(f, g)
        except BoundExceeded:
            bounded += 1
            continue
        if h in broken:
            continue
        if h not in eps:
            bounded += 1
        elif eps[h] != A.carrier.comp.get((eps[f], eps[g])):
            failures.append(("composition not preserved", (f, g)))
    mors = tuple(eps)
    checked = 0
    for E in elements_within(op, 1, mors, 2,
                             lambda c: (LU.src(c).n, LU.tgt(c).n), bound):
        try:
            lhs = LU.xi1(E)
            rhs = A.xi1(map_elem(op, eps.get, E))
        except BoundExceeded:
            bounded += 1
            continue
        if lhs in broken:
            continue
        if lhs not in eps:
            bounded += 1
        elif eps[lhs] != rhs:
            failures.append(("action not preserved", E))
        else:
            checked += 1
    return {"ok": not failures, "failures": failures, "classes": classes_seen,
            "action_checked": checked, "bounded": bounded}


def reference_check_triangles(M, A, bound=2):
    op = M.operad
    fail_U, fail_L, bounded = [], [], 0
    UA = underlying(A, bound)
    LUA = L(UA)
    for w in UA.morphisms:
        try:
            cls, units = unit_map(LUA, w)
            back = (counit_hat(A, cls), map_elem(UA.operad, A.xi0, units))
            if back != w:
                fail_U.append(("round trip moves a multimorphism", w, back))
        except BoundExceeded:
            bounded += 1
        except StructuralError as exc:
            fail_U.append(("round trip broke", w, repr(exc)))
    LM = L(M)
    e0 = lambda x: eta(op, 0, x)
    objs = LM.objects_upto(bound)
    for a in objs:
        for b in objs:
            for cls in LM.hom(a, b):
                try:
                    phi2 = map_elem(op, lambda g: unit_map(LM, g), cls.phi)
                    hat2 = HatMorphism(phi2, map_elem(op, e0, cls.sigma))
                    if counit_hat(LM, hat2) != cls:
                        fail_L.append(("round trip moves a class", cls))
                except BoundExceeded:
                    bounded += 1
                except StructuralError as exc:
                    fail_L.append(("round trip broke", cls, repr(exc)))
    return {"ok": not (fail_U or fail_L),
            "triangle_U": fail_U, "triangle_L": fail_L,
            "checked_U": len(UA.morphisms),
            "checked_L": sum(len(LM.hom(a, b)) for a in objs for b in objs),
            "bounded": bounded}


def reference_descent_report(M, bound=2):
    op = M.operad
    lz = L(M)
    objs = lz.objects_upto(bound)
    failures, pairs = [], 0
    for a in objs:
        for b in objs:
            for c in objs:
                for cf in lz.hom(b, c):
                    for cg in lz.hom(a, b):
                        expected = lz.compose(cf, cg)
                        pairs += 1
                        for f in lz.members(cf):
                            for g in lz.members(cg):
                                got = lz.class_of(hat_compose(op, M, f, g))
                                if got != expected:
                                    failures.append(
                                        ("composite depends on members",
                                         (cf, cg, f, g)))
    members = tuple(h for a in objs for b in objs
                    for cls in lz.hom(a, b) for h in lz.members(cls))
    acted = 0
    for E in elements_within(
            op, 1, members, 2,
            lambda h: (hat_source(op, h).n, hat_target(op, M, h).n), bound):
        acted += 1
        if lz.class_of(hat_xi1(op, M, E)) != lz.xi1(
                map_elem(op, lz.class_of, E)):
            failures.append(("action depends on members", E))
    return {"ok": not failures, "failures": failures,
            "pairs": pairs, "action_elems": acted}


def reference_to_algebra(lazy, bound):
    """The carrier tables only: xi0 and xi1 are the lazy algebra's, guarded."""
    objs = lazy.objects_upto(bound)
    mors, src, tgt = [], {}, {}
    for a in objs:
        for b in objs:
            for h in lazy.hom(a, b):
                mors.append(h)
                src[h], tgt[h] = a, b
    ident = {a: lazy.ident(a) for a in objs}
    comp = {(f, g): lazy.compose(f, g)
            for f, g in fibre_product(mors, src.__getitem__, mors, tgt.__getitem__)}
    return DAlgebra(lazy.operad, category(objs, mors, src, tgt, ident, comp),
                    None, None, name=lazy.name)


BE3, ASS3 = barratt_eccles(3), associativity_operad(3)
PAIRS = {
    "z2-BE3": lambda: (terminal_multicat(BE3), z2_discrete_algebra(BE3)),
    "terminal-ASS3": lambda: (terminal_multicat(ASS3), terminal_algebra(ASS3)),
    "pairing-BE3": lambda: (from_symmetric(pairing_classical(), BE3),
                            terminal_algebra(BE3)),
}


def tables(C):
    """A carrier's tables, with each dict's order."""
    return {name: list(v.items()) if isinstance(v, dict) else v
            for name, v in vars(C).items()}


@pytest.mark.parametrize("name", PAIRS)
def test_checks_match_their_hand_looped_references(name):
    M, A = PAIRS[name]()
    want = reference_counit_report(A, bound=2)
    assert want["classes"] > 0
    assert counit_report(A, bound=2) == want
    want = reference_check_triangles(M, A, bound=2)
    assert want["checked_L"] > 0
    assert check_triangles(M, A, bound=2) == want
    for N in (M, underlying(A, 2)):
        want = reference_descent_report(N, bound=2)
        assert want["pairs"] > 0
        assert descent_report(N, bound=2) == want
        got, ref = to_algebra(L(N), 2), reference_to_algebra(L(N), 2)
        assert tables(got.carrier) == tables(ref.carrier)
        assert (got.operad, got.name) == (ref.operad, ref.name)


@pytest.mark.parametrize("check", ["counit_report", "check_triangles",
                                   "descent_report", "to_algebra"])
def test_each_check_reads_each_hom_set_once(check, monkeypatch):
    M, A = PAIRS["z2-BE3"]()
    lz = L(underlying(A, 2) if check == "counit_report" else M)
    objs = lz.objects_upto(2)
    reads, inner = [], adjoint.LazyDAlgebra.hom

    def hom(self, a, b):
        if self is lz:
            reads.append((a, b))
        return inner(self, a, b)
    monkeypatch.setattr(adjoint.LazyDAlgebra, "hom", hom)
    run = {"counit_report": lambda: counit_report(A, bound=2),
           "check_triangles": lambda: check_triangles(M, A, bound=2),
           "descent_report": lambda: descent_report(M, bound=2),
           "to_algebra": lambda: to_algebra(lz, 2)}[check]
    run()
    assert sorted(reads, key=lambda ab: (objs.index(ab[0]), objs.index(ab[1]))) == \
        [(a, b) for a in objs for b in objs]
