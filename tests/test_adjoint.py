"""Provisional and quotiented free constructions, unit/counit, triangles."""

import gc
import sys
import weakref
from dataclasses import FrozenInstanceError, replace
from itertools import product
from math import comb

import pytest

import gmcat.adjoint as adjoint
import gmcat.finset as finset
import gmcat.opmonad as opmonad
from gmcat.adjoint import (L, HatMorphism, check_triangles, coeq_equiv,
                           counit_hat, counit_report, descent_report,
                           flat_source, hat_compose, hat_L, hat_source,
                           hat_target, hat_unit_report, make_hat, to_algebra,
                           unit_map, unit_report, validate_coeq_fork,
                           witness_hat_unit_failure)
from gmcat.catoperad import associativity_operad, barratt_eccles
from gmcat.dalgebra import (free_algebra, underlying, validate_algebra,
                            xi_fill, z2_discrete_algebra)
from gmcat.dmulticat import (ClassicalMulticat, from_nonsymmetric,
                             terminal_multicat)
from gmcat.errors import BoundExceeded, StructuralError
from gmcat.fincat import terminal_category, validate_category
from gmcat.finset import canon_key
from gmcat.opmonad import (I_D, T_D, canonicalize, chi, elements_of,
                           elements_within, eta, map_elem, melem, mu)
from product_operad import ass_x_be, be_x_be

BE = barratt_eccles(4)
ASS = associativity_operad(4)
MB = terminal_multicat(BE)
MA = terminal_multicat(ASS)


def obj(op, M, n):
    return elements_of(op, 0, M.objects, n)[0]


def test_hat_hom_counts():
    # non-symmetric: one list per splitting of the sources, data forced
    assert len(hat_L(MA).hom(obj(ASS, MA, 2), obj(ASS, MA, 2))) == 3
    # symmetric: list forced, one morphism per arrangement of the data
    assert len(hat_L(MB).hom(obj(BE, MB, 2), obj(BE, MB, 1))) == 2


def test_free_hom_grid_makes_no_canon_key_calls(monkeypatch):
    # hom_hat, the union-find and the class list come out in canonical
    # order by construction: only phi_rows and sigma_index sort
    lz = L(terminal_multicat(barratt_eccles(4)))
    objs = lz.objects_upto(4)
    assert len(objs) == 5
    for a in objs:
        for b in objs:
            lz._phis(a, b)
    for n in range(5):
        lz._sigmas(n)
    calls = []

    def counted(x):
        calls.append(x)
        return canon_key(x)
    for module in (adjoint, finset, opmonad):
        monkeypatch.setattr(module, "canon_key", counted)
    sizes = [len(lz.hom(a, b)) for a in objs for b in objs]
    assert calls == []
    assert sizes == [b.n ** a.n for a in objs for b in objs]


def test_hat_splittings_enumerated():
    homs = hat_L(MA).hom(obj(ASS, MA, 2), obj(ASS, MA, 2))
    splits = sorted(tuple(g[1] for g in h.phi.xs) for h in homs)
    assert splits == [(0, 2), (1, 1), (2, 0)]


def test_hat_identity_is_unit():
    lz = hat_L(MB)
    a, b = obj(BE, MB, 2), obj(BE, MB, 2)
    for h in lz.hom(a, b):
        assert lz.compose(h, lz.ident(a)) == h
        assert lz.compose(lz.ident(b), h) == h


def test_hat_materialized_category_and_algebra():
    A = to_algebra(hat_L(MB), 2)
    assert validate_category(A.carrier)["ok"]
    rep = validate_algebra(A, arity_bound=2)
    assert rep["ok"], rep["failures"][:3]


def test_L_materialized_algebra():
    A = to_algebra(L(MB), 2)
    assert validate_category(A.carrier)["ok"]
    rep = validate_algebra(A, arity_bound=2)
    assert rep["ok"], rep["failures"][:3]


def test_quotient_merges_rearrangements():
    lz = L(MB)
    hats = hat_L(MB).hom(obj(BE, MB, 2), obj(BE, MB, 1))
    assert coeq_equiv(MB, hats[0], hats[1])
    assert len(lz.hom(obj(BE, MB, 2), obj(BE, MB, 1))) == 1


def test_quotient_discrete_without_symmetries():
    hats = hat_L(MA).hom(obj(ASS, MA, 2), obj(ASS, MA, 2))
    assert len(hats) == 3
    for i, h1 in enumerate(hats):
        for h2 in hats[i + 1:]:
            assert not coeq_equiv(MA, h1, h2)
    assert coeq_equiv(MA, hats[0], hats[0])


def test_coeq_endpoint_mismatch_is_false():
    h21 = hat_L(MB).hom(obj(BE, MB, 2), obj(BE, MB, 1))[0]
    h22 = hat_L(MB).hom(obj(BE, MB, 2), obj(BE, MB, 2))[0]
    assert not coeq_equiv(MB, h21, h22)


@pytest.mark.parametrize("make", [
    lambda: underlying(z2_discrete_algebra(barratt_eccles(3)), 3),
    lambda: terminal_multicat(ass_x_be(3)),
], ids=["underlying_z2", "terminal_ASSxBE"])
def test_hom_sets_within_the_truncation_never_exceed_it(make):
    # every element the closure builds from objects within the truncation is
    # within it too, so `gmcat free` has no bound-exceeded hom-set
    M = make()
    for lz in (L(M), hat_L(M)):
        objs = lz.objects_upto(M.operad.max_level)
        assert sum(len(lz.hom(a, b)) for a in objs for b in objs) > len(objs)


def test_hom_count_oracles():
    # over the base-orbit objects, a product with BE counts like BE and one
    # with ASS like ASS: the other factor only picks the orbit
    ass_be, be_be = ass_x_be(3), be_x_be(3)
    symmetric = [(BE, MB), (be_be, terminal_multicat(be_be))]
    nonsymmetric = [(ASS, MA), (ass_be, terminal_multicat(ass_be))]
    for m in range(4):
        for n in range(4):
            for op, M in symmetric:
                got = len(L(M).hom(obj(op, M, m), obj(op, M, n)))
                assert got == n ** m, (op.name, m, n, got)
            want = (1 if m == 0 else 0) if n == 0 else comb(m + n - 1, n - 1)
            for op, M in nonsymmetric:
                got = len(L(M).hom(obj(op, M, m), obj(op, M, n)))
                assert got == want, (op.name, m, n, got)


def test_free_permutative_hom_counts_over_z2():
    # L(U(z2)) is the free permutative category on the multicategory with
    # one multimorphism (x_1..x_k) -> sum mod 2: a morphism a -> b is a
    # function f : [m] -> [n] whose fibre over each j sums to b_j mod 2
    A = z2_discrete_algebra(BE)
    lz = L(underlying(A, 3))
    objs = lz.objects_upto(3)
    sizes = {}
    for a in objs:
        for b in objs:
            want = sum(all(sum(x for x, j in zip(a.xs, f) if j == k) % 2 == y
                           for k, y in enumerate(b.xs))
                       for f in product(range(b.n), repeat=a.n))
            sizes[(a, b)] = len(lz.hom(a, b))
            assert sizes[(a, b)] == want, (a, b)
    assert len(sizes) == 225
    assert sum(sizes.values()) == 360 == counit_report(A, bound=3)["classes"]


def test_empty_hom_is_identity():
    lz = L(MB)
    e = obj(BE, MB, 0)
    classes = lz.hom(e, e)
    assert len(classes) == 1
    assert classes[0] == lz.ident(e)


def test_class_reps_minimal():
    lz = L(MB)
    for cls in lz.hom(obj(BE, MB, 2), obj(BE, MB, 2)):
        assert cls == min(lz.members(cls), key=canon_key)
        assert list(lz.members(cls)) == sorted(lz.members(cls), key=canon_key)


def test_coeq_fork_legs_and_section():
    rep = validate_coeq_fork(MB, obj(BE, MB, 2), obj(BE, MB, 1))
    assert rep["ok"] and rep["instances"] > 0


def test_descent_of_composition_and_action():
    rep = descent_report(MB, bound=2)
    assert rep["ok"], rep["failures"][:3]
    assert rep["pairs"] > 0 and rep["action_elems"] > 0


def test_unit_full_checklist():
    for M in (MB, MA):
        rep = unit_report(M)
        assert rep["ok"], rep["failures"][:3]
        assert rep["action_pairs"] > 0


TRUE_UNIT = adjoint.unit_map


@pytest.mark.parametrize("at, fault, witness", [
    # the identity at the binary morphism's source: right source, wrong target
    (("t", 2), lambda lz, f: (lz.ident(lz.src(TRUE_UNIT(lz, f)[0])),
                              TRUE_UNIT(lz, f)[1]),
     ("target not preserved", ("t", 2))),
    # the ternary morphism's sources: right target, wrong source
    (("t", 2), lambda lz, f: (TRUE_UNIT(lz, f)[0], TRUE_UNIT(lz, ("t", 3))[1]),
     ("source not preserved", ("t", 2))),
    # the ternary morphism's image: right target, a well-formed value, but
    # not over the binary morphism's sources
    (("t", 2), lambda lz, f: TRUE_UNIT(lz, ("t", 3)),
     ("source not preserved", ("t", 2))),
    # the identity sent where the binary morphism goes
    (("t", 1), lambda lz, f: TRUE_UNIT(lz, ("t", 2)),
     ("identity not preserved", "*")),
], ids=["target", "source", "another_value", "identity"])
def test_a_planted_unit_fault_is_witnessed(at, fault, witness, monkeypatch):
    # one wrong unit value, at one morphism of terminal BE(3); the laws that
    # compose the unit's values do not run on it
    M = terminal_multicat(barratt_eccles(3))
    monkeypatch.setattr(adjoint, "unit_map", lambda lz, f: fault(lz, f) if f == at
                        else TRUE_UNIT(lz, f))
    rep = unit_report(M)
    assert not rep["ok"] and witness in rep["failures"]


def test_hat_unit_fails_only_at_the_action():
    rep = hat_unit_report(MB)
    assert not rep["ok"]
    assert {kind for kind, _ in rep["failures"]} == {"action not preserved"}
    assert hat_unit_report(MA)["ok"]


def test_hat_unit_witness_and_its_quotient():
    w = witness_hat_unit_failure(MB)
    assert w is not None
    assert w["f"] == ("t", 2)
    assert w["delta"].d == ((1, 2), (2, 1))  # the swap
    assert w["lhs"] != w["rhs"]
    assert coeq_equiv(MB, w["lhs"], w["rhs"])
    assert witness_hat_unit_failure(MA) is None


@pytest.mark.parametrize("make", [
    lambda: terminal_multicat(barratt_eccles(3)),
    lambda: underlying(z2_discrete_algebra(barratt_eccles(3)), 2),
], ids=["terminal_BE3", "underlying_z2"])
def test_unit_map_is_the_class_of_the_provisional_unit(make):
    # the provisional unit has no relation to respect, so it is its own
    # class; its class in L is the unit into L
    M = make()
    hat, lz = hat_L(M), L(M)
    for f in M.morphisms:
        h, hat_src = unit_map(hat, f)
        cls, src = unit_map(lz, f)
        assert hat.class_of(h) is h
        assert lz.class_of(h) == cls
        assert hat_src == src


def test_counit_on_objects_is_the_action():
    A = z2_discrete_algebra(BE)
    assert A.xi0(melem(BE, 0, (1, 2), (1, 1))) == 0
    assert A.xi0(melem(BE, 0, (1, 2, 3), (1, 1, 1))) == 1


def test_counit_evaluates_unit_morphisms():
    A = z2_discrete_algebra(BE)
    U = underlying(A, bound=2)
    for w in U.morphisms:
        assert counit_hat(A, unit_map(hat_L(U), w)[0]) == w[0]


def test_counit_constant_functorial_algebra_map():
    rep = counit_report(z2_discrete_algebra(BE), bound=2)
    assert rep["ok"], rep["failures"][:3]
    assert rep["classes"] > 0 and rep["action_checked"] > 0


def test_triangles_standard_pairs():
    rep = check_triangles(MB, z2_discrete_algebra(BE), bound=2)
    assert rep["ok"], (rep["triangle_U"][:1], rep["triangle_L"][:1])
    Afree = free_algebra(ASS, terminal_category(), carrier_bound=2)
    rep = check_triangles(MA, Afree, bound=2)
    assert rep["ok"], (rep["triangle_U"][:1], rep["triangle_L"][:1])


def test_triangle_fault_injection(monkeypatch):
    # drop the inner twist when substituting operad data: the quotient
    # closure stops lining up and the unit round trip must surface that
    # with witnesses rather than silently pass
    monkeypatch.setattr(adjoint, "gamma_D", lambda op, e, e2: e)
    M = terminal_multicat(BE)
    rep = check_triangles(M, z2_discrete_algebra(BE), bound=2)
    assert not rep["ok"]
    assert rep["triangle_U"]


def test_triangle_crash_is_not_a_failed_triangle(monkeypatch):
    def crash(A, hat):
        raise KeyError("injected")
    monkeypatch.setattr(adjoint, "counit_hat", crash)
    with pytest.raises(KeyError):
        check_triangles(terminal_multicat(BE), z2_discrete_algebra(BE), bound=2)


def test_triangle_L_fault_injection(monkeypatch):
    # evaluate only the lists and drop the rearrangement data: the round
    # trip through z2 still holds, the one through L(M) moves a class
    def counit_without_data(A, hat):
        return xi_fill(A, map_elem(A.operad, lambda w: w[0], hat.phi))
    monkeypatch.setattr(adjoint, "counit_hat", counit_without_data)
    BE3 = barratt_eccles(3)
    rep = check_triangles(terminal_multicat(BE3), z2_discrete_algebra(BE3),
                          bound=2)
    assert not rep["ok"] and not rep["triangle_U"]
    assert {f[0] for f in rep["triangle_L"]} == {"round trip moves a class"}


def test_counit_fault_injection(monkeypatch):
    # the free algebra's action drops the rearrangement data: the counit
    # into the free algebra on the terminal category stops being an algebra map
    def xi1_without_data(op, M, E):
        lists = map_elem(op, lambda h: h.phi, E)
        flat = mu(op, map_elem(op, lambda h: h.sigma, E))
        return make_hat(op, M, mu(op, T_D(op, lists)), I_D(op, T_D(op, flat)))
    monkeypatch.setattr(adjoint, "hat_xi1", xi1_without_data)
    BE3 = barratt_eccles(3)
    rep = counit_report(free_algebra(BE3, terminal_category(), 2), bound=2)
    assert not rep["ok"]
    assert {f[0] for f in rep["failures"]} == {"action not preserved"}


def test_unit_report_catches_a_foreign_composition():
    # the unit of Z/2 (one object, unary 1 and e with e.e = 1) into the free
    # algebra on a copy where e.e = e
    ASS2 = associativity_operad(2)
    flip = ClassicalMulticat(
        ("*",), ("1", "e"), {"1": ("*",), "e": ("*",)}, {"1": "*", "e": "*"},
        {"*": "1"}, {("1", ("1",)): "1", ("1", ("e",)): "e",
                     ("e", ("1",)): "e", ("e", ("e",)): "1"})
    M = from_nonsymmetric(flip, ASS2)
    assert unit_report(M)["ok"]
    M = from_nonsymmetric(flip, ASS2)
    key = ("e", eta(ASS2, 0, "e"))
    M.free_algebras["L"] = L(replace(M, composition={**M.composition,
                                                     key: "e"}))
    rep = unit_report(M)
    assert rep["failures"] == [("composition not preserved", key)]


def test_make_hat_rejects_mismatched_parts():
    h = hat_L(MB).hom(obj(BE, MB, 2), obj(BE, MB, 1))[0]
    with pytest.raises(StructuralError):
        make_hat(BE, MB, h.phi, I_D(BE, obj(BE, MB, 3)))


def test_materialized_action_is_bounded_loudly():
    A = to_algebra(L(MB), 2)
    three = elements_of(BE, 0, A.carrier.objects, 3)
    probe = next(e for e in three if sum(x.n for x in e.xs) == 3)
    with pytest.raises(BoundExceeded):
        A.xi0(probe)


def test_free_algebras_are_memoized_on_their_multicategory():
    M = terminal_multicat(barratt_eccles(2))
    assert L(M) is L(M) and hat_L(M) is hat_L(M)
    assert L(M) is not hat_L(M)
    assert L(replace(M)) is not L(M)
    assert unit_report(M)["ok"]
    alive = weakref.ref(M)
    del M
    gc.collect()
    assert alive() is None


def test_underlying_is_memoized_on_its_algebra():
    A = z2_discrete_algebra(BE)
    U = underlying(A, 2)
    assert underlying(A, 2) is U and underlying(A, 3) is not U
    # the counit, a second counit and the triangles share L(U) and its closures
    assert counit_report(A, bound=2)["ok"]
    closures = L(U).closures
    built = len(closures)
    assert built > 0
    assert counit_report(A, bound=2)["ok"]
    assert check_triangles(MB, A, bound=2)["ok"]
    assert len(closures) == built
    alive = weakref.ref(A)
    del A
    gc.collect()
    assert alive() is None


# ---------------------------------------------------------------------------
# the memos of hat_compose

def plain_hat_compose(op, M, f, g):
    """hat_compose with every part computed on every call, and no memo."""
    if hat_source(op, f) != hat_target(op, M, g):
        raise StructuralError("hat morphisms not composable")
    moved_list, moved_data = chi(op, f.sigma, g.phi, M.src.get, M.tgt.get)
    data = opmonad._aligned_compose(op, moved_data, g.sigma)
    return make_hat(op, M, adjoint._regroup(op, M, f.phi, moved_list), data)


@pytest.mark.parametrize("make, bound, want_pairs", [
    (lambda: underlying(z2_discrete_algebra(BE), 2), 2, 268),
    (lambda: terminal_multicat(ASS), 3, 428),
], ids=["U-z2", "terminal-ASS"])
def test_memoized_composite_matches_the_plain_one(make, bound, want_pairs):
    M = make()  # its own L(M) and tables
    op, lz = M.operad, L(M)
    objs = lz.objects_upto(bound)
    classes = [(a, b, cls) for a in objs for b in objs for cls in lz.hom(a, b)]
    pairs = 0
    for b, c, cf in classes:
        for a, b2, cg in classes:
            if b2 != b:
                continue
            for f in lz.members(cf):
                for g in lz.members(cg):
                    pairs += 1
                    want = plain_hat_compose(op, M, f, g)
                    # the first call may fill the tables, the second reads them
                    assert hat_compose(op, M, f, g) == want
                    assert hat_compose(op, M, f, g) == want
    assert pairs == want_pairs  # every composable pair of class members
    assert M.lifts and M.regroupings


def test_each_part_is_computed_once_per_distinct_input(monkeypatch):
    op = barratt_eccles(4)  # its own data composites
    A = z2_discrete_algebra(op)
    keys = {"chi": [], "regroup": [], "gamma_D": [], "flatten": [], "target": []}
    composites = []
    inner_chi, inner_regroup = adjoint.chi, adjoint._regroup
    inner_aligned, inner_compose = opmonad._aligned_compose, adjoint.hat_compose
    inner_mu, inner_map = adjoint.mu, adjoint.map_elem

    def spy_chi(op, sigma, phis, *maps):
        keys["chi"].append((sigma, phis))
        return inner_chi(op, sigma, phis, *maps)

    def spy_regroup(op, M, outer, inner):
        keys["regroup"].append((outer, inner))
        return inner_regroup(op, M, outer, inner)

    def spy_aligned(op, E, E2, *maps):
        if sys._getframe(1).f_code is opmonad.gamma_D.__code__:
            keys["gamma_D"].append((E, E2))
        return inner_aligned(op, E, E2, *maps)

    def spy_mu(op, e):
        caller = sys._getframe(1)
        if caller.f_code is adjoint.flat_source.__code__:
            keys["flatten"].append(caller.f_locals["phi"])
        return inner_mu(op, e)

    def spy_map(op, f, e):
        caller = sys._getframe(1)
        if caller.f_code is adjoint.list_target.__code__:
            keys["target"].append(caller.f_locals["phi"])
        return inner_map(op, f, e)

    def spy_compose(*args):
        composites.append(args)
        return inner_compose(*args)
    monkeypatch.setattr(adjoint, "chi", spy_chi)
    monkeypatch.setattr(adjoint, "_regroup", spy_regroup)
    monkeypatch.setattr(opmonad, "_aligned_compose", spy_aligned)
    monkeypatch.setattr(adjoint, "mu", spy_mu)
    monkeypatch.setattr(adjoint, "map_elem", spy_map)
    monkeypatch.setattr(adjoint, "hat_compose", spy_compose)
    assert counit_report(A, bound=3)["ok"]
    counts = {name: len(ks) for name, ks in keys.items()}
    assert counts == {name: len(set(ks)) for name, ks in keys.items()}
    assert counts == {"chi": 585, "regroup": 1286, "gamma_D": 307,
                      "flatten": 416, "target": 142}
    assert len(composites) == 10608
    U = underlying(A, 3)
    assert (len(U.lifts), len(U.regroupings)) == (585, 1286)
    assert len(op.data_composites) == 307
    # each table holds exactly the lists whose end the check computed
    assert set(U.flat_sources) == set(keys["flatten"])
    assert set(U.list_targets) == set(keys["target"])
    # a second pass reads every part from the tables
    assert counit_report(A, bound=3)["ok"]
    assert {name: len(ks) for name, ks in keys.items()} == counts
    assert len(composites) == 2 * 10608


@pytest.mark.parametrize("case", ["not composable", "bound exceeded"])
def test_a_composition_that_raises_stores_nothing(case):
    op = associativity_operad(3)  # its own data composites
    M = terminal_multicat(op)
    a, b = (elements_of(op, 0, M.objects, n)[0] for n in (1, 2))
    h, g = hat_L(M).ident(a), hat_L(M).ident(b)
    assert hat_compose(op, M, h, h) == h  # something in every table
    if case == "not composable":
        f, error = h, StructuralError
    else:
        # data over b, with a list whose sources flatten past the
        # truncation: the lift succeeds, the regrouping does not
        f = HatMorphism(map_elem(op, lambda x: ("t", 3), b), I_D(op, b))
        chi(op, f.sigma, g.phi, M.src.get, M.tgt.get)
        error = BoundExceeded
    before = (dict(M.lifts), dict(M.regroupings), dict(op.data_composites))
    targets, flats = dict(M.list_targets), dict(M.flat_sources)
    assert all(before) and targets and flats
    with pytest.raises(error):
        hat_compose(op, M, f, g)
    assert (M.lifts, M.regroupings, op.data_composites) == before
    # the composability check may read g's target, never f's list, and
    # no flattening is reached
    assert M.list_targets.items() >= targets.items()
    assert M.list_targets.keys() - targets.keys() <= {g.phi}
    assert case == "not composable" or f.phi not in M.list_targets
    assert M.flat_sources == flats


@pytest.mark.parametrize("target_first", [True, False],
                         ids=["target-first", "flattening-first"])
def test_a_list_past_the_truncation_has_a_target_and_no_flattening(target_first):
    op = associativity_operad(3)
    M = terminal_multicat(op)  # its own list_targets and flat_sources
    b = elements_of(op, 0, M.objects, 2)[0]
    # the sources of this list flatten to arity 6, past the truncation
    f = HatMorphism(map_elem(op, lambda x: ("t", 3), b), I_D(op, b))
    if target_first:
        assert L(M).tgt(f) == b
    with pytest.raises(BoundExceeded):
        flat_source(op, M, f.phi)
    assert M.list_targets == ({f.phi: b} if target_first else {})
    assert L(M).tgt(f) == b
    with pytest.raises(BoundExceeded):
        flat_source(op, M, f.phi)
    assert (M.list_targets, M.flat_sources) == ({f.phi: b}, {})


def test_a_replaced_multicategory_starts_with_empty_tables():
    M = terminal_multicat(associativity_operad(2))
    assert unit_report(M)["ok"]
    tables = ("lifts", "regroupings", "list_targets", "flat_sources",
              "free_algebras")
    assert all(getattr(M, name) for name in tables)
    twin = replace(M, composition=dict(M.composition))
    for name in tables:
        assert getattr(twin, name) == {}
        assert getattr(twin, name) is not getattr(M, name)


@pytest.mark.parametrize("M", [MB, MA], ids=["BE", "ASS"])
def test_hat_morphism_hash_and_equality(M):
    op = M.operad
    twin = hat_L(replace(M))  # its own phi_rows and sigma_index
    hats = 0
    for a in elements_of(op, 0, M.objects, 2):
        for b in elements_of(op, 0, M.objects, 2):
            ours, theirs = hat_L(M).hom_hat(a, b), twin.hom_hat(a, b)
            assert ours == theirs
            for h, k in zip(ours, theirs):
                hats += 1
                assert hash(h) == hash((h.phi, h.sigma)) == hash(k)
                assert h is not k and h == k
    assert hats > 0
    # both legs of every relation instance land among the hom-set's members
    a = b = elements_of(op, 0, M.objects, 2)[0]
    members = set(hat_L(M).hom_hat(a, b))
    for lhs, rhs in hat_L(M).relation_instances(a, b):
        assert lhs in members and rhs in members


def test_hat_morphism_collision_and_read_only():
    a = elements_of(BE, 0, MB.objects, 2)[0]
    h, k = hat_L(MB).hom_hat(a, a)[:2]
    assert h != k
    planted = HatMorphism(k.phi, k.sigma)
    object.__setattr__(planted, "_hash", hash(h))
    assert planted != h and len({h, planted}) == 2
    # a list alone is not a provisional morphism, whatever it holds
    assert h.__eq__(h.phi) is NotImplemented
    assert h != h.phi and h.phi != h
    for name in ("phi", "sigma", "_hash"):
        with pytest.raises(FrozenInstanceError):
            setattr(h, name, None)
    assert repr(h) == f"Hat({h.phi!r}, {h.sigma!r})"


@pytest.mark.parametrize("stray_first", [True, False], ids=["lhs", "rhs"])
def test_relation_leg_outside_its_hom_set_is_refused(monkeypatch, stray_first):
    M = terminal_multicat(associativity_operad(3))  # its own L(M) and closures
    lz = L(M)
    a = elements_of(M.operad, 0, M.objects, 2)[0]
    c = elements_of(M.operad, 0, M.objects, 1)[0]
    home, stray = lz.hom_hat(a, a)[0], lz.hom_hat(c, a)[0]
    legs = (stray, home) if stray_first else (home, stray)
    monkeypatch.setattr(lz, "relation_instances", lambda *ab: iter([legs]))
    with pytest.raises(StructuralError, match="^relation leg left its hom-set$"):
        lz.hom(a, a)
    assert (a, a) not in lz.closures


# ---------------------------------------------------------------------------
# counit and triangle branches, reached by patched algebra procedures

BE3 = barratt_eccles(3)


def counit_classes(A):
    """L(U A) at bound 2, as counit_report reads it, and its classes in hom order."""
    LU = L(underlying(A, 2))
    objs = LU.objects_upto(2)
    return LU, [cls for a in objs for b in objs for cls in LU.hom(a, b)]


def other_identity(A, f):
    """The identity of the other object of the discrete two-object carrier."""
    return next(g for g in A.carrier.morphisms if g != f)


def patch_counit(monkeypatch, A, members, value):
    inner = adjoint.counit_hat
    monkeypatch.setattr(adjoint, "counit_hat", lambda B, m: value(inner(B, m))
                        if B is A and m in members else inner(B, m))


def test_counit_not_constant_on_a_class(monkeypatch):
    A = z2_discrete_algebra(BE3)
    LU, classes = counit_classes(A)
    clean = counit_report(A, bound=2)
    for cls in (c for c in classes if len(LU.members(c)) > 1):
        patch_counit(monkeypatch, A, {LU.members(cls)[1]}, lambda f: other_identity(A, f))
        rep = counit_report(A, bound=2)
        monkeypatch.undo()
        assert rep["failures"] == [("not constant on a class", cls)]
        # results on the failed class are neither checked nor counted as bounded
        assert rep["bounded"] == clean["bounded"]


def test_counit_endpoint_mismatch(monkeypatch):
    A = z2_discrete_algebra(BE3)
    LU, classes = counit_classes(A)
    cls = classes[-1]
    patch_counit(monkeypatch, A, set(LU.members(cls)), lambda f: other_identity(A, f))
    failures = counit_report(A, bound=2)["failures"]
    assert [f for f in failures if f[0] == "endpoint mismatch"] == \
        [("endpoint mismatch", cls)]
    # its composites with the other classes are not composable in the
    # carrier: a failure, not a crash
    assert {f[0] for f in failures} == {"endpoint mismatch", "action not preserved",
                                        "composition not preserved"}


def test_counit_identity_not_preserved(monkeypatch):
    # send the identity class of an object to a non-identity automorphism
    # of its image in the free algebra's carrier
    A = free_algebra(BE3, terminal_category(), 2)
    C = A.carrier
    LU, _ = counit_classes(A)
    a, auto = next((a, f) for a in LU.objects_upto(2) for f in C.morphisms
                   if C.src[f] == C.tgt[f] == A.xi0(a)
                   and f != C.ident[A.xi0(a)])
    patch_counit(monkeypatch, A, set(LU.members(LU.ident(a))), lambda f: auto)
    failures = counit_report(A, bound=2)["failures"]
    assert [f for f in failures if f[0] == "identity not preserved"] == \
        [("identity not preserved", a)]
    assert not [f for f in failures if f[0] == "endpoint mismatch"]


def test_counit_composition_not_preserved(monkeypatch):
    A = z2_discrete_algebra(BE3)
    LU, classes = counit_classes(A)
    f, g = next((f, g) for f in classes for g in classes
                if LU.src(f) == LU.tgt(g))
    eps = counit_hat(A, LU.compose(f, g))
    stray = next(c for c in classes if counit_hat(A, c) != eps)
    inner = LU.compose
    monkeypatch.setattr(LU, "compose", lambda x, y: stray if (x, y) == (f, g)
                        else inner(x, y))
    assert counit_report(A, bound=2)["failures"] == \
        [("composition not preserved", (f, g))]


def test_counit_identity_on_a_failed_class_is_skipped(monkeypatch):
    # the identity of an object is planted on a class that fails constancy:
    # that result is neither checked nor counted as bounded
    A = z2_discrete_algebra(BE3)
    LU, classes = counit_classes(A)
    clean = counit_report(A, bound=2)
    cls = next(c for c in classes if len(LU.members(c)) > 1)
    a = LU.objects_upto(2)[0]
    patch_counit(monkeypatch, A, {LU.members(cls)[1]}, lambda f: other_identity(A, f))
    inner = LU.ident
    monkeypatch.setattr(LU, "ident", lambda x: cls if x == a else inner(x))
    rep = counit_report(A, bound=2)
    assert rep["failures"] == [("not constant on a class", cls)]
    assert rep["bounded"] == clean["bounded"]


@pytest.mark.parametrize("method, planted", [
    ("compose", "raise"), ("compose", "outside"), ("xi1", "outside"),
], ids=["composite-raises", "composite-outside", "action-outside"])
def test_counit_result_past_the_bound_is_bounded(monkeypatch, method, planted):
    # the first composite or action result of the counit check leaves the
    # bound, by raising or by landing on a class the check never evaluated:
    # one more bounded instance, and nothing checked or failed in its place
    A = z2_discrete_algebra(BE3)
    LU, _ = counit_classes(A)
    clean = counit_report(A, bound=2)
    outside = LU.ident(LU.objects_upto(3)[-1])
    inner, calls = getattr(LU, method), []

    def first_leaves(*args):
        if calls:
            return inner(*args)
        calls.append(args)
        if planted == "raise":
            raise BoundExceeded("planted")
        return outside
    monkeypatch.setattr(LU, method, first_leaves)
    rep = counit_report(A, bound=2)
    assert len(calls) == 1
    assert rep == {**clean, "bounded": clean["bounded"] + 1,
                   "action_checked": clean["action_checked"] - (method == "xi1")}


def test_triangle_round_trip_moves_a_multimorphism(monkeypatch):
    A = z2_discrete_algebra(BE3)
    UA = underlying(A, 2)
    w = UA.morphisms[0]
    rep = unit_map(L(UA), w)[0]
    patch_counit(monkeypatch, A, {rep}, lambda f: other_identity(A, f))
    got = check_triangles(terminal_multicat(BE3), A, bound=2)
    assert got["triangle_U"] == [("round trip moves a multimorphism", w,
                                  (other_identity(A, w[0]), w[1]))]
    assert got["triangle_L"] == [] and got["bounded"] == 0


@pytest.mark.parametrize("loop", ["U", "L"])
def test_triangle_bound_exceeded_is_counted_as_bounded(monkeypatch, loop):
    # the first counit evaluation of the chosen loop leaves the truncation
    M, A = terminal_multicat(BE3), z2_discrete_algebra(BE3)
    clean = check_triangles(M, A, bound=2)
    assert clean["ok"] and clean["bounded"] == 0
    target = A if loop == "U" else L(M)
    inner, calls = adjoint.counit_hat, []

    def counit(B, hat):
        if B is target and not calls:
            calls.append(hat)
            raise BoundExceeded("planted")
        return inner(B, hat)
    monkeypatch.setattr(adjoint, "counit_hat", counit)
    got = check_triangles(M, A, bound=2)
    assert len(calls) == 1
    assert got == {**clean, "bounded": 1}


@pytest.mark.parametrize("loop", ["U", "L"])
def test_triangle_structural_error_is_a_broken_round_trip(monkeypatch, loop):
    # the first counit evaluation of the chosen loop finds malformed data:
    # a failed round trip with the error's repr, and the loop goes on
    M, A = terminal_multicat(BE3), z2_discrete_algebra(BE3)
    clean = check_triangles(M, A, bound=2)
    target = A if loop == "U" else L(M)
    inner, calls = adjoint.counit_hat, []

    def counit(B, hat):
        if B is target and not calls:
            calls.append(hat)
            raise StructuralError("planted")
        return inner(B, hat)
    monkeypatch.setattr(adjoint, "counit_hat", counit)
    got = check_triangles(M, A, bound=2)
    first = (underlying(A, 2).morphisms if loop == "U"
             else [cls for _, _, cls in L(M).morphisms_upto(2)])[0]
    assert got == {**clean, "ok": False, f"triangle_{loop}": [
        ("round trip broke", first, "StructuralError('planted')")]}


# ---------------------------------------------------------------------------
# descent and coequalizer-fork branches, reached by planted faults

def test_descent_witnesses_a_composite_that_depends_on_members(monkeypatch):
    M = terminal_multicat(BE3)
    lz = L(M)
    two = lz.objects_upto(2)[2]
    classes = lz.hom(two, two)
    cf = next(c for c in classes if len(lz.members(c)) > 1)
    cg = lz.ident(two)
    f, g = lz.members(cf)[1], cg
    stray = next(c for c in classes if c != lz.compose(cf, cg))
    inner = adjoint.hat_compose
    monkeypatch.setattr(adjoint, "hat_compose", lambda op, M_, x, y: stray
                        if (x, y) == (f, g) else inner(op, M_, x, y))
    rep = descent_report(M, bound=2)
    assert rep["failures"] == [("composite depends on members", (cf, cg, f, g))]


def test_descent_witnesses_an_action_that_depends_on_members(monkeypatch):
    M = terminal_multicat(BE3)
    op, lz = M.operad, L(M)
    objs = lz.objects_upto(2)
    members = tuple(h for a in objs for b in objs
                    for cls in lz.hom(a, b) for h in lz.members(cls))
    ends = lambda h: (hat_source(op, h), hat_target(op, M, h))
    E, stray = next(
        (E, c) for E in elements_within(op, 1, members, 2,
                                            lambda h: tuple(x.n for x in ends(h)), 2)
        if any(lz.class_of(h) is not h for h in E.xs)
        for c in lz.hom(*ends(adjoint.hat_xi1(op, M, E)))
        if c != lz.class_of(adjoint.hat_xi1(op, M, E)))
    inner = adjoint.hat_xi1
    monkeypatch.setattr(adjoint, "hat_xi1", lambda op_, M_, e: stray
                        if e == E else inner(op_, M_, e))
    rep = descent_report(M, bound=2)
    assert rep["failures"] == [("action depends on members", E)]


def test_coeq_fork_witnesses_a_leg_that_moves_an_endpoint(monkeypatch):
    M = terminal_multicat(associativity_operad(3))
    lz = L(M)
    a, c = (elements_of(M.operad, 0, M.objects, n)[0] for n in (2, 1))
    home, stray = lz.hom_hat(a, a)[0], lz.hom_hat(c, a)[0]
    monkeypatch.setattr(lz, "relation_instances", lambda *ab: iter([(stray, home)]))
    assert validate_coeq_fork(M, a, a) == {
        "ok": False, "failures": [("leg moves an endpoint", stray)], "instances": 1}


def test_coeq_fork_witnesses_a_section_that_moves_a_morphism(monkeypatch):
    # identity data acting on one splitting of two sources yields another
    # splitting with the same target, so no relation leg moves an endpoint
    M = terminal_multicat(associativity_operad(3))
    a = elements_of(M.operad, 0, M.objects, 2)[0]
    h, k = L(M).hom_hat(a, a)[:2]
    inner = adjoint.act_slots
    monkeypatch.setattr(adjoint, "act_slots", lambda M_, phi, taus: (
        (k.phi, inner(M_, phi, taus)[1]) if phi == h.phi else inner(M_, phi, taus)))
    rep = validate_coeq_fork(M, a, a)
    assert rep["failures"] == [("identity data is not a common section", h)]


# ---------------------------------------------------------------------------
# malformed provisional data, refused as a StructuralError

def composable_pair(M, pred):
    """The first (f, g) of L(M)'s bound-2 walk with f after g defined and pred(f, g)."""
    walk = L(M).morphisms_upto(2)
    return next((f, g) for _, b, g in walk for b2, _, f in walk
                if b2 == b and pred(f, g))


def other_orbit(op, lst):
    """lst with its datum moved to another orbit of its level."""
    return canonicalize(op, 0, lst.n, next(
        d for d in op.elements(0, lst.n)
        if opmonad.align_sigma(op, 0, lst.n, d, lst.d) is None), lst.xs)


@pytest.mark.parametrize("make, pred, plant, message", [
    # over ASS x BE(2) the binary level has two orbits of data
    (lambda: terminal_multicat(ass_x_be(2)), lambda f, g: g.phi.n == 2,
     other_orbit, "regrouping failed: flat list off the orbit"),
    # over U(z2) the two multimorphisms of g have different targets
    (lambda: underlying(z2_discrete_algebra(BE3), 2),
     lambda f, g: g.phi.n == 2 and g.phi.xs[0][0] != g.phi.xs[1][0],
     lambda op, lst: canonicalize(op, 0, lst.n, lst.d, lst.xs[::-1]),
     "regrouping failed: targets disagree"),
], ids=["off-the-orbit", "targets-disagree"])
def test_a_planted_interchange_fault_is_refused(monkeypatch, make, pred, plant,
                                                message):
    # the interchange lift returns a list that does not regroup under f's
    # list: a StructuralError, and nothing is memoized
    M = make()
    op = M.operad
    f, g = composable_pair(M, pred)
    monkeypatch.setattr(adjoint, "chi", lambda *args: (
        plant(op, chi(*args)[0]), chi(*args)[1]))
    with pytest.raises(StructuralError, match=message):
        hat_compose(op, M, f, g)
    assert not M.lifts and not M.regroupings
    monkeypatch.undo()
    assert hat_compose(op, M, f, g) in L(M).hom_hat(L(M).src(g), L(M).tgt(f))


def test_a_morphism_outside_its_hom_set_is_refused():
    # binary lists with ternary data: make_hat refuses the pair, and L finds
    # no class for it, while the provisional construction has no relation
    op, lz = BE3, L(terminal_multicat(BE3))
    h2 = lz.hom_hat(obj(op, lz.M, 2), obj(op, lz.M, 1))[0]
    h3 = lz.hom_hat(obj(op, lz.M, 3), obj(op, lz.M, 1))[0]
    bad = HatMorphism(h2.phi, h3.sigma)
    with pytest.raises(StructuralError, match="hat morphism condition fails"):
        make_hat(op, lz.M, bad.phi, bad.sigma)
    with pytest.raises(StructuralError,
                       match="morphism missing from its hom-set closure"):
        lz.members(bad)
    assert hat_L(lz.M).members(bad) == (bad,)


def test_hat_parts_of_the_wrong_level_are_refused():
    h = L(MB).hom_hat(obj(BE, MB, 2), obj(BE, MB, 1))[0]
    for phi, sigma in ((h.sigma, h.phi), (h.phi, h.phi), (h.sigma, h.sigma)):
        with pytest.raises(StructuralError, match=r"needs \(object-level, "
                                                  r"morphism-level\) parts"):
            make_hat(BE, MB, phi, sigma)
