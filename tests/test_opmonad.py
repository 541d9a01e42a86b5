"""Orbit elements, monad laws, the induced category structure, chi."""

import hashlib
import json
import random
import sys
from collections import Counter
from dataclasses import FrozenInstanceError
from functools import partial
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmcat.opmonad
from gmcat import jsonio
from gmcat.catoperad import (CatOperad, associativity_operad, barratt_eccles,
                             commutative_operad, operad_tables,
                             tabulated_operad)
from gmcat.dmulticat import fillings, terminal_multicat
from gmcat.errors import BoundExceeded, FreenessError, StructuralError
from gmcat.dalgebra import free_algebra, validate_algebra, z2_discrete_algebra
from gmcat.fincat import (CatFunctor, category, discrete_category,
                          is_target_cover, terminal_category,
                          validate_category, validate_functor)
from gmcat.finset import (Perm, canon_key, fibre_product, fibres, perms,
                          product_within, sort_labels)
from gmcat.opmonad import (I_D, S_D, T_D, MonadElem, all_elements,
                           canonicalize, check_cartesian,
                           check_preserves_cover, chi,
                           elements_of, elements_within, eta, gamma_D,
                           map_elem, melem, monad_category,
                           monad_set_category, mu, nested_elements,
                           validate_monad_category, validate_monad_laws)
from gmcat.opmonad import _least_translates, _orbit, _random_sets
from product_operad import ass_x_be, be_x_be, product_operad
from test_catoperad import corrupted_compose

BE = barratt_eccles(4)
ASS = associativity_operad(4)
COMM = commutative_operad(4)


def test_canonical_form_constant_on_orbit():
    d = ((1, 2, 3), (2, 3, 1))
    xs = ("x", "y", "x")
    base = melem(BE, 1, d, xs)
    for s in perms(3):
        assert melem(BE, 1, BE.act(1, 3, s, d), s.permuted(xs)) == base


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 35), st.integers(0, 5), st.integers(0, 5))
def test_canonical_form_orbit_law(di, si, xi):
    lvl = sorted(BE.elements(1, 3))
    d = lvl[di]
    s = perms(3)[si]
    xs = [("x", "y", "z"), ("y", "y", "x"), ("x", "x", "x"),
          ("z", "x", "y"), ("y", "z", "y"), ("x", "z", "z")][xi]
    assert melem(BE, 1, BE.act(1, 3, s, d), s.permuted(xs)) == melem(BE, 1, d, xs)


def test_distinct_orbits_stay_distinct():
    a = melem(BE, 0, (1, 2), ("x", "y"))
    b = melem(BE, 0, (1, 2), ("y", "x"))
    c = melem(BE, 0, (2, 1), ("x", "y"))
    assert a != b
    assert b == c  # (d.s, xs) ~ (d, s-permuted xs) with s the swap


def test_element_counts():
    assert len(elements_of(BE, 0, ("x", "y"), 2)) == 4
    assert len(elements_of(BE, 1, ("x", "y"), 2)) == 8
    assert len(elements_of(ASS, 1, ("x", "y"), 2)) == 4
    assert len(elements_of(COMM, 0, ("x", "y"), 2)) == 3  # multisets {xx, xy, yy}
    assert elements_of(BE, 0, (), 2) == ()
    assert len(elements_of(BE, 0, (), 0)) == 1


@pytest.mark.parametrize("op", [BE, ASS], ids=["BE", "ASS"])
@pytest.mark.parametrize("j", [0, 1])
def test_element_counts_over_a_free_operad(op, j):
    # a free action has orbits of size n!: |D_j X| = |X|^n |O(n)_j| / n!
    X = ("x", "y", "z")
    for n in range(5):
        level = len(op.elements(j, n))
        assert level % factorial(n) == 0
        assert len(elements_of(op, j, X, n)) == len(X) ** n * level // factorial(n)
    if op is BE:
        assert len(elements_of(op, j, X, 4)) == (81, 1944)[j]


def test_hom_over_point_is_symmetric_group():
    star = ("*",)
    mors = elements_of(BE, 1, star, 3)
    assert len(mors) == 6

    def from_g(g):
        return melem(BE, 1, ((1, 2, 3), g), star * 3)

    def to_g(e):
        return e.d[1]

    for g in perms(3):
        for h in perms(3):
            comp = gamma_D(BE, from_g(g.images), from_g(h.images))
            assert to_g(comp) == g.compose(h).images


def test_flatten_on_word_concatenation():
    inner = (melem(ASS, 0, (1,), ("a",)), melem(ASS, 0, (1, 2), ("b", "c")))
    outer = melem(ASS, 0, (1, 2), inner)
    assert mu(ASS, outer) == melem(ASS, 0, (1, 2, 3), ("a", "b", "c"))


def test_unit_laws_direct():
    for e in all_elements(BE, 0, ("x", "y", "z"), 3)[:80]:
        wrapped = canonicalize(BE, 0, 1, BE.unit, (e,))
        assert mu(BE, wrapped) == e
        assert mu(BE, map_elem(BE, lambda x: eta(BE, 0, x), e)) == e


def test_monad_laws_objects():
    assert validate_monad_laws(BE, 0, ("x", "y"), 3)["ok"]
    assert validate_monad_laws(ASS, 0, ("x", "y"), 3)["ok"]


def test_monad_laws_morphisms():
    assert validate_monad_laws(BE, 1, ("x",), 3)["ok"]
    assert validate_monad_laws(BE, 1, ("x", "y"), 2)["ok"]


def test_monad_laws_need_no_freeness():
    assert validate_monad_laws(COMM, 0, ("x", "y"), 3)["ok"]


I1, ID2, SW2 = ((1,), (1,)), (1, 2), (2, 1)


@pytest.mark.parametrize("key, kinds", [
    # gamma(unit; (1,2)) moves its one slot
    ((0, 1, (1,), ((2, ID2),)), {"mu . eta fails", "mu associativity fails"}),
    # gamma((1,2); unit, unit) moves its two slots
    ((0, 2, ID2, ((1, (1,)), (1, (1,)))),
     {"mu . D eta fails", "mu associativity fails"}),
    # no unit among the slots
    ((0, 2, ID2, ((2, ID2), (0, ()))), {"mu associativity fails"}),
], ids=["unit-outer", "unit-inner", "no-unit"])
def test_a_wrong_composite_breaks_the_monad_laws(key, kinds):
    op = corrupted_compose(associativity_operad(2), key, SW2)
    rep = validate_monad_laws(op, 0, ("x", "y"), 2)
    assert not rep["ok"]
    assert {f[0] for f in rep["failures"]} == kinds


@pytest.mark.parametrize("key, value, kinds", [
    ((1, 2, (ID2, SW2), ((1, I1), (1, I1))), (SW2, SW2), {"mu breaks S_D"}),
    ((1, 2, (ID2, SW2), ((1, I1), (1, I1))), (ID2, ID2), {"mu breaks T_D"}),
    # the composite of identities is no identity
    ((1, 2, (ID2, ID2), ((1, I1), (1, I1))), (ID2, SW2),
     {"mu breaks I_D", "mu breaks T_D"}),
], ids=["source", "target", "identity"])
def test_a_wrong_morphism_composite_breaks_the_monad_category(key, value, kinds):
    # the functoriality law composes flattened pairs, so it is not read
    # once mu breaks a structure map (it would raise, not fail)
    op = corrupted_compose(barratt_eccles(2), key, value)
    rep = validate_monad_category(op, ("x", "y"), 2)
    assert not rep["ok"]
    assert {f[0] for f in rep["failures"]} == kinds


def z3_unit_operad(identity_action=lambda x: (x + 1) % 3):
    """Truncation 1, with level 1 the group Z/3 on one object, on which the
    identity permutation acts by identity_action, +1 by default (an invalid
    action). DX is still a category: its identity is [1; x], so it is not
    eta = [0; x]."""
    L1 = category([(1,)], [0, 1, 2], dict.fromkeys(range(3), (1,)),
                  dict.fromkeys(range(3), (1,)), {(1,): 0},
                  {(a, b): (a + b) % 3 for a in range(3) for b in range(3)})

    def act(j, n, sigma, x):
        return identity_action(x) if (j, n) == (1, 1) else x

    def compose(j, k, x, inners):
        if k == 0:
            return x
        (n, y), = inners
        return y if j == 0 or n == 0 else (x + y) % 3

    return CatOperad("z3_unit", 1, (barratt_eccles(1).levels[0], L1), (1,),
                     act, compose)


def test_an_identity_action_that_moves_the_unit_breaks_eta():
    op = z3_unit_operad()
    assert op.is_free
    assert validate_category(monad_set_category(op, ("x", "y"), 1))["ok"]
    rep = validate_monad_category(op, ("x", "y"), 1)
    assert ("I_D does not match eta on morphisms", "x") in rep["failures"]
    assert {f[0] for f in rep["failures"]} == {
        "I_D does not match eta on morphisms", "mu breaks I_D"}


def test_category_object_laws():
    assert validate_monad_category(BE, ("x", "y"), 2)["ok"]
    assert validate_monad_category(ASS, ("a", "b"), 2)["ok"]
    assert validate_monad_category(BE, ("x",), 3)["ok"]


CATEGORY_CASES = [(BE, ("x", "y"), 2, 3844, 184), (ASS, ("a", "b"), 2, 625, 25),
                  (BE, ("x",), 3, 104329, 5883)]


def plain_functoriality(op, labels, bound):
    """The nested pairs that compose, tried one by one, and the law on each."""
    nested2 = [e for e, _ in nested_elements(op, 1, labels, 2, bound)]
    pairs, failures = [], []
    for E in nested2:
        for E2 in nested2:
            try:
                comp = gmcat.opmonad._aligned_compose(
                    op, E, E2, lambda e: S_D(op, e), lambda e: T_D(op, e),
                    lambda a, b: gamma_D(op, a, b))
            except StructuralError:
                continue
            pairs.append((E, E2))
            if mu(op, comp) != gamma_D(op, mu(op, E), mu(op, E2)):
                failures.append(("mu breaks gamma_D", (E, E2)))
    return len(nested2) ** 2, pairs, failures


def spy_functoriality(monkeypatch, wrong=False):
    """Record the nested pairs validate_monad_category composes itself; with
    `wrong`, each such composite, and each of plain_functoriality's, is
    replaced by its left factor."""
    inner, seen = gmcat.opmonad._aligned_compose, []
    callers = (validate_monad_category.__code__, plain_functoriality.__code__)

    def spy(op, E, E2, *maps):
        comp = inner(op, E, E2, *maps)
        caller = sys._getframe(1).f_code
        if caller is validate_monad_category.__code__:
            seen.append((E, E2))
        return E if wrong and caller in callers else comp
    monkeypatch.setattr(gmcat.opmonad, "_aligned_compose", spy)
    return seen


@pytest.mark.parametrize("op, labels, bound, tries, composable", CATEGORY_CASES,
                         ids=["BE-xy-2", "ASS-ab-2", "BE-x-3"])
def test_functoriality_reads_the_composable_pairs(monkeypatch, op, labels, bound,
                                                  tries, composable):
    # the pairs whose endpoints meet are exactly those the try-each-pair loop
    # composes, in the same order
    seen = spy_functoriality(monkeypatch)
    assert validate_monad_category(op, labels, bound)["ok"]
    n, pairs, _ = plain_functoriality(op, labels, bound)
    assert (n, len(pairs)) == (tries, composable)
    assert seen == pairs


def test_functoriality_failures_match_the_pairwise_loop(monkeypatch):
    seen = spy_functoriality(monkeypatch, wrong=True)
    failures = validate_monad_category(BE, ("x", "y"), 2)["failures"]
    _, pairs, want = plain_functoriality(BE, ("x", "y"), 2)
    assert seen == pairs and want
    assert [f for f in failures if f[0] == "mu breaks gamma_D"] == want


def test_structural_error_inside_the_functoriality_law_propagates(monkeypatch):
    # a broken structure map inside the nested composite is an error, not a
    # pair that does not compose
    inner = gmcat.opmonad._aligned_compose

    def broken(op, E, E2, *maps):
        if sys._getframe(1).f_code is validate_monad_category.__code__:
            raise StructuralError("planted")
        return inner(op, E, E2, *maps)
    monkeypatch.setattr(gmcat.opmonad, "_aligned_compose", broken)
    with pytest.raises(StructuralError, match="planted"):
        validate_monad_category(BE, ("x", "y"), 2)


def test_identity_elements():
    X = melem(BE, 0, (2, 1), ("x", "y"))
    i = I_D(BE, X)
    assert S_D(BE, i) == X and T_D(BE, i) == X
    assert I_D(BE, eta(BE, 0, "x")) == eta(BE, 1, "x")


def test_gamma_rejects_noncomposable():
    e = melem(BE, 1, (((1, 2), (2, 1))), ("x", "y"))
    bad = melem(BE, 1, ((1, 2), (1, 2)), ("x", "z"))
    with pytest.raises(StructuralError, match="levels or labels do not match"):
        gamma_D(BE, e, bad)
    with pytest.raises(StructuralError, match="composition arity mismatch"):
        gamma_D(BE, e, melem(BE, 1, ((1,), (1,)), ("x",)))
    # ASS x BE acts diagonally: these two level-2 objects lie in two orbits
    op = ass_x_be(2)
    E, E2 = (melem(op, 1, op.level(2).ident[o], ("x", "y"))
             for o in (((1, 2), (1, 2)), ((1, 2), (2, 1))))
    with pytest.raises(StructuralError, match="source and target orbits differ"):
        gamma_D(op, E, E2)


def test_truncation_is_loud():
    with pytest.raises(BoundExceeded):
        melem(BE, 0, None, ("x",) * 5)
    big = melem(BE, 0, (1, 2, 3), (melem(BE, 0, (1, 2), ("x", "y")),
                                   melem(BE, 0, (1, 2), ("x", "x")),
                                   melem(BE, 0, (1,), ("y",))))
    with pytest.raises(BoundExceeded):
        mu(BE, big)


def test_mu_rejects_foreign_labels():
    with pytest.raises(StructuralError):
        mu(BE, melem(BE, 0, (1,), ("not an element",)))


X2 = melem(BE, 0, (1, 2), ("x", "y"))
F2 = melem(BE, 1, ((1, 2), (1, 2)), ("x", "y"))


@pytest.mark.parametrize("call, message", [
    (lambda: melem(BE, 2, (1,), ("x",)), "element level 2 is neither 0"),
    (lambda: melem(BE, 0, (9, 9), ("x", "y")), r"\(9, 9\) is not a level-2 element"),
    (lambda: S_D(BE, X2), "S_D expects a morphism-level element"),
    (lambda: T_D(BE, X2), "T_D expects a morphism-level element"),
    (lambda: I_D(BE, F2), "I_D expects an object-level element"),
    (lambda: gamma_D(BE, F2, X2), "composition expects morphism-level elements"),
], ids=["melem-j", "melem-d", "S_D", "T_D", "I_D", "compose"])
def test_an_element_at_the_wrong_level_is_refused(call, message):
    with pytest.raises(StructuralError, match=message):
        call()


# -- chi ------------------------------------------------------------------

SRC = {
    "g": melem(BE, 0, (1, 2), ("p", "q")),
    "h": melem(BE, 0, (1,), ("r",)),
    "k": melem(BE, 0, (), ()),
}
TGT = {"g": "p", "h": "q", "k": "r"}


def test_chi_identity_left_leg():
    phis = melem(BE, 0, (2, 1), ("g", "h"))
    Z = map_elem(BE, TGT.__getitem__, phis)
    first, second = chi(BE, I_D(BE, Z), phis, SRC.__getitem__, TGT.__getitem__)
    assert first == phis
    assert second == I_D(BE, mu(BE, map_elem(BE, SRC.__getitem__, phis)))


def test_chi_identity_right_legs():
    # degenerate carrier: morphisms are points, source = eta, target = identity
    sigma = melem(BE, 1, ((1, 2), (2, 1)), ("x", "y"))
    X = S_D(BE, sigma)
    first, second = chi(BE, sigma, X, lambda x: eta(BE, 0, x), lambda x: x)
    assert first == T_D(BE, sigma)
    assert second == sigma


def test_chi_rejects_mismatched_legs():
    phis = melem(BE, 0, (1, 2), ("g", "g"))
    with pytest.raises(StructuralError, match="chi precondition fails"):
        chi(BE, I_D(BE, melem(BE, 0, (1, 2), ("p", "r"))), phis,
            SRC.__getitem__, TGT.__getitem__)


def test_chi_refuses_arguments_at_the_wrong_levels():
    phis = melem(BE, 0, (2, 1), ("g", "h"))
    with pytest.raises(StructuralError, match="chi expects"):
        chi(BE, phis, phis, SRC.__getitem__, TGT.__getitem__)


def test_chi_refuses_legs_that_no_sigma_aligns():
    # two_sigma's identity moves (1, 2) to (2, 1): the legs meet as canonical
    # elements, yet no sigma sends S(sigma.d) = (1, 2) to phis.d = (1, 2)
    op = two_sigma_operad()
    sigma = melem(op, 1, ((1, 2), (1, 2)), ("x", "y"))
    phis = MonadElem(0, 2, (1, 2), ("f", "g"))
    tgt = {"f": "x", "g": "y"}.__getitem__
    assert S_D(op, sigma) == map_elem(op, tgt, phis)
    with pytest.raises(StructuralError, match="interchange lifting failed"):
        chi(op, sigma, phis, None, tgt)


# -- D applied to categories and functors ----------------------------------

def test_monad_category_of_point():
    DC = monad_category(BE, discrete_category(["*"]), 3)
    assert validate_category(DC)["ok"]
    assert len(DC.objects) == 4
    for n in range(4):
        X = [o for o in DC.objects if o.n == n][0]
        endos = [f for f in DC.morphisms if DC.src[f] == X and DC.tgt[f] == X]
        assert len(endos) == [1, 1, 2, 6][n]


def test_monad_category_of_discrete_pair():
    DC = monad_category(BE, discrete_category(["x", "y"]), 2)
    assert validate_category(DC)["ok"]
    assert len(DC.objects) == 7


@pytest.mark.parametrize("build", [
    lambda: monad_category(COMM, discrete_category(["x", "y"]), 2),
    lambda: validate_monad_category(COMM, ("x", "y"), 2),
    lambda: validate_algebra(z2_discrete_algebra(COMM), 2),
], ids=["monad_category", "validate_monad_category", "validate_algebra"])
def test_composition_in_DC_over_a_non_free_operad_is_refused(build):
    # realigning arrangements needs a free operad: a refusal, not a DC
    # whose composition table is empty
    with pytest.raises(FreenessError, match="needs a sigma-free operad"):
        build()


# fault injection: the structure maps of DC are one family, shared by the
# tables and by every validator that reads them

FAULT_TARGETS = {
    "validate_monad_category":
        lambda op: validate_monad_category(op, ("x", "y"), 2),
    "validate_category(monad_category)":
        lambda op: validate_category(monad_category(
            op, discrete_category(["x", "y"]), 2)),
    "validate_algebra(free_algebra)":
        lambda op: validate_algebra(free_algebra(op, terminal_category(), 2), 2),
    "validate_algebra(z2_discrete_algebra)":
        lambda op: validate_algebra(z2_discrete_algebra(op), 2),
}


def wrong_level_src(op):
    """op with its least level-2 morphism, an identity, given another source."""
    L = op.level(2)
    m = min(L.morphisms, key=canon_key)
    L.src[m] = next(o for o in L.objects if o != L.src[m])
    return op


@pytest.mark.parametrize("target, kind", [
    ("validate_monad_category", "DX: bad identity"),
    ("validate_category(monad_category)", "bad identity"),
    ("validate_algebra(free_algebra)",
     "carrier: composition table domain mismatch"),
    # a lawful carrier: DC leaves out the pairs the level cannot compose
    ("validate_algebra(z2_discrete_algebra)", "composite undefined"),
])
def test_a_wrong_level_source_fails_with_a_witness(target, kind):
    rep = FAULT_TARGETS[target](wrong_level_src(associativity_operad(3)))
    assert not rep["ok"]
    assert kind in {f[0] for f in rep["failures"]}


@pytest.mark.parametrize("target, kind", [
    ("validate_monad_category", "DX: composite has wrong endpoints"),
    ("validate_category(monad_category)", "composite has wrong endpoints"),
    # the free algebra's carrier DC is built with the wrong composite
    ("validate_algebra(free_algebra)", "carrier: left unit fails"),
])
def test_a_wrong_composite_fails_with_a_witness(monkeypatch, target, kind):
    inner = gmcat.opmonad._aligned_compose

    def left_factor(op, E, E2, *maps):
        inner(op, E, E2, *maps)
        return E
    monkeypatch.setattr(gmcat.opmonad, "_aligned_compose", left_factor)
    rep = FAULT_TARGETS[target](barratt_eccles(3))
    assert not rep["ok"]
    assert kind in {f[0] for f in rep["failures"]}


def test_a_wrong_composite_in_the_free_algebra_fails_with_a_witness():
    # over ASS each morphism of D(terminal) and of D D(terminal) is an
    # identity, composable with itself alone, so a composite replaced by its
    # left factor changes nothing; the wrong composite goes into the
    # carrier's table instead
    A = free_algebra(associativity_operad(3), terminal_category(), 2)
    ident = {X.n: A.carrier.ident[X] for X in A.carrier.objects}
    A.carrier.comp[(ident[2], ident[2])] = ident[1]
    rep = validate_algebra(A, 2)
    assert not rep["ok"]
    assert "carrier: composite has wrong endpoints" in {f[0] for f in rep["failures"]}


def test_monad_functor_and_cover_preservation():
    # the two-object translation groupoid covers the two-element monoid
    from test_fincat import chaotic2_cover_over_sym2
    F = chaotic2_cover_over_sym2()
    assert is_target_cover(F)[0]
    rep = check_preserves_cover(BE, F, 2)
    assert rep["ok"]
    assert rep["target"]["checked"] > 0


def collapse_sym2():
    """The two-element monoid collapsed onto the point: a functor, no cover."""
    from test_fincat import sym2_monoid
    C = sym2_monoid()
    P = discrete_category(["*"])
    return CatFunctor(C, P, {o: "*" for o in C.objects},
                      {f: P.ident["*"] for f in C.morphisms})


def test_cover_preservation_rejects_noncover():
    collapse = collapse_sym2()
    assert validate_functor(collapse)["ok"]
    with pytest.raises(StructuralError):
        check_preserves_cover(BE, collapse, 2)


def test_cover_preservation_counts_every_lift(monkeypatch):
    # fault injection: the collapse passes as a target cover, so the failure
    # branch runs; each failure must count every element over its pair
    F = collapse_sym2()
    monkeypatch.setattr(gmcat.opmonad, "is_target_cover", lambda F: (True, None))
    rep = check_preserves_cover(BE, F, 2)
    assert not rep["ok"] and rep["source"]["checked"] == 0
    over = {}
    for n in range(3):
        for E in elements_of(BE, 1, F.dom.morphisms, n):
            key = (repr(T_D(BE, E, F.dom.tgt.__getitem__)),
                   repr(map_elem(BE, F.mor_map.get, E)))
            over[key] = over.get(key, 0) + 1
    fails = rep["target"]["failures"]
    assert [f["lifts"] for f in fails] == [over[(f["object"], f["over"])]
                                           for f in fails] == [2, 4, 4]


# -- cartesianness -----------------------------------------------------------

def test_cartesian_free_operads():
    for op in (BE, ASS):
        for j in (0, 1):
            rep = check_cartesian(op, j, seed=11 + j, squares=20)
            assert rep["ok"], rep
            assert rep["squares"]["checked"] == 20
            assert rep["mu_naturality"]["checked"] > 0


def test_cartesian_failure_for_commutative():
    rep = check_cartesian(COMM, 0, seed=11, squares=10)
    assert not rep["ok"]
    assert rep["mu_naturality"]["failures"]
    first = rep["mu_naturality"]["failures"][0]
    assert len(first["lifts"]) != 1


def test_nested_weights_respect_budget():
    for e, w in nested_elements(BE, 1, ("x", "y"), 2, 2):
        assert all(c <= 2 for c in w)
        assert mu(BE, e).n == w[-1]


def _reference_nested(op, j, labels, layers, budget):
    """nested_elements by canonicalize, then dedupe, then a canon_key sort."""
    cap = min(budget, op.max_level)
    if layers == 1:
        return tuple((e, (e.n,)) for e in all_elements(op, j, labels, cap))
    inner = dict(_reference_nested(op, j, labels, layers - 1, budget))
    out = []
    for k in range(cap + 1):
        reps = _least_translates(op, j, k)
        for xs, ws in product_within([tuple(inner)] * k, inner.__getitem__, cap):
            ws = ws or (0,) * (layers - 1)
            for d in reps:
                out.append((canonicalize(op, j, k, d, xs), (k,) + ws))
    seen, uniq = set(), []
    for e, w in out:
        if e not in seen:
            seen.add(e)
            uniq.append((e, w))
    return tuple(sorted(uniq, key=lambda ew: canon_key(ew[0])))


# Layer 3 runs over one and two labels: three labels make thousands of
# elements, and BE's morphism monad has 76 649 at two labels, so it runs
# over one label only.
_ORDER_CASES = [pytest.param(make, j, labels, layers,
                             id=f"{make.__name__}-{j}-{''.join(labels)}-{layers}")
                for make in (barratt_eccles, associativity_operad)
                for j in (0, 1)
                for labels in (("x",), ("x0", "x1"), ("x0", "x1", "x2"), ("x1", "x0"))
                for layers in (2, 3)
                if layers == 2 or len(labels) == 1
                or len(labels) == 2 and (make is associativity_operad or j == 0)]


@pytest.mark.parametrize("make,j,labels,layers", _ORDER_CASES)
def test_free_nested_elements_are_built_in_canonical_order(make, j, labels, layers):
    got = nested_elements(make(4), j, labels, layers, 3)
    want = _reference_nested(make(4), j, labels, layers, 3)
    assert len(got) == len(want) > 0
    for (e, w), (f, v) in zip(got, want):
        assert (e.j, e.n, e.d, e.xs, w) == (f.j, f.n, f.d, f.xs, v)


@pytest.mark.parametrize("labels", [("x", "y"), ("y", "x")])
def test_non_free_nested_elements_keep_the_sorted_path(labels):
    COMM3 = commutative_operad(3)
    got = nested_elements(COMM3, 0, labels, 2, 3)
    assert got == _reference_nested(commutative_operad(3), 0, labels, 2, 3)
    keys = [canon_key(e) for e, _ in got]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


@pytest.mark.parametrize("op", [commutative_operad(3), barratt_eccles(3)],
                         ids=["COMM(3)", "BE(3)"])
def test_bounded_elements_are_the_filtered_elements(op):
    # one enumeration serves both, so a non-free operad needs no demand
    weight = {"x": (0,), "y": (1,), "z": (2,)}.__getitem__
    within = elements_within(op, 0, ("x", "y", "z"), 3, weight, 2)
    assert within == tuple(e for e in all_elements(op, 0, ("x", "y", "z"), 3)
                           if sum(weight(x)[0] for x in e.xs) <= 2)
    assert len(set(within)) == len(within) > 0


def _draws(seed, squares):
    """check_cartesian's seeded draws: the accepted squares, then the
    naturality functions."""
    rng = random.Random(seed)
    drawn = []
    while len(drawn) < squares:
        A, B, Z, f, g = _random_sets(rng)
        P = tuple(fibre_product(A, f.__getitem__, B, g.__getitem__))
        if len(P) <= 10:
            drawn.append((A, B, Z, f, g, P))
    functions = [(("x", "y"), ("z",), {"x": "z", "y": "z"})]
    for _ in range(12):
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        A = tuple(f"x{i}" for i in range(na))
        B = tuple(f"z{i}" for i in range(nb))
        functions.append((A, B, {a: rng.choice(B) for a in A}))
    return drawn, functions


def _canonical_elements(op, j, labels, bound):
    """all_elements, each named by its canonical form, as check_cartesian
    names them. Over a free operad _elements builds [d; xs] for each least d,
    which need not be canonical; over any other it has canonicalized
    already, and canonicalize is not idempotent there."""
    elements = all_elements(op, j, labels, bound)
    if not op.is_free:
        return elements
    return tuple(canonicalize(op, j, e.n, e.d, e.xs) for e in elements)


def _reference_square_preserved(op, j, A, B, f, g, P, bound):
    """One square, rebuilding every element list and mapping through lambdas.
    Every pair that the index holds twice is in the fibre product (both
    sides name elements canonically), so it is an ambiguous lift."""
    index = fibres(all_elements(op, j, P, bound),
                   lambda w: (map_elem(op, lambda p: p[0], w),
                              map_elem(op, lambda p: p[1], w)))
    failures = []
    for u, v in fibre_product(_canonical_elements(op, j, A, bound),
                              lambda u: map_elem(op, f.__getitem__, u),
                              _canonical_elements(op, j, B, bound),
                              lambda v: map_elem(op, g.__getitem__, v)):
        k = len(index.get((u, v), ()))
        if k != 1:
            failures.append(("missing lift" if k == 0 else "ambiguous lift", (u, v)))
    return failures


def _reference_squares(op, j, seed, squares, bound=3):
    """check_cartesian's squares section, one square at a time."""
    sec = {"checked": 0, "failures": []}
    for A, B, Z, f, g, P in _draws(seed, squares)[0]:
        fails = _reference_square_preserved(op, j, A, B, f, g, P, bound)
        sec["checked"] += 1
        if fails:
            sec["failures"].append({"sets": (A, B, Z), "maps": (f, g),
                                    "witnesses": fails[:3]})
    return sec


def _reference_eta_naturality(op, j, seed, squares, bound=3):
    """check_cartesian's eta-naturality section, mapping every element again
    for each function."""
    sec = {"checked": 0, "failures": []}
    for A, B, fmap in _draws(seed, squares)[1]:
        fl = lambda a: fmap[a]
        eta_index = fibres(A, lambda a: (eta(op, j, a), fmap[a]))
        for x, b in fibre_product(_canonical_elements(op, j, A, bound),
                                  lambda x: map_elem(op, fl, x),
                                  B, lambda b: eta(op, j, b)):
            hits = eta_index.get((x, b), ())
            sec["checked"] += 1
            if len(hits) != 1:
                sec["failures"].append({"map": fmap, "pair": (x, b),
                                        "lifts": len(hits)})
    return sec


def _reference_mu_naturality(op, j, seed, squares, bound=3):
    """check_cartesian's mu-naturality section on the same seeded draws,
    flattening every nested element again for each function."""
    sec = {"checked": 0, "failures": []}
    for A, B, fmap in _draws(seed, squares)[1]:
        fl = fmap.__getitem__
        index = fibres((v for v, _ in nested_elements(op, j, A, 2, bound)),
                       lambda v: (mu(op, v),
                                  map_elem(op, lambda e: map_elem(op, fl, e), v)))
        for u, w in fibre_product(_canonical_elements(op, j, A, bound),
                                  lambda u: map_elem(op, fl, u),
                                  (w for w, _ in nested_elements(op, j, B, 2, bound)),
                                  lambda w: mu(op, w)):
            sec["checked"] += 1
            hits = index.get((u, w), ())
            if len(hits) != 1:
                sec["failures"].append({"map": fmap, "pair": (u, w),
                                        "lifts": [repr(v) for v in hits]})
    return sec


def _cases(rows):
    """(make, j, whether the check passes) per j of each row (name, make,
    js, the js where it fails); make builds the operad."""
    return [pytest.param(make, j, j not in failing, id=f"{name}-{j}")
            for name, make, js, failing in rows for j in js]


# operads whose reference loops stay fast; ASS x BE has several orbits per
# level, COMM and two_sigma_operad orbit entries with several sigmas, and
# fixed_swap_operad is not free
_SMALL = _cases([("BE3", partial(barratt_eccles, 3), (0, 1), ()),
                 ("ASS3", partial(associativity_operad, 3), (0, 1), ()),
                 ("ASSxBE2", partial(ass_x_be, 2), (0, 1), ()),
                 ("COMM3", partial(commutative_operad, 3), (1,), (1,)),
                 ("two_sigma", lambda: two_sigma_operad(), (0, 1), (0,)),
                 ("fixed_swap", lambda: fixed_swap_operad(), (0, 1), ())])


@pytest.mark.parametrize("make,j,cartesian",
                         _cases([("BE", partial(barratt_eccles, 4), (0, 1), ()),
                                 ("ASS", partial(associativity_operad, 4), (0, 1), ()),
                                 ("COMM", partial(commutative_operad, 4), (0,), (0,))])
                         + _SMALL)
def test_cartesian_squares_and_eta_match_the_per_square_loops(make, j, cartesian):
    rep = check_cartesian(make(), j, seed=2027, squares=20)
    assert rep["squares"] == _reference_squares(make(), j, seed=2027, squares=20)
    assert rep["eta_naturality"] == _reference_eta_naturality(
        make(), j, seed=2027, squares=20)
    assert rep["squares"]["checked"] == 20 and rep["eta_naturality"]["checked"] > 0
    assert bool(rep["squares"]["failures"]) != cartesian


@pytest.mark.parametrize("make,j,cartesian", _SMALL)
def test_cartesian_mu_square_matches_the_per_function_loop(make, j, cartesian):
    rep = check_cartesian(make(), j, seed=2027, squares=1)
    assert rep["mu_naturality"] == _reference_mu_naturality(make(), j, seed=2027,
                                                            squares=1)
    assert rep["mu_naturality"]["checked"] > 0 and rep["ok"] == cartesian


def test_cartesian_check_flattens_each_nested_element_once(monkeypatch):
    # where D is polynomial (BE) the mu square is counted and nothing is
    # flattened; elsewhere (COMM) each nested element is flattened once per
    # call, and each shape composed once, through op.composites
    for make, j, digest in [
            (barratt_eccles, 1, "95304aa474e6833345c8b7233f4af4ae739e592cbfce152aca891a5f74e0371e"),
            (commutative_operad, 0, "6ef47d32bd1d24b4e20810c3faaaea89a7788a200cada7324f76dbe20f96bc71")]:
        op = make(4)
        flattened, composed, real_mu = Counter(), Counter(), gmcat.opmonad.mu
        real_compose = op._compose

        def counting_mu(op, e):
            flattened[e] += 1
            return real_mu(op, e)

        def counting_compose(*shape):
            composed[shape] += 1
            return real_compose(*shape)

        monkeypatch.setattr(gmcat.opmonad, "mu", counting_mu)
        monkeypatch.setattr(op, "_compose", counting_compose)
        rep = check_cartesian(op, j, seed=2027, squares=5)
        monkeypatch.undo()
        assert bool(flattened) == (make is commutative_operad)
        assert max(flattened.values(), default=1) == 1
        # the premises compose each shape once and keep no table
        assert composed and set(composed.values()) == {1}
        assert set(op.composites) == (set(composed) if make is commutative_operad
                                      else set())
        assert rep["ok"] == (make is barratt_eccles)
        assert rep["mu_naturality"] == _reference_mu_naturality(
            make(4), j, seed=2027, squares=5)
        # the report of the per-function flattening, byte for byte
        assert _digest(rep) == digest, make.__name__


def _digest(rep):
    return hashlib.sha256(json.dumps(rep, sort_keys=True, default=repr).encode()).hexdigest()


_SECTIONS = (("squares", _reference_squares), ("eta_naturality", _reference_eta_naturality),
             ("mu_naturality", _reference_mu_naturality))


def _refuse(what):
    def refuse(*args):
        raise AssertionError(f"check_cartesian called {what}")
    return refuse


_never_nested = _refuse("nested_elements")


def _cartesian(monkeypatch, op, j, **kwargs):
    """check_cartesian(op, j, **kwargs), with nested_elements patched to
    raise where D is polynomial (no premise fails): there the mu square is
    counted, and nothing nested is built."""
    with monkeypatch.context() as m:
        if not _failing_premises(op, j):
            m.setattr(gmcat.opmonad, "nested_elements", _never_nested)
        return check_cartesian(op, j, **kwargs)


def _over_a_square(op):
    """The op.elems keys with a label of a square's A (a0, a1, ...), B (b0,
    b1, ...) or P (pairs): the elements canonicalized over A, B or P. The
    naturality maps label with x, y and z, or with elements over those (D D f
    of a nested element); the images D f, D g over a square's Z need an
    element over A or B first."""
    def over(x):
        if isinstance(x, MonadElem):
            return any(map(over, x.xs))
        return isinstance(x, tuple) or x[0] in "ab"
    return [key for key in op.elems if any(map(over, key[2]))]


def test_an_identity_that_moves_elements_breaks_the_eta_and_mu_squares():
    # the least translate [0; x] is not canonical: the orbit table sends it
    # to [1; x], so eta(b) = [0; b] is the image of no element; the reference
    # loops name elements canonically too, so every section equals its own
    rep = check_cartesian(z3_unit_operad(), 1, seed=3, squares=10)
    for name, reference in _SECTIONS:
        assert rep[name] == reference(z3_unit_operad(), 1, 3, 10), name
    assert [f["lifts"] for f in rep["eta_naturality"]["failures"]] == [0] * 26
    assert (len(rep["mu_naturality"]["failures"]), rep["mu_naturality"]["checked"]) \
        == (234, 286)
    assert _digest(rep) == \
        "e6ede47cd18b47f49596909050024aac69c9e928f07b7b9f95093ab70b856ec4"
    rep = check_cartesian(z3_unit_operad(), 0, seed=3, squares=10)
    for name, reference in _SECTIONS:
        assert rep[name] == reference(z3_unit_operad(), 0, 3, 10), name
    assert rep["ok"] and _digest(rep) == \
        "f0ba9fd201c7b10ce8c9f922e84e12449ec659061b1b8874dd7281ebd549139d"


def test_an_identity_that_merges_representatives_gives_ambiguous_lifts(monkeypatch):
    # two least representatives, 1 and 2, share the canonical form [2; x]:
    # D of a pullback has two lifts of a pair, a nested pair two flattenings
    def make():
        return z3_unit_operad(lambda x: min(x + 1, 2))
    op = make()
    rep = _cartesian(monkeypatch, op, 1, seed=3, squares=10)
    assert op.is_free
    for name, reference in _SECTIONS:
        assert rep[name] == reference(make(), 1, 3, 10), name
    kinds = {w[0] for f in rep["squares"]["failures"] for w in f["witnesses"]}
    assert kinds == {"ambiguous lift"}
    assert {len(f["lifts"]) for f in rep["mu_naturality"]["failures"]} == {0, 2}
    assert _digest(rep) == \
        "18838c289e0383bd59599dfdeed0f64e45174065423fa2dcc3efe2affc519351"


def two_sigma_operad():
    """BE(2) but for its level-2 objects, which the identity sends to (2, 1),
    and the transposition to each other. No permutation but the identity
    fixes an object, so the operad is free, yet the transposition reaches
    (2, 1) from (1, 2) too: that orbit entry has two sigmas."""
    be = barratt_eccles(2)

    def act(j, n, sigma, x):
        if (j, n) == (0, 2):
            return (2, 1) if sigma.is_identity or x == (1, 2) else (1, 2)
        return be.act(j, n, sigma, x)
    return CatOperad("two_sigma", 2, be.levels, be.unit, act, be._compose)


def test_an_orbit_entry_with_two_sigmas_relabels_through_canonicalize(monkeypatch):
    op = two_sigma_operad()
    assert op.is_free and len(_orbit(op, 0, 2, (1, 2))[2]) == 2
    rep = _cartesian(monkeypatch, op, 0, seed=3, squares=10)
    # the entry's relabelling depends on the labels: canonicalize, whose
    # memo is op.elems
    assert op.elems
    assert rep["squares"]["failures"] and rep["mu_naturality"]["failures"]
    assert _digest(rep) == \
        "134167c423066f8ffc85913bece8d75c78812588142eda55f24e7f6dd51ec4d0"
    # at j = 1 the action is BE's: every entry has one sigma
    op = two_sigma_operad()
    rep = _cartesian(monkeypatch, op, 1, seed=3, squares=10)
    assert rep["ok"] and _over_a_square(op) == []
    for name, reference in _SECTIONS:
        assert rep[name] == reference(two_sigma_operad(), 1, 3, 10), name


def fixed_swap_operad():
    """BE(2) but for its level-2 morphisms m0 < m1 < m2 < m3, on which the
    identity sends m0 to m1 and the transposition fixes m0 and sends m1 to
    m0, m2 to m3, m3 to m1. Not free, yet every orbit entry has one sigma:
    the least representatives m0 and m1 share the canonical form of m0."""
    be = barratt_eccles(2)
    m = be.level(2).morphisms
    ident = {m[0]: m[1], m[1]: m[1], m[2]: m[2], m[3]: m[3]}
    swap = {m[0]: m[0], m[1]: m[0], m[2]: m[3], m[3]: m[1]}

    def act(j, n, sigma, x):
        if (j, n) == (1, 2):
            return (ident if sigma.is_identity else swap)[x]
        return be.act(j, n, sigma, x)
    return CatOperad("fixed_swap", 2, be.levels, be.unit, act, be._compose)


def test_a_non_free_operad_merges_the_rows_that_canonicalize_alike(monkeypatch):
    # over a non-free operad each list holds each canonical element once, as
    # _elements merges them; an element per least representative would
    # count those of m0 and m1 twice, 2 647 mu instances
    op = fixed_swap_operad()
    assert not op.is_free
    assert {len(_orbit(op, 1, 2, d)[2]) for d in op.level(2).morphisms} == {1}
    rep = _cartesian(monkeypatch, op, 1, seed=3, squares=10)
    assert rep["ok"] and rep["mu_naturality"]["checked"] == 902
    assert _digest(rep) == \
        "c1116c750c4949a7987707276ce510c5e12ab6bce083f164fb0e6929d711dc92"
    # the check and the reference loops read _elements' sorted D A, though
    # [m0; (x, y)] canonicalizes to [m0; (y, x)]: canonicalize is not
    # idempotent here, so canonicalizing all_elements again would move two
    # of its 11
    DA = all_elements(op, 1, ("x", "y"), 3)
    assert _canonical_elements(op, 1, ("x", "y"), 3) == DA and len(DA) == 11
    assert sum(canonicalize(op, 1, e.n, e.d, e.xs) != e for e in DA) == 2


def turned_swap_operad():
    """BE(2) but for the transposition on the level-2 morphisms m0 < m1 < m2
    < m3, which it turns in the cycle m3 -> m1 -> m0 -> m2 -> m3 (not an
    involution, so not an action). It fixes nothing, so the operad is free
    and every orbit entry has one sigma; but m1, the least translate of
    m3, has the least translate m0, reached by the transposition."""
    be = barratt_eccles(2)
    m = be.level(2).morphisms
    turn = {m[3]: m[1], m[1]: m[0], m[0]: m[2], m[2]: m[3]}

    def act(j, n, sigma, x):
        if (j, n) == (1, 2) and not sigma.is_identity:
            return turn[x]
        return be.act(j, n, sigma, x)
    return CatOperad("turned_swap", 2, be.levels, be.unit, act, be._compose)


def test_a_least_representative_moved_by_its_orbit_entry_relabels_its_labels(
        monkeypatch):
    op = turned_swap_operad()
    m = op.level(2).morphisms
    assert op.is_free and _orbit(op, 1, 2, m[1])[1:] == (m[0], (Perm((2, 1)),))
    rep = _cartesian(monkeypatch, op, 1, seed=3, squares=10)
    for name, reference in _SECTIONS:
        assert rep[name] == reference(turned_swap_operad(), 1, 3, 10), name
    assert rep["squares"]["failures"] and rep["mu_naturality"]["failures"]
    assert _digest(rep) == \
        "c843543610aaa84c6f1802ea2d6774efcc1a4b0d0a81fcaf8437042888e5d95d"


def sorted_composite_operad():
    """BE(2) but for its level-2 objects: the identity sends (2, 1) to (1, 2)
    as the transposition does, so that orbit entry has two sigmas, and each
    composite of outer arity 2 there is (2, 1). It is free and its least
    representative (1, 2) is its own canonical form, yet mu canonicalizes
    [(1, 2); [u; x], [u; y]] to [(1, 2); the lesser of (x, y) and (y, x)]."""
    be = barratt_eccles(2)

    def act(j, n, sigma, x):
        return (1, 2) if (j, n, x) == (0, 2, (2, 1)) else be.act(j, n, sigma, x)

    def compose(j, k, x, inners):
        y = be._compose(j, k, x, inners)
        return (2, 1) if (j, k, y) == (0, 2, (1, 2)) else y
    return CatOperad("sorted_composite", 2, be.levels, be.unit, act, compose)


def _failing_premises(op, j, bound=3):
    """The premises of check_cartesian's per-shape count that fail, read off
    the orbit table and op.compose: 1, a least representative is not its
    own canonical form with the identity alone; 2, some shape's composite
    has an orbit entry with several sigmas. Freeness is no premise: where 1
    holds, the action is free on every level the check reads."""
    cap = min(bound, op.max_level)
    leasts = [_least_translates(op, j, n) for n in range(cap + 1)]
    failing = set()
    for n, ds in enumerate(leasts):
        for d in ds:
            _, least, sigmas = _orbit(op, j, n, d)
            if least != d or [s.is_identity for s in sigmas] != [True]:
                failing.add(1)
    inner = [(n, d) for n, ds in enumerate(leasts) for d in ds]
    for k, ds in enumerate(leasts):
        for shape, sums in product_within([inner] * k, lambda s: (s[0],), cap):
            for d in ds:
                composed = op.compose(j, k, d, shape)
                if len(_orbit(op, j, sum(sums), composed)[2]) > 1:
                    failing.add(2)
    return failing


# (operad, j, the premises it fails, whether its mu square fails); each
# premise fails alone on some operad: 1 on z3_unit and turned_swap at
# j = 1, 2 on sorted_composite at j = 0. fixed_swap at j = 0 is not free,
# but free on every level its check reads, so its mu square is counted
@pytest.mark.parametrize("make,j,failing,mu_fails", [
    pytest.param(partial(commutative_operad, 3), 0, {1, 2}, True, id="COMM3-0"),
    pytest.param(fixed_swap_operad, 0, set(), False, id="fixed_swap-0"),
    pytest.param(fixed_swap_operad, 1, {1}, False, id="fixed_swap-1"),
    pytest.param(z3_unit_operad, 1, {1}, True, id="z3_unit-1"),
    pytest.param(lambda: z3_unit_operad(lambda x: min(x + 1, 2)), 1, {1}, True,
                 id="z3_merging-1"),
    pytest.param(turned_swap_operad, 1, {1}, True, id="turned_swap-1"),
    pytest.param(two_sigma_operad, 0, {1, 2}, True, id="two_sigma-0"),
    pytest.param(sorted_composite_operad, 0, {2}, True, id="sorted_composite-0"),
    pytest.param(sorted_composite_operad, 1, set(), False, id="sorted_composite-1"),
    pytest.param(partial(barratt_eccles, 3), 1, set(), False, id="BE3-1")])
def test_the_mu_square_is_counted_only_where_its_premises_hold(make, j, failing,
                                                               mu_fails):
    op = make()
    assert _failing_premises(op, j) == failing
    # where a premise fails the check enumerates the mu square, and every
    # section is the reference loops'
    shapes = gmcat.opmonad._polynomial(op, j, min(3, op.max_level))
    assert (shapes is None) == bool(failing)
    rep = check_cartesian(make(), j, seed=3, squares=10)
    for name, reference in _SECTIONS:
        assert rep[name] == reference(make(), j, 3, 10), name
    assert bool(rep["mu_naturality"]["failures"]) == mu_fails


def _sorted_relabelling(op, j, n, d, xs):
    """The canonical form by the sorting rule: the least translate, and the
    first of the relabellings by every sigma reaching it in canon_key order
    (a stable sort, so the first sigma among equal keys)."""
    _, least, sigmas = _orbit(op, j, n, d)
    return least, sorted((s.permuted(xs) for s in sigmas), key=canon_key)[0]


# None, bools and the ints equal to them, strs, nested tuples and elements;
# the 1s and Trues tie as labels but not in canon_key order
_LABELS = (None, True, 1, False, 0, "x", "y", (), ("x", 1), ("x", True),
           (("y",), None), melem(BE, 0, (1, 2), ("x", "y")),
           melem(BE, 0, (2, 1), ("x", "y")), melem(BE, 0, (1,), (1,)))


def _label_tuples(n, rng, draws=150):
    """n-tuples of repeated labels, of 1 and True, and of distinct but equal
    elements (which only the choice among tied sigmas orders), then seeded
    draws from _LABELS."""
    fixed = [(1,) * n, (True,) * n, ((1, True) * n)[:n], ((True, 1) * n)[:n],
             (("y",) * (n - 1) + (None,))[:n],
             tuple(MonadElem(0, 1, (1,), ("x",)) for _ in range(n))]
    return fixed + [tuple(rng.choice(_LABELS) for _ in range(n))
                    for _ in range(draws)]


# every operad the tests build whose orbit table is not BE's or ASS's
@pytest.mark.parametrize("make", [
    partial(commutative_operad, 3), partial(commutative_operad, 4),
    two_sigma_operad, fixed_swap_operad, turned_swap_operad, z3_unit_operad,
    lambda: z3_unit_operad(lambda x: min(x + 1, 2)), sorted_composite_operad],
    ids=["COMM3", "COMM4", "two_sigma", "fixed_swap", "turned_swap", "z3_unit",
         "z3_merging", "sorted_composite"])
def test_canonicalize_picks_the_relabelling_that_sorting_picks(make):
    # each label is keyed once and the sigmas compared on the permuted keys;
    # the result is the sorting rule's, entry by entry, 1 and True apart
    op, rng = make(), random.Random(30)
    several = 0
    for n in range(op.max_level + 1):
        for j in (0, 1):
            for d in op.elements(j, n):
                several += len(_orbit(op, j, n, d)[2]) > 1
                for xs in _label_tuples(n, rng):
                    op.elems.clear()  # every call takes the miss path
                    got = canonicalize(op, j, n, d, xs)
                    least, want = _sorted_relabelling(op, j, n, d, xs)
                    assert (got.d, got.xs) == (least, want)
                    assert tuple(map(type, got.xs)) == tuple(map(type, want))
                    assert all(a is b for a, b in zip(got.xs, want))
    assert bool(several) == (make in (two_sigma_operad, sorted_composite_operad)
                             or op.name == "commutative")


def test_a_miss_keys_each_label_once_and_only_where_sigmas_compete(monkeypatch):
    keyed = []

    def spy(x):
        keyed.append(x)
        return canon_key(x)
    monkeypatch.setattr(gmcat.opmonad, "canon_key", spy)
    xs = ("y", ("x", True), None, "y")
    comm = commutative_operad(4)
    e = canonicalize(comm, 0, 4, "*", xs)  # 24 sigmas
    assert keyed == list(xs) and e.xs == (None, "y", "y", ("x", True))
    keyed.clear()
    assert canonicalize(comm, 0, 4, "*", xs) is e and keyed == []
    # a free orbit entry has one sigma: nothing is keyed
    canonicalize(comm, 0, 1, "*", xs[:1])
    canonicalize(barratt_eccles(4), 1, 4, ((1, 2, 3, 4), (4, 3, 2, 1)), xs)
    op = two_sigma_operad()
    canonicalize(op, 1, 2, ((1, 2), (2, 1)), xs[:2])
    assert keyed == []
    canonicalize(op, 0, 2, (1, 2), xs[:2])  # two sigmas
    assert keyed == list(xs[:2])


def _closed_form_counts(op, j, seed, squares, bound=3):
    """(eta, mu) instance counts of check_cartesian where D is polynomial,
    from c_n = |O(n)_j| / n!, the least representatives of level n: per map
    f : A -> B with a = |A|, the eta square has a instances and the mu
    square sum_{k <= cap} c_k sum_{m <= cap} [t^m] (sum_{n <= cap} c_n a^n t^n)^k."""
    cap = min(bound, op.max_level)
    c = []
    for n in range(cap + 1):
        size = len(op.elements(j, n))
        assert size % factorial(n) == 0
        c.append(size // factorial(n))
    eta_count = mu_count = 0
    for A, _, _ in _draws(seed, squares)[1]:
        a = len(A)
        inner = [c[n] * a ** n for n in range(cap + 1)]
        power = [1] + [0] * cap  # inner ** k, truncated past t^cap
        for k in range(cap + 1):
            mu_count += c[k] * sum(power)
            power = [sum(power[i] * inner[m - i] for i in range(m + 1))
                     for m in range(cap + 1)]
        eta_count += a
    return eta_count, mu_count


# counts: (eta, mu) of the enumerating check, before the mu square was
# counted per shape
@pytest.mark.parametrize("make,j,seed,squares,counts", [
    pytest.param(partial(barratt_eccles, 4), 0, 2026, 100, (21, 1983), id="BE4-0"),
    pytest.param(partial(barratt_eccles, 4), 1, 2027, 100, (25, 36947), id="BE4-1"),
    pytest.param(partial(associativity_operad, 4), 0, 2026, 100, (21, 1983), id="ASS4-0"),
    pytest.param(partial(associativity_operad, 4), 1, 2027, 100, (25, 2947), id="ASS4-1"),
    pytest.param(partial(ass_x_be, 3), 1, 2027, 20, (27, 858141), id="ASSxBE3-1")])
def test_cartesian_counts_match_the_closed_form(make, j, seed, squares, counts):
    op = make()
    rep = check_cartesian(op, j, seed=seed, squares=squares)
    assert rep["ok"]
    got = rep["eta_naturality"]["checked"], rep["mu_naturality"]["checked"]
    assert got == _closed_form_counts(op, j, seed, squares) == counts


def test_ass_x_be_counts_its_mu_square_per_shape(monkeypatch):
    # 782 411 mu instances, counted without a nested element; the digest is
    # the enumerating check's report, byte for byte
    monkeypatch.setattr(gmcat.opmonad, "nested_elements", _never_nested)
    rep = check_cartesian(ass_x_be(3), 1, seed=2027, squares=100)
    assert rep["ok"] and rep["mu_naturality"]["checked"] == 782411
    assert _digest(rep) == \
        "f47efc580eb346bdb34489b485518f2a027d03830b6d9344eb24980130dfcd2a"


@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("make", [barratt_eccles, associativity_operad])
def test_a_polynomial_check_flattens_nothing_and_builds_nothing_over_a_square(
        make, j, monkeypatch):
    # D is polynomial over BE and ASS: the squares and the mu square are
    # decided from the premises, so no element over P (labels (a, b)) is
    # built, and nothing is nested or flattened
    def post_init(e):
        if any(isinstance(x, tuple) for x in e.xs):
            raise AssertionError(f"an element over a pullback: {e!r}")
        real_post_init(e)

    real_post_init = MonadElem.__post_init__
    want = check_cartesian(make(4), j, seed=2026 + j, squares=100)
    for name in ("nested_elements", "mu", "mu_raw"):
        monkeypatch.setattr(gmcat.opmonad, name, _refuse(name))
    monkeypatch.setattr(MonadElem, "__post_init__", post_init)
    rep = check_cartesian(make(4), j, seed=2026 + j, squares=100)
    assert rep == want and rep["ok"] and rep["squares"]["checked"] == 100


def test_be_x_be_counts_its_squares_and_mu_square_from_the_premises(monkeypatch):
    # 22 741 235 mu instances, counted without a nested element; the digest
    # is the enumerating check's report, byte for byte
    monkeypatch.setattr(gmcat.opmonad, "nested_elements", _never_nested)
    rep = check_cartesian(be_x_be(3), 1, seed=2027, squares=100)
    assert rep["ok"] and rep["mu_naturality"]["checked"] == 22741235
    assert _digest(rep) == \
        "e5a146de334530a07504100fd712e584330e29fea2ca77cb23461dd37eec6ada"


@pytest.mark.parametrize("make", [barratt_eccles, associativity_operad,
                                  commutative_operad])
def test_only_a_non_free_builtin_canonicalizes_each_element(make, monkeypatch):
    op = make(3)
    for j in (0, 1):
        _cartesian(monkeypatch, op, j, seed=5, squares=3)
    # where D is polynomial the squares are counted: only COMM, whose orbit
    # entries have several sigmas, canonicalizes elements over a square
    assert bool(_over_a_square(op)) == (make is commutative_operad)


def test_cartesian_failures_match_the_per_function_flattening():
    rep = check_cartesian(commutative_operad(4), 0, seed=2027, squares=5)
    assert rep["mu_naturality"]["failures"]
    assert rep["mu_naturality"] == _reference_mu_naturality(
        commutative_operad(4), 0, seed=2027, squares=5)


@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("make", [barratt_eccles, associativity_operad])
def test_tabulated_operad_is_cartesian_like_its_builtin(make, j):
    op = make(3)
    tab = tabulated_operad(f"{op.name}_table", 3, op.levels, op.unit,
                           *operad_tables(op))
    want = check_cartesian(op, j, seed=2026 + j, squares=10)
    got = check_cartesian(tab, j, seed=2026 + j, squares=10)
    assert (want.pop("operad"), got.pop("operad")) == (op.name, tab.name)
    assert got == want and got["ok"]
    # the premises read the table's composites and keep none
    assert tab.composites == {}


def test_composites_are_memoized_per_shape_and_failures_are_not():
    op = barratt_eccles(4)

    def shape(e):
        return (e.j, e.n, e.d, tuple((x.n, x.d) for x in e.xs))

    elems = [e for labels in (("x", "y"), ("u", "v"))  # same shapes, other labels
             for e, _ in nested_elements(op, 1, labels, 2, 3)]
    bad = shape(elems[-1])
    calls, inner = Counter(), op._compose

    def compose(*args):
        calls[args] += 1
        if args == bad:
            raise StructuralError("composition table missing")
        return inner(*args)
    op._compose = compose
    for e in elems:
        if shape(e) == bad:
            with pytest.raises(StructuralError):
                mu(op, e)
        else:
            mu(op, e)
    # a failing composite is recomputed for every element, and not stored
    assert calls.pop(bad) == sum(shape(e) == bad for e in elems) > 1
    assert calls and set(calls.values()) == {1}
    assert set(op.composites) == set(calls)
    e3 = elements_of(op, 0, ("x",), 3)[0]
    for _ in range(2):
        with pytest.raises(BoundExceeded):
            mu(op, canonicalize(op, 0, 2, (1, 2), (e3, e3)))
    assert set(op.composites) == set(calls)


# -- element hashing and equality --------------------------------------------

def _built_elements(make):
    """Elements from every constructor path over make(4): canonicalize, eta,
    the free path of elements_of, elements_within, mu and map_elem; and the
    fillings of the terminal multicategory over make(3)."""
    op = make(4)
    labels = ("x", "y")
    out = [eta(op, j, "x") for j in (0, 1)]
    for j in (0, 1):
        out += elements_of(op, j, labels, 2)
        out += elements_within(op, j, labels, 2, lambda x: (1,), 2)
        out += [canonicalize(op, j, 3, op.act(j, 3, s, e.d), s.permuted(e.xs))
                for e in elements_of(op, j, labels, 3) for s in perms(3)[:2]]
        out += [map_elem(op, str.upper, e) for e in elements_of(op, j, labels, 2)]
        out += [mu(op, e) for e, _ in nested_elements(op, j, labels, 2, 3)]
    M = terminal_multicat(make(3))
    out += [Phi for f in M.morphisms for Phi in fillings(M, M.src[f], 3)]
    return out


@pytest.mark.parametrize("make", [barratt_eccles, associativity_operad],
                         ids=["BE", "ASS"])
def test_element_hash_is_the_field_tuple_hash(make):
    elems = _built_elements(make)
    assert len(elems) > 100
    for e in elems:
        assert hash(e) == hash((e.j, e.n, e.d, e.xs))
        assert e == e


@pytest.mark.parametrize("make", [barratt_eccles, associativity_operad])
def test_separately_built_elements_are_equal(make):
    # a second copy of the operad has its own memos, so nothing is shared
    for e, f in zip(_built_elements(make), _built_elements(make), strict=True):
        assert e is not f
        assert e == f and hash(e) == hash(f)
    op = make(4)
    assert canonicalize(op, 0, 2, (2, 1), ("x", "y")) != \
        canonicalize(op, 0, 2, (1, 2), ("x", "y"))


def test_builtin_and_tabulated_elements_are_equal():
    be = barratt_eccles(3)
    tab = tabulated_operad("barratt_eccles", 3, be.levels, be.unit,
                           *operad_tables(be))
    for j in (0, 1):
        for e in all_elements(be, j, ("x", "y"), 3):
            t = canonicalize(tab, j, e.n, e.d, e.xs)
            assert t == e and hash(t) == hash(e)
            assert {e: 1}[t] == 1


def test_a_hash_collision_still_compares_fields():
    e, f = elements_of(BE, 0, ("x", "y"), 2)[:2]
    assert e != f
    planted = MonadElem(f.j, f.n, f.d, f.xs)
    object.__setattr__(planted, "_hash", hash(e))
    assert hash(planted) == hash(e)
    assert planted != e and e != planted
    assert len({e: 0, planted: 1}) == 2


def test_elements_are_read_only():
    e = canonicalize(BE, 1, 2, ((1, 2), (2, 1)), ("x", "y"))
    for name, value in (("j", 0), ("n", 3), ("d", ()), ("xs", ()), ("_hash", 0)):
        with pytest.raises(FrozenInstanceError):
            setattr(e, name, value)
    assert repr(e) == "D1[((1, 2), (2, 1)); 'x','y']"
    assert hash(e) == hash((1, 2, ((1, 2), (2, 1)), ("x", "y")))


# -- the orbit table reads canonical order off each level's positions ------

def _be3_table():
    """BE(3) tabulated and read back from JSON, as the CLI reads a file."""
    op = barratt_eccles(3)
    return jsonio.decode_operad(jsonio.encode_operad(tabulated_operad(
        "be3_table", 3, op.levels, op.unit, *operad_tables(op))))


def _be2_acting_outside_a_level():
    """BE(2) tabulated with one action entry sent outside its level, to a
    label below every level-2 object."""
    op = barratt_eccles(2)
    act_table, comp_table = operad_tables(op)
    act_table[(0, 2, (2, 1), (1, 2))] = (0, 0)
    return tabulated_operad("be2_fault", 2, op.levels, op.unit, act_table,
                            comp_table)


STORED_LEVELS = {
    "BE(4)": lambda: barratt_eccles(4),
    "ASS(4)": lambda: associativity_operad(4),
    "COMM(4)": lambda: commutative_operad(4),
    "tabulated BE(3)": _be3_table,
    "ASS x BE(3)": lambda: product_operad(associativity_operad(3),
                                          barratt_eccles(3)),
}


@pytest.mark.parametrize("name", STORED_LEVELS)
def test_levels_are_stored_in_canon_key_order(name):
    op = STORED_LEVELS[name]()
    for n in range(op.max_level + 1):
        for j in (0, 1):
            els = op.elements(j, n)
            assert list(els) == sorted(els, key=canon_key), (j, n)


def _least_by_canon_key(op, j, n, d):
    """The orbit table's (least translate, its sigmas), by canon_key."""
    pairs = [(op.act(j, n, s, d), s) for s in perms(n)]
    least = min(dict(pairs), key=canon_key)
    return least, tuple(s for t, s in pairs if t == least)


@pytest.mark.parametrize("name", STORED_LEVELS)
def test_orbit_table_least_translates_match_the_canon_key_minimum(name):
    op = STORED_LEVELS[name]()
    for n in range(op.max_level + 1):
        for j in (0, 1):
            leasts = set()
            for d in op.elements(j, n):
                _, least, sigmas = _orbit(op, j, n, d)
                want = _least_by_canon_key(op, j, n, d)
                assert (least, sigmas) == want, (j, n, d)
                leasts.add(want[0])
            assert _least_translates(op, j, n) == sort_labels(leasts), (j, n)


def test_a_translate_outside_its_level_is_refused():
    # the orbit table decides every canonical element, so each path to one
    # raises, and nothing is memoized
    op = _be2_acting_outside_a_level()
    message = r"the action of \(2, 1\) sends \(1, 2\) outside level 2: \(0, 0\)"
    for call in (lambda: _orbit(op, 0, 2, (1, 2)),
                 lambda: _least_translates(op, 0, 2),
                 lambda: canonicalize(op, 0, 2, (1, 2), ("x", "y")),
                 lambda: elements_of(op, 0, ("x",), 2)):
        with pytest.raises(StructuralError, match=message):
            call()
    assert (0, 2, (1, 2)) not in op.orbits and not op.elems


@pytest.mark.parametrize("make", [lambda: barratt_eccles(3), _be3_table],
                         ids=["builtin BE(3)", "tabulated BE(3)"])
def test_canonicalize_past_the_truncation_is_bounded(make):
    # the level's ranks are read before the action, so a tabulated operad,
    # whose table has no entry past the truncation, is bounded too
    op = make()
    for j, d in ((0, (1, 2, 3, 4)), (1, ((1, 2, 3, 4), (1, 2, 3, 4)))):
        with pytest.raises(BoundExceeded, match="level 4 outside truncation 3"):
            canonicalize(op, j, 4, d, ("x",) * 4)
    assert not op.orbits and not op.elems
