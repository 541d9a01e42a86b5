"""Algebra actions, their underlying multicategories, and comparison maps."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmcat.dalgebra
import gmcat.dmulticat
from gmcat.catoperad import (associativity_operad, barratt_eccles,
                             commutative_operad)
from gmcat.dalgebra import (DAlgebra, free_algebra, kappa, kappa_report,
                            terminal_algebra, underlying, validate_algebra,
                            z2_discrete_algebra)
from gmcat.dmulticat import enumerate_M2, validate_multicat
from gmcat.errors import FreenessError
from gmcat.fincat import category, terminal_category
from gmcat.opmonad import eta, melem, mu

BE = barratt_eccles(4)
ASS = associativity_operad(4)
ASS2 = associativity_operad(2)


def test_z2_algebra_valid():
    rep = validate_algebra(z2_discrete_algebra(BE), arity_bound=3)
    assert rep["ok"], rep["failures"][:3]
    assert rep["bounded"] == 0


def test_z2_action_values():
    A = z2_discrete_algebra(BE)
    assert A.xi0(melem(BE, 0, (1, 2), (1, 1))) == 0
    assert A.xi0(melem(BE, 0, (1, 2, 3), (1, 1, 1))) == 1
    assert A.xi0(melem(BE, 0, (), ())) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), max_size=4))
def test_z2_action_is_parity(bits):
    A = z2_discrete_algebra(BE)
    n = len(bits)
    e = melem(BE, 0, tuple(range(1, n + 1)), tuple(bits))
    assert A.xi0(e) == sum(bits) % 2


def test_terminal_algebra_valid():
    rep = validate_algebra(terminal_algebra(ASS), arity_bound=3)
    assert rep["ok"]


def test_free_algebra_valid():
    A = free_algebra(BE, terminal_category(), carrier_bound=2)
    rep = validate_algebra(A, arity_bound=2)
    assert rep["ok"], rep["failures"][:3]
    # the flattening action leaves the truncated carrier on some inputs;
    # those instances are reported, not silently passed
    assert rep["bounded"] > 0


def test_projection_action_breaks_associativity():
    # replacing the sum with first-coordinate projection keeps the unit law
    # but loses compatibility with flattening once a nullary slot shows up
    A = z2_discrete_algebra(BE)
    bad = replace(A, xi0=lambda e: e.xs[0] if e.xs else 0)
    rep = validate_algebra(bad, arity_bound=2)
    assert not rep["ok"]
    assert any(kind == "action associativity fails" for kind, _ in rep["failures"])


def z2_monoid_algebra(xi1):
    """The one-object category on 1 and e (e.e = 1) over ASS, acting on
    morphisms by xi1."""
    C = category(("*",), ("1", "e"), {"1": "*", "e": "*"}, {"1": "*", "e": "*"},
                 {"*": "1"}, {("1", "1"): "1", ("1", "e"): "e",
                              ("e", "1"): "e", ("e", "e"): "1"})
    return DAlgebra(ASS, C, lambda X: "*", xi1)


def parity(E):
    return "e" if sum(f == "e" for f in E.xs) % 2 else "1"


def test_an_action_that_breaks_composites_is_not_a_functor():
    assert validate_algebra(z2_monoid_algebra(parity), 3)["ok"]
    # e on every binary element: the composite of two such is 1 in the carrier
    rep = validate_algebra(z2_monoid_algebra(
        lambda E: "e" if E.n == 2 else parity(E)), 3)
    assert "composition not preserved" in {f[0] for f in rep["failures"]}


def test_an_action_that_moves_a_unit_morphism_is_witnessed():
    # every unary element acts as 1, so eta(e) lands on 1, not on e
    rep = validate_algebra(z2_monoid_algebra(
        lambda E: "1" if E.n == 1 else parity(E)), 3)
    assert ("unit law fails on morphisms", "e") in rep["failures"]


def test_underlying_z2_multimorphisms():
    U = underlying(z2_discrete_algebra(BE), bound=3)
    # one multimorphism per bit list of length <= 3; the target is its parity
    assert len(U.morphisms) == 1 + 2 + 4 + 8
    for h, X in U.morphisms:
        assert h == ("id", sum(X.xs) % 2)


def test_underlying_z2_is_multicat():
    U = underlying(z2_discrete_algebra(BE), bound=3)
    rep = validate_multicat(U)
    assert rep["ok"], rep["failures"][:3]
    assert rep["m2"] > 0 and rep["m3"] > 0


def test_underlying_terminal_is_nonsymmetric_terminal():
    U = underlying(terminal_algebra(ASS), bound=3)
    assert len(U.morphisms) == 4  # one per arity 0..3
    rep = validate_multicat(U)
    assert rep["ok"], rep["failures"][:3]
    for (f, Phi), out in U.composition.items():
        assert out[1].n == sum(X.n for _, X in Phi.xs)


def test_underlying_sources_evaluate_to_carrier_sources():
    A = z2_discrete_algebra(BE)
    U = underlying(A, bound=2)
    for h, X in U.morphisms:
        assert A.carrier.src[h] == A.xi0(X)


def test_kappa_identity_and_projection():
    A = z2_discrete_algebra(BE)
    U = underlying(A, bound=2)
    k0, k1 = kappa(A, 0), kappa(A, 1)
    assert all(k0(x) == x for x in U.objects)
    assert all(k1(w) == w[0] for w in U.morphisms)


def test_kappa2_concrete_pair():
    A = z2_discrete_algebra(BE)
    U = underlying(A, bound=2)
    w = (("id", 0), melem(BE, 0, (1, 2), (1, 1)))
    leaf = (("id", 1), melem(BE, 0, (1,), (1,)))
    Phi = melem(BE, 0, (1, 2), (leaf, leaf))
    assert (w, Phi) in enumerate_M2(U)
    assert kappa(A, 2)((w, Phi)) == (("id", 0), ("id", 0))


def test_kappa_rejects_deep_levels():
    with pytest.raises(Exception):
        kappa(z2_discrete_algebra(BE), 4)


def test_kappa_squares_z2():
    rep = kappa_report(z2_discrete_algebra(BE), bound=2)
    assert rep["ok"], rep["failures"][:3]
    assert rep["m2"] > 0 and rep["m3"] > 0


def test_kappa_report_enumerates_the_composable_pairs_once(monkeypatch):
    A = z2_discrete_algebra(BE)
    U = underlying(A, 2)  # memoized on A, so kappa_report enumerates U alone
    want = kappa_report(A, bound=2)
    calls = []
    for module in (gmcat.dalgebra, gmcat.dmulticat):
        monkeypatch.setattr(module, "enumerate_M2",
                            lambda M: calls.append(M) or enumerate_M2(M))
    assert kappa_report(A, bound=2) == want
    assert calls == [U] and want["ok"]


def test_kappa_squares_terminal():
    rep = kappa_report(terminal_algebra(ASS), bound=3)
    assert rep["ok"], rep["failures"][:3]


def test_kappa_report_catches_a_wrong_composite():
    # the underlying multicategory of z2, with one composite replaced by a
    # multimorphism over the other carrier morphism
    A = z2_discrete_algebra(BE)
    U = underlying(A, 2)
    w = next(w for w in enumerate_M2(U) if w[1].n == 2)
    other = next(v for v in U.morphisms if v[0] != U.composition[w][0])
    A.underlying[2] = replace(U, composition={**U.composition, w: other})
    rep = kappa_report(A, bound=2)
    assert not rep["ok"]
    assert ("comparison misses the composite", w) in rep["failures"]


# the poset a < b as a category, acting on itself by max
ARROW = {("a", "a"): "ia", ("b", "b"): "ib", ("a", "b"): "f"}
ARROW_SRC = {m: s for (s, _), m in ARROW.items()}
ARROW_TGT = {m: t for (_, t), m in ARROW.items()}


def max_algebra(op, fault=None):
    """max on a < b, lawful; a fault moves what xi1 returns. Its carrier
    then composes every pair (a non-composable one to its left factor), so
    the underlying multicategory still builds."""
    comp = {(g, h): ARROW[(ARROW_SRC[h], ARROW_TGT[g])] for g in ARROW.values()
            for h in ARROW.values() if ARROW_SRC[g] == ARROW_TGT[h]}
    if fault is not None:
        comp = {(g, h): comp.get((g, h), g) for g in ARROW.values()
                for h in ARROW.values()}
    top = lambda xs: max(xs, default="a")

    def xi1(e):
        s = top(ARROW_SRC[h] for h in e.xs)
        t = top(ARROW_TGT[h] for h in e.xs)
        if fault == "unit moves a morphism" and e.n == 1:
            t = s
        elif fault == "target moved" and e.n >= 2:
            t = s
        elif fault == "source moved" and e.n >= 2:
            s = t
        return ARROW[(s, t)]

    C = category("ab", ARROW.values(), ARROW_SRC, ARROW_TGT,
                 {"a": "ia", "b": "ib"}, comp)
    return DAlgebra(op, C, lambda e: top(e.xs), xi1)


def test_kappa_squares_of_the_max_algebra():
    A = max_algebra(ASS2)
    assert validate_algebra(A, 2)["ok"]
    rep = kappa_report(A, bound=2)
    assert rep["ok"] and (rep["m2"], rep["m3"]) == (66, 448)


@pytest.mark.parametrize("fault, kinds", [
    ("unit moves a morphism", {"comparison breaks the unit section",
                               "comparison chain not composable",
                               "triple chain not composable",
                               "inner-first face fails"}),
    ("target moved", {"comparison chain not composable",
                      "triple chain not composable", "inner-first face fails"}),
    ("source moved", {"source/action square fails",
                      "triple chain not composable", "inner-first face fails"}),
])
def test_kappa_report_witnesses_a_planted_action_fault(fault, kinds):
    rep = kappa_report(max_algebra(ASS2, fault), bound=2)
    assert not rep["ok"]
    assert {kind for kind, _ in rep["failures"]} == kinds


def test_unit_laws_of_action():
    A = z2_discrete_algebra(BE)
    assert A.xi0(eta(BE, 0, 1)) == 1
    assert A.xi1(eta(BE, 1, ("id", 0))) == ("id", 0)


def test_underlying_over_a_non_free_operad_is_refused_before_enumerating(
        monkeypatch):
    def never(*args):
        raise AssertionError("enumerated a source action over a non-free operad")
    monkeypatch.setattr(gmcat.dalgebra, "source_action_domain", never)
    with pytest.raises(FreenessError, match="needs a sigma-free operad"):
        underlying(z2_discrete_algebra(commutative_operad(3)), 2)
