"""Multicategory axioms, classical encoders, composable enumeration."""

import pytest
from dataclasses import replace

from gmcat.adjoint import check_triangles, counit_report, unit_report
from gmcat.catoperad import (associativity_operad, barratt_eccles,
                             operad_tables, tabulated_operad, validate_operad)
from gmcat.dalgebra import free_algebra, validate_algebra, z2_discrete_algebra
from gmcat.errors import StructuralError
from gmcat.fincat import terminal_category, validate_presheaf
from gmcat.finset import Perm, perms
from gmcat.dmulticat import (ClassicalMulticat, DMulticat, enumerate_M2,
                             enumerate_M3, from_nonsymmetric, from_symmetric,
                             gamma_S, gamma_T, over_point_form,
                             terminal_multicat, validate_classical,
                             validate_multicat)
from gmcat.opmonad import T_D, elements_of, eta, map_elem, melem, mu

BE = barratt_eccles(4)
ASS = associativity_operad(4)


def sum_classical(cap):
    """One object; per arity, the single 'add everything' operation."""
    morphisms = tuple(f"s{n}" for n in range(cap + 1))
    src = {f"s{n}": ("*",) * n for n in range(cap + 1)}
    tgt = {f: "*" for f in morphisms}
    comp = {}
    for k in range(cap + 1):
        for combo in _tuples(cap, k):
            if sum(combo) <= cap:
                comp[(f"s{k}", tuple(f"s{m}" for m in combo))] = f"s{sum(combo)}"
    act = {(f"s{n}", s.images): f"s{n}" for n in range(cap + 1) for s in perms(n)}
    return ClassicalMulticat(("*",), morphisms, src, tgt, {"*": "s1"}, comp, act)


def _tuples(cap, k):
    if k == 0:
        yield ()
        return
    for head in range(cap + 1):
        for rest in _tuples(cap, k - 1):
            yield (head,) + rest


def pairing_classical():
    """Two objects; one binary operation and its transpose under the swap."""
    objects = ("u", "v")
    morphisms = ("iu", "iv", "m", "mt")
    src = {"iu": ("u",), "iv": ("v",), "m": ("u", "v"), "mt": ("v", "u")}
    tgt = {"iu": "u", "iv": "v", "m": "v", "mt": "v"}
    ident = {"u": "iu", "v": "iv"}
    sw = (2, 1)
    act = {("iu", (1,)): "iu", ("iv", (1,)): "iv",
           ("m", (1, 2)): "m", ("m", sw): "mt",
           ("mt", (1, 2)): "mt", ("mt", sw): "m"}
    comp = {
        ("iu", ("iu",)): "iu", ("iv", ("iv",)): "iv",
        ("iv", ("m",)): "m", ("iv", ("mt",)): "mt",
        ("m", ("iu", "iv")): "m", ("mt", ("iv", "iu")): "mt",
    }
    return ClassicalMulticat(objects, morphisms, src, tgt, ident, comp, act)


def test_terminal_is_valid():
    M = terminal_multicat(BE)
    rep = validate_multicat(M)
    assert rep["ok"], rep["failures"][:3]
    assert M.cap == 4
    assert rep["m2"] > 0 and rep["m3"] > 0


def test_terminal_nonsymmetric_is_valid():
    rep = validate_multicat(terminal_multicat(ASS))
    assert rep["ok"], rep["failures"][:3]


def test_corrupted_composition_breaks_associativity():
    M = terminal_multicat(BE, cap=3)
    key = (("t", 2), melem(BE, 0, (1, 2), (("t", 1), ("t", 1))))
    bad = dict(M.composition)
    assert bad[key] == ("t", 2)
    bad[key] = ("t", 3)
    rep = validate_multicat(replace(M, composition=bad))
    assert not rep["ok"]
    assoc = [f for f in rep["failures"] if f[0] == "associativity fails"]
    assert assoc
    (f, Phi), Psi = assoc[0][1]
    assert (f, Phi) == key or Psi.n >= 0  # witness carries the composable triple


def test_m2_count_for_sums_at_cap_two():
    # fillings are ordered: 1 (empty) + 3 (unary) + 6 (ordered pairs, total <= 2)
    M = from_symmetric(sum_classical(2), op=BE)
    assert len(enumerate_M2(M)) == 10


def test_sum_encoding_is_valid():
    M = from_symmetric(sum_classical(3), op=BE)
    rep = validate_multicat(M)
    assert rep["ok"], rep["failures"][:3]
    assert rep["coherence_checked"] > 0


def test_pairing_encoding_and_nontrivial_action():
    cm = pairing_classical()
    assert validate_classical(cm, symmetric=True)["ok"]
    M = from_symmetric(cm, op=BE)
    rep = validate_multicat(M)
    assert rep["ok"], rep["failures"][:3]
    # the swap morphism in the source category exchanges m and its transpose
    src_m = M.src["m"]
    swapped = [d for d in elements_of(BE, 1, M.objects, 2)
               if T_D(BE, d) == src_m and M.source_action.get(("m", d)) == "mt"]
    assert swapped, "the transposing action morphism is missing"


def test_action_lookup_outside_domain_is_loud():
    M = from_symmetric(sum_classical(2), op=BE)
    stray = elements_of(BE, 1, ("*",), 2)[0]
    with pytest.raises(StructuralError):
        M.act("s1", stray)


def without_one_action_entry(op):
    """terminal_multicat(op, cap=2) less one non-identity ("t", 2) action entry."""
    M = terminal_multicat(op, cap=2)
    L = op.level(2)
    victim = next((f, d) for f, d in M.source_action
                  if f == ("t", 2) and L.src[d.d] != L.tgt[d.d])
    action = {k: v for k, v in M.source_action.items() if k != victim}
    return replace(M, source_action=action), victim


def test_missing_action_entry_is_reported_not_raised():
    M, victim = without_one_action_entry(barratt_eccles(3))
    rep = validate_multicat(M)
    assert not rep["ok"]
    assert ("source action: action domain mismatch", victim) in rep["failures"]


def test_corrupted_equivariance_is_rejected():
    cm = pairing_classical()
    bad = dict(cm.comp)
    bad[("mt", ("iv", "iu"))] = "m"  # breaks compatibility with the swap
    with pytest.raises(StructuralError):
        from_symmetric(replace(cm, comp=bad), op=BE)


def test_nonsymmetric_encoding():
    cm = sum_classical(3)
    M = from_nonsymmetric(replace(cm, act={}), op=ASS)
    rep = validate_multicat(M)
    assert rep["ok"], rep["failures"][:3]
    # only identity action morphisms exist over a discrete operad
    for (f, d), f2 in M.source_action.items():
        assert f2 == f


def test_nonsymmetric_rejects_misaligned_sources():
    cm = sum_classical(2)
    bad = dict(cm.comp)
    bad[("s2", ("s1", "s1"))] = "s0"
    with pytest.raises(StructuralError):
        from_nonsymmetric(replace(cm, comp=bad, act={}), op=ASS)


def test_associativity_two_routes_agree():
    M = from_symmetric(sum_classical(3), op=BE)
    for w in enumerate_M3(M):
        assert M.compose(*gamma_T(M, w)) == M.compose(*gamma_S(M, w))


def test_over_point_form_validates():
    M = terminal_multicat(BE, cap=2)
    P = over_point_form(M)
    assert validate_presheaf(P)["ok"]
    assert set(P.carrier) == set(M.morphisms)
    for f in M.morphisms:
        assert P.eps[f].n == M.arity(f)


def test_encoder_naturality_on_two_objects():
    A = from_symmetric(pairing_classical(), op=BE)
    B = from_symmetric(sum_classical(2), op=BE)
    obj = {"u": "*", "v": "*"}
    mor = {"iu": "s1", "iv": "s1", "m": "s2", "mt": "s2"}
    for f in A.morphisms:
        assert map_elem(BE, obj.get, A.src[f]) == B.src[mor[f]]
        assert obj[A.tgt[f]] == B.tgt[mor[f]]
    for (f, d), f2 in A.source_action.items():
        assert mor[f2] == B.source_action[(mor[f], map_elem(BE, obj.get, d))]
    for (f, Phi), f2 in A.composition.items():
        assert mor[f2] == B.composition[(mor[f], map_elem(BE, mor.get, Phi))]


def test_classical_validation_catches_missing_units():
    cm = sum_classical(2)
    bad = dict(cm.comp)
    del bad[("s1", ("s1",))]
    rep = validate_classical(replace(cm, comp=bad), symmetric=True)
    assert not rep["ok"]


def _tabulated(op, name):
    acts, comps = operad_tables(op)
    return tabulated_operad(name, op.max_level, op.levels, op.unit, acts, comps)


@pytest.mark.parametrize("builtin, encode", [
    (barratt_eccles(3), from_symmetric),
    (associativity_operad(3), from_nonsymmetric),
])
def test_tabulated_operad_encodes_like_its_builtin(builtin, encode):
    # the encoders and validators may read only the operad's structure,
    # never its name
    table = _tabulated(builtin, "renamed_table")
    cm = pairing_classical()
    M = encode(cm, op=builtin)
    Mt = encode(cm, op=table)
    assert (Mt.src, Mt.source_action, Mt.composition) == \
        (M.src, M.source_action, M.composition)
    rep = validate_multicat(M, seed=3)
    assert rep["ok"], rep["failures"][:3]
    assert validate_multicat(Mt, seed=3) == rep

    algebra = {from_symmetric: z2_discrete_algebra,
               from_nonsymmetric: lambda op: free_algebra(
                   op, terminal_category(), 2)}[encode]

    def reports(op):
        A, T = algebra(op), terminal_multicat(op)
        return (validate_operad(op), validate_algebra(A, 2), unit_report(T),
                counit_report(A, bound=2), check_triangles(T, A, bound=2))

    want = reports(builtin)
    assert all(r["ok"] for r in want)
    assert reports(table) == want
