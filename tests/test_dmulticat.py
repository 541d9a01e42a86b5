"""Multicategory axioms, classical encoders, composable enumeration."""

import pytest
from dataclasses import replace
from itertools import product
from math import comb, factorial, prod

import gmcat.dmulticat
from gmcat.adjoint import L, check_triangles, counit_report, unit_report
from gmcat.catoperad import (_inner_families, associativity_operad,
                             barratt_eccles, commutative_operad,
                             composable_families, operad_tables,
                             tabulated_operad, validate_operad)
from gmcat.dalgebra import (free_algebra, terminal_algebra, underlying,
                            validate_algebra, z2_discrete_algebra)
from gmcat.errors import FreenessError, StructuralError
from gmcat.fincat import terminal_category, validate_presheaf
from gmcat.finset import (Perm, block_perm, canon_key, fibres, perms,
                          product_within, sort_labels)
from gmcat.dmulticat import (ClassicalMulticat, DMulticat, _coherence_triples,
                             enumerate_M2, enumerate_M3, from_nonsymmetric,
                             from_symmetric, gamma_S, gamma_T, over_point_form,
                             terminal_multicat, validate_classical,
                             validate_multicat)
from gmcat.opmonad import (I_D, T_D, MonadElem, all_elements, canonicalize,
                           elements_of, elements_within, eta, map_elem, melem, mu)
from comb_classical import M as M_TERM, MT as MT_TERM, comb_classical
from product_operad import ass_x_be, be_x_be
from test_opmonad import two_sigma_operad

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


def slot_arities(N):
    """The m in N^k, k <= N, with |m| <= N: the arities that fill the k
    source slots of a terminal multimorphism within the cap N."""
    return [m for k in range(N + 1) for m in product(range(N + 1), repeat=k)
            if sum(m) <= N]


def orbits_and_lifts(op):
    """Per arity n: o(n), the Sigma_n-orbits of level-n objects (a terminal
    morphism out of each), and a(n), the level-n morphisms into one object."""
    sizes = [(len(op.elements(0, n)), len(op.elements(1, n)))
             for n in range(op.max_level + 1)]
    return ([objs // factorial(n) for n, (objs, _) in enumerate(sizes)],
            [mors // objs for objs, mors in sizes])


# (morphisms, m2, m3, interchange instances, action entries) of the terminal
# multicategory; validate_multicat samples 2000 of the 5531 over BE x BE
TERMINAL_COUNTS = [
    pytest.param(barratt_eccles, 2, (3, 10, 36, 13, 4), id="BE-2"),
    pytest.param(barratt_eccles, 3, (4, 35, 428, 79, 10), id="BE-3"),
    pytest.param(barratt_eccles, 4, (5, 126, 5500, 581, 34), id="BE-4"),
    pytest.param(associativity_operad, 2, (3, 10, 36, 10, 3), id="ASS-2"),
    pytest.param(associativity_operad, 3, (4, 35, 428, 35, 4), id="ASS-3"),
    pytest.param(associativity_operad, 4, (5, 126, 5500, 126, 5), id="ASS-4"),
    pytest.param(ass_x_be, 3, (10, 323, 11680, 1139, 42), id="ASSxBE-3"),
    pytest.param(be_x_be, 3, (10, 323, 11680, 5531, 226), id="BExBE-3"),
]


@pytest.mark.parametrize("make, N, counts", TERMINAL_COUNTS)
def test_terminal_multicat_counts_have_closed_forms(make, N, counts):
    # a composable pair is a slot count k and the arities m of its fillers,
    # o(k) prod o(m_i) of them; a triple over it gives each of its |m|
    # leaves an arity l, the arities summing to at most N, and a morphism,
    # one of o(l); an interchange instance picks for each filler one of the
    # a(m_i) action morphisms into its source. With one orbit per level
    # (BE, ASS) these are C(2N + 1, N) pairs with C(N + |m|, |m|) triples
    # over each; over BE a(n) = n!, over ASS a(n) = 1
    op = make(N)
    o, a = orbits_and_lifts(op)
    weight = lambda ms: prod(o[m] for m in ms)
    leaves = lambda s: sum(weight(ls) for ls in product(range(N + 1), repeat=s)
                           if sum(ls) <= N)
    arities = slot_arities(N)
    morphisms, m2, m3, coherence, actions = counts
    assert sum(o) == morphisms
    assert sum(o[len(m)] * weight(m) for m in arities) == m2
    assert sum(o[len(m)] * weight(m) * leaves(sum(m)) for m in arities) == m3
    assert sum(o[len(m)] * prod(o[i] * a[i] for i in m) for m in arities) == coherence
    assert sum(o[n] * a[n] for n in range(N + 1)) == actions
    if sum(o) == N + 1:
        assert comb(2 * N + 1, N) == len(arities) == m2
        assert sum(comb(N + sum(m), sum(m)) for m in arities) == m3

    M = terminal_multicat(op)
    rep = validate_multicat(M)
    assert rep["ok"], rep["failures"][:3]
    assert (len(M.morphisms), M.cap) == (morphisms, N)
    assert (rep["m2"], rep["m3"]) == (m2, m3)
    assert rep["coherence_checked"] == min(coherence, 2000)
    assert len(M.source_action) == actions


@pytest.mark.parametrize("make, N", [
    (barratt_eccles, 4), (associativity_operad, 4), (ass_x_be, 3), (be_x_be, 3),
], ids=["BE-4", "ASS-4", "ASSxBE-3", "BExBE-3"])
def test_terminal_multicat_is_U_of_the_terminal_algebra(make, N):
    # U is a right adjoint, so U(terminal algebra) is the terminal
    # multicategory: f |-> ('id*', src f) carries every table across
    op = make(N)
    M, U = terminal_multicat(op), underlying(terminal_algebra(op), N)
    iso = {f: ("id*", M.src[f]) for f in M.morphisms}
    assert len(set(iso.values())) == len(M.morphisms) == len(U.morphisms)
    assert set(iso.values()) == set(U.morphisms)
    assert {iso[f]: x for f, x in M.src.items()} == U.src
    assert {iso[f]: x for f, x in M.tgt.items()} == U.tgt
    assert {x: iso[f] for x, f in M.ident.items()} == U.ident
    assert {(iso[f], d): iso[g] for (f, d), g in M.source_action.items()} \
        == U.source_action
    assert {(iso[f], map_elem(op, iso.get, Phi)): iso[g]
            for (f, Phi), g in M.composition.items()} == U.composition


def test_corrupted_composition_breaks_associativity():
    M = terminal_multicat(barratt_eccles(3))
    key = (("t", 2), melem(M.operad, 0, (1, 2), (("t", 1), ("t", 1))))
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


def test_coherence_sample_below_the_exhaustive_count():
    # over its budget the interchange check samples `budget` instances, the
    # same ones for one seed, each among the exhaustive instances
    M = from_symmetric(sum_classical(3), op=BE)
    m2 = enumerate_M2(M)
    full = _coherence_triples(M, m2, 2000, seed=0)
    assert len(full) == 79
    sampled = _coherence_triples(M, m2, 20, seed=7)
    assert len(sampled) == 20 and set(sampled) <= set(full)
    assert _coherence_triples(M, m2, 20, seed=7) == sampled
    rep = validate_multicat(M, coherence_budget=20, seed=7)
    assert rep["ok"] and rep["coherence_checked"] == 20
    assert validate_multicat(M, coherence_budget=20, seed=7) == rep


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


def without_one_action_entry(op):
    """terminal_multicat(op) less one non-identity ("t", 2) action entry."""
    M = terminal_multicat(op)
    L = op.level(2)
    victim = next((f, d) for f, d in M.source_action
                  if f == ("t", 2) and L.src[d.d] != L.tgt[d.d])
    action = {k: v for k, v in M.source_action.items() if k != victim}
    return replace(M, source_action=action), victim


def test_missing_action_entry_is_reported_not_raised():
    M, victim = without_one_action_entry(barratt_eccles(2))
    rep = validate_multicat(M)
    assert not rep["ok"]
    assert ("source action: action domain mismatch", victim) in rep["failures"]


def test_planted_identity_and_action_faults_are_witnessed():
    M = from_symmetric(pairing_classical(), op=BE)
    # u's identity is v's: its source is eta(v) and its target v
    rep = validate_multicat(replace(M, ident={**M.ident, "u": "iv"}))
    assert ("identity source is not the unit element", "u") in rep["failures"]
    assert ("identity target moved", "u") in rep["failures"]
    # the identity action on iu lands on iv, over the other object
    key = ("iu", I_D(BE, M.src["iu"]))
    assert M.source_action[key] == "iu"
    rep = validate_multicat(replace(M, source_action={**M.source_action, key: "iv"}))
    assert ("source action moved a target", key) in rep["failures"]


def test_a_slot_without_action_entries_is_left_to_the_presheaf_check():
    # terminal BE(3) without the identity action entry of ('t', 1): the
    # presheaf check reports it, and the inner interchange skips every pair
    # with a ('t', 1) slot instead of reading the missing entry
    M = terminal_multicat(barratt_eccles(3))
    assert validate_multicat(M)["coherence_checked"] == 79
    key = (("t", 1), I_D(M.operad, M.src[("t", 1)]))
    actions = {k: g for k, g in M.source_action.items() if k != key}
    assert len(actions) == len(M.source_action) - 1
    M = replace(M, source_action=actions)
    rep = validate_multicat(M)
    assert rep["coherence_checked"] == 52
    assert rep["failures"][0] == ("source action: action domain mismatch", key)
    assert "action does not interchange with composition" not in {
        kind for kind, _ in rep["failures"]}
    # a sample draws among the pairs whose every slot has an action entry
    m2 = enumerate_M2(M)
    sampled = _coherence_triples(M, m2, 20, seed=7)
    assert len(sampled) == 20
    assert set(sampled) <= set(_coherence_triples(M, m2, 2000, seed=0))


def test_corrupted_equivariance_is_rejected():
    cm = pairing_classical()
    bad = dict(cm.comp)
    bad[("mt", ("iv", "iu"))] = "m"  # breaks compatibility with the swap
    rep = validate_multicat(from_symmetric(replace(cm, comp=bad), op=BE))
    assert not rep["ok"]
    key = ("mt", melem(BE, 0, (1, 2), ("iv", "iu")))
    assert ("composite source is not the flattened sources", key) in rep["failures"]
    swap = melem(BE, 1, ((1, 2), (2, 1)), ("v", "u"))
    assert ("outer action does not interchange with composition",
            ("m", swap, key[1])) in rep["failures"]


def test_nonsymmetric_encoding():
    cm = sum_classical(3)
    M = from_nonsymmetric(replace(cm, act={}), op=ASS)
    rep = validate_multicat(M)
    assert rep["ok"], rep["failures"][:3]
    # only identity action morphisms exist over a discrete operad
    for (f, d), f2 in M.source_action.items():
        assert f2 == f


def test_validate_multicat_enumerates_the_composable_pairs_once(monkeypatch):
    M = underlying(z2_discrete_algebra(BE), 3)
    want = validate_multicat(M, coherence_budget=5000)
    calls = []
    monkeypatch.setattr(gmcat.dmulticat, "enumerate_M2",
                        lambda M: calls.append(M) or enumerate_M2(M))
    assert validate_multicat(M, coherence_budget=5000) == want
    assert calls == [M] and want["ok"] and want["m2"] == 176


def test_an_action_that_the_encoder_cannot_align_is_refused():
    # two_sigma's identity moves the level-2 objects, so the base point
    # (1, 2) reaches no target of an action element over the sources
    with pytest.raises(StructuralError, match="could not align action morphism"):
        from_symmetric(sum_classical(2), two_sigma_operad())


def test_tables_that_validate_classical_rejects_are_refused():
    cm = replace(sum_classical(2), ident={"*": "nope"})
    assert validate_classical(cm, True)["failures"] == [("bad identity", "*")]
    with pytest.raises(StructuralError,
                       match=r"classical tables fail: \('bad identity', '\*'\)"):
        from_symmetric(cm, BE)


def test_composing_off_the_table_is_refused():
    M = from_symmetric(sum_classical(2), BE)
    with pytest.raises(StructuralError, match="composition undefined on"):
        M.compose("s2", eta(BE, 0, "s1"))


def test_a_source_past_the_truncation_is_refused():
    be3 = barratt_eccles(3)
    src = {"f": MonadElem(0, 4, (1, 2, 3, 4), ("*",) * 4)}
    M = DMulticat(be3, ("*",), ("f",), {"f": "*"}, src, {}, {}, {})
    with pytest.raises(StructuralError,
                       match="morphism arity exceeds the operad truncation"):
        validate_multicat(M)


def test_nonsymmetric_rejects_misaligned_sources():
    cm = sum_classical(2)
    bad = dict(cm.comp)
    bad[("s2", ("s1", "s1"))] = "s0"
    rep = validate_multicat(from_nonsymmetric(replace(cm, comp=bad, act={}), op=ASS))
    assert rep["failures"][0] == ("composite source is not the flattened sources",
                                  ("s2", melem(ASS, 0, (1, 2), ("s1", "s1"))))


def test_associativity_two_routes_agree():
    M = from_symmetric(sum_classical(3), op=BE)
    for w in enumerate_M3(M, enumerate_M2(M)):
        assert M.compose(*gamma_T(M, w)) == M.compose(*gamma_S(M, w))


def test_over_point_form_validates():
    M = terminal_multicat(barratt_eccles(2))
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
    # the tables are well formed; the laws fail on the encoding
    assert validate_classical(replace(cm, comp=bad), symmetric=True)["ok"]
    rep = validate_multicat(from_symmetric(replace(cm, comp=bad), op=BE))
    assert rep["failures"] == [
        ("composition missing on composable pair", ("s1", eta(BE, 0, "s1"))),
        ("right unit fails", "s1"), ("left unit fails", "s1")]


# -- one multicategory validator: classical files through validate_multicat --

OUTER = "outer action does not interchange with composition"
LAWFUL = lambda f, p, g: None
OUTER_ONLY = lambda f, p, g: (f, p)  # fixed by the inner action only
INNER_ONLY = lambda f, p, g: g       # fixed by the outer action only


def classical_law_loops(cm, symmetric):
    """The law loops validate_classical ran before the laws moved to the
    encoding, kept as the differential reference: the action law, units,
    composites, associativity and the outer equivariance of composition."""
    failures = []
    cap = max((len(cm.src[f]) for f in cm.morphisms), default=0)
    if symmetric:
        for f in cm.morphisms:
            n = len(cm.src[f])
            for s in perms(n):
                for t in perms(n):
                    lhs = cm.act.get((cm.act.get((f, s.images)), t.images))
                    if lhs != cm.act.get((f, s.compose(t).images)):
                        failures.append(("action law fails", (f, s.images, t.images)))
    into = fibres(cm.morphisms, cm.tgt.__getitem__)

    def fillings(f):
        return [combo for combo, _ in product_within(
            [into.get(x, ()) for x in cm.src[f]], lambda g: (len(cm.src[g]),), cap)]

    for f in cm.morphisms:
        for combo in fillings(f):
            h = cm.comp.get((f, combo))
            if h is None:
                failures.append(("composition missing", (f, combo)))
                continue
            if cm.tgt[h] != cm.tgt[f]:
                failures.append(("composite target moved", (f, combo)))
            if cm.src[h] != tuple(x for g in combo for x in cm.src[g]):
                failures.append(("composite sources are not concatenated", (f, combo)))
        if cm.comp.get((f, tuple(cm.ident[x] for x in cm.src[f]))) != f:
            failures.append(("right unit fails", f))
        if cm.comp.get((cm.ident[cm.tgt[f]], (f,))) != f:
            failures.append(("left unit fails", f))
    for (f, combo), h in cm.comp.items():
        for pick, _ in product_within(
                [fillings(g) for g in combo],
                lambda fill: (sum(len(cm.src[g2]) for g2 in fill),), cap):
            one = cm.comp.get((h, tuple(g2 for fill in pick for g2 in fill)))
            stepwise = tuple(cm.comp.get((g, fill)) for g, fill in zip(combo, pick))
            two = cm.comp.get((f, stepwise)) if None not in stepwise else None
            if one is None or one != two:
                failures.append(("associativity fails", (f, combo, pick)))
    if symmetric:
        for (f, combo), h in cm.comp.items():
            sizes = tuple(len(cm.src[g]) for g in combo)
            for s in perms(len(combo)):
                lhs = cm.comp.get((cm.act[(f, s.images)], s.permuted(combo)))
                if lhs != cm.act.get((h, block_perm(s, s.permuted(sizes)).images)):
                    failures.append(("composition not equivariant", (f, combo, s.images)))
    return failures


def _encode(cm, op, symmetric):
    return (from_symmetric if symmetric else from_nonsymmetric)(cm, op)


def reference_verdict(cm, op, symmetric):
    """Accepted before the laws moved: the tables and the law loops above
    pass, and so does validate_multicat, less its outer check, on the
    encoding of the composable pairs within the cap."""
    if not validate_classical(cm, symmetric)["ok"] or \
            classical_law_loops(cm, symmetric):
        return False
    M = _encode(cm, op, symmetric)
    m2 = set(enumerate_M2(M))
    M = replace(M, composition={k: v for k, v in M.composition.items() if k in m2})
    return all(f[0] == OUTER for f in validate_multicat(M)["failures"])


def encoded_report(cm, op, symmetric):
    pre = validate_classical(cm, symmetric)
    return pre if not pre["ok"] else validate_multicat(_encode(cm, op, symmetric))


def single_entry_mutations(cm):
    """Each `comp` entry deleted, and each `comp` and `act` entry given the
    next morphism as its value; each composable key missing from `comp`,
    flattened arity up to cap + 1, inserted with the last morphism into its
    target. Yields (kind, key, the changed table as a field of cm)."""
    mors = cm.morphisms
    nxt = lambda h: mors[(mors.index(h) + 1) % len(mors)]
    cap = max(len(cm.src[f]) for f in mors)
    for key, h in cm.comp.items():
        yield "delete", key, {"comp": {k: v for k, v in cm.comp.items() if k != key}}
        yield "swap", key, {"comp": {**cm.comp, key: nxt(h)}}
    for key, h in cm.act.items():
        yield "swap act", key, {"act": {**cm.act, key: nxt(h)}}
    into = fibres(mors, cm.tgt.__getitem__)
    for f in mors:
        for gs, _ in product_within([into.get(x, ()) for x in cm.src[f]],
                                    lambda g: (len(cm.src[g]),), cap + 1):
            if (f, gs) not in cm.comp:
                yield "insert", (f, gs), {"comp": {**cm.comp, (f, gs): into[cm.tgt[f]][-1]}}


@pytest.mark.parametrize("tag, failure", [
    (OUTER_ONLY, OUTER),
    (INNER_ONLY, "action does not interchange with composition"),
], ids=["outer-only", "inner-only"])
def test_each_equivariance_law_is_checked_on_the_encoding(tag, failure):
    # the classical law loops see only the outer law; validate_multicat
    # checks both
    lawful = validate_multicat(from_symmetric(comb_classical(LAWFUL), barratt_eccles(3)))
    assert lawful["ok"] and (lawful["m2"], lawful["m3"]) == (37, 67)
    cm = comb_classical(tag)
    assert validate_classical(cm, symmetric=True)["ok"]
    rep = validate_multicat(from_symmetric(cm, barratt_eccles(3)))
    assert (rep["m2"], rep["m3"], rep["coherence_checked"]) == (61, 103, 191)
    assert [f[0] for f in rep["failures"]] == [failure] * 8
    loops = [f[0] for f in classical_law_loops(cm, symmetric=True)]
    assert loops == (["composition not equivariant"] * 8 if tag is OUTER_ONLY else [])


def test_outer_failure_names_the_morphism_the_action_and_the_filling():
    BE3 = barratt_eccles(3)
    M = from_symmetric(comb_classical(OUTER_ONLY), BE3)
    f, delta, Phi2 = validate_multicat(M)["failures"][0][1]
    g = M.source_action[(f, delta)]
    assert {f, g} == {M_TERM, MT_TERM}
    assert enumerate_M2(M).count((g, Phi2)) == 1


def test_classical_mutations_keep_the_reference_verdict_but_over_cap_entries():
    # the laws moved from validate_classical to validate_multicat; on every
    # single-entry mutation of six classical fixtures the verdict is the
    # law loops', except a composite over the cap, which the encoder used to
    # drop unread and validate_multicat now reports
    fixtures = [(sum_classical(2), barratt_eccles(2), True),
                (sum_classical(2), associativity_operad(2), False),
                (sum_classical(3), barratt_eccles(3), True),
                (sum_classical(3), associativity_operad(3), False),
                (pairing_classical(), barratt_eccles(2), True),
                (pairing_classical(), associativity_operad(2), False)]
    checked, rejected, over_cap = 0, 0, []
    for cm, op, symmetric in fixtures:
        cm = cm if symmetric else replace(cm, act={})
        assert reference_verdict(cm, op, symmetric) and encoded_report(cm, op, symmetric)["ok"]
        for kind, key, change in single_entry_mutations(cm):
            mutant = replace(cm, **change)
            want, rep = reference_verdict(mutant, op, symmetric), encoded_report(mutant, op, symmetric)
            checked, rejected = checked + 1, rejected + (not rep["ok"])
            if want != rep["ok"]:
                over_cap.append((symmetric, kind, key, rep["failures"]))
    assert checked == rejected == 266  # every single-entry change breaks a law
    pairs = [(key, canonicalize(associativity_operad(2), 0, 2, (1, 2), key[1]))
             for key in [("m", ("iu", "m")), ("m", ("iu", "mt")),
                         ("mt", ("m", "iu")), ("mt", ("mt", "iu"))]]
    assert over_cap == [
        (False, "insert", key,
         [("composition defined outside composable pairs", (key[0], Phi))])
        for key, Phi in pairs]


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


def test_multicategory_over_a_non_free_operad_cannot_be_built():
    COMM = commutative_operad(3)
    with pytest.raises(FreenessError, match="needs a sigma-free operad"):
        DMulticat(COMM, ("*",), (), {}, {}, {}, {}, {})
    with pytest.raises(FreenessError, match="needs a sigma-free operad"):
        terminal_multicat(COMM)


# -- the filter forms that the fibre reads replaced, kept as references --------

def filtered_M2(M):
    """Every object-monad element over all morphisms, kept when over src(f)."""
    op, out = M.operad, []
    for f in M.morphisms:
        s = M.src[f]
        for Phi in elements_of(op, 0, M.morphisms, s.n):
            if map_elem(op, M.tgt.get, Phi) == s and \
               sum(M.src[g].n for g in Phi.xs) <= M.cap:
                out.append((f, Phi))
    return out


def filtered_M3(M):
    """Every combo of pairs over a filling, kept within cap, deduplicated."""
    op, out = M.operad, []
    m2 = filtered_M2(M)
    for f, Phi in m2:
        slots = [[w for w in m2 if w[0] == g] for g in Phi.xs]
        for combo in product(*slots):
            total = sum(mu(op, map_elem(op, M.src.get, W[1])).n for W in combo)
            if total <= M.cap:
                out.append(((f, Phi), canonicalize(op, 0, Phi.n, Phi.d, combo)))
    return list(dict.fromkeys(out))


def filtered_phi_rows(lz, n):
    """The lists of length n, grouped by (target, flattened arity), in
    canon_key order: elements_of is in that order over sorted labels."""
    op, M = lz.operad, lz.M
    arity = lambda phi: sum(M.src[g].n for g in phi.xs)
    phis = (phi for phi in elements_of(op, 0, sort_labels(M.morphisms), n)
            if arity(phi) <= op.max_level)
    return fibres(phis, lambda phi: (map_elem(op, M.tgt.get, phi), arity(phi)))


def filtered_action_elements(op, labels, src_n, tgt_n, bound):
    """The binary-bounded action elements of counit_report, by filter."""
    return [E for E in all_elements(op, 1, labels, 2)
            if sum(src_n(c) for c in E.xs) <= bound and
            sum(tgt_n(c) for c in E.xs) <= bound]


def recursive_profiles(slots, budget, cap):
    """All tuples of `slots` arities with sum <= budget, each <= cap."""
    if slots == 0:
        yield ()
        return
    for first in range(min(budget, cap) + 1):
        for rest in recursive_profiles(slots - 1, budget - first, cap):
            yield (first,) + rest


DIFFERENTIAL = {
    "terminal BE(4)": lambda: terminal_multicat(BE),
    "terminal ASS(4)": lambda: terminal_multicat(ASS),
    "sum_classical(3) over BE(4)": lambda: from_symmetric(sum_classical(3), op=BE),
    "underlying(z2, 3)": lambda: underlying(z2_discrete_algebra(BE), 3),
    "underlying(free(ASS, terminal, 2), 2)": lambda: underlying(
        free_algebra(ASS, terminal_category(), 2), 2),
    # its ("t", n, k) labels are not in canon_key order
    "terminal ASS x BE(3)": lambda: terminal_multicat(ass_x_be(3)),
}


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_fibre_reads_equal_the_filtered_enumerations(name):
    M = DIFFERENTIAL[name]()
    assert list(enumerate_M2(M)) == filtered_M2(M)
    assert list(enumerate_M3(M, enumerate_M2(M))) == filtered_M3(M)
    lz = L(M)
    objs = lz.objects_upto(min(M.cap, 3))
    for n in range(min(M.cap, 3) + 1):
        want = filtered_phi_rows(lz, n)
        for b in (b for b in objs if b.n == n):
            for a in objs:
                assert list(lz._phis(a, b)) == want.get((b, a.n), []), (a, b)


def _reversed(M):
    """M with its objects and morphisms tuples reversed."""
    return replace(M, objects=M.objects[::-1], morphisms=M.morphisms[::-1])


ORDERED = {**DIFFERENTIAL,
           "pairing over BE(4), reversed": lambda: _reversed(
               from_symmetric(pairing_classical(), op=BE))}


@pytest.mark.parametrize("name", ORDERED)
def test_free_hom_sets_come_out_in_canon_key_order(name):
    M = ORDERED[name]()
    op, lz = M.operad, L(M)
    objs = lz.objects_upto(min(M.cap, 3))
    for a in objs:
        for b in objs:
            hats = lz.hom_hat(a, b)
            assert hats == tuple(sorted(hats, key=canon_key)), (a, b)
            for h in hats:  # the canonical op.elems objects
                assert h.phi is op.elems[(0, h.phi.d, h.phi.xs)]
                assert h.sigma is op.elems[(1, h.sigma.d, h.sigma.xs)]
            classes = lz.hom(a, b)
            assert list(classes) == sorted(classes, key=canon_key)
            for cls in classes:
                members = lz.members(cls)
                assert members == tuple(sorted(members, key=canon_key))
                assert cls is members[0] == min(members, key=canon_key)


@pytest.mark.parametrize("A, bound", [
    (z2_discrete_algebra(BE), 3),
    (free_algebra(ASS, terminal_category(), 2), 2),
])
def test_bounded_action_elements_equal_the_filter(A, bound):
    LU = L(underlying(A, bound))
    objs = LU.objects_upto(bound)
    classes = tuple(c for a in objs for b in objs for c in LU.hom(a, b))
    src_n, tgt_n = (lambda c: LU.src(c).n), (lambda c: LU.tgt(c).n)
    got = elements_within(A.operad, 1, classes, 2,
                          lambda c: (src_n(c), tgt_n(c)), bound)
    assert list(got) == filtered_action_elements(A.operad, classes, src_n,
                                                 tgt_n, bound)


@pytest.mark.parametrize("op", [barratt_eccles(3), ASS])
def test_families_equal_the_recursive_profiles(op):
    cap = op.max_level
    for j in (0, 1):
        for total in range(cap + 2):
            want = [(k, a, inners)
                    for k in range(1, min(cap, total) + 1)
                    for profile in recursive_profiles(k, min(total - k, cap), cap)
                    for a in op.elements(j, k)
                    for inners in product(*[[(n, x) for x in op.elements(j, n)]
                                            for n in profile])]
            assert list(composable_families(op, j, total)) == want
        for n in range(cap + 1):
            for budget in range(-1, cap + 2):
                want = [combo
                        for profile in recursive_profiles(n, min(budget, cap), cap)
                        for combo in product(*[[(m, x) for x in op.elements(j, m)]
                                               for m in profile])]
                assert list(_inner_families(op, j, n, budget)) == want
