import pytest

from gmcat.errors import StructuralError
from gmcat.fincat import (
    CatFunctor, Presheaf, c0_presheaf, c1_presheaf, category, discrete_category,
    grothendieck, is_source_cover, is_target_cover, terminal_category,
    transport_presheaf, validate_category, validate_functor, validate_presheaf,
)
from gmcat.catoperad import associativity_operad, barratt_eccles
from gmcat.finset import canon_key, fibre_product, perms

E, S = (1, 2), (2, 1)  # Sym(2) as image tuples


def chaotic_sym(n):
    """The level-n translation groupoid: objects Sym(n), one arrow between any two."""
    objs = [p.images for p in perms(n)]
    mors = [(a, b) for a in objs for b in objs]  # (src, tgt)
    return category(
        objs, mors,
        {m: m[0] for m in mors}, {m: m[1] for m in mors},
        {o: (o, o) for o in objs},
        {((b, c), (a, b2)): (a, c) for (b, c) in mors for (a, b2) in mors if b2 == b})


def sym2_monoid():
    comp = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    return category(("*",), ("e", "s"), {"e": "*", "s": "*"}, {"e": "*", "s": "*"},
                    {"*": "e"}, comp)


def regular_presheaf_over_chaotic2():
    C = chaotic_sym(2)
    eps = {"p": E, "q": S}
    inv = {v: k for k, v in eps.items()}
    act = {(x, f): inv[f[0]] for x in ("p", "q") for f in C.morphisms if eps[x] == f[1]}
    return Presheaf(C, ("p", "q"), eps, act)


def identity(C):
    return CatFunctor(C, C, {o: o for o in C.objects}, {f: f for f in C.morphisms})


def chaotic2_cover_over_sym2():
    C, B = chaotic_sym(2), sym2_monoid()
    mor_map = {m: ("e" if m[0] == m[1] else "s") for m in C.morphisms}
    return CatFunctor(C, B, {o: "*" for o in C.objects}, mor_map)


# -- categories and functors -------------------------------------------------

def test_terminal_category_valid():
    rep = validate_category(terminal_category())
    assert rep["ok"] and rep["composable_pairs"] == 1


def test_wrong_unit_names_the_object():
    C = sym2_monoid()
    C.comp[("s", "e")] = "e"
    rep = validate_category(C)
    assert not rep["ok"]
    assert any(kind == "right unit fails" and w == ("s", "*") for kind, w in rep["failures"])


def test_missing_endpoint_is_reported_not_raised():
    C = sym2_monoid()
    del C.src["s"]
    rep = validate_category(C)
    assert not rep["ok"]
    assert rep["failures"] == [("endpoint outside objects", "s")]


def test_composite_witnesses_follow_the_pair_order():
    # three composites with a wrong target: the witnesses come in the order
    # of the composable pairs, whatever the hash seed
    mors = ("ia", "ib", "f", "g", "h")
    src = {"ia": "a", "ib": "b", "f": "a", "g": "a", "h": "a"}
    tgt = {"ia": "a", "ib": "b", "f": "b", "g": "b", "h": "b"}
    comp = {("ia", "ia"): "ia", ("ib", "ib"): "ib"}
    for m in ("f", "g", "h"):
        comp[(m, "ia")], comp[("ib", m)] = "ib", m
    C = category(("a", "b"), mors, src, tgt, {"a": "ia", "b": "ib"}, comp)
    rep = validate_category(C)
    assert [w for kind, w in rep["failures"]
            if kind == "composite has wrong endpoints"] == \
        [("f", "ia"), ("g", "ia"), ("h", "ia")]


def test_chaotic_sym2_valid_with_8_composable_pairs():
    rep = validate_category(chaotic_sym(2))
    assert rep["ok"]
    assert rep["objects"] == 2 and rep["morphisms"] == 4
    assert rep["composable_pairs"] == 8


def test_functor_validation():
    C = chaotic_sym(2)
    F = identity(C)
    assert validate_functor(F)["ok"]
    F.mor_map[(E, S)] = (S, E)
    assert not validate_functor(F)["ok"]


def test_functor_validation_names_each_missing_image():
    C = chaotic_sym(2)
    F = identity(C)
    F.obj_map[E] = "nowhere"
    del F.mor_map[(S, S)]
    failures = validate_functor(F)["failures"]
    assert ("object image missing", E) in failures
    assert ("morphism image missing", (S, S)) in failures
    assert ("identity not preserved", E) in failures
    # an identity sent to a morphism with the right endpoints
    F = CatFunctor(sym2_monoid(), sym2_monoid(), {"*": "*"}, {"e": "s", "s": "e"})
    assert ("identity not preserved", "*") in validate_functor(F)["failures"]


# -- covers -------------------------------------------------------------------

def test_identity_is_a_cover():
    F = identity(chaotic_sym(2))
    assert is_target_cover(F) == (True, None)
    assert is_source_cover(F) == (True, None)


def test_collapse_to_terminal_is_not_a_cover():
    C, T = chaotic_sym(2), terminal_category()
    F = CatFunctor(C, T, {o: "*" for o in C.objects}, {m: "id*" for m in C.morphisms})
    assert validate_functor(F)["ok"]
    ok, witness = is_target_cover(F)
    assert not ok and witness[0] == "ambiguous lift"


def test_grothendieck_projection_is_target_cover():
    G, proj = grothendieck(regular_presheaf_over_chaotic2())
    assert validate_category(G)["ok"]
    assert len(G.objects) == 2 and len(G.morphisms) == 4
    assert is_target_cover(proj) == (True, None)


def test_grothendieck_of_objects_presheaf_is_morphisms():
    C = chaotic_sym(2)
    G, proj = grothendieck(c0_presheaf(C))
    assert len(G.morphisms) == len(C.morphisms)
    assert sorted(proj.mor_map.values()) == sorted(C.morphisms)


def test_grothendieck_over_terminal_is_discrete():
    T = terminal_category()
    P = Presheaf(T, ("x", "y"), {"x": "*", "y": "*"},
                 {("x", "id*"): "x", ("y", "id*"): "y"})
    G, _ = grothendieck(P)
    assert len(G.objects) == 2 and len(G.morphisms) == 2


def test_grothendieck_rejects_invalid_presheaf():
    T = terminal_category()
    P = Presheaf(T, ("x", "y"), {"x": "*", "y": "*"},
                 {("x", "id*"): "y", ("y", "id*"): "x"})
    with pytest.raises(StructuralError):
        grothendieck(P)


# -- presheaves and transport --------------------------------------------------

def test_structural_presheaves_validate():
    C = chaotic_sym(2)
    assert validate_presheaf(c0_presheaf(C))["ok"]
    assert validate_presheaf(c1_presheaf(C))["ok"]



def sym2_set():
    """Sym(2) acting on {0, 1} by swapping."""
    return Presheaf(sym2_monoid(), (0, 1), {0: "*", 1: "*"},
                    {(0, "e"): 0, (1, "e"): 1, (0, "s"): 1, (1, "s"): 0})


@pytest.mark.parametrize("make, edit, witness", [
    (sym2_set, lambda P: P.eps.update({1: "nope"}), ("eps value outside objects", 1)),
    (sym2_set, lambda P: P.act.pop((1, "s")), ("action domain mismatch", (1, "s"))),
    (sym2_set, lambda P: P.act.update({(1, "s"): 2}),
     ("action leaves carrier", (1, "s"))),
    # p.(S -> E) is q, over S; p lies over E
    (regular_presheaf_over_chaotic2, lambda P: P.act.update({("p", (S, E)): "p"}),
     ("eps of x.f is not src(f)", ("p", (S, E)))),
], ids=["eps_outside", "action_missing", "action_leaves_carrier", "eps_of_value"])
def test_presheaf_table_defect_is_a_verdict(make, edit, witness):
    # the unit and associativity checks read every x.f and eps(x.f): a table
    # that is not closed fails before them, with the entry as the witness
    P = make()
    assert validate_presheaf(P)["ok"]
    edit(P)
    assert validate_presheaf(P) == {"ok": False, "failures": [witness]}

def test_transport_along_identity_is_identity():
    C = chaotic_sym(2)
    P = c0_presheaf(C)
    out = transport_presheaf(identity(C), P, dict(P.eps))
    assert out.act == P.act and out.eps == P.eps


def test_transport_group_set_up_a_cover():
    F = chaotic2_cover_over_sym2()
    assert is_target_cover(F) == (True, None)
    B = F.cod
    P = Presheaf(B, (0, 1), {0: "*", 1: "*"},
                 {(0, "e"): 0, (1, "e"): 1, (0, "s"): 1, (1, "s"): 0})
    assert validate_presheaf(P)["ok"]
    out = transport_presheaf(F, P, {0: E, 1: S})
    assert validate_presheaf(out)["ok"]
    assert out.act[(0, (S, E))] == 1


def test_transport_rejects_bad_factorization():
    F = chaotic2_cover_over_sym2()
    B = F.cod
    P = Presheaf(B, (0, 1), {0: "*", 1: "*"},
                 {(0, "e"): 0, (1, "e"): 1, (0, "s"): 1, (1, "s"): 0})
    with pytest.raises(StructuralError):
        transport_presheaf(F, P, {0: E, 1: E})


def test_transport_rejects_mismatched_eps():
    C = chaotic_sym(2)
    P = c0_presheaf(C)
    F = identity(C)
    with pytest.raises(StructuralError):
        transport_presheaf(F, P, {E: E, S: E})


def test_transport_refuses_a_functor_that_is_no_target_cover():
    C, T = chaotic_sym(2), terminal_category()
    F = CatFunctor(C, T, {o: "*" for o in C.objects}, {m: "id*" for m in C.morphisms})
    with pytest.raises(StructuralError, match="transport needs a target cover"):
        transport_presheaf(F, c0_presheaf(T), {E: "*", S: "*"})


def test_transport_refuses_an_action_that_breaks_the_presheaf_laws():
    # the transported action is P's, so P's swapped unit breaks it too
    F = identity(sym2_monoid())
    P = Presheaf(F.cod, (0, 1), {0: "*", 1: "*"},
                 {(0, "e"): 1, (1, "e"): 0, (0, "s"): 0, (1, "s"): 1})
    with pytest.raises(StructuralError, match="transported action not a presheaf: "
                       r"\('unit action fails', 0\)"):
        transport_presheaf(F, P, {0: "*", 1: "*"})


def test_discrete_category_builder():
    D = discrete_category(["u", "v"])
    assert validate_category(D)["ok"] and len(D.morphisms) == 2


# -- associativity rows against the plain triple loop ---------------------------

def plain_validate_category(C):
    """validate_category with one comp lookup per use: the reference."""
    failures = []
    for f in C.morphisms:
        if C.src.get(f) not in C.objects or C.tgt.get(f) not in C.objects:
            failures.append(("endpoint outside objects", f))
    for o in C.objects:
        i = C.ident.get(o)
        if i is None or C.src.get(i) != o or C.tgt.get(i) != o:
            failures.append(("bad identity", o))
    if failures:  # the checks below pair morphisms through these tables
        return {"ok": False, "failures": failures,
                "objects": len(C.objects), "morphisms": len(C.morphisms)}
    ordered = C.composable_pairs()
    pairs = set(ordered)
    if set(C.comp) != pairs:
        for w in sorted(set(C.comp) ^ pairs, key=canon_key):
            failures.append(("composition table domain mismatch", w))
    mors = set(C.morphisms)
    for f, g in ordered:  # in pair order, so the witnesses do not depend on hashing
        if (f, g) not in C.comp:
            continue
        h = C.comp[(f, g)]
        if h not in mors or C.src.get(h) != C.src[g] or C.tgt.get(h) != C.tgt[f]:
            failures.append(("composite has wrong endpoints", (f, g)))
    for f in C.morphisms:
        a, b = C.src[f], C.tgt[f]
        if C.comp.get((f, C.ident[a])) != f:
            failures.append(("right unit fails", (f, a)))
        if C.comp.get((C.ident[b], f)) != f:
            failures.append(("left unit fails", (f, b)))
    # lazy: the triples of a level-4 category run to hundreds of thousands
    with_fg = ((f, g, C.comp.get((f, g))) for f, g in ordered)
    for (f, g, fg), h in fibre_product(with_fg, lambda p: C.src[p[1]],
                                       C.morphisms, C.tgt.__getitem__):
        if C.comp.get((fg, h)) != C.comp.get((f, C.comp.get((g, h)))):
            failures.append(("associativity fails", (f, g, h)))
    return {"ok": not failures, "failures": failures,
            "objects": len(C.objects), "morphisms": len(C.morphisms),
            "composable_pairs": len(pairs)}


LEVELS = [("BE3", barratt_eccles(3), 2), ("BE3", barratt_eccles(3), 3),
          ("BE4", barratt_eccles(4), 3), ("ASS3", associativity_operad(3), 3)]


@pytest.mark.parametrize("name,op,n", LEVELS, ids=[f"{name}-{n}" for name, _, n in LEVELS])
def test_category_rows_match_the_plain_loop(name, op, n):
    L = op.level(n)
    assert validate_category(L) == plain_validate_category(L)
    pairs = sorted(L.comp, key=canon_key)
    for pair in (pairs[1], pairs[len(pairs) // 2]):
        mors = L.morphisms
        comp = {**L.comp, pair: mors[(mors.index(L.comp[pair]) + 1) % len(mors)]}
        C = category(L.objects, mors, L.src, L.tgt, L.ident, comp)
        rep = validate_category(C)
        assert not rep["ok"] and rep == plain_validate_category(C)


def test_composites_with_the_right_endpoints_can_break_associativity():
    # one object, so every composite has the right endpoints; e is a unit and
    # a, b multiply by a table in which (a.a).b = b.b = a but a.(a.b) = a.a = b
    mors = ("e", "a", "b")
    comp = {("e", m): m for m in mors} | {(m, "e"): m for m in mors}
    comp |= {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "a", ("b", "b"): "a"}
    C = category(("*",), mors, dict.fromkeys(mors, "*"), dict.fromkeys(mors, "*"),
                 {"*": "e"}, comp)
    rep = validate_category(C)
    assert rep == plain_validate_category(C)
    assert rep["failures"] == [("associativity fails", w) for w in
                               [("a", "a", "b"), ("a", "b", "b"), ("b", "a", "a"),
                                ("b", "b", "a")]]
