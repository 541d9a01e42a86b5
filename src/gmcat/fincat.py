"""Finite categories, functors, presheaves, and covers.

Covers here are the discrete-fibration style functors used throughout: a
target cover lifts each base morphism uniquely through a chosen target
object, a source cover does the dual; both are checked by the lift count
(`finset.lifts_over`). Presheaf actions are domain-exact: x.f is defined
exactly when eps(x) equals the target of f, and then eps(x.f) = src(f).
"""

from dataclasses import dataclass

from .errors import StructuralError
from .finset import canon_key, fibre_product, fibres, lifts_over, sort_labels


@dataclass
class FinCategory:
    objects: tuple
    morphisms: tuple
    src: dict
    tgt: dict
    ident: dict
    comp: dict  # (f, g) -> f.g, defined exactly when src[f] == tgt[g]

    def composable_pairs(self):
        return tuple(fibre_product(self.morphisms, self.src.__getitem__,
                                   self.morphisms, self.tgt.__getitem__))


def category(objects, morphisms, src, tgt, ident, comp):
    """A FinCategory with its objects and morphisms stored in canon_key
    order, so a position is a canonical rank (opmonad's orbit table reads
    an operad level's order that way)."""
    return FinCategory(sort_labels(objects), sort_labels(morphisms),
                       dict(src), dict(tgt), dict(ident), dict(comp))


def terminal_category():
    return category(("*",), ("id*",), {"id*": "*"}, {"id*": "*"}, {"*": "id*"},
                    {("id*", "id*"): "id*"})


def discrete_category(labels):
    labels = sort_labels(labels)
    mors = tuple(("id", x) for x in labels)
    return category(labels, mors, {m: m[1] for m in mors}, {m: m[1] for m in mors},
                    {x: ("id", x) for x in labels},
                    {(m, m): m for m in mors})


def validate_category(C):
    """Identity, associativity, and composition-domain checks with witnesses."""
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
    # the triples of a level-4 category run to hundreds of thousands: each g
    # composes with the h into its source once, then each (f, g) compares the
    # row of (f.g).h with the row of f.(g.h); the first is the row of f.g
    # itself when f.g has the source of g
    into = fibres(C.morphisms, C.tgt.__getitem__)
    gh_rows = {g: [C.comp.get((g, h)) for h in into.get(C.src[g], ())]
               for g in C.morphisms}
    for f, g in ordered:
        hs = into.get(C.src[g], ())
        fg = C.comp.get((f, g))
        if fg in gh_rows and C.src[fg] == C.src[g]:
            lhs = gh_rows[fg]
        else:
            lhs = [C.comp.get((fg, h)) for h in hs]
        rhs = [C.comp.get((f, gh)) for gh in gh_rows[g]]
        if lhs != rhs:
            failures.extend(("associativity fails", (f, g, h))
                            for h, x, y in zip(hs, lhs, rhs) if x != y)
    return {"ok": not failures, "failures": failures,
            "objects": len(C.objects), "morphisms": len(C.morphisms),
            "composable_pairs": len(pairs)}


@dataclass
class CatFunctor:
    dom: FinCategory
    cod: FinCategory
    obj_map: dict
    mor_map: dict


def validate_functor(F):
    failures = []
    C, D = F.dom, F.cod
    for o in C.objects:
        if F.obj_map.get(o) not in D.objects:
            failures.append(("object image missing", o))
    mors = set(D.morphisms)
    for f in C.morphisms:
        g = F.mor_map.get(f)
        if g not in mors:
            failures.append(("morphism image missing", f))
            continue
        if D.src[g] != F.obj_map[C.src[f]] or D.tgt[g] != F.obj_map[C.tgt[f]]:
            failures.append(("endpoints not preserved", f))
    for o in C.objects:
        if F.mor_map.get(C.ident[o]) != D.ident.get(F.obj_map.get(o)):
            failures.append(("identity not preserved", o))
    for (f, g) in C.composable_pairs():
        if F.mor_map.get(C.comp[(f, g)]) != D.comp.get((F.mor_map.get(f), F.mor_map.get(g))):
            failures.append(("composition not preserved", (f, g)))
    return {"ok": not failures, "failures": failures}


def _is_cover(F, c_end, d_end):
    """Unique lifting of morphisms through the chosen end; returns (ok, witness)."""
    C, D = F.dom, F.cod
    for x, f, hits in lifts_over(C.morphisms, lambda h: (c_end[h], F.mor_map[h]),
                                 C.objects, F.obj_map.__getitem__,
                                 D.morphisms, d_end.__getitem__):
        if len(hits) != 1:
            return False, ("no lift" if not hits else "ambiguous lift", (x, f))
    return True, None


def is_target_cover(F):
    """Unique lifting of morphisms through target objects; returns (ok, witness)."""
    return _is_cover(F, F.dom.tgt, F.cod.tgt)


def is_source_cover(F):
    return _is_cover(F, F.dom.src, F.cod.src)


# ---------------------------------------------------------------------------
# presheaves

@dataclass
class Presheaf:
    """Right action of a category on a set: x.f defined exactly when eps(x) = tgt(f)."""

    base: FinCategory
    carrier: tuple
    eps: dict
    act: dict  # (x, f) -> x.f


def validate_presheaf(P):
    failures = []
    C = P.base
    for x in P.carrier:
        if P.eps.get(x) not in C.objects:
            failures.append(("eps value outside objects", x))
    if failures:  # the action's domain is read through eps
        return {"ok": False, "failures": failures}
    want = set(fibre_product(P.carrier, P.eps.__getitem__, C.morphisms, C.tgt.__getitem__))
    if set(P.act) != want:
        for w in sorted(set(P.act) ^ want, key=canon_key):
            failures.append(("action domain mismatch", w))
        return {"ok": False, "failures": failures}
    carrier = set(P.carrier)
    for (x, f), y in P.act.items():
        if y not in carrier:
            failures.append(("action leaves carrier", (x, f)))
        elif P.eps[y] != C.src[f]:
            failures.append(("eps of x.f is not src(f)", (x, f)))
    if failures:  # the unit and associativity checks act on every x.f
        return {"ok": False, "failures": failures}
    for x in P.carrier:
        if P.act[(x, C.ident[P.eps[x]])] != x:
            failures.append(("unit action fails", x))
    for (f, g), x in fibre_product(C.composable_pairs(), lambda p: C.tgt[p[0]],
                                   P.carrier, P.eps.__getitem__):
        if P.act[(P.act[(x, f)], g)] != P.act[(x, C.comp[(f, g)])]:
            failures.append(("associativity of action fails", (x, f, g)))
    return {"ok": not failures, "failures": failures}


def c0_presheaf(C):
    """Objects as a presheaf: the action of f moves tgt(f) to src(f)."""
    act = {(x, f): C.src[f] for x, f in fibre_product(C.objects, lambda x: x,
                                                      C.morphisms, C.tgt.__getitem__)}
    return Presheaf(C, tuple(C.objects), {x: x for x in C.objects}, act)


def c1_presheaf(C):
    """C's own morphisms acted on by composing at the source."""
    act = {p: C.comp[p] for p in C.composable_pairs()}
    return Presheaf(C, tuple(C.morphisms), {x: C.src[x] for x in C.morphisms}, act)


def grothendieck(P):
    """Category of elements of a presheaf; its projection is a target cover."""
    rep = validate_presheaf(P)
    if not rep["ok"]:
        raise StructuralError(f"grothendieck needs a valid presheaf: {rep['failures'][0]}")
    C = P.base
    objects = tuple(P.carrier)
    morphisms = tuple(fibre_product(P.carrier, P.eps.__getitem__,
                                    C.morphisms, C.tgt.__getitem__))
    src = {(x, f): P.act[(x, f)] for (x, f) in morphisms}
    tgt = {(x, f): x for (x, f) in morphisms}
    ident = {x: (x, C.ident[P.eps[x]]) for x in objects}
    comp = {((x, f), (y, g)): (x, C.comp[(f, g)])
            for (x, f), (y, g) in fibre_product(morphisms, src.__getitem__,
                                                morphisms, tgt.__getitem__)}
    G = category(objects, morphisms, src, tgt, ident, comp)
    proj = CatFunctor(G, C, {x: P.eps[x] for x in objects}, {m: m[1] for m in morphisms})
    return G, proj


def transport_presheaf(F, P, eps_factor):
    """Pull a presheaf on the base of a target cover up to the covering category.

    Requires F0 . eps_factor = P.eps; the transported action x.h := x.F(h) must
    land compatibly with eps_factor, otherwise the factorization is rejected.
    """
    ok, w = is_target_cover(F)
    if not ok:
        raise StructuralError(f"transport needs a target cover: {w}")
    C = F.dom
    for x in P.carrier:
        if F.obj_map.get(eps_factor.get(x)) != P.eps[x]:
            raise StructuralError(f"eps factorization fails at {x!r}")
    act = {}
    for x, h in fibre_product(P.carrier, eps_factor.__getitem__,
                              C.morphisms, C.tgt.__getitem__):
        y = P.act[(x, F.mor_map[h])]
        if eps_factor[y] != C.src[h]:
            raise StructuralError(
                f"factorization incompatible with action at ({x!r}, {h!r})")
        act[(x, h)] = y
    out = Presheaf(C, tuple(P.carrier), dict(eps_factor), act)
    rep = validate_presheaf(out)
    if not rep["ok"]:
        raise StructuralError(f"transported action not a presheaf: {rep['failures'][0]}")
    return out
