"""Finite categories, functors, presheaves, covers, and quotients.

Covers here are the discrete-fibration style functors used throughout: a
target cover lifts each base morphism uniquely through a chosen target
object, a source cover does the dual. Presheaf actions are domain-exact:
x.f is defined exactly when eps(x) equals the target of f, and then
eps(x.f) = src(f).
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import FreenessError, StructuralError
from .finset import (FinFn, GroupAction, canon_key, fibre_product, fibres, finset,
                     identity_perm, sort_labels)


@dataclass
class FinCategory:
    objects: tuple
    morphisms: tuple
    src: dict
    tgt: dict
    ident: dict
    comp: dict  # (f, g) -> f.g, defined exactly when src[f] == tgt[g]

    def hom(self, a, b):
        return tuple(f for f in self.morphisms if self.src[f] == a and self.tgt[f] == b)

    def composable_pairs(self):
        return tuple(fibre_product(self.morphisms, self.src.__getitem__,
                                   self.morphisms, self.tgt.__getitem__))


def category(objects, morphisms, src, tgt, ident, comp):
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
class NerveLevel:
    """Composable n-strings; tgt is the target of the whole string, src its source."""

    n: int
    simplices: tuple
    src: dict
    tgt: dict


def nerve_level(C, n):
    if n == 0:
        return NerveLevel(0, tuple(C.objects), {o: o for o in C.objects},
                          {o: o for o in C.objects})
    chains = [(f,) for f in C.morphisms]
    for _ in range(n - 1):
        chains = [ch + (g,) for ch, g in fibre_product(
            chains, lambda ch: C.src[ch[-1]], C.morphisms, C.tgt.__getitem__)]
    return NerveLevel(n, tuple(chains),
                      {ch: C.src[ch[-1]] for ch in chains},
                      {ch: C.tgt[ch[0]] for ch in chains})


@dataclass
class CatFunctor:
    dom: FinCategory
    cod: FinCategory
    obj_map: dict
    mor_map: dict

    @cached_property
    def target_lifts(self):
        """The morphisms of dom grouped by (target, image), in dom's order."""
        C = self.dom
        return fibres(C.morphisms, lambda h: (C.tgt[h], self.mor_map[h]))


def identity_functor(C):
    return CatFunctor(C, C, {o: o for o in C.objects}, {f: f for f in C.morphisms})


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
    lifts = fibres(C.morphisms, lambda h: (c_end[h], F.mor_map[h]))
    for x, f in fibre_product(C.objects, F.obj_map.__getitem__,
                              D.morphisms, d_end.__getitem__):
        hits = lifts.get((x, f), ())
        if len(hits) != 1:
            return False, ("no lift" if not hits else "ambiguous lift", (x, f))
    return True, None


def is_target_cover(F):
    """Unique lifting of morphisms through target objects; returns (ok, witness)."""
    return _is_cover(F, F.dom.tgt, F.cod.tgt)


def is_source_cover(F):
    return _is_cover(F, F.dom.src, F.cod.src)


def target_lift(F, x, f):
    """The unique morphism over f with target x (assumes target cover)."""
    lifts = F.target_lifts.get((x, f))
    if not lifts:
        raise StructuralError(f"no target lift of {f!r} at {x!r}")
    return lifts[0]


def nerve_square_is_pullback(F, n):
    """The (nerve_level n, target) square of a target cover is a pullback."""
    from .finset import is_pullback
    C, D = F.dom, F.cod
    NC, ND = nerve_level(C, n), nerve_level(D, n)
    chains_c = finset(NC.simplices)
    chains_d = finset(ND.simplices)
    objs_c = finset(C.objects)
    objs_d = finset(D.objects)

    def push(ch):
        if n == 0:
            return F.obj_map[ch]
        return tuple(F.mor_map[f] for f in ch)

    pairs = finset([(NC.tgt[ch], push(ch)) for ch in NC.simplices])
    if len(pairs) != len(chains_c):
        return False, "comparison map not injective"
    p1 = FinFn(pairs, objs_c, {w: w[0] for w in pairs})
    p2 = FinFn(pairs, chains_d, {w: w[1] for w in pairs})
    f = FinFn(objs_c, objs_d, dict(F.obj_map))
    g = FinFn(chains_d, objs_d, {ch: ND.tgt[ch] for ch in ND.simplices})
    return is_pullback(pairs, p1, p2, f, g)


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


def objects_presheaf(F):
    """Objects of a target cover's domain as a presheaf over the base."""
    ok, w = is_target_cover(F)
    if not ok:
        raise StructuralError(f"objects_presheaf needs a target cover: {w}")
    C, D = F.dom, F.cod
    eps = {x: F.obj_map[x] for x in C.objects}
    act = {(x, f): C.src[target_lift(F, x, f)]
           for x, f in fibre_product(C.objects, eps.__getitem__,
                                     D.morphisms, D.tgt.__getitem__)}
    return Presheaf(D, tuple(C.objects), eps, act)


def morphisms_presheaf(F):
    """Morphisms of a target cover's domain, acted on by lift-then-compose."""
    ok, w = is_target_cover(F)
    if not ok:
        raise StructuralError(f"morphisms_presheaf needs a target cover: {w}")
    C, D = F.dom, F.cod
    eps = {h: F.obj_map[C.src[h]] for h in C.morphisms}
    act = {(h, f): C.comp[(h, target_lift(F, C.src[h], f))]
           for h, f in fibre_product(C.morphisms, eps.__getitem__,
                                     D.morphisms, D.tgt.__getitem__)}
    return Presheaf(D, tuple(C.morphisms), eps, act)


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


def project_presheaf(F, P):
    """Push a presheaf on the covering category down along a target cover."""
    ok, w = is_target_cover(F)
    if not ok:
        raise StructuralError(f"projection needs a target cover: {w}")
    C, D = F.dom, F.cod
    eps = {x: F.obj_map[P.eps[x]] for x in P.carrier}
    act = {(x, f): P.act[(x, target_lift(F, P.eps[x], f))]
           for x, f in fibre_product(P.carrier, eps.__getitem__,
                                     D.morphisms, D.tgt.__getitem__)}
    return Presheaf(D, tuple(P.carrier), eps, act)


# ---------------------------------------------------------------------------
# quotients by functorial group actions

@dataclass
class CatAction:
    """A finite group acting on a category, one automorphism functor per element."""

    base: FinCategory
    group: tuple
    functors: dict  # Perm -> CatFunctor


def validate_cat_action(A):
    failures = []
    ident = identity_perm(A.group[0].n)
    for s in A.group:
        F = A.functors.get(s)
        if F is None:
            failures.append(("missing functor", s))
            continue
        rep = validate_functor(F)
        if not rep["ok"]:
            failures.append(("element does not act by a functor", (s, rep["failures"][0])))
    if not failures:
        Fi = A.functors[ident]
        if any(Fi.obj_map[o] != o for o in A.base.objects) or \
           any(Fi.mor_map[f] != f for f in A.base.morphisms):
            failures.append(("identity element acts nontrivially", ident))
        for s in A.group:
            for t in A.group:
                st = s.compose(t)
                for o in A.base.objects:
                    if A.functors[st].obj_map[o] != A.functors[s].obj_map[A.functors[t].obj_map[o]]:
                        failures.append(("action law fails on objects", (s, t, o)))
                        break
                for f in A.base.morphisms:
                    if A.functors[st].mor_map[f] != A.functors[s].mor_map[A.functors[t].mor_map[f]]:
                        failures.append(("action law fails on morphisms", (s, t, f)))
                        break
    return {"ok": not failures, "failures": failures}


def _as_group_actions(A):
    obj_table = {(s, o): A.functors[s].obj_map[o] for s in A.group for o in A.base.objects}
    mor_table = {(s, f): A.functors[s].mor_map[f] for s in A.group for f in A.base.morphisms}
    return (GroupAction(A.group, tuple(A.base.objects), obj_table),
            GroupAction(A.group, tuple(A.base.morphisms), mor_table))


def quotient_category(C, A):
    """Quotient by a free functorial group action; orbit classes keep min-member labels."""
    rep = validate_cat_action(A)
    if not rep["ok"]:
        raise StructuralError(f"invalid category action: {rep['failures'][0]}")
    act_obj, act_mor = _as_group_actions(A)
    for act, what in ((act_obj, "objects"), (act_mor, "morphisms")):
        w = act.freeness_witness()
        if w is not None:
            raise FreenessError(
                f"quotient needs a free action on {what}: {w[0]!r} fixes {w[1]!r}", witness=w)

    obj_label = {o: min(act_obj.orbit(o), key=canon_key) for o in C.objects}
    mor_label = {f: min(act_mor.orbit(f), key=canon_key) for f in C.morphisms}
    objects = sort_labels(set(obj_label.values()))
    morphisms = sort_labels(set(mor_label.values()))
    src, tgt = {}, {}
    for f in C.morphisms:
        for table, val in ((src, obj_label[C.src[f]]), (tgt, obj_label[C.tgt[f]])):
            if table.setdefault(mor_label[f], val) != val:
                raise StructuralError(f"endpoints do not descend at {f!r}")
    ident = {obj_label[o]: mor_label[C.ident[o]] for o in C.objects}
    comp = {}
    for f, g in fibre_product(C.morphisms, lambda f: src[mor_label[f]],
                              C.morphisms, lambda g: tgt[mor_label[g]]):
        aligned = [gg for gg in act_mor.orbit(g) if C.tgt[gg] == C.src[f]]
        vals = {mor_label[C.comp[(f, gg)]] for gg in aligned}
        if len(vals) != 1:
            raise StructuralError(f"composition does not descend at ({f!r}, {g!r})")
        key = (mor_label[f], mor_label[g])
        v = vals.pop()
        if comp.setdefault(key, v) != v:
            raise StructuralError(f"composition does not descend at {key}")
    Q = category(objects, morphisms, src, tgt, ident, comp)
    rep = validate_category(Q)
    if not rep["ok"]:
        raise StructuralError(f"quotient not a category: {rep['failures'][0]}")
    proj = CatFunctor(C, Q, obj_label, mor_label)
    return Q, proj


def quotient_functor(F, A_dom, A_cod):
    """Induced functor between quotients of a functor's domain and codomain."""
    Qd, pd = quotient_category(F.dom, A_dom)
    Qc, pc = quotient_category(F.cod, A_cod)
    obj_map, mor_map = {}, {}
    for o in F.dom.objects:
        v = pc.obj_map[F.obj_map[o]]
        if obj_map.setdefault(pd.obj_map[o], v) != v:
            raise StructuralError(f"functor does not descend on objects at {o!r}")
    for f in F.dom.morphisms:
        v = pc.mor_map[F.mor_map[f]]
        if mor_map.setdefault(pd.mor_map[f], v) != v:
            raise StructuralError(f"functor does not descend on morphisms at {f!r}")
    return CatFunctor(Qd, Qc, obj_map, mor_map)
