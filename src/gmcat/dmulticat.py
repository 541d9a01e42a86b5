"""Multicategories whose source lists live in the object monad.

A multimorphism f has a single target object and a whole monad element of
sources; the operad acts on sources through a presheaf action psi1 over the
category {D0 M0, D1 M0}, and composition gamma takes a morphism together
with an object-monad element of morphisms filling its source slots. All
enumeration is bounded by the largest source arity appearing in the data,
so finite inputs need no user-facing truncation. The constructor refuses a
non-free operad: freeness makes the monad cartesian, and makes the fillings
of a source [d; x1..xn] the [d; g1..gn] with tgt(gi) = xi, read by fibre.

A classical source list (x1..xn) is encoded as [b; x1..xn] with b the base
point of level n (`_level_unit_obj`), in the least of the level's orbits.
The terminal multicategory needs no base point: it has a morphism out of
every orbit. Alignments go through the operad's orbit table. The tables
adjoint derives from a DMulticat's own are its fields, one plain memo
each: lifts, regroupings, list_targets and flat_sources.
"""

import random
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product
from math import prod

from .errors import StructuralError
from .fincat import (CatFunctor, Presheaf, transport_presheaf,
                     validate_presheaf)
from .finset import fibre_product, fibres, perms, product_within
from .opmonad import (MonadElem, S_D, T_D, _require_free, align_sigma,
                      all_elements, canonicalize, chi, elements_of, eta,
                      map_elem, melem, monad_set_category, mu, mu_raw)


@dataclass(frozen=True)
class DMulticat:
    """Finite multicategory over a sigma-free operad, with explicit tables."""

    operad: object
    objects: tuple
    morphisms: tuple
    tgt: dict
    src: dict            # f -> object-monad element over objects
    ident: dict          # x -> unary morphism
    source_action: dict  # (f, delta) -> f' for morphism-monad delta with T_D(delta) = src(f)
    composition: dict    # (f, Phi) -> f' for object-monad Phi over morphisms
    # the lazy free algebras on this multicategory, by name (see adjoint.L)
    free_algebras: dict = field(default_factory=dict, init=False,
                                compare=False, repr=False)
    # the parts of adjoint.hat_compose that read src, tgt and composition:
    # interchange lifts by (data, list), regroupings by (outer, moved list)
    lifts: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)
    regroupings: dict = field(default_factory=dict, init=False, compare=False,
                              repr=False)
    # the ends of each multimorphism list that adjoint reads, by list: its
    # targets (adjoint.list_target) and its flattened sources (flat_source)
    list_targets: dict = field(default_factory=dict, init=False, compare=False,
                               repr=False)
    flat_sources: dict = field(default_factory=dict, init=False, compare=False,
                               repr=False)

    def __post_init__(self):
        _require_free(self.operad, "a generalized multicategory")

    def arity(self, f):
        return self.src[f].n

    @cached_property
    def cap(self):
        return max((e.n for e in self.src.values()), default=0)

    @cached_property
    def into(self):
        """The morphisms grouped by target, in the order of `morphisms`."""
        return fibres(self.morphisms, self.tgt.get)

    def compose(self, f, phis):
        key = (f, phis)
        if key not in self.composition:
            raise StructuralError(f"composition undefined on {key!r}")
        return self.composition[key]


def fillings(M, s, budget):
    """The Phi with D0 tgt(Phi) = s and flattened arity at most budget, in
    elements_of order. s.d is least in its orbit and reached only by the
    identity, so these are the [s.d; g1..gn] with tgt(gi) = xi."""
    for gs, _ in product_within([M.into.get(x, ()) for x in s.xs],
                                lambda g: (M.src[g].n,), budget):
        yield MonadElem(0, s.n, s.d, gs)


def enumerate_M2(M):
    """Composable pairs: (f, Phi) with src(f) = D0 tgt(Phi), flatten within cap."""
    return tuple((f, Phi) for f in M.morphisms
                 for Phi in fillings(M, M.src[f], M.cap))


def enumerate_M3(M, m2):
    """Composable triples over m2 = enumerate_M2(M): (pair, Psi) with Psi an
    object-monad element of pairs whose first components recover the pair's
    filling."""
    op = M.operad
    by_first = fibres(m2, lambda w: w[0])
    flat = lambda W: (sum(M.src[g].n for g in W[1].xs),)
    # Phi.d is least in its orbit, so no two combos canonicalize alike
    return tuple(((f, Phi), canonicalize(op, 0, Phi.n, Phi.d, combo))
                 for f, Phi in m2
                 for combo, _ in product_within(
                     [by_first.get(g, ()) for g in Phi.xs], flat, M.cap))


def gamma_T(M, w):
    """Compose the outer pair first; the inner fillings concatenate."""
    (f, Phi), Psi = w
    op = M.operad
    return (M.compose(f, Phi), mu(op, map_elem(op, lambda W: W[1], Psi)))


def gamma_S(M, w):
    """Compose the inner pairs first; the outer shape is unchanged."""
    (f, Phi), Psi = w
    op = M.operad
    return (f, map_elem(op, lambda W: M.compose(W[0], W[1]), Psi))


def act_slots(M, phi, deltas):
    """The two legs of the interchange at a filling phi with one action
    morphism per slot: (phi acted on slot by slot, the deltas absorbed into
    one morphism-level element over phi's arrangement)."""
    op, k = M.operad, phi.n
    acted = tuple(M.source_action[(g, t)] for g, t in zip(phi.xs, deltas))
    return (canonicalize(op, 0, k, phi.d, acted),
            canonicalize(op, 1, *mu_raw(op, 1, k, op.level(k).ident[phi.d],
                                        deltas)))


def _psi_presheaf(M, base=None):
    op = M.operad
    DC = base if base is not None else monad_set_category(op, M.objects, M.cap)
    return Presheaf(DC, tuple(M.morphisms), dict(M.src), dict(M.source_action))


def over_point_form(M):
    """The equivalent presheaf over the one-object-per-arity base, obtained by
    transporting the stored action across the arity-collapsing cover."""
    op = M.operad
    DC = monad_set_category(op, M.objects, M.cap)
    DP = monad_set_category(op, ("*",), M.cap)
    squash = lambda e: map_elem(op, lambda x: "*", e)
    DF = CatFunctor(DC, DP, {X: squash(X) for X in DC.objects},
                    {E: squash(E) for E in DC.morphisms})
    eps_factor = {f: squash(M.src[f]) for f in M.morphisms}
    return transport_presheaf(DF, _psi_presheaf(M, base=DC), eps_factor)


def validate_multicat(M, coherence_budget=2000, seed=0):
    """Every axiom, in bounded exhaustive form; the action interchanges with
    composition inside each slot and in the outer one (equivariance)."""
    op = M.operad
    if M.cap > op.max_level:
        raise StructuralError("morphism arity exceeds the operad truncation")
    objs, mors = set(M.objects), set(M.morphisms)
    failures = [("endpoint outside objects", f) for f in M.morphisms
                if f not in M.src or M.tgt.get(f) not in objs]
    failures += [("identity not a morphism", x) for x in M.objects
                 if M.ident.get(x) not in mors]
    failures += [("source action outside morphisms", key)
                 for key, g in M.source_action.items()
                 if key[0] not in mors or g not in mors]
    failures += [("composite outside morphisms", key)
                 for key, g in M.composition.items() if g not in mors]
    if failures:  # the checks below look these labels up in the tables
        return {"ok": False, "failures": failures}

    for x in M.objects:
        i = M.ident[x]
        if M.src[i] != eta(op, 0, x):
            failures.append(("identity source is not the unit element", x))
        if M.tgt[i] != x:
            failures.append(("identity target moved", x))

    psi = _psi_presheaf(M)
    psi_rep = validate_presheaf(psi)
    for fail in psi_rep["failures"]:
        failures.append(("source action: " + fail[0],) + tuple(fail[1:]))
    for (f, delta), f2 in M.source_action.items():
        if M.tgt[f2] != M.tgt[f]:
            failures.append(("source action moved a target", (f, delta)))

    # in the order of m2 and of the table, so the witnesses do not depend on hashing
    m2 = enumerate_M2(M)
    want = set(m2)
    missing = [key for key in m2 if key not in M.composition]
    failures += [("composition missing on composable pair", key) for key in missing]
    failures += [("composition defined outside composable pairs", key)
                 for key in M.composition if key not in want]

    for f, Phi in m2:
        g = M.composition.get((f, Phi))
        if g is None:
            continue
        if M.tgt[g] != M.tgt[f]:
            failures.append(("composite target moved", (f, Phi)))
        if M.src[g] != mu(op, map_elem(op, M.src.get, Phi)):
            failures.append(("composite source is not the flattened sources", (f, Phi)))

    for f in M.morphisms:
        filler = map_elem(op, M.ident.get, M.src[f])
        if M.composition.get((f, filler)) != f:
            failures.append(("right unit fails", f))
        unit_pair = (M.ident[M.tgt[f]], eta(op, 0, f))
        if M.composition.get(unit_pair) != f:
            failures.append(("left unit fails", f))

    if missing:  # associativity composes every composable pair
        return {"ok": False, "failures": failures, "m2": len(m2)}
    m3 = enumerate_M3(M, m2)
    for w in m3:
        a, b = gamma_T(M, w), gamma_S(M, w)
        if M.composition.get(a) != M.composition.get(b):
            failures.append(("associativity fails", w))

    # the outer interchange, through chi; presheaf failures are skipped
    DC = psi.base
    for (f, delta), g in M.source_action.items():
        if DC.tgt.get(delta) != M.src[f] or DC.src[delta] != M.src[g]:
            continue
        for Phi2 in fillings(M, M.src[g], M.cap):
            Phi, absorbed = chi(op, delta, Phi2, M.src.get, M.tgt.get)
            if M.composition[(g, Phi2)] != M.source_action.get(
                    (M.composition[(f, Phi)], absorbed)):
                failures.append(("outer action does not interchange with "
                                 "composition", (f, delta, Phi2)))

    coh = _coherence_triples(M, m2, coherence_budget, seed)
    for f, Phi, deltas in coh:
        acted, absorbed = act_slots(M, Phi, deltas)
        lhs = M.source_action.get((M.composition[(f, Phi)], absorbed))
        rhs = M.composition.get((f, acted))
        if lhs is None or lhs != rhs:
            failures.append(("action does not interchange with composition",
                             (f, Phi, deltas)))
    return {"ok": not failures, "failures": failures,
            "m2": len(m2), "m3": len(m3), "coherence_checked": len(coh)}


def _coherence_triples(M, m2, budget, seed):
    """Pairs from m2 = enumerate_M2(M) with one action morphism chosen per
    source slot, among the action entries M has (validate_presheaf reports
    the missing ones). validate_multicat calls this only when every pair
    has a composite."""
    op = M.operad
    deltas_at = fibres(all_elements(op, 1, M.objects, M.cap), lambda d: T_D(op, d))
    acting = {g: [t for t in deltas_at.get(M.src[g], ()) if (g, t) in M.source_action]
              for g in M.morphisms}
    combos = []
    for f, Phi in m2:
        slots = [acting[g] for g in Phi.xs]
        count = prod(map(len, slots))
        if count:  # a slot without action entries has no triple
            combos.append((f, Phi, slots, count))
    total = sum(c for *_, c in combos)
    out = []
    if total <= budget:
        for f, Phi, slots, _ in combos:
            for choice in product(*slots):
                out.append((f, Phi, tuple(choice)))
    else:
        rng = random.Random(seed)
        for _ in range(budget):
            f, Phi, slots, _ = rng.choice(combos)
            out.append((f, Phi, tuple(rng.choice(s) for s in slots)))
    return out


# ---------------------------------------------------------------------------
# classical inputs

@dataclass(frozen=True)
class ClassicalMulticat:
    """Multimorphisms with literal source lists; the symmetric case carries a
    right permutation action: src(act(f,s)) = s.permuted(src(f)),
    act(act(f,s),t) = act(f, s.compose(t))."""

    objects: tuple
    morphisms: tuple
    src: dict    # f -> tuple of objects
    tgt: dict    # f -> object
    ident: dict  # x -> f
    comp: dict   # (f, (g1..gk)) -> f'
    act: dict = field(default_factory=dict)  # (f, sigma images) -> f'


def validate_classical(cm, symmetric):
    """The tables the encoder reads: endpoints, identities, composable `comp`
    keys, morphism values, `act` endpoints. validate_multicat checks laws."""
    objs, mors = set(cm.objects), set(cm.morphisms)
    failures = [("endpoint outside objects", f) for f in cm.morphisms
                if f not in cm.src or cm.tgt.get(f) not in objs
                or not objs.issuperset(cm.src[f])]
    if failures:  # every check below reads these endpoints
        return {"ok": False, "failures": failures}
    cap = max((len(cm.src[f]) for f in cm.morphisms), default=0)
    for x in cm.objects:
        i = cm.ident.get(x)
        if i not in mors or cm.src[i] != (x,) or cm.tgt[i] != x:
            failures.append(("bad identity", x))
    for (f, combo), h in cm.comp.items():
        if f not in mors or len(combo) != len(cm.src[f]) or any(
                g not in mors or cm.tgt[g] != x for g, x in zip(combo, cm.src[f])):
            failures.append(("composition defined outside composable pairs", (f, combo)))
        elif h not in mors:
            failures.append(("composite outside morphisms", (f, combo)))
    if symmetric:
        for f in cm.morphisms:
            for s in perms(len(cm.src[f])):
                g = cm.act.get((f, s.images))
                if g not in mors or cm.src[g] != s.permuted(cm.src[f]) \
                        or cm.tgt[g] != cm.tgt[f]:
                    failures.append(("action missing or moves endpoints", (f, s.images)))
    return {"ok": not failures, "failures": failures, "cap": cap}


def _encode(cm, op, symmetric, rep):
    """Encode cm over op, given rep = validate_classical(cm, symmetric)."""
    if not rep["ok"]:
        raise StructuralError(f"classical tables fail: {rep['failures'][0]}")
    cap = rep["cap"]
    if cap > op.max_level:
        raise StructuralError("arity exceeds the operad truncation")
    src = {f: melem(op, 0, _level_unit_obj(op, len(cm.src[f])), cm.src[f])
           for f in cm.morphisms}
    M_half = DMulticat(op, tuple(cm.objects), tuple(cm.morphisms),
                       dict(cm.tgt), src, dict(cm.ident), {}, {})
    action = {}
    for f, delta in source_action_domain(op, cm.morphisms, src, cm.objects, cap):
        r = _left_coset_perm(op, delta, src[f])
        if symmetric:
            action[(f, delta)] = cm.act[(f, r.inverse().images)]
        else:
            if not r.is_identity:
                raise StructuralError(f"non-identity action morphism over {op.name}: "
                                      "a non-symmetric multicategory acts by identities")
            action[(f, delta)] = f
    # each src(f) is [level unit object; literal sources], so a filling
    # lists its fillers in the literal order; every entry is carried, and
    # validate_multicat reports a missing or over-cap one
    composition = {(f, canonicalize(op, 0, len(gs), src[f].d, gs)): h
                   for (f, gs), h in cm.comp.items()}
    return replace(M_half, source_action=action, composition=composition)


def source_action_domain(op, morphisms, src, objects, cap):
    """The pairs (f, delta) with T_D(delta) = src(f), arities up to cap: the
    domain of a source action."""
    return fibre_product(morphisms, src.__getitem__,
                         all_elements(op, 1, objects, cap), lambda d: T_D(op, d))


def _level_unit_obj(op, n):
    """The base point of the classical encoding at level n: its least object
    (the identity arrangement for the permutation operads), which comes first
    because levels are stored in canon_key order."""
    return op.elements(0, n)[0]


def _left_coset_perm(op, delta, src_elem):
    """For a morphism element with target src_elem, the permutation r such that
    delta has a representative (unit -> r-arrangement) over the literal sources."""
    n = delta.n
    L = op.level(n)
    unit = _level_unit_obj(op, n)
    s = align_sigma(op, 0, n, L.tgt[delta.d], unit)
    if s is None or s.permuted(delta.xs) != src_elem.xs:
        raise StructuralError("could not align action morphism")
    return align_sigma(op, 0, n, unit, L.src[op.act(1, n, s, delta.d)])


def from_symmetric(cm, op):
    """Encode a classical symmetric multicategory over a permutation operad;
    raises on bad tables only, as validate_multicat checks the laws."""
    return _encode(cm, op, True, validate_classical(cm, True))


def from_nonsymmetric(cm, op):
    """Encode a classical non-symmetric multicategory over a word operad."""
    return _encode(cm, op, False, validate_classical(cm, False))


# ---------------------------------------------------------------------------
# stock examples

def terminal_multicat(op):
    """One object; one morphism out of every canonical source element, ("t", n)
    out of the first of arity n and ("t", n, k) out of the k-th after it."""
    named = {X: ("t", n, k) if k else ("t", n) for n in range(op.max_level + 1)
             for k, X in enumerate(elements_of(op, 0, ("*",), n))}
    src = {f: X for X, f in named.items()}
    M_half = DMulticat(op, ("*",), tuple(src), dict.fromkeys(src, "*"), src,
                       {"*": named[eta(op, 0, "*")]}, {}, {})
    action = {(f, delta): named[S_D(op, delta)] for f, delta in source_action_domain(
        op, M_half.morphisms, src, M_half.objects, op.max_level)}
    composition = {(f, Phi): named[mu(op, map_elem(op, src.get, Phi))]
                   for f, Phi in enumerate_M2(M_half)}
    return replace(M_half, source_action=action, composition=composition)
