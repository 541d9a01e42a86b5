"""The free algebra on a multicategory, in two stages.

Stage one pairs a list of multimorphisms with rearrangement data drawn from
the operad; composition threads the data past the lists via the interchange
lift. The unit into this provisional construction preserves everything
except the rearrangement action. Stage two quotients each hom-set by the
relation that attaching data to the sources equals absorbing it into the
stored data; the quotient is computed by union-find closure inside one
hom-set at a time, which is what keeps everything finite and decidable.
A class is named by its canonical member, the provisional morphism that
comes first in canon_key order, and members(h) lists the class of h. Both
stages are a LazyDAlgebra, told apart by members alone: stage one has no
relation, so each of its classes is (h,). The unit is unit_map.

Composition reads its three parts (the interchange lift, the regrouped
list and the data composite) from memos on the multicategory and the
operad, once per distinct input; the composability check and the hat
condition still run on every composite. Both compare ends of lists: a
list's targets and its flattened sources are computed once each, and read
from M.list_targets and M.flat_sources. Neither is found through the
other, so a list whose sources flatten past the truncation still has a
target, and only flat_source raises BoundExceeded.

A hom-set comes out in canon_key order by construction: each target's
lists are sorted once, when phi_rows is built, and the data over a list
is in elements_of order. The union-find roots each class at its first
member, so the classes need no sort either. Lists and data are the
canonical op.elems objects, the very ones hat_compose builds from the
operad's memos, so a composite meets its closure key by identity.
"""

from dataclasses import dataclass, field
from itertools import product

from .dalgebra import (DAlgebra, underlying, underlying_act,
                       underlying_compose, underlying_ident, xi_fill)
from .dmulticat import act_slots, enumerate_M2, fillings
from .errors import BoundExceeded, StructuralError
from .fincat import category
from .finset import UnionFind, canon_key, fibre_product, fibres
from .opmonad import (I_D, S_D, T_D, align_sigma, all_elements, canonicalize,
                      chi, elements_of, elements_within, eta, gamma_D,
                      map_elem, mu, mu_raw)


@dataclass(frozen=True, slots=True, eq=False)
class HatMorphism:
    """A provisional morphism; hashed once and compared as MonadElem is."""

    phi: object    # object-level element over multimorphisms
    sigma: object  # morphism-level element over objects
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.phi, self.sigma)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not HatMorphism:
            return NotImplemented
        return (self._hash == other._hash and self.phi == other.phi
                and self.sigma == other.sigma)

    def _canon_key(self):
        return (9, self.phi._canon_key(), self.sigma._canon_key())

    def __repr__(self):
        return f"Hat({self.phi!r}, {self.sigma!r})"


def list_target(op, M, phi):
    """The targets of a multimorphism list, one monad element; read from
    M.list_targets after the first call."""
    tgt = M.list_targets.get(phi)
    if tgt is None:
        tgt = M.list_targets[phi] = map_elem(op, M.tgt.get, phi)
    return tgt


def flat_source(op, M, phi):
    """The flattened sources of a multimorphism list, one monad element;
    read from M.flat_sources after the first call. A flattening that raises
    stores nothing."""
    flat = M.flat_sources.get(phi)
    if flat is None:
        flat = M.flat_sources[phi] = mu(op, map_elem(op, M.src.get, phi))
    return flat


def hat_target(op, M, hat):
    return list_target(op, M, hat.phi)


def hat_source(op, hat):
    return S_D(op, hat.sigma)


def make_hat(op, M, phi, sigma):
    if phi.j != 0 or sigma.j != 1:
        raise StructuralError("hat morphism needs (object-level, morphism-level) parts")
    if flat_source(op, M, phi) != T_D(op, sigma):
        raise StructuralError("hat morphism condition fails: "
                              "flattened sources differ from the data's target")
    return HatMorphism(phi, sigma)


# ---------------------------------------------------------------------------
# composition in the provisional construction

def _regroup(op, M, outer, inner):
    """Split a rearranged flat list under the outer slots and compose slotwise."""
    srcs = tuple(M.src[g] for g in outer.xs)
    n, d_flat, xs_flat = mu_raw(op, 0, outer.n, outer.d, srcs)
    u = align_sigma(op, 0, n, inner.d, d_flat)
    if u is None:
        raise StructuralError("regrouping failed: flat list off the orbit")
    arranged = u.inverse().permuted(inner.xs)
    if tuple(M.tgt[g] for g in arranged) != xs_flat:
        raise StructuralError("regrouping failed: targets disagree")
    out, off = [], 0
    for g, s in zip(outer.xs, srcs):
        block = canonicalize(op, 0, s.n, s.d, tuple(arranged[off:off + s.n]))
        off += s.n
        out.append(M.compose(g, block))
    return canonicalize(op, 0, outer.n, outer.d, tuple(out))


def hat_compose(op, M, f, g):
    """f after g: interchange f's data past g's list, then compose slotwise.

    Composability and the hat condition are checked on every call, on the
    ends of g's list and of the composite list (M.list_targets and
    M.flat_sources). The three parts are read from memos after their first
    computation: the interchange lift from M.lifts, the regrouped list from
    M.regroupings and the data composite from op.data_composites (through
    gamma_D). M.lifts and M.regroupings are written only once make_hat has
    accepted the composite, so a call that raises stores nothing in them."""
    if hat_source(op, f) != hat_target(op, M, g):
        raise StructuralError("hat morphisms not composable")
    lift_key = (f.sigma, g.phi)
    moved = M.lifts.get(lift_key)
    if moved is None:
        moved = chi(op, f.sigma, g.phi, M.src.get, M.tgt.get)
    moved_list, moved_data = moved
    group_key = (f.phi, moved_list)
    phi = M.regroupings.get(group_key)
    if phi is None:
        phi = _regroup(op, M, f.phi, moved_list)
    out = make_hat(op, M, phi, gamma_D(op, moved_data, g.sigma))
    M.lifts[lift_key] = moved
    M.regroupings[group_key] = phi
    return out


def hat_xi1(op, M, E):
    """The morphism-level action: flatten lists along targets, flatten data."""
    lists = map_elem(op, lambda h: h.phi, E)
    datas = map_elem(op, lambda h: h.sigma, E)
    return make_hat(op, M, mu(op, T_D(op, lists)), mu(op, datas))


# ---------------------------------------------------------------------------
# lazy algebra with per-hom-set memoization

@dataclass
class LazyDAlgebra:
    operad: object
    M: object
    quotient: bool
    name: str = ""
    # multimorphism lists by target, grouped by the arity of their flattened
    # sources: the lists that can land in one hom-set
    phi_rows: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)
    # object-level data by arity, indexed (by (source, target), by target)
    sigma_index: dict = field(default_factory=dict, init=False, compare=False,
                              repr=False)
    # hom-set closures by (a, b) in op.elems objects, as (representatives in
    # order, member -> its class's members, representative first)
    closures: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    # -- enumeration --------------------------------------------------------
    def objects_upto(self, bound):
        return all_elements(self.operad, 0, self.M.objects, bound)

    def morphisms_upto(self, bound):
        """(a, b, h) for each h in hom(a, b), with a and b in
        objects_upto(bound), in that order: each hom-set is read once."""
        objs = self.objects_upto(bound)
        return tuple((a, b, h) for a in objs for b in objs for h in self.hom(a, b))

    def _phis(self, a, b):
        """The multimorphism lists with target b whose flattened sources have
        a's arity (none past the truncation), in canon_key order."""
        if b not in self.phi_rows:
            op, M = self.operad, self.M
            phis = [canonicalize(op, 0, p.n, p.d, p.xs)
                    for p in sorted(fillings(M, b, op.max_level), key=canon_key)]
            self.phi_rows[b] = fibres(phis, lambda phi: flat_source(op, M, phi).n)
        return self.phi_rows[b].get(a.n, ())

    def _sigmas(self, n):
        if n not in self.sigma_index:
            op = self.operad
            # elements_of emits d in canon_key order, and within one (source,
            # target) fibre no two share a d, so each fibre is in that order
            sigmas = [canonicalize(op, 1, n, e.d, e.xs)
                      for e in elements_of(op, 1, self.M.objects, n)]
            self.sigma_index[n] = (
                fibres(sigmas, lambda s: (S_D(op, s), T_D(op, s))),
                fibres(sigmas, lambda s: T_D(op, s)))
        return self.sigma_index[n]

    def hom_hat(self, a, b):
        """In canon_key order: the lists are in order, and so is the data
        over each list."""
        op, M = self.operad, self.M
        by_ends = self._sigmas(a.n)[0]
        return tuple(HatMorphism(phi, s) for phi in self._phis(a, b)
                     for s in by_ends.get((a, flat_source(op, M, phi)), ()))

    # -- the coequalizer relation -------------------------------------------
    def relation_instances(self, a, b):
        """Both legs of every relation instance landing in hom(a, b)."""
        op, M = self.operad, self.M
        for phi in self._phis(a, b):
            slots = [self._sigmas(s.n)[1].get(s, ())
                     for s in (M.src[g] for g in phi.xs)]
            for taus in product(*slots):
                attached, absorbed = act_slots(M, phi, taus)
                for s in self._sigmas(a.n)[0].get((a, S_D(op, absorbed)), ()):
                    yield (HatMorphism(attached, s),
                           HatMorphism(phi, gamma_D(op, absorbed, s)))

    def _closure(self, a, b):
        closure = self.closures.get((a, b))
        if closure is None:
            op = self.operad
            a, b = (canonicalize(op, 0, e.n, e.d, e.xs) for e in (a, b))
            uf = UnionFind(self.hom_hat(a, b))
            for lhs, rhs in self.relation_instances(a, b):
                try:  # a leg outside the hom-set fails its one lookup, before any merge
                    uf.union(lhs, rhs)
                except KeyError:
                    raise StructuralError("relation leg left its hom-set") from None
            classes = uf.classes()
            closure = self.closures[(a, b)] = (
                tuple(classes), {h: ms for ms in classes.values() for h in ms})
        return closure

    def members(self, hat):
        """The class of hat, its representative first."""
        if not self.quotient:  # the provisional construction has no relation
            return (hat,)
        members = self._closure(hat_source(self.operad, hat),
                                hat_target(self.operad, self.M, hat))[1].get(hat)
        if members is None:
            raise StructuralError("morphism missing from its hom-set closure")
        return members

    def class_of(self, hat):
        return self.members(hat)[0]

    # -- categorical interface ----------------------------------------------
    def hom(self, a, b):
        return self._closure(a, b)[0] if self.quotient else self.hom_hat(a, b)

    def ident(self, a):
        op = self.operad
        return self.class_of(
            HatMorphism(map_elem(op, self.M.ident.get, a), I_D(op, a)))

    def compose(self, f, g):
        return self.class_of(hat_compose(self.operad, self.M, f, g))

    def src(self, h):
        return hat_source(self.operad, h)

    def tgt(self, h):
        return hat_target(self.operad, self.M, h)

    def xi0(self, e):
        return mu(self.operad, e)

    def xi1(self, e):
        return self.class_of(hat_xi1(self.operad, self.M, e))


def _free_on(M, name, quotient):
    """The lazy free algebra on M, memoized on M so it lives as long as M."""
    if name not in M.free_algebras:
        M.free_algebras[name] = LazyDAlgebra(M.operad, M, quotient, name)
    return M.free_algebras[name]


def hat_L(M):
    return _free_on(M, "hat_L", quotient=False)


def L(M):
    return _free_on(M, "L", quotient=True)


def coeq_equiv(M, e1, e2):
    """Decide the hom-set closure relation between two provisional morphisms
    (classes in different hom-sets have representatives that differ)."""
    lz = L(M)
    return lz.class_of(e1) == lz.class_of(e2)


def validate_coeq_fork(M, a, b):
    """Leg endpoints and the reflexive section, on every generated instance."""
    op = M.operad
    lz = L(M)
    failures, instances = [], 0
    for lhs, rhs in lz.relation_instances(a, b):
        instances += 1
        for leg in (lhs, rhs):
            if hat_source(op, leg) != a or hat_target(op, M, leg) != b:
                failures.append(("leg moves an endpoint", leg))
    for h in lz.hom_hat(a, b):
        acted, absorbed = act_slots(
            M, h.phi, tuple(I_D(op, M.src[g]) for g in h.phi.xs))
        sec_l = HatMorphism(acted, h.sigma)
        sec_r = HatMorphism(h.phi, gamma_D(op, absorbed, h.sigma))
        if sec_l != h or sec_r != h:
            failures.append(("identity data is not a common section", h))
    return {"ok": not failures, "failures": failures, "instances": instances}


def descent_report(M, bound=2):
    """Composition and the action land in the same class whichever member
    of each class represents it."""
    op = M.operad
    lz = L(M)
    walk = lz.morphisms_upto(bound)
    failures, pairs = [], 0
    for (_, _, cg), (_, _, cf) in fibre_product(walk, lambda m: m[1],
                                                walk, lambda m: m[0]):
        expected = lz.compose(cf, cg)
        pairs += 1
        for f in lz.members(cf):
            for g in lz.members(cg):
                if lz.class_of(hat_compose(op, M, f, g)) != expected:
                    failures.append(("composite depends on members", (cf, cg, f, g)))
    arities = {h: (a.n, b.n) for a, b, c in walk for h in lz.members(c)}
    acted = 0
    for E in elements_within(op, 1, tuple(arities), 2, arities.get, bound):
        acted += 1
        if lz.class_of(hat_xi1(op, M, E)) != lz.xi1(
                map_elem(op, lz.class_of, E)):
            failures.append(("action depends on members", E))
    return {"ok": not failures, "failures": failures,
            "pairs": pairs, "action_elems": acted}


# ---------------------------------------------------------------------------
# materialization

def to_algebra(lazy, bound):
    """Freeze the lazy algebra into tables on objects within the bound."""
    op = lazy.operad
    objs = lazy.objects_upto(bound)
    walk = lazy.morphisms_upto(bound)
    mors = [h for _, _, h in walk]
    src = {h: a for a, _, h in walk}
    tgt = {h: b for _, b, h in walk}
    ident = {a: lazy.ident(a) for a in objs}
    comp = {(f, g): lazy.compose(f, g)
            for f, g in fibre_product(mors, src.__getitem__, mors, tgt.__getitem__)}
    carrier = category(objs, mors, src, tgt, ident, comp)
    inside = frozenset(mors)

    def xi0(e):
        out = lazy.xi0(e)
        if out.n > bound:
            raise BoundExceeded(f"flattening to arity {out.n} leaves the "
                                f"materialized carrier (bound {bound})")
        return out

    def xi1(e):
        out = lazy.xi1(e)
        if out not in inside:
            raise BoundExceeded("action lands outside the materialized carrier")
        return out

    return DAlgebra(op, carrier, xi0, xi1, name=lazy.name)


# ---------------------------------------------------------------------------
# unit

def unit_map(lazy, f):
    """The unit at a multimorphism f of lazy.M, as a multimorphism of the
    underlying multicategory of lazy: the class of (eta f, identity data) and
    the unit on f's sources."""
    op, M = lazy.operad, lazy.M
    return (lazy.class_of(make_hat(op, M, eta(op, 0, f), I_D(op, M.src[f]))),
            map_elem(op, lambda x: eta(op, 0, x), M.src[f]))


def _action_law(M, lazy):
    """(f, delta, both sides of the unit's action law at (f, delta) -> out)
    for each source action entry of M, in canonical order, one at a time."""
    op = M.operad
    for (f, delta), out in sorted(M.source_action.items(), key=canon_key):
        yield f, delta, unit_map(lazy, out), underlying_act(
            lazy, unit_map(lazy, f), map_elem(op, lambda x: eta(op, 0, x), delta))


def _map_checklist(M, lazy):
    """The multicategory-map laws for the unit into the given construction."""
    op = M.operad
    e0 = lambda x: eta(op, 0, x)
    upair = lambda f: unit_map(lazy, f)
    failures, m2 = [], enumerate_M2(M)
    for f in M.morphisms:
        w = upair(f)
        if lazy.tgt(w[0]) != e0(M.tgt[f]):
            failures.append(("target not preserved", f))
        if w[1] != map_elem(op, e0, M.src[f]) or lazy.xi0(w[1]) != lazy.src(w[0]):
            failures.append(("source not preserved", f))
    for x in M.objects:
        if upair(M.ident[x]) != underlying_ident(lazy, e0(x)):
            failures.append(("identity not preserved", x))
    if not failures:  # the laws below compose the unit's values
        for f, Phi in m2:
            lhs = upair(M.compose(f, Phi))
            rhs = underlying_compose(lazy, upair(f), map_elem(op, upair, Phi))
            if lhs != rhs:
                failures.append(("composition not preserved", (f, Phi)))
        for f, delta, lhs, rhs in _action_law(M, lazy):
            if lhs != rhs:
                failures.append(("action not preserved", (f, delta)))
    return {"ok": not failures, "failures": failures,
            "morphisms": len(M.morphisms), "pairs": len(m2),
            "action_pairs": len(M.source_action)}


def unit_report(M):
    return _map_checklist(M, L(M))


def hat_unit_report(M):
    return _map_checklist(M, hat_L(M))


def witness_hat_unit_failure(M):
    """First action pair the provisional unit fails on, if any."""
    for f, delta, (lhs, _), (rhs, _) in _action_law(M, hat_L(M)):
        if lhs != rhs:
            return {"f": f, "delta": delta, "lhs": lhs, "rhs": rhs}
    return None


# ---------------------------------------------------------------------------
# counit

def counit_hat(A, hat):
    """Evaluate a provisional morphism over the underlying multicategory."""
    op = A.operad
    g_top = xi_fill(A, map_elem(op, lambda w: w[0], hat.phi))
    moved = A.xi1(map_elem(op, A.ident, hat.sigma))
    return A.compose(g_top, moved)


def counit_report(A, bound=2):
    """Class-constancy, functoriality, and the algebra-map law of the counit."""
    op = A.operad
    LU = L(underlying(A, bound))
    walk = LU.morphisms_upto(bound)
    failures, bounded = [], 0
    eps, broken = {}, set()  # broken: classes that already failed constancy
    for a, b, cls in walk:
        try:
            values = {counit_hat(A, m) for m in LU.members(cls)}
        except BoundExceeded:
            bounded += 1  # evaluation leaves a truncated carrier
            continue
        if len(values) != 1:
            failures.append(("not constant on a class", cls))
            broken.add(cls)
            continue
        eps[cls] = values.pop()
        if A.carrier.src[eps[cls]] != A.xi0(a) or \
           A.carrier.tgt[eps[cls]] != A.xi0(b):
            failures.append(("endpoint mismatch", cls))

    def judge(result, want, failure):
        """Decide one instance; true when it is checked. want() runs only
        on a result with a value, as it may leave the carrier."""
        nonlocal bounded
        if result in broken:  # neither checked nor bounded
            return False
        if result not in eps:
            bounded += 1
        elif eps[result] != want():
            failures.append(failure)
        else:
            return True
        return False

    for a in LU.objects_upto(bound):
        judge(LU.ident(a), lambda: A.carrier.ident[A.xi0(a)],
              ("identity not preserved", a))
    for f, g in fibre_product(eps, LU.src, eps, LU.tgt):
        try:
            h = LU.compose(f, g)
        except BoundExceeded:
            bounded += 1
            continue
        judge(h, lambda: A.carrier.comp.get((eps[f], eps[g])),  # None: not composable
              ("composition not preserved", (f, g)))
    checked = 0
    for E in elements_within(op, 1, tuple(eps), 2,
                             lambda c: (LU.src(c).n, LU.tgt(c).n), bound):
        try:
            lhs = LU.xi1(E)
            rhs = A.xi1(map_elem(op, eps.get, E))
        except BoundExceeded:
            bounded += 1
            continue
        checked += judge(lhs, lambda: rhs, ("action not preserved", E))
    return {"ok": not failures, "failures": failures, "classes": len(walk),
            "action_checked": checked, "bounded": bounded}


# ---------------------------------------------------------------------------
# triangle identities

def check_triangles(M, A, bound=2):
    """Both adjunction triangles, exhaustively within the bound. Exceptions
    other than BoundExceeded and StructuralError are crashes and propagate."""
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
            bounded += 1  # instance leaves a truncated carrier
        except StructuralError as exc:
            fail_U.append(("round trip broke", w, repr(exc)))

    LM = L(M)
    e0 = lambda x: eta(op, 0, x)
    walk = LM.morphisms_upto(bound)
    for _, _, cls in walk:
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
            "checked_L": len(walk),
            "bounded": bounded}
