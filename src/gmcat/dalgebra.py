"""Algebras over the operad monad: categories with an action functor.

An algebra is a finite category together with procedures xi0 and xi1 that
evaluate object- and morphism-level monad elements into the carrier. The
procedures are closed-form (the element monads are unbounded), so every
validator takes an arity bound and reports instances that overflow the
operad truncation as 'bounded' rather than silently passing them.

The shared helpers below (the underlying multicategory, xi_fill, the
counit) read an algebra only through `operad`, `ident(x)`, `compose(f, g)`,
`xi0` and `xi1`. DAlgebra offers these over its carrier tables, and the
lazy free algebras of the adjoint module offer them over their hom-sets,
so one copy of each helper serves both.
"""

from dataclasses import dataclass, field, replace

from .dmulticat import (DMulticat, enumerate_M2, enumerate_M3, gamma_S, gamma_T,
                        source_action_domain)
from .errors import BoundExceeded, StructuralError
from .fincat import discrete_category, terminal_category, validate_category
from .finset import fibre_product
from .opmonad import (I_D, S_D, all_elements, eta, map_elem, monad_category,
                      mu, nested_elements)


@dataclass(frozen=True)
class DAlgebra:
    operad: object
    carrier: object  # FinCategory
    xi0: object      # procedure on object-level elements over carrier objects
    xi1: object      # procedure on morphism-level elements over carrier morphisms
    name: str = ""
    # the underlying multicategories of this algebra, by arity bound (see underlying)
    underlying: dict = field(default_factory=dict, init=False,
                             compare=False, repr=False)

    def ident(self, x):
        return self.carrier.ident[x]

    def compose(self, f, g):
        return self.carrier.comp[(f, g)]


def validate_algebra(A, arity_bound=3):
    """The carrier's category laws, then, within the bound, the monad-action
    laws and (xi0, xi1) as a functor from DC (monad_category) to C."""
    op, C = A.operad, A.carrier
    failures = [("carrier: " + fail[0],) + tuple(fail[1:])
                for fail in validate_category(C)["failures"]]
    if failures:  # the laws below read the carrier's tables
        return {"ok": False, "failures": failures}
    DC = monad_category(op, C, arity_bound)
    bounded = 0
    for x in C.objects:
        if A.xi0(eta(op, 0, x)) != x:
            failures.append(("unit law fails on objects", x))
    for f in C.morphisms:
        if A.xi1(eta(op, 1, f)) != f:
            failures.append(("unit law fails on morphisms", f))

    for j, labels, xi in ((0, C.objects, A.xi0), (1, C.morphisms, A.xi1)):
        for e2, _ in nested_elements(op, j, labels, 2, arity_bound):
            try:
                lhs = xi(mu(op, e2))
                rhs = xi(map_elem(op, xi, e2))
            except BoundExceeded:
                bounded += 1
                continue
            if lhs != rhs:
                failures.append(("action associativity fails", e2))

    for E in DC.morphisms:
        try:
            h = A.xi1(E)
            if h not in C.src:  # the checks below read h in the carrier's tables
                failures.append(("action value outside the carrier", E))
                continue
            if C.src[h] != A.xi0(DC.src[E]):
                failures.append(("source not preserved", E))
            if C.tgt[h] != A.xi0(DC.tgt[E]):
                failures.append(("target not preserved", E))
        except BoundExceeded:
            bounded += 1
    for X in DC.objects:
        try:
            x = A.xi0(X)
            if x not in C.ident:
                failures.append(("action value outside the carrier", X))
            elif A.xi1(DC.ident[X]) != C.ident[x]:
                failures.append(("identities not preserved", X))
        except BoundExceeded:
            bounded += 1
    for E, E2 in DC.composable_pairs():
        try:
            if (E, E2) not in DC.comp:  # a level lacks the composite
                failures.append(("composite undefined", (E, E2)))
            elif A.xi1(DC.comp[(E, E2)]) != C.comp.get((A.xi1(E), A.xi1(E2))):
                failures.append(("composition not preserved", (E, E2)))
        except BoundExceeded:
            bounded += 1
    return {"ok": not failures, "failures": failures, "bounded": bounded,
            "morphisms_checked": len(DC.morphisms)}


# ---------------------------------------------------------------------------
# builtin algebras

def z2_discrete_algebra(op):
    """The discrete category on {0, 1} with iterated sum mod 2 as the action."""
    C = discrete_category([0, 1])

    def xi0(e):
        return sum(e.xs) % 2

    def xi1(e):
        return C.ident[sum(x[1] for x in e.xs) % 2]

    return DAlgebra(op, C, xi0, xi1, name="z2_discrete")


def terminal_algebra(op):
    C = terminal_category()
    return DAlgebra(op, C, lambda e: "*", lambda e: C.ident["*"],
                    name="terminal")


def free_algebra(op, C, carrier_bound):
    """The monad applied to a category, acting on itself by flattening.

    Flattenings that leave the truncated carrier raise rather than pass."""
    DC = monad_category(op, C, carrier_bound)

    def xi(e):
        out = mu(op, e)
        if out.n > carrier_bound:
            raise BoundExceeded(
                f"flattening to arity {out.n} leaves the carrier "
                f"(bound {carrier_bound})")
        return out

    return DAlgebra(op, DC, xi, xi, name=f"free({carrier_bound})")


# ---------------------------------------------------------------------------
# the underlying multicategory

def xi_fill(A, mids):
    """Evaluate a filling: morphisms stacked under an identity arrangement."""
    return A.xi1(I_D(A.operad, mids))


def underlying_ident(A, x):
    return (A.ident(x), eta(A.operad, 0, x))


def underlying_act(A, w, delta):
    """Rearrange a multimorphism's source splitting along permutation data."""
    op = A.operad
    moved = A.xi1(map_elem(op, A.ident, delta))
    return (A.compose(w[0], moved), S_D(op, delta))


def underlying_compose(A, w, Phi):
    """Plug a splitting-compatible list of multimorphisms into another."""
    op = A.operad
    mids = map_elem(op, lambda v: v[0], Phi)
    glued = A.compose(w[0], xi_fill(A, mids))
    return (glued, mu(op, map_elem(op, lambda v: v[1], Phi)))


def underlying(A, bound=3):
    """The multicategory whose multimorphisms are (morphism, source splitting),
    memoized on A, so every check of A at one bound shares it and L of it."""
    if bound in A.underlying:
        return A.underlying[bound]
    op, C = A.operad, A.carrier
    objects = tuple(C.objects)
    values = {}  # each splitting's value in the carrier
    for X in all_elements(op, 0, objects, bound):
        try:
            values[X] = A.xi0(X)
        except BoundExceeded:
            continue  # cannot match any in-carrier source
    morphisms = tuple(fibre_product(C.morphisms, C.src.__getitem__,
                                    values, values.__getitem__))
    tgt = {w: C.tgt[w[0]] for w in morphisms}
    src = {w: w[1] for w in morphisms}
    ident = {x: underlying_ident(A, x) for x in objects}
    half = DMulticat(op, objects, morphisms, tgt, src, ident, {}, {})
    action = {(w, delta): underlying_act(A, w, delta)
              for w, delta in source_action_domain(op, morphisms, src, objects, bound)}
    composition = {}
    for w2 in enumerate_M2(half):
        try:
            composition[w2] = underlying_compose(A, *w2)
        except BoundExceeded:
            pass  # composite leaves a truncated carrier; total for total algebras
    A.underlying[bound] = replace(half, source_action=action,
                                  composition=composition)
    return A.underlying[bound]


# ---------------------------------------------------------------------------
# comparison maps into the nerve

def kappa(A, n):
    """The map from n-fold composables of the underlying multicategory to
    length-n composable chains in the carrier (n <= 3)."""
    op = A.operad
    if n == 0:
        return lambda x: x
    if n == 1:
        return lambda w: w[0]
    if n == 2:
        def k2(w):
            (h, X), Phi = w
            return (h, xi_fill(A, map_elem(op, lambda v: v[0], Phi)))
        return k2
    if n == 3:
        def k3(w):
            (f, Phi), Psi = w
            h = f[0]
            mid = xi_fill(A, map_elem(op, lambda W: W[0][0], Psi))
            inner_all = mu(op, map_elem(op, lambda W: W[1], Psi))
            deep = xi_fill(A, map_elem(op, lambda v: v[0], inner_all))
            return (h, mid, deep)
        return k3
    raise StructuralError("comparison maps are materialized only for n <= 3")


def kappa_report(A, bound=3):
    """The inductive squares tying the comparison maps to the nerve; two hold
    by construction: k2(w) starts with k1(w[0]), and k3(w) with k2(w[0])."""
    op, C = A.operad, A.carrier
    U = underlying(A, bound)
    k1, k2, k3 = kappa(A, 1), kappa(A, 2), kappa(A, 3)
    failures = []
    m2 = enumerate_M2(U)
    for w in m2:
        g1, g2 = k2(w)
        if C.src[g1] != C.tgt[g2]:
            failures.append(("comparison chain not composable", w))
        if C.src[g2] != A.xi0(mu(op, map_elem(op, U.src.get, w[1]))):
            failures.append(("source/action square fails", w))
        if k1(U.composition[w]) != C.comp[(g1, g2)]:
            failures.append(("comparison misses the composite", w))
    for f in U.morphisms:
        left_unit = (U.ident[U.tgt[f]], eta(op, 0, f))
        if k2(left_unit) != (C.ident[C.tgt[k1(f)]], k1(f)):
            failures.append(("comparison breaks the unit section", f))
    m3 = enumerate_M3(U, m2)
    for w in m3:
        g1, g2, g3 = k3(w)
        if C.src[g2] != C.tgt[g3]:
            failures.append(("triple chain not composable", w))
        if k2(gamma_T(U, w)) != (C.comp[(g1, g2)], g3):
            failures.append(("outer-first face fails", w))
        if k2(gamma_S(U, w)) != (g1, C.comp[(g2, g3)]):
            failures.append(("inner-first face fails", w))
    return {"ok": not failures, "failures": failures,
            "m2": len(m2), "m3": len(m3)}
