"""The object- and morphism-level monads of a categorical operad.

An element [d; x1..xn] is stored as the canonical minimum of its orbit
under the simultaneous action d |-> d.sigma, (x_i) |-> (x_sigma(i)); two
elements are equal iff they are the same orbit. For sigma-free operads the
minimizing translate of d is unique, which makes canonical forms cheap and
alignment (finding the translate matching a given d-part) well defined.

D is a monad on finite categories. S_D, T_D, I_D and the composite
`_aligned_compose` take the matching maps of a category C on labels, and
default to the discrete carrier, whose labels pass unchanged: {D0 X, D1 X}
over a label set X is D of the discrete category on X, with gamma_D its
memoized composite. Composition (so DC and its validators) and chi realign
arrangements and demand freeness; S_D, T_D, I_D and the plain monad
structure (eta, mu, map_elem) work for any operad. One generator,
`_elements`, enumerates every D_j over a label set: over a free operad,
[d; xs] with d least in its orbit is canonical for every xs, so it builds
elements directly; over any other operad it canonicalizes and sorts.

The memos live on the operad. Orbit data is memoized per element:
`op.orbits[(j, n, d)]` is ({d.sigma: sigma}, least d.sigma, every sigma
that reaches it), built when d is first canonicalized or aligned. A free
action has exactly one such sigma; otherwise canonicalize takes the least
relabelling over all of them, so one canonical form serves every operad.
It keys each label once and compares the sigmas on the permuted keys:
canon_key of an n-tuple is (4, n, the keys of its entries), so the
relabellings in canon_key order are the sigmas ordered by
sigma.permuted(keys), and min, like a stable sort, keeps the first least.
"Least" is canon_key order, read off positions: category() stores every
level in that order, and `op.ranks[(j, n)]` is {x: position in level n}.
The orbit table alone decides a canonical element. It reads the ranks
first, so an arity past the truncation raises BoundExceeded, and it
refuses a translate outside its level (an invalid tabulated action).
`op.elems[(j, d, xs)]` is the canonical element, `op.composites` the
composite of each shape that mu_raw flattens and `op.data_composites` the
composite gamma_D(E, E2) of each pair it has composed. Every MonadElem is
such a canonical element.

A MonadElem hashes once, when it is built, to hash((j, n, d, xs)): the
value a dataclass would compute on every lookup, so dicts and sets iterate
alike in every process. Equality is identity first, then the cached
hashes, then the fields. Nothing interns elements (the free paths build
them directly), so equal elements may be distinct objects, and an element
of a builtin operad equals the one of its tabulated copy.

Cartesianness (D of a pullback, the eta and mu squares) and cover
preservation are unique-lifting checks, each one lift count
(finset.lifts_over) over MonadElems. Where D is polynomial (_polynomial:
every least representative is its own canonical form, reached by the
identity alone, so the action is free on the levels read; and every
shape's composite has one sigma), check_cartesian decides the pullback
squares and the mu square from these premises and counts their instances;
elsewhere it enumerates them. It enumerates the eta square everywhere.
"""

import random
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import product
from operator import itemgetter

from .errors import FreenessError, StructuralError
from .fincat import (category, is_source_cover, is_target_cover,
                     validate_category)
from .finset import (canon_key, fibre_product, lifts_over, perms,
                     product_within, sort_labels)


@dataclass(frozen=True, slots=True, eq=False)
class MonadElem:
    """Canonical orbit representative [d; xs] at level n (j=0 objects, j=1 morphisms)."""

    j: int
    n: int
    d: object
    xs: tuple
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.j, self.n, self.d, self.xs)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not MonadElem:
            return NotImplemented
        return (self._hash == other._hash and self.j == other.j
                and self.n == other.n and self.d == other.d and self.xs == other.xs)

    def _canon_key(self):
        return (7, self.j, self.n, canon_key(self.d), canon_key(self.xs))

    def __repr__(self):
        inner = ",".join(repr(x) for x in self.xs)
        return f"D{self.j}[{self.d!r}; {inner}]"


def _require_free(op, what):
    if not op.is_free:
        raise FreenessError(f"{what} needs a sigma-free operad")


def _rank(op, j, n):
    """{x: position in level n}, whose elements category() stores in
    canon_key order."""
    ranks = op.ranks.get((j, n))
    if ranks is None:
        ranks = op.ranks[(j, n)] = {x: i for i, x in enumerate(op.elements(j, n))}
    return ranks


def _orbit(op, j, n, d):
    """({d.sigma: sigma}, least d.sigma, every sigma reaching it); for a free
    action each translate has exactly one sigma."""
    key = (j, n, d)
    hit = op.orbits.get(key)
    if hit is None:
        rank = _rank(op, j, n)
        pairs = [(op.act(j, n, s, d), s) for s in perms(n)]
        for t, s in pairs:
            if t not in rank:
                raise StructuralError(f"the action of {s.images} sends {d!r} "
                                      f"outside level {n}: {t!r}")
        translates = dict(pairs)
        least = min(translates, key=rank.__getitem__)
        hit = op.orbits[key] = (translates, least,
                                tuple(s for t, s in pairs if t == least))
    return hit


def align_sigma(op, j, n, d_from, d_to):
    """The unique sigma with d_from.sigma = d_to, or None; demands freeness."""
    _require_free(op, "orbit alignment")
    return _orbit(op, j, n, d_from)[0].get(d_to)


def canonicalize(op, j, n, d, xs):
    key = (j, d, xs)
    hit = op.elems.get(key)
    if hit is None:
        _, least, sigmas = _orbit(op, j, n, d)
        s = sigmas[0]
        # the least relabelling in canon_key order, keying each label once
        # (module docstring); a free orbit has one sigma and keys nothing
        if len(sigmas) > 1:
            keys = tuple(map(canon_key, xs))
            s = min(sigmas, key=lambda t: t.permuted(keys))
        hit = op.elems[key] = MonadElem(j, n, least, s.permuted(xs))
    return hit


def melem(op, j, d, xs):
    if j not in (0, 1):
        raise StructuralError(f"element level {j!r} is neither 0 (objects) nor 1 (morphisms)")
    xs = tuple(xs)
    n = len(xs)
    if d not in op.elements(j, n):
        raise StructuralError(f"{d!r} is not a level-{n} element")
    return canonicalize(op, j, n, d, xs)


def eta(op, j, x):
    d = op.unit if j == 0 else op.unit_mor
    return MonadElem(j, 1, d, (x,))


def mu_raw(op, j, k, d, inners):
    """One flattening step on an explicit representative; returns (n, d, xs).
    The composite depends on the operad data only, so it is read from
    op.composites, keyed by the shape (j, k, d, ((n_i, d_i), ...))."""
    shape = (j, k, d, tuple((e.n, e.d) for e in inners))
    composed = op.composites.get(shape)
    if composed is None:
        composed = op.composites[shape] = op.compose(*shape)
    xs = tuple(x for e in inners for x in e.xs)
    return sum(e.n for e in inners), composed, xs


def mu(op, e):
    for x in e.xs:
        if not isinstance(x, MonadElem) or x.j != e.j:
            raise StructuralError("mu expects labels that are elements of the same monad")
    n, d, xs = mu_raw(op, e.j, e.n, e.d, e.xs)
    return canonicalize(op, e.j, n, d, xs)


def map_elem(op, f, e):
    return canonicalize(op, e.j, e.n, e.d, tuple(map(f, e.xs)))


# ---------------------------------------------------------------------------
# the structure maps of DC = {D0 C, D1 C}, from C's maps on labels (None: C
# is discrete, each label its own identity)

def S_D(op, e, src=None):
    if e.j != 1:
        raise StructuralError("S_D expects a morphism-level element")
    xs = e.xs if src is None else tuple(map(src, e.xs))
    return canonicalize(op, 0, e.n, op.level(e.n).src[e.d], xs)


def T_D(op, e, tgt=None):
    if e.j != 1:
        raise StructuralError("T_D expects a morphism-level element")
    xs = e.xs if tgt is None else tuple(map(tgt, e.xs))
    return canonicalize(op, 0, e.n, op.level(e.n).tgt[e.d], xs)


def I_D(op, e, ident=None):
    if e.j != 0:
        raise StructuralError("I_D expects an object-level element")
    xs = e.xs if ident is None else tuple(map(ident, e.xs))
    return canonicalize(op, 1, e.n, op.level(e.n).ident[e.d], xs)


def _aligned_compose(op, E, E2, src=None, tgt=None, comp=None):
    """Compose [m; fs] after [m'; gs] in DC, given C's src, tgt and
    comp(a, b) on labels (None: a discrete carrier): realign the left factor
    so levels and labels match the right factor's target data, then compose
    both layers."""
    if E.j != 1 or E2.j != 1:
        raise StructuralError("composition expects morphism-level elements")
    if E.n != E2.n:
        raise StructuralError("composition arity mismatch")
    n = E.n
    L = op.level(n)
    tau = align_sigma(op, 0, n, L.src[E.d], L.tgt[E2.d])
    if tau is None:
        raise StructuralError("not composable: source and target orbits differ")
    m_hat = op.act(1, n, tau, E.d)
    labels = tau.permuted(E.xs)
    matched = labels == E2.xs if src is None else all(
        src(a) == tgt(b) for a, b in zip(labels, E2.xs))
    d = L.comp.get((m_hat, E2.d))  # None where the level's tables disagree
    if d is None or not matched:
        raise StructuralError("not composable: levels or labels do not match")
    xs = labels if comp is None else tuple(map(comp, labels, E2.xs))
    return canonicalize(op, 1, n, d, xs)


def gamma_D(op, E, E2):
    """Composition in the category {D0 X, D1 X} over a discrete carrier. The
    composite depends on the operad data only, so it is read from
    op.data_composites, keyed by (E, E2); a call that raises stores nothing."""
    key = (E, E2)
    hit = op.data_composites.get(key)
    if hit is None:
        hit = op.data_composites[key] = _aligned_compose(op, E, E2)
    return hit


def _least_translates(op, j, n):
    """The least member of every level-n orbit, sorted."""
    leasts = {_orbit(op, j, n, d)[1] for d in op.elements(j, n)}
    return tuple(sorted(leasts, key=_rank(op, j, n).__getitem__))


def _elements(op, j, labels, arities, weight=None, budget=None):
    """(element, weight sums) for every canonical element over labels, arity
    by arity: [d; xs] for d least in its orbit (sorted), xs in product order
    (with a weight, only those within budget: finset.product_within). That
    is canon_key order when labels are in it. Over a non-free operad
    canonicalize merges permuted tuples, whose weights agree, then each
    arity is sorted."""
    free = op.is_free
    for n in arities:
        rows = ([(xs, ()) for xs in product(labels, repeat=n)] if weight is None
                else product_within([labels] * n, weight, budget))
        leasts = _least_translates(op, j, n)
        if free:
            yield from ((MonadElem(j, n, d, xs), ws) for d in leasts for xs, ws in rows)
            continue
        merged = {canonicalize(op, j, n, d, xs): ws for d in leasts for xs, ws in rows}
        yield from sorted(merged.items(), key=lambda ew: canon_key(ew[0]))


def elements_of(op, j, labels, n):
    """All canonical elements of arity n over the given labels (_elements)."""
    return tuple(e for e, _ in _elements(op, j, tuple(labels), (n,)))


def all_elements(op, j, labels, bound):
    return tuple(e for e, _ in _elements(op, j, tuple(labels),
                                         range(min(bound, op.max_level) + 1)))


def elements_within(op, j, labels, bound, weight, budget):
    """all_elements(op, j, labels, bound) restricted to the elements whose
    label weights sum within budget (finset.product_within), in the same
    order."""
    return tuple(e for e, _ in _elements(op, j, tuple(labels),
                                         range(min(bound, op.max_level) + 1),
                                         weight, budget))


def nested_elements(op, j, labels, layers, budget):
    """Iterated elements with every flattening stage of arity <= budget.

    Returns (elem, weights) pairs where weights[t] is the arity of the t-th
    flattening (weights[0] = top arity, last = leaf count). Layer 1 is
    all_elements; every layer above it is in canon_key order, built over
    the sorted layer below (_elements). Each call builds every layer anew.
    """
    cap = min(budget, op.max_level)
    if layers == 1:
        return tuple((e, (e.n,)) for e in all_elements(op, j, tuple(labels), cap))
    inner = dict(nested_elements(op, j, labels, layers - 1, budget))
    # layers >= 2 come out sorted; the label layer may not
    ordered = sort_labels(inner) if layers == 2 else tuple(inner)
    # the empty product has no weights
    return tuple((e, (e.n,) + (ws or (0,) * (layers - 1))) for e, ws in
                 _elements(op, j, ordered, range(cap + 1), inner.__getitem__, cap))


def monad_set_category(op, labels, bound):
    """The category {D0 X, D1 X} over a plain label set: DX for the discrete
    category whose morphisms are the labels themselves."""
    labels = sort_labels(labels)
    return _monad_tables(op, labels, labels, bound)


def monad_category(op, C, bound):
    """The category DC truncated at the given arity bound, as explicit tables;
    a pair whose composite a level lacks is left out of the composition."""
    return _monad_tables(op, C.objects, C.morphisms, bound, C.src.__getitem__,
                         C.tgt.__getitem__, C.ident.__getitem__,
                         lambda a, b: C.comp[(a, b)])


def _monad_tables(op, objects, morphisms, bound, src=None, tgt=None,
                  ident=None, comp=None):
    _require_free(op, "composition in DC")
    objs = all_elements(op, 0, objects, bound)
    mors = all_elements(op, 1, morphisms, bound)
    S = {E: S_D(op, E, src) for E in mors}
    T = {E: T_D(op, E, tgt) for E in mors}
    composites = {}
    for E, E2 in fibre_product(mors, S.__getitem__, mors, T.__getitem__):
        try:
            composites[(E, E2)] = _aligned_compose(op, E, E2, src, tgt, comp)
        except StructuralError:
            pass  # validate_category reports the pair as missing
    return category(objs, mors, S, T, {X: I_D(op, X, ident) for X in objs},
                    composites)


# ---------------------------------------------------------------------------
# chi (the interchange device over a declared source map)

def chi(op, sigma, phis, src_of, tgt_of):
    """Unique interchange lift: given sigma in D1 M0 and phis in D0 M1 with
    S_D(sigma) = D0 T(phis), produce (T_D of the lift, the lift flattened
    over the sources of phis)."""
    _require_free(op, "interchange lifting")
    if sigma.j != 1 or phis.j != 0:
        raise StructuralError("chi expects (morphism-level, object-level) arguments")
    if S_D(op, sigma) != map_elem(op, tgt_of, phis):
        raise StructuralError("chi precondition fails: S_D(sigma) != D0 T(phis)")
    n, L = sigma.n, op.level(sigma.n)
    s = align_sigma(op, 0, n, L.src[sigma.d], phis.d)
    if s is None or s.permuted(sigma.xs) != tuple(tgt_of(g) for g in phis.xs):
        raise StructuralError("interchange lifting failed: corrupted data")
    lifted = op.act(1, n, s, sigma.d)
    inners = tuple(I_D(op, src_of(g)) for g in phis.xs)
    return (canonicalize(op, 0, n, L.tgt[lifted], phis.xs),
            canonicalize(op, 1, *mu_raw(op, 1, n, lifted, inners)))


# ---------------------------------------------------------------------------
# law suites

def validate_monad_laws(op, j, labels, bound):
    """Unit and associativity laws of the monad, exhaustively within bounds."""
    failures = []
    for e in all_elements(op, j, labels, bound):
        one = canonicalize(op, j, 1, eta(op, j, "?").d, (e,))
        if mu(op, one) != e:
            failures.append(("mu . eta fails", e))
        if mu(op, map_elem(op, lambda x: eta(op, j, x), e)) != e:
            failures.append(("mu . D eta fails", e))
    for e3, _ in nested_elements(op, j, labels, 3, bound):
        lhs = mu(op, mu(op, e3))
        rhs = mu(op, map_elem(op, lambda e: mu(op, e), e3))
        if lhs != rhs:
            failures.append(("mu associativity fails", e3))
    return {"ok": not failures, "failures": failures}


def validate_monad_category(op, labels, bound):
    """{D0 X, D1 X} is a category (fincat.validate_category), I_D extends
    eta, and mu commutes with S_D, T_D, I_D and composition."""
    failures = [("DX: " + fail[0],) + tuple(fail[1:]) for fail in
                validate_category(monad_set_category(op, labels, bound))["failures"]]
    if failures:  # the laws below rest on DX being a category
        return {"ok": False, "failures": failures}
    for x in labels:
        if I_D(op, eta(op, 0, x)) != eta(op, 1, x):
            failures.append(("I_D does not match eta on morphisms", x))
    # on a nested element the structure maps of DX act on the labels
    src, tgt, ident = partial(S_D, op), partial(T_D, op), partial(I_D, op)
    nested2 = [e for e, _ in nested_elements(op, 1, labels, 2, bound)]
    for E2 in nested2:
        if S_D(op, mu(op, E2)) != mu(op, S_D(op, E2, src)):
            failures.append(("mu breaks S_D", E2))
        if T_D(op, mu(op, E2)) != mu(op, T_D(op, E2, tgt)):
            failures.append(("mu breaks T_D", E2))
    for X2, _ in nested_elements(op, 0, labels, 2, bound):
        if I_D(op, mu(op, X2)) != mu(op, I_D(op, X2, ident)):
            failures.append(("mu breaks I_D", X2))
    if failures:  # the law below composes flattened pairs, so rests on these
        return {"ok": False, "failures": failures}
    # mu is functorial: flattening a composite of nested morphisms, over
    # the pairs whose endpoints meet
    for E, E2 in fibre_product(nested2, lambda E: S_D(op, E, src),
                               nested2, lambda E2: T_D(op, E2, tgt)):
        comp = _aligned_compose(op, E, E2, src, tgt, partial(gamma_D, op))
        if mu(op, comp) != gamma_D(op, mu(op, E), mu(op, E2)):
            failures.append(("mu breaks gamma_D", (E, E2)))
    return {"ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# cartesianness

def _random_sets(rng):
    sizes = [rng.randint(1, 5) for _ in range(3)]
    A = tuple(f"a{i}" for i in range(sizes[0]))
    B = tuple(f"b{i}" for i in range(sizes[1]))
    Z = tuple(f"z{i}" for i in range(sizes[2]))
    f = {a: rng.choice(Z) for a in A}
    g = {b: rng.choice(Z) for b in B}
    return A, B, Z, f, g


def _polynomial(op, j, cap):
    """{n_s: the number of shapes with n_s leaves} where D_j is polynomial
    on levels 0..cap, else None. The premises, read off the orbit table and
    op.compose (once per shape; no table is kept): every least
    representative d is its own canonical form, reached by the identity
    alone (so the action is free on those levels), and every shape's
    composite has one sigma in its orbit entry."""
    leasts = [_least_translates(op, j, n) for n in range(cap + 1)]
    for n, ds in enumerate(leasts):
        for d in ds:
            _, least, sigmas = _orbit(op, j, n, d)
            if least != d or [s.is_identity for s in sigmas] != [True]:
                return None
    inner = [(n, d) for n, ds in enumerate(leasts) for d in ds]
    counts = {}
    for k, ds in enumerate(leasts):
        for shape, sums in product_within([inner] * k, lambda s: (s[0],), cap):
            n = sum(sums)
            for d in ds:
                if len(_orbit(op, j, n, op.compose(j, k, d, shape))[2]) != 1:
                    return None
                counts[n] = counts.get(n, 0) + 1
    return counts


def check_cartesian(op, j, seed=0, squares=100, bound=3):
    """Sampled pullback preservation plus fiberwise eta/mu naturality squares.

    Elements are named canonically, as map_elem names them. D X and the
    nested elements per label tuple, their flattenings and D f per
    naturality map are functools.cache locals of the call.

    Where D is polynomial (_polynomial), the pullback and mu squares lift
    uniquely by its premises, so they are counted and nothing over a square
    is built. By the first premise every canonical element is [d; xs] with
    d least, and D f[d; xs] = [d; f(xs)]. So a pair ([d; xs], [d'; ys]) with
    D f[d; xs] = D g[d'; ys] has d = d' and f(x_i) = g(y_i), and its only
    lift is [d; ((x_i, y_i))_i], over P: each square passes. By the second, mu
    sends a nested element of shape s to [d_s; sigma_s(leaves)], so a pair
    (u, w) with D f(u) = mu(w) has one lift, w's shape with leaves
    sigma_s^-1(u's labels), and the u over the w of shape s number
    |A|^n_s: each map adds sum_s |A|^n_s mu instances and no failure. The
    eta square is enumerated over every operad; its 13 maps are small.

    Elsewhere every section enumerates: D P keyed by the images of its
    projections (where they are not jointly injective, a pair has an
    ambiguous lift), and the nested elements by mu and D D f."""
    cap = min(bound, op.max_level)
    shapes = _polynomial(op, j, cap)
    rng = random.Random(seed)
    report = {"operad": op.name, "j": j, "seed": seed, "ok": True,
              "squares": {"checked": 0, "failures": []},
              "eta_naturality": {"checked": 0, "failures": []},
              "mu_naturality": {"checked": 0, "failures": []}}

    @cache
    def DX(labels):
        # _elements' free path builds [d; xs] for d least, which need not be
        # canonical; its other path has canonicalized, and canonicalize is
        # not idempotent there
        elements = all_elements(op, j, labels, cap)
        if not op.is_free:
            return elements
        return tuple(canonicalize(op, j, e.n, e.d, e.xs) for e in elements)

    nested = cache(lambda labels: tuple(
        v for v, _ in nested_elements(op, j, labels, 2, cap)))
    flat = cache(partial(mu, op))

    done = 0
    while done < squares:
        A, B, Z, f, g = _random_sets(rng)
        P = tuple(fibre_product(A, f.__getitem__, B, g.__getitem__))
        if len(P) > 10:
            continue  # keep the enumeration tractable; seeded, so still deterministic
        report["squares"]["checked"] += 1
        done += 1
        if shapes is not None:  # every pair lifts uniquely
            continue
        # D of the pullback square P is again a pullback: unique joint lifts
        first = partial(map_elem, op, itemgetter(0))
        second = partial(map_elem, op, itemgetter(1))
        Df, Dg = (partial(map_elem, op, h.__getitem__) for h in (f, g))
        fails = [("missing lift" if not ws else "ambiguous lift", (u, v))
                 for u, v, ws in lifts_over(all_elements(op, j, P, cap),
                                            lambda w: (first(w), second(w)),
                                            DX(A), Df, DX(B), Dg)
                 if len(ws) != 1]
        if fails:
            report["squares"]["failures"].append(
                {"sets": (A, B, Z), "maps": (f, g), "witnesses": fails[:3]})

    # one fixed collapse plus seeded random functions
    functions = [(("x", "y"), ("z",), {"x": "z", "y": "z"})]
    for _ in range(12):
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        A = tuple(f"x{i}" for i in range(na))
        B = tuple(f"z{i}" for i in range(nb))
        functions.append((A, B, {a: rng.choice(B) for a in A}))

    for A, B, fmap in functions:
        Df = cache(partial(map_elem, op, fmap.__getitem__))
        DA = DX(A)
        # eta square: pairs (x in D A, b in B) with D f(x) = eta(b) lift uniquely to A
        for x, b, hits in lifts_over(A, lambda a: (eta(op, j, a), fmap[a]),
                                     DA, Df, B, partial(eta, op, j)):
            report["eta_naturality"]["checked"] += 1
            if len(hits) != 1:
                report["eta_naturality"]["failures"].append(
                    {"map": fmap, "pair": (x, b), "lifts": len(hits)})
        if shapes is not None:  # decided per shape: every pair lifts uniquely
            report["mu_naturality"]["checked"] += sum(
                c * len(A) ** m for m, c in shapes.items())
            continue
        # mu square: pairs (u in D A, w in D D B) with D f(u) = mu(w)
        DDf = partial(map_elem, op, Df)
        for u, w, hits in lifts_over(nested(A), lambda v: (flat(v), DDf(v)),
                                     DA, Df, nested(B), flat):
            report["mu_naturality"]["checked"] += 1
            if len(hits) != 1:
                report["mu_naturality"]["failures"].append(
                    {"map": fmap, "pair": (u, w), "lifts": [repr(v) for v in hits]})

    report["ok"] = not (report["squares"]["failures"] or
                        report["eta_naturality"]["failures"] or
                        report["mu_naturality"]["failures"])
    return report


# ---------------------------------------------------------------------------
# cover preservation

def check_preserves_cover(op, F, bound):
    """Unique lifting for D F through targets (and sources, when F is one)."""
    _require_free(op, "cover preservation checks")
    report = {"ok": True, "target": {"checked": 0, "failures": []},
              "source": {"checked": 0, "failures": []}}
    C, D = F.dom, F.cod
    directions = []
    if is_target_cover(F)[0]:
        directions.append(("target", T_D, C.tgt, D.tgt))
    if is_source_cover(F)[0]:
        directions.append(("source", S_D, C.src, D.src))
    if not directions:
        raise StructuralError("functor is neither a source nor a target cover")
    DF0 = lambda X: map_elem(op, F.obj_map.__getitem__, X)
    DF1 = lambda E: map_elem(op, F.mor_map.__getitem__, E)
    for name, end, c_end, d_end in directions:
        sec = report[name]
        for n in range(min(bound, op.max_level) + 1):
            # D F is a cover when each (X, E2) with end(E2) = D F(X) has
            # exactly one E over it: end(E) = X and D F(E) = E2
            for X, E2, lifts in lifts_over(
                    elements_of(op, 1, C.morphisms, n),
                    lambda E: (end(op, E, c_end.__getitem__), DF1(E)),
                    elements_of(op, 0, C.objects, n), DF0,
                    elements_of(op, 1, D.morphisms, n),
                    lambda E2: end(op, E2, d_end.__getitem__)):
                sec["checked"] += 1
                if len(lifts) != 1:
                    sec["failures"].append({"object": repr(X), "over": repr(E2),
                                            "lifts": len(lifts)})
    report["ok"] = not (report["target"]["failures"] or report["source"]["failures"])
    return report
