"""Finite sets, functions, permutations, and group actions.

Everything downstream leans on five things defined here: a total canonical
order on labels (`canon_key`), block permutations/sums, the fibre product
(`fibres`, `fibre_product`) behind every "which of these lie over the same
point" question, the lift count over it (`lifts_over`) behind every
unique-lifting check, and the weight-bounded product (`product_within`)
behind every "enumerate, then drop" loop.

Labels are the same exactly when they are `==`, as in every dict and set, so
`1` and `True` are one label; `canon_key` only orders them.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _itperms
from operator import add

from .errors import FreenessError, StructuralError


def canon_key(x):
    """Total order key across the label types in use: None, bools, ints, strs,
    tuples or lists of labels, monad elements and provisional morphisms."""
    if x is None:
        return (0,)
    if isinstance(x, bool):
        return (1, int(x))
    if isinstance(x, int):
        return (2, x)
    if isinstance(x, str):
        return (3, x)
    if isinstance(x, (tuple, list)):
        return (4, len(x), tuple(canon_key(v) for v in x))
    ck = getattr(x, "_canon_key", None)
    if ck is not None:
        return ck()
    raise TypeError(f"no canonical order for {type(x).__name__}")


def sort_labels(xs):
    return tuple(sorted(xs, key=canon_key))


def fibres(xs, key):
    """Group xs by key: {key(x): [x, ...]}, each group in the order of xs."""
    out = {}
    for x in xs:
        out.setdefault(key(x), []).append(x)
    return out


def fibre_product(A, f, B, g):
    """The pairs (a, b) with f(a) == g(b), in the order of the nested loop
    over A then B. f runs once per a and g once per b; lazy in A."""
    over = fibres(B, g)
    for a in A:
        for b in over.get(f(a), ()):
            yield a, b


def lifts_over(xs, key, A, f, B, g):
    """(a, b, [the x in xs with key(x) == (a, b)]) for each pair (a, b) of
    fibre_product(A, f, B, g), in its order; xs is indexed first. The loop
    is fibre_product's, inline. A nested generator would cost under 1% of a
    warm check_cartesian(COMM(4), 0), the builtin check that reads the most
    pairs (3 836 in 57 ms, 2 cores, Python 3.11)."""
    over, under = fibres(xs, key), fibres(B, g)
    for a in A:
        for b in under.get(f(a), ()):
            yield a, b, over.get((a, b), [])


def product_within(slots, weight, budget):
    """The (xs, sums) for the xs in itertools.product(*slots) whose weight
    tuples, summed componentwise, are all at most budget, in product order.
    Weights are non-negative, so a prefix over budget is dropped as it is
    built; weight runs once per slot entry, and the entries that fit after
    a prefix are found once per distinct prefix sum. The empty product has
    no weights: it is ((), ())."""
    rows = [((), ())]
    for slot in slots:
        weighed = [(x, weight(x)) for x in slot]
        fits, out = {}, []  # fits: prefix sums -> [(x, sums with x) within budget]
        for xs, acc in rows:
            fit = fits.get(acc)
            if fit is None:
                fit = fits[acc] = [(x, sums) for x, w in weighed if max(
                    sums := tuple(map(add, acc, w)) if acc else w) <= budget]
            out += [(xs + (x,), sums) for x, sums in fit]
        rows = out
    return rows


# ---------------------------------------------------------------------------
# permutations

@dataclass(frozen=True, order=False)
class Perm:
    """Permutation of {1..n}, stored as the tuple of images (images[i-1] = sigma(i+0))."""

    images: tuple

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise StructuralError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    def compose(self, other):
        """self after other: (self*other)(i) = self(other(i))."""
        return Perm(tuple(self.images[j - 1] for j in other.images))

    def inverse(self):
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Perm(tuple(inv))

    @property
    def is_identity(self):
        return all(j == i + 1 for i, j in enumerate(self.images))

    def permuted(self, xs):
        """Tuple whose i-th entry is xs[sigma(i)-1]; this is the inverse-placement action."""
        return tuple(xs[j - 1] for j in self.images)

    def __repr__(self):
        return f"Perm{self.images}"


def identity_perm(n):
    return Perm(tuple(range(1, n + 1)))


# Module-global on purpose: small, hot permutation arithmetic (see catoperad._mul).
@lru_cache(maxsize=None)
def perms(n):
    """All of Sym(n) in lexicographic image order."""
    return tuple(Perm(p) for p in _itperms(range(1, n + 1)))


def block_perm(sigma, sizes):
    """Permute consecutive blocks of the given sizes by sigma (block i lands at slot sigma(i))."""
    if sigma.n != len(sizes):
        raise StructuralError("block_perm: arity mismatch")
    inv = sigma.inverse()
    off_src, acc = [], 0
    for s in sizes:
        off_src.append(acc)
        acc += s
    off_tgt, acc = [], 0
    for m in range(1, len(sizes) + 1):
        off_tgt.append(acc)
        acc += sizes[inv(m) - 1]
    images = [0] * acc
    for i, s in enumerate(sizes, start=1):
        base = off_tgt[sigma(i) - 1]
        for r in range(s):
            images[off_src[i - 1] + r] = base + r + 1
    return Perm(tuple(images))


def block_sum(parts):
    """Disjoint union of permutations acting on consecutive blocks."""
    images, off = [], 0
    for p in parts:
        images.extend(off + j for j in p.images)
        off += p.n
    return Perm(tuple(images))


# ---------------------------------------------------------------------------
# finite sets and functions

@dataclass(frozen=True)
class FinSet:
    """Finite set of labels kept in canonical sorted order; no two are ==."""

    elems: tuple

    def __post_init__(self):
        if len(set(self.elems)) != len(self.elems):
            raise StructuralError("duplicate labels in FinSet")

    def __contains__(self, x):
        return x in self.elems

    def __iter__(self):
        return iter(self.elems)

    def __len__(self):
        return len(self.elems)


def finset(xs):
    return FinSet(sort_labels(xs))


@dataclass
class FinFn:
    """Function between finite sets given by an explicit table."""

    src: FinSet
    tgt: FinSet
    table: dict

    def __post_init__(self):
        for x in self.src:
            if x not in self.table:
                raise StructuralError(f"FinFn missing value at {x!r}")
            if self.table[x] not in self.tgt:
                raise StructuralError(f"FinFn value {self.table[x]!r} outside codomain")

    def __call__(self, x):
        return self.table[x]


def fn(src, tgt, mapping):
    return FinFn(src, tgt, {x: mapping(x) for x in src})


def pullback(f, g):
    """Pullback of the cospan f: A -> Z <- B :g, with literal-pair labels."""
    if f.tgt != g.tgt:
        raise StructuralError("pullback: cospan codomains differ")
    P = finset(fibre_product(f.src, f, g.src, g))
    p1 = fn(P, f.src, lambda w: w[0])
    p2 = fn(P, g.src, lambda w: w[1])
    return P, p1, p2


class UnionFind:
    """Disjoint sets over hashable items, given in canonical order. Each root
    is the first item of its class in that order, so `classes` lists every
    class in that order, and the classes in the order of their roots."""

    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.position = {x: i for i, x in enumerate(self.parent)}

    def find(self, x):
        # one lookup takes x, which may be an equal copy, to a stored item;
        # from there every parent is a stored item, compared by identity
        r = p = self.parent[x]
        while (q := self.parent[r]) is not r:
            r = q
        if p is not r:
            self.parent[x] = r
            while (q := self.parent[p]) is not r:
                self.parent[p], p = r, q
        return r

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return False
        if self.position[rb] < self.position[ra]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True

    def classes(self):
        return {r: tuple(v) for r, v in fibres(self.parent, self.find).items()}


def is_pullback(P, p1, p2, f, g):
    """Exhaustive universal-property check; returns (ok, witness). Once the
    square commutes, two w with the same projections are a lift not unique."""
    for w in P:
        if f(p1(w)) != g(p2(w)):
            return False, ("square does not commute", w)
    for a, b, ws in lifts_over(P, lambda w: (p1(w), p2(w)), f.src, f, g.src, g):
        if len(ws) != 1:
            return False, ("lift not unique" if ws else "lift missing", (a, b))
    return True, None


# ---------------------------------------------------------------------------
# group actions

@dataclass
class GroupAction:
    """Left action of a finite permutation group on a finite label set.

    Law checked on construction: act(s*t, x) = act(s, act(t, x)); eager
    freeness check when `free` is set.
    """

    group: tuple
    carrier: tuple
    table: dict
    free: bool = False

    def __post_init__(self):
        rep = self.validate()
        if not rep["ok"]:
            raise StructuralError(f"invalid group action: {rep['failures'][0]}")
        if self.free:
            w = self.freeness_witness()
            if w is not None:
                raise FreenessError(f"action not free: {w[0]!r} fixes {w[1]!r}", witness=w)

    def act(self, s, x):
        return self.table[(s, x)]

    def validate(self):
        failures = []
        gset = set(self.group)
        ident = identity_perm(self.group[0].n) if self.group else None
        if ident not in gset:
            failures.append("identity missing from group")
        for s in self.group:
            for t in self.group:
                if s.compose(t) not in gset:
                    failures.append(f"group not closed under {s}, {t}")
                    break
        carrier = set(self.carrier)
        failures += [f"{s} sends {x!r} to no point of the carrier"
                     for s in self.group for x in self.carrier
                     if (s, x) not in self.table or self.table[(s, x)] not in carrier]
        if failures:  # the laws below read the table at every product and image
            return {"ok": False, "failures": failures}
        for x in self.carrier:
            if self.act(ident, x) != x:
                failures.append(f"identity moves {x!r}")
        for s in self.group:
            for t in self.group:
                st = s.compose(t)
                for x in self.carrier:
                    if self.act(st, x) != self.act(s, self.act(t, x)):
                        failures.append(f"action law fails at ({s}, {t}, {x!r})")
                        break
        for s in self.group:
            if len({self.act(s, x) for x in self.carrier}) != len(self.carrier):
                failures.append(f"{s} does not act bijectively")
        return {"ok": not failures, "failures": failures}

    def freeness_witness(self):
        """A pair (sigma, x) with sigma != id and sigma.x = x, or None."""
        for s in self.group:
            if s.is_identity:
                continue
            for x in self.carrier:
                if self.act(s, x) == x:
                    return (s, x)
        return None


def _orbit_labels(group, carrier, act):
    """{x: the least member of x's orbit}, building each orbit once."""
    label = {}
    for x in carrier:
        if x not in label:
            orbit = {act(s, x) for s in group}
            label.update(dict.fromkeys(orbit, min(orbit, key=canon_key)))
    return label


def orbit_quotient(action):
    """Quotient set of an action with min-member labels, plus the projection."""
    label = _orbit_labels(action.group, action.carrier, action.act)
    Q = finset(set(label.values()))
    return Q, fn(finset(action.carrier), Q, label.__getitem__)


def is_equivariant(f, act_a, act_b):
    for s in act_a.group:
        for x in act_a.carrier:
            if f(act_a.act(s, x)) != act_b.act(s, f(x)):
                return False
    return True


def orbit_pullback_report(f, g, act_a, act_b, act_z):
    """Compare orbits(pullback) against pullback(orbits) for an equivariant
    cospan: the comparison map [(a, b)] -> ([a], [b]) must be a bijection.
    It is onto for every equivariant f and g, so only injectivity is checked."""
    if not (is_equivariant(f, act_a, act_z) and is_equivariant(g, act_b, act_z)):
        return {"ok": False, "failures": ["cospan not equivariant"]}
    P, _, _ = pullback(f, g)
    diagonal = lambda s, w: (act_a.act(s, w[0]), act_b.act(s, w[1]))
    QP = sort_labels(set(_orbit_labels(act_a.group, P, diagonal).values()))
    QA, qa = orbit_quotient(act_a)
    QB, qb = orbit_quotient(act_b)
    _, qz = orbit_quotient(act_z)
    failures = [("comparison map not injective", ws)
                for _, _, ws in lifts_over(QP, lambda w: (qa(w[0]), qb(w[1])),
                                           QA, lambda a: qz(f(a)), QB, lambda b: qz(g(b)))
                if len(ws) > 1]
    return {"ok": not failures, "failures": failures}
