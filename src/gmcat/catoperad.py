"""Truncated operads of finite categories with per-level symmetric actions.

Composition is a procedure, not a table: builtins have closed forms and
tabulated user operads wrap dict lookups. Levels are plain FinCategory
values; the level-n action is by right translation and is expected (but
not assumed) to be free.

Law validation enumerates composable families by *total arity*: the total
arity of a family is the sum of the arities of every operad element
appearing in it (the outer element plus all inner elements, across all
layers). validate_operad checks unit laws on every element of every level,
and associativity, functoriality, and both equivariance laws on all
families of total arity up to the bound (default: the truncation level).
"""

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import product

from .errors import BoundExceeded, StructuralError
from .finset import (Perm, block_perm, block_sum, fibre_product, fibres, perms,
                     product_within)
from .fincat import category, validate_category


# Module-global on purpose: small and hot (structure_laws ran 35% slower without).
@lru_cache(maxsize=None)
def _mul(a, b):
    """Image tuple of the composite a after b."""
    return tuple(a[j - 1] for j in b)


@lru_cache(maxsize=None)
def _block_perm_images(a, sizes):
    return block_perm(Perm(a), sizes).images


@lru_cache(maxsize=None)
def _block_sum_images(parts):
    return block_sum([Perm(p) for p in parts]).images


@dataclass
class CatOperad:
    name: str
    max_level: int
    levels: tuple  # FinCategory per arity 0..max_level
    unit: object   # object of level 1
    _act: object   # (j, n, sigma, x) -> x . sigma  (right action; j=0 objects, j=1 morphisms)
    _compose: object  # (j, k, x, inners) -> element of level sum(n_i); inners = ((n_i, x_i), ...)
    # memos of the monad layer, described in the opmonad docstring
    elems: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    orbits: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    ranks: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    composites: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    data_composites: dict = field(default_factory=dict, init=False, compare=False,
                                  repr=False)

    def level(self, n):
        if not 0 <= n <= self.max_level:
            raise BoundExceeded(f"level {n} outside truncation {self.max_level}")
        return self.levels[n]

    def elements(self, j, n):
        L = self.level(n)
        return L.objects if j == 0 else L.morphisms

    def act(self, j, n, sigma, x):
        if sigma.n != n:
            raise StructuralError(f"action arity mismatch at level {n}")
        return self._act(j, n, sigma, x)

    def compose(self, j, k, x, inners):
        if len(inners) != k:
            raise StructuralError(f"composition expects {k} inner elements")
        total = sum(n for n, _ in inners)
        if total > self.max_level:
            raise BoundExceeded(
                f"composite arity {total} exceeds truncation {self.max_level}")
        return self._compose(j, k, x, tuple(inners))

    @property
    def unit_mor(self):
        return self.levels[1].ident[self.unit]

    def id_mor(self, n, d):
        return self.levels[n].ident[d]

    @cached_property
    def is_free(self):
        return freeness_report(self)["ok"]


# ---------------------------------------------------------------------------
# builtins

def _chaotic_level(n):
    objs = [p.images for p in perms(n)]
    mors = [(a, b) for a in objs for b in objs]
    return category(objs, mors, {m: m[0] for m in mors}, {m: m[1] for m in mors},
                    {o: (o, o) for o in objs},
                    {((b, c), (a, b)): (a, c) for (b, c), (a, _) in
                     fibre_product(mors, lambda m: m[0], mors, lambda m: m[1])})


def _discrete_level(n):
    objs = [p.images for p in perms(n)]
    return category(objs, objs, {o: o for o in objs}, {o: o for o in objs},
                    {o: o for o in objs}, {(o, o): o for o in objs})


def _terminal_level():
    return category(("*",), ("id",), {"id": "*"}, {"id": "*"}, {"*": "id"},
                    {("id", "id"): "id"})


def _perm_compose_obj(a_images, inners):
    sizes = tuple(n for n, _ in inners)
    return _mul(_block_perm_images(a_images, sizes),
                _block_sum_images(tuple(x for _, x in inners)))


def barratt_eccles(N):
    """Translation groupoids of the symmetric groups, one per arity."""

    def act(j, n, sigma, x):
        if j == 0:
            return _mul(x, sigma.images)
        return (_mul(x[0], sigma.images), _mul(x[1], sigma.images))

    def compose(j, k, x, inners):
        if j == 0:
            return _perm_compose_obj(x, inners)
        src = _perm_compose_obj(x[0], tuple((n, y[0]) for n, y in inners))
        tgt = _perm_compose_obj(x[1], tuple((n, y[1]) for n, y in inners))
        return (src, tgt)

    return CatOperad("barratt_eccles", N, tuple(_chaotic_level(n) for n in range(N + 1)),
                     (1,), act, compose)


def associativity_operad(N):
    """Discrete symmetric groups: the operad for monoids with permuted inputs."""

    def act(j, n, sigma, x):
        return _mul(x, sigma.images)

    def compose(j, k, x, inners):
        return _perm_compose_obj(x, inners)

    return CatOperad("associativity", N, tuple(_discrete_level(n) for n in range(N + 1)),
                     (1,), act, compose)


def commutative_operad(N):
    """Terminal levels; satisfies the operad laws but is not sigma-free (negative control)."""

    def act(j, n, sigma, x):
        return x

    def compose(j, k, x, inners):
        return "*" if j == 0 else "id"

    return CatOperad("commutative", N, tuple(_terminal_level() for _ in range(N + 1)),
                     "*", act, compose)


BUILTIN_OPERADS = {
    "barratt_eccles": barratt_eccles,
    "associativity": associativity_operad,
    "commutative": commutative_operad,
}


def tabulated_operad(name, max_level, levels, unit, act_table, comp_table):
    """Wrap explicit lookup tables; they must cover every call within the
    truncation (operad_tables produces exactly that coverage)."""

    def act(j, n, sigma, x):
        key = (j, n, sigma.images, x)
        if key not in act_table:
            raise StructuralError(f"action table missing {key!r}")
        return act_table[key]

    def compose(j, k, x, inners):
        key = (j, k, x, inners)
        if key not in comp_table:
            raise StructuralError(f"composition table missing {key!r}")
        return comp_table[key]

    return CatOperad(name, max_level, tuple(levels), unit, act, compose)


def operad_tables(op):
    """Explicit action and composition tables over the whole truncation."""
    act_table = {(j, n, s.images, x): op.act(j, n, s, x)
                 for n in range(op.max_level + 1) for j in (0, 1)
                 for s in perms(n) for x in op.elements(j, n)}
    comp_table = {}
    for j in (0, 1):
        for x in op.elements(j, 0):
            comp_table[(j, 0, x, ())] = op.compose(j, 0, x, ())
        # every family of arity k >= 1 whose inner arities sum within the truncation
        for k, x, inners in composable_families(op, j, 2 * op.max_level):
            comp_table[(j, k, x, inners)] = op.compose(j, k, x, inners)
    return act_table, comp_table


# ---------------------------------------------------------------------------
# validation

def composable_families(op, j, total_arity):
    """(k, a, inners) with k + sum(inner arities) <= total_arity."""
    for k in range(1, min(op.max_level, total_arity) + 1):
        for profile, _ in product_within([range(op.max_level + 1)] * k, lambda m: (m,),
                                         min(total_arity - k, op.max_level)):
            pools = [tuple((n, x) for x in op.elements(j, n)) for n in profile]
            for a in op.elements(j, k):
                for inners in product(*pools):
                    yield k, a, inners


def is_sigma_free(op):
    return op.is_free


def freeness_report(op):
    """Freeness of every level action on objects and morphisms, with witnesses."""
    witnesses = []
    for n in range(op.max_level + 1):
        for j in (0, 1):
            for s in perms(n):
                if s.is_identity:
                    continue
                hit = next((x for x in op.elements(j, n) if op.act(j, n, s, x) == x), None)
                if hit is not None:
                    witnesses.append({"level": n, "j": j,
                                      "sigma": s.images, "fixed_point": hit})
                    break
    return {"ok": not witnesses, "witnesses": witnesses}


def validate_operad(op, total_arity=None):
    """Category, action, unit, associativity, functoriality, and equivariance checks.

    Families are enumerated up to the given total arity (default: the
    truncation level), total arity being the sum over every element in the
    family as described in the module docstring. Unit laws run over every
    element of every level regardless.

    Each call wraps op.act and op.compose in a functools.cache of its own,
    keyed by the exact arguments (a permutation by its images), and reads the
    group law from one row of morphism images per permutation; none outlives
    the call, like the memos of opmonad.check_cartesian. A call that raises
    is not cached, so failures, witnesses and their order are those of
    evaluating every instance in turn.

    Before the laws, every family they read (`_law_families`) is composed
    once, and a composite outside its level is a failure with the family as
    the witness: the laws would feed it back into op.compose. An action or
    composition entry the operad lacks (a StructuralError from a tabulated
    operad) is a failure of the same pass, "entry missing", with the same
    witness. Any other error the operad raises comes from the first family
    of that pass whose composite raises.
    """
    bound = op.max_level if total_arity is None else total_arity
    failures = []
    counts = {"families": 0, "e1": 0, "e2": 0, "assoc": 0, "functor": 0}
    act = cache(lambda j, n, images, x: op.act(j, n, Perm(images), x))
    compose = cache(op.compose)

    for n in range(op.max_level + 1):
        rep = validate_category(op.level(n))
        if not rep["ok"]:
            failures.append(("level not a category", (n, rep["failures"][0])))
    level = {(j, n): set(op.elements(j, n))
             for n in range(op.max_level + 1) for j in (0, 1)}

    def misses(call, args, allowed):
        """Why call(*args) is not an element of allowed, or None."""
        try:
            value = call(*args)
        except StructuralError:  # a tabulated operad without the entry
            return "entry missing"
        return None if value in allowed else "value outside the level"

    if not failures:  # the group law reads these tables at each action value
        for n in range(op.max_level + 1):
            for j in (0, 1):
                failures += [(f"action {why}", (n, j, s.images, x))
                             for s in perms(n) for x in op.elements(j, n)
                             if (why := misses(act, (j, n, s.images, x), level[j, n]))]
    if not failures:  # the laws feed composites back in as arguments
        for j in (0, 1):
            for k, a, inners in dict.fromkeys(_law_families(op, j, bound)):
                total = sum(n for n, _ in inners)
                if why := misses(compose, (j, k, a, inners), level[j, total]):
                    failures.append((f"composition {why}", (j, k, a, inners)))
    if failures:
        return {"ok": False, "failures": failures, "checked": counts,
                "total_arity": bound}

    # actions act by automorphism functors and satisfy the group law
    for n in range(op.max_level + 1):
        L = op.level(n)
        sym = [p.images for p in perms(n)]
        rows = {}  # s -> [f.s for f in L.morphisms]
        for s in sym:
            for o in L.objects:
                i_img = act(1, n, s, L.ident[o])
                if i_img != L.ident.get(act(0, n, s, o)):
                    failures.append(("action breaks identities", (n, s, o)))
            row = rows[s] = []
            for f in L.morphisms:
                sf = act(1, n, s, f)
                row.append(sf)
                if L.src.get(sf) != act(0, n, s, L.src[f]) or \
                   L.tgt.get(sf) != act(0, n, s, L.tgt[f]):
                    failures.append(("action breaks endpoints", (n, s, f)))
        # (x.s).t is read from t's row at the place of x.s
        place = {f: i for i, f in enumerate(L.morphisms)}
        for s in sym:
            ps = [place[g] for g in rows[s]]
            for t in sym:
                st, at = _mul(s, t), rows[t]  # right action: x.(s o t) = (x.s).t
                if rows[st] == [at[i] for i in ps]:
                    continue
                for f in L.morphisms:
                    if act(1, n, st, f) != act(1, n, t, act(1, n, s, f)):
                        failures.append(("action law fails", (n, s, t, f)))
                        break

    # unit laws on every element of every level
    for n in range(op.max_level + 1):
        for j in (0, 1):
            one = op.unit if j == 0 else op.unit_mor
            for x in op.elements(j, n):
                if compose(j, 1, one, ((n, x),)) != x:
                    failures.append(("left unit fails", (n, j, x)))
                if compose(j, n, x, tuple((1, one) for _ in range(n))) != x:
                    failures.append(("right unit fails", (n, j, x)))

    for j in (0, 1):
        for k, a, inners in composable_families(op, j, bound):
            counts["families"] += 1
            sizes = tuple(n for n, _ in inners)
            total = sum(sizes)
            gab = compose(j, k, a, inners)

            # equivariance in the outer slot
            for s in perms(k):
                counts["e1"] += 1
                a_s = act(j, k, s.images, a)
                inners_s = s.permuted(inners)
                lhs = compose(j, k, a_s, inners_s)
                rhs = act(j, total, _block_perm_images(s.images, s.permuted(sizes)), gab)
                if lhs != rhs:
                    failures.append(("equivariance (outer) fails", (k, j, a, inners, s.images)))

            # equivariance in the inner slots
            for taus in product(*[perms(n) for n in sizes]):
                counts["e2"] += 1
                inners_t = tuple((n, act(j, n, t.images, x))
                                 for (n, x), t in zip(inners, taus))
                lhs = compose(j, k, a, inners_t)
                rhs = act(j, total, _block_sum_images(tuple(t.images for t in taus)), gab)
                if lhs != rhs:
                    failures.append(("equivariance (inner) fails",
                                     (k, j, a, inners, tuple(t.images for t in taus))))

            # associativity against one further layer
            leftover = bound - k - total
            pools = [tuple(_inner_families(op, j, n, leftover)) for n, _ in inners]
            for cs, _ in product_within(pools, lambda block: (sum(m for m, _ in block),),
                                        min(leftover, op.max_level)):
                flat = tuple(c for block in cs for c in block)
                counts["assoc"] += 1
                lhs = compose(j, total, gab, flat)
                collapsed = tuple(
                    (sum(m for m, _ in block), compose(j, n, x, block))
                    for (n, x), block in zip(inners, cs))
                rhs = compose(j, k, a, collapsed)
                if lhs != rhs:
                    failures.append(("associativity fails", (k, j, a, inners, cs)))

    # composition is a functor level-wise
    for k, a, inners in composable_families(op, 0, bound):
        sizes = tuple(n for n, _ in inners)
        ids = compose(1, k, op.id_mor(k, a),
                      tuple((n, op.id_mor(n, x)) for n, x in inners))
        if ids != op.id_mor(sum(sizes), compose(0, k, a, inners)):
            failures.append(("composition breaks identities", (k, a, inners)))
    into = [fibres(op.level(n).morphisms, op.level(n).tgt.__getitem__)
            for n in range(op.max_level + 1)]
    for k, a, inners in composable_families(op, 1, bound):
        counts["functor"] += 1
        Lk = op.level(k)
        sizes = tuple(n for n, _ in inners)
        L_tot = op.level(sum(sizes))
        rhs_top = compose(1, k, a, inners)
        pair_pools = [into[n].get(op.level(n).src[x], ()) for n, x in inners]
        for a2 in into[k].get(Lk.src[a], ()):
            for seconds in product(*pair_pools):
                lhs = compose(1, k, Lk.comp[(a, a2)],
                              tuple((n, op.level(n).comp[(x, y)])
                                    for (n, x), y in zip(inners, seconds)))
                rhs_bot = compose(1, k, a2, tuple(zip(sizes, seconds)))
                if lhs != L_tot.comp.get((rhs_top, rhs_bot)):
                    failures.append(("composition breaks composites",
                                     (k, a, a2, inners, seconds)))

    return {"ok": not failures, "failures": failures, "checked": counts,
            "total_arity": bound}


def _law_families(op, j, bound):
    """Every family whose composite the laws of validate_operad read: the
    empty families, the unit-law instances, and the families up to the bound."""
    one = op.unit if j == 0 else op.unit_mor
    for x in op.elements(j, 0):
        yield 0, x, ()
    for n in range(op.max_level + 1):
        for x in op.elements(j, n):
            yield 1, one, ((n, x),)
            yield n, x, ((1, one),) * n
    yield from composable_families(op, j, bound)


def _inner_families(op, j, n, budget):
    """Profiles of inner elements filling the n slots of one block, total arity <= budget."""
    for profile, _ in product_within([range(op.max_level + 1)] * n, lambda m: (m,),
                                     min(budget, op.max_level)):
        pools = [tuple((m, x) for x in op.elements(j, m)) for m in profile]
        for combo in product(*pools):
            yield combo

