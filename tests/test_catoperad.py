import time
from collections import Counter
from functools import lru_cache
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from gmcat.catoperad import (
    _inner_families as inner_families, associativity_operad, barratt_eccles,
    commutative_operad, composable_families, freeness_report, is_sigma_free,
    operad_tables, tabulated_operad, validate_operad,
)
from gmcat.errors import StructuralError
from gmcat.fincat import validate_category
from gmcat.finset import (Perm, block_perm, block_sum, fibres, perms,
                          product_within)
from product_operad import ass_x_be, be_x_be


def corrupted_compose(op, bad_key, bad_value):
    inner = op._compose

    def compose(j, k, x, inners):
        if (j, k, x, inners) == bad_key:
            return bad_value
        return inner(j, k, x, inners)
    op._compose = compose
    return op


# -- builtins -----------------------------------------------------------------

def test_barratt_eccles_level_sizes():
    op = barratt_eccles(3)
    assert len(op.level(3).objects) == 6
    assert len(op.level(3).morphisms) == 36
    for n in (0, 1):
        assert len(op.level(n).objects) == 1 and len(op.level(n).morphisms) == 1
    assert op.unit == (1,)


def test_barratt_eccles_validates_and_is_free():
    op = barratt_eccles(3)
    rep = validate_operad(op)
    assert rep["ok"], rep["failures"][:3]
    assert is_sigma_free(op)


def test_barratt_eccles_deeper_families():
    # widen the family bound so two binary morphisms compose under an outer swap
    rep = validate_operad(barratt_eccles(3), total_arity=6)
    assert rep["ok"], rep["failures"][:3]
    assert rep["checked"]["families"] > 1000


def _closed_form_checked(c, N):
    """validate_operad's families, e1, e2 and functor counts at total arity N
    from c(j, n) = |O(n)_j|: each sums, over j, k >= 1 and profiles
    (n_1..n_k) with k + sum n_i <= N, c(j, k) prod c(j, n_i) times a weight:
    1, k!, prod n_i!, and for functor 1 at j = 1 only."""
    counts = dict.fromkeys(("families", "e1", "e2", "functor"), 0)
    for j in (0, 1):
        for k in range(1, N + 1):
            for profile in product(range(N - k + 1), repeat=k):
                if k + sum(profile) > N:
                    continue
                families = c(j, k) * prod(c(j, m) for m in profile)
                counts["families"] += families
                counts["e1"] += factorial(k) * families
                counts["e2"] += prod(map(factorial, profile)) * families
                counts["functor"] += j * families
    return counts


@pytest.mark.parametrize("make, c, at_4", [
    (barratt_eccles, lambda j, n: factorial(n) ** (1 + j), (884, 15588, 1140, 810)),
    (associativity_operad, lambda j, n: factorial(n), (148, 1524, 228, 74))],
    ids=["BE", "ASS"])
def test_validate_operad_counts_match_the_closed_form(make, c, at_4):
    for N in range(1, 5):
        checked = validate_operad(make(N))["checked"]
        closed = _closed_form_checked(c, N)
        assert {name: checked[name] for name in closed} == closed
    assert tuple(closed.values()) == at_4


def test_associativity_operad_shape():
    op = associativity_operad(4)
    assert len(op.level(2).objects) == 2
    assert op.level(2).morphisms == op.level(2).objects  # identities only
    swap = (2, 1)
    assert op.compose(0, 2, swap, ((1, (1,)), (1, (1,)))) == swap
    rep = validate_operad(op, total_arity=6)
    assert rep["ok"]
    assert is_sigma_free(op)


@pytest.mark.parametrize("make", [ass_x_be, be_x_be], ids=["ASSxBE", "BExBE"])
def test_product_operads_are_free_with_n_factorial_orbits_per_level(make):
    op = make(3)
    assert validate_operad(op)["ok"]
    assert freeness_report(op) == {"ok": True, "witnesses": []}
    for n, orbits in enumerate((1, 1, 2, 6)):
        assert len(op.level(n).objects) == factorial(n) * orbits


def test_commutative_operad_axioms_hold_but_not_free():
    op = commutative_operad(3)
    assert validate_operad(op)["ok"]
    assert not is_sigma_free(op)
    rep = freeness_report(op)
    w = rep["witnesses"][0]
    assert w["level"] == 2 and w["sigma"] == (2, 1) and w["fixed_point"] == "*"


def test_act_and_compose_refuse_a_wrong_arity():
    op = barratt_eccles(3)
    with pytest.raises(StructuralError, match="action arity mismatch at level 2"):
        op.act(0, 2, Perm((1, 2, 3)), (1, 2))
    with pytest.raises(StructuralError, match="composition expects 2 inner elements"):
        op.compose(0, 2, (1, 2), ((1, (1,)),))


def test_corrupted_composition_names_the_tuple():
    op = associativity_operad(3)
    bad_key = (0, 2, (2, 1), ((1, (1,)), (1, (1,))))
    corrupted_compose(op, bad_key, (1, 2))
    rep = validate_operad(op)
    assert not rep["ok"]
    named = [w for _, w in rep["failures"] if (2, 0, (2, 1)) == w or (2, 1) in str(w)]
    assert named, rep["failures"][:5]


def test_wrong_composite_fails_associativity():
    # gamma((1,2); (), (1,2)) planted as (2,1) is read back by an instance of
    # associativity that composes the nullary slot first
    op = corrupted_compose(associativity_operad(3),
                           (0, 2, (1, 2), ((0, ()), (2, (1, 2)))), (2, 1))
    rep = validate_operad(op, total_arity=5)
    assert ("associativity fails",
            (2, 0, (1, 2), ((0, ()), (1, (1,))), ((), ((2, (1, 2)),)))) \
        in rep["failures"]


def test_equivariance_matches_block_calculus():
    op = barratt_eccles(3)
    for k, a, inners in composable_families(op, 1, 4):
        sizes = tuple(n for n, _ in inners)
        gab = op.compose(1, k, a, inners)
        for s in perms(k):
            lhs = op.compose(1, k, op.act(1, k, s, a), s.permuted(inners))
            bp = block_perm(s, s.permuted(sizes))
            assert lhs == op.act(1, sum(sizes), bp, gab)


@given(st.data())
@settings(max_examples=100)
def test_inner_equivariance_sampled(data):
    op = barratt_eccles(4)
    k = data.draw(st.integers(1, 2))
    profile = tuple(data.draw(st.integers(0, 2)) for _ in range(k))
    a = data.draw(st.sampled_from(op.elements(1, k)))
    inners = tuple((n, data.draw(st.sampled_from(op.elements(1, n)))) for n in profile)
    taus = tuple(data.draw(st.sampled_from(perms(n))) for n in profile)
    gab = op.compose(1, k, a, inners)
    moved = tuple((n, op.act(1, n, t, x)) for (n, x), t in zip(inners, taus))
    assert op.compose(1, k, a, moved) == op.act(1, sum(profile), block_sum(taus), gab)


def test_level4_validation_within_budget():
    start = time.monotonic()
    op = barratt_eccles(4)
    rep = validate_operad(op)
    assert rep["ok"], rep["failures"][:3]
    assert is_sigma_free(op)
    assert time.monotonic() - start < 5.0


# -- the memo and row tables against the plain loops ---------------------------

def plain_validate_operad(op, total_arity=None):
    """validate_operad evaluated instance by instance: one op.act or
    op.compose call per use, no tables and no memo."""
    bound = op.max_level if total_arity is None else total_arity
    failures = []
    counts = {"families": 0, "e1": 0, "e2": 0, "assoc": 0, "functor": 0}

    for n in range(op.max_level + 1):
        rep = validate_category(op.level(n))
        if not rep["ok"]:
            failures.append(("level not a category", (n, rep["failures"][0])))

    # actions act by automorphism functors and satisfy the group law
    for n in range(op.max_level + 1):
        L = op.level(n)
        for s in perms(n):
            for o in L.objects:
                i_img = op.act(1, n, s, L.ident[o])
                if i_img != L.ident.get(op.act(0, n, s, o)):
                    failures.append(("action breaks identities", (n, s.images, o)))
            for f in L.morphisms:
                sf = op.act(1, n, s, f)
                if L.src.get(sf) != op.act(0, n, s, L.src[f]) or \
                   L.tgt.get(sf) != op.act(0, n, s, L.tgt[f]):
                    failures.append(("action breaks endpoints", (n, s.images, f)))
        for s in perms(n):
            for t in perms(n):
                st = s.compose(t)  # right action: x.(s o t) = (x.s).t
                for f in L.morphisms:
                    if op.act(1, n, st, f) != op.act(1, n, t, op.act(1, n, s, f)):
                        failures.append(("action law fails", (n, s.images, t.images, f)))
                        break

    # unit laws on every element of every level
    for n in range(op.max_level + 1):
        for j in (0, 1):
            one = op.unit if j == 0 else op.unit_mor
            for x in op.elements(j, n):
                if op.compose(j, 1, one, ((n, x),)) != x:
                    failures.append(("left unit fails", (n, j, x)))
                if op.compose(j, n, x, tuple((1, one) for _ in range(n))) != x:
                    failures.append(("right unit fails", (n, j, x)))

    for j in (0, 1):
        for k, a, inners in composable_families(op, j, bound):
            counts["families"] += 1
            sizes = tuple(n for n, _ in inners)
            total = sum(sizes)
            gab = op.compose(j, k, a, inners)

            # equivariance in the outer slot
            for s in perms(k):
                counts["e1"] += 1
                a_s = op.act(j, k, s, a)
                inners_s = s.permuted(inners)
                lhs = op.compose(j, k, a_s, inners_s)
                rhs = op.act(j, total, block_perm(s, s.permuted(sizes)), gab)
                if lhs != rhs:
                    failures.append(("equivariance (outer) fails", (k, j, a, inners, s.images)))

            # equivariance in the inner slots
            for taus in product(*[perms(n) for n in sizes]):
                counts["e2"] += 1
                inners_t = tuple((n, op.act(j, n, t, x))
                                 for (n, x), t in zip(inners, taus))
                lhs = op.compose(j, k, a, inners_t)
                rhs = op.act(j, total, block_sum(taus), gab)
                if lhs != rhs:
                    failures.append(("equivariance (inner) fails",
                                     (k, j, a, inners, tuple(t.images for t in taus))))

            # associativity against one further layer
            leftover = bound - k - total
            pools = [tuple(inner_families(op, j, n, leftover)) for n, _ in inners]
            for cs, _ in product_within(pools, lambda block: (sum(m for m, _ in block),),
                                        min(leftover, op.max_level)):
                flat = tuple(c for block in cs for c in block)
                counts["assoc"] += 1
                lhs = op.compose(j, total, gab, flat)
                collapsed = tuple(
                    (sum(m for m, _ in block), op.compose(j, n, x, block))
                    for (n, x), block in zip(inners, cs))
                rhs = op.compose(j, k, a, collapsed)
                if lhs != rhs:
                    failures.append(("associativity fails", (k, j, a, inners, cs)))

    # composition is a functor level-wise
    for k, a, inners in composable_families(op, 0, bound):
        sizes = tuple(n for n, _ in inners)
        ids = op.compose(1, k, op.id_mor(k, a),
                         tuple((n, op.id_mor(n, x)) for n, x in inners))
        if ids != op.id_mor(sum(sizes), op.compose(0, k, a, inners)):
            failures.append(("composition breaks identities", (k, a, inners)))
    into = [fibres(op.level(n).morphisms, op.level(n).tgt.__getitem__)
            for n in range(op.max_level + 1)]
    for k, a, inners in composable_families(op, 1, bound):
        counts["functor"] += 1
        Lk = op.level(k)
        sizes = tuple(n for n, _ in inners)
        L_tot = op.level(sum(sizes))
        rhs_top = op.compose(1, k, a, inners)
        pair_pools = [into[n].get(op.level(n).src[x], ()) for n, x in inners]
        for a2 in into[k].get(Lk.src[a], ()):
            for seconds in product(*pair_pools):
                lhs = op.compose(1, k, Lk.comp[(a, a2)],
                                 tuple((n, op.level(n).comp[(x, y)])
                                       for (n, x), y in zip(inners, seconds)))
                rhs_bot = op.compose(1, k, a2, tuple(zip(sizes, seconds)))
                if lhs != L_tot.comp.get((rhs_top, rhs_bot)):
                    failures.append(("composition breaks composites",
                                     (k, a, a2, inners, seconds)))

    return {"ok": not failures, "failures": failures, "checked": counts,
            "total_arity": bound}



BUILDERS = {"BE3": lambda: barratt_eccles(3), "ASS4": lambda: associativity_operad(4)}
BOUND = 4  # families of total arity 4 reach composites past the unit laws in BE(3)


@lru_cache(maxsize=None)
def tables(name):
    """The builtin and its full tables; callers copy before editing them."""
    op = BUILDERS[name]()
    return op, *operad_tables(op)


def tabulate(op, act_table, comp_table):
    return tabulated_operad(op.name, op.max_level, op.levels, op.unit,
                            act_table, comp_table)


def next_element(op, j, n, y):
    els = op.elements(j, n)
    return els[(els.index(y) + 1) % len(els)]


@lru_cache(maxsize=None)
def composition_keys_read(name):
    """The composition entries the plain loops read, in repr order: those
    above level 1 that are not unit-law instances."""
    op, act_table, comp_table = tables(name)
    read = set()

    class Reading(dict):
        def __contains__(self, key):
            read.add(key)
            return super().__contains__(key)

    plain_validate_operad(tabulate(op, act_table, Reading(comp_table)), BOUND)
    units = {op.unit, op.unit_mor}
    return sorted((key for key in read if sum(n for n, _ in key[3]) >= 2
                   and not (key[1] == 1 and key[2] in units)
                   and not all(x in units for _, x in key[3])), key=repr)


def tampered(name, kind, i):
    op, act_table, comp_table = tables(name)
    act_table, comp_table = dict(act_table), dict(comp_table)
    if kind == "action":
        keys = sorted((key for key in act_table if key[1] >= 2), key=repr)
        key = keys[(2 * i + 1) * len(keys) // 8]
        act_table[key] = next_element(op, key[0], key[1], act_table[key])
    elif kind == "composition":
        keys = composition_keys_read(name)
        key = keys[(2 * i + 1) * len(keys) // 8]
        total = sum(n for n, _ in key[3])
        comp_table[key] = next_element(op, key[0], total, comp_table[key])
    elif kind == "outside":
        act_table[(1, op.max_level, perms(op.max_level)[i].images,
                   op.level(op.max_level).morphisms[-1])] = "outside"
    return tabulate(op, act_table, comp_table)


def outcome(validate, op):
    try:
        return validate(op, BOUND)
    except StructuralError as e:
        return ("raised", str(e))


CASES = ([("builtin", name, 0) for name in BUILDERS]
         + [(kind, name, i) for kind in ("action", "composition")
            for name in BUILDERS for i in range(4)]
         + [("outside", name, 1) for name in BUILDERS])


@pytest.mark.parametrize("kind,name,i", CASES,
                         ids=[f"{k}-{n}-{i}" for k, n, i in CASES])
def test_tables_match_the_plain_loops(kind, name, i):
    op = BUILDERS[name]() if kind == "builtin" else tampered(name, kind, i)
    got, want = outcome(validate_operad, op), outcome(plain_validate_operad, op)
    if kind == "outside":
        # the plain loops meet the value as a missing action entry; the
        # checker fails it before the group law reads it
        assert want[0] == "raised" and "outside" in want[1]
        n = op.max_level
        key = (n, 1, perms(n)[i].images, op.level(n).morphisms[-1])
        assert got == {"ok": False,
                       "failures": [("action value outside the level", key)],
                       "checked": dict.fromkeys(("families", "e1", "e2", "assoc", "functor"), 0),
                       "total_arity": BOUND}
    else:
        assert got == want  # failures, their order and the counts included
        assert got["ok"] == (kind == "builtin"), got["failures"][:3]


def test_each_structure_map_runs_once_per_argument_and_call():
    op = barratt_eccles(3)
    calls = Counter()
    inner_act, inner_compose = op._act, op._compose

    def act(j, n, sigma, x):
        calls["act", j, n, sigma.images, x] += 1
        return inner_act(j, n, sigma, x)

    def compose(j, k, x, inners):
        calls["compose", j, k, x, inners] += 1
        return inner_compose(j, k, x, inners)
    op._act, op._compose = act, compose
    for _ in range(2):  # the memo dies with its call, so the second one recomputes
        calls.clear()
        assert validate_operad(op)["ok"]
        assert calls and set(calls.values()) == {1}


def test_wrong_action_entry_names_its_pairs():
    op, act_table, comp_table = tables("BE3")
    s, f = (2, 1, 3), ((1, 2, 3), (1, 3, 2))
    assert act_table[(1, 3, s, f)] == ((2, 1, 3), (3, 1, 2))
    act_table = {**act_table, (1, 3, s, f): ((1, 2, 3), (3, 2, 1))}
    failures = validate_operad(tabulate(op, act_table, comp_table))["failures"]
    assert [w for kind, w in failures if kind == "action breaks endpoints"] == \
        [(3, s, f)]
    assert [w for kind, w in failures if kind == "action law fails"] == [
        (3, (1, 3, 2), (2, 1, 3), ((1, 3, 2), (1, 2, 3))),
        (3, (1, 3, 2), (3, 1, 2), f),
        (3, (2, 1, 3), (1, 3, 2), f),
        (3, (2, 1, 3), (2, 1, 3), f),
        (3, (2, 1, 3), (2, 3, 1), f),
        (3, (2, 1, 3), (3, 1, 2), f),
        (3, (2, 1, 3), (3, 2, 1), f),
        (3, (2, 3, 1), (1, 3, 2), f),
        (3, (2, 3, 1), (2, 1, 3), ((3, 1, 2), (2, 1, 3))),
        (3, (3, 1, 2), (2, 1, 3), ((2, 3, 1), (3, 2, 1))),
        (3, (3, 1, 2), (3, 2, 1), f),
        (3, (3, 2, 1), (2, 1, 3), ((3, 2, 1), (2, 3, 1))),
        (3, (3, 2, 1), (2, 3, 1), f),
    ]
    assert len(failures) == 14


def test_wrong_composite_above_the_default_families_needs_a_wider_bound():
    # the default total arity reads only a fraction of a tabulated operad's
    # composition entries, so this wrong binary composite passes it
    op = associativity_operad(3)
    act_table, comp_table = operad_tables(op)
    inners = ((1, (1,)), (2, (1, 2)))
    key, family = (0, 2, (1, 2), inners), (2, 0, (1, 2), inners)
    assert comp_table[key] == (1, 2, 3)
    comp_table[key] = (1, 3, 2)
    planted = tabulate(op, act_table, comp_table)
    assert validate_operad(planted)["ok"]
    rep = validate_operad(planted, total_arity=6)
    assert not rep["ok"] and len(rep["failures"]) == 5
    assert ("equivariance (outer) fails", family + ((2, 1),)) in rep["failures"]
