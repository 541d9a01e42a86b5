from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gmcat.errors import FreenessError, StructuralError
from gmcat.finset import (
    FinFn, GroupAction, Perm, UnionFind, block_perm, block_sum, canon_key,
    fibre_product, fibres, finset, fn, identity_perm,
    is_equivariant, is_pullback, orbit_pullback_report, orbit_quotient, perms,
    product_within, pullback, sort_labels,
)

SWAP = Perm((2, 1))


def regular_action(n, orbits=1):
    G = perms(n)
    carrier = tuple((o, g.images) for o in range(orbits) for g in G)
    table = {(s, (o, gi)): (o, s.compose(Perm(gi)).images) for s in G for (o, gi) in carrier}
    return GroupAction(G, carrier, table, free=True)


# -- permutations -----------------------------------------------------------

def test_perm_basics():
    p = Perm((2, 3, 1))
    assert p(1) == 2 and p(3) == 1
    assert p.compose(p.inverse()).is_identity
    assert p.permuted(("a", "b", "c")) == ("b", "c", "a")
    assert p.inverse().permuted(("a", "b", "c")) == ("c", "a", "b")
    with pytest.raises(StructuralError):
        Perm((1, 1, 2))


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.sampled_from(perms(n)), st.sampled_from(perms(n)))))
def test_permuted_is_right_action(pair):
    s, t = pair
    xs = tuple(range(100, 100 + s.n))
    assert t.compose(s).permuted(xs) == s.permuted(t.permuted(xs))
    assert s.inverse().permuted(s.permuted(xs)) == xs


def test_block_perm_frozen_example():
    # swap acting on blocks of sizes (2,1) moves positions (1,2,3) to (2,3,1)
    assert block_perm(SWAP, (2, 1)).images == (2, 3, 1)
    assert block_sum([SWAP, SWAP]).images == (2, 1, 4, 3)
    assert block_perm(identity_perm(3), (1, 1, 1)).is_identity
    with pytest.raises(StructuralError, match="block_perm: arity mismatch"):
        block_perm(SWAP, (1, 1, 1))


sizes_st = st.lists(st.integers(0, 3), min_size=1, max_size=4)


@given(sizes_st.flatmap(lambda js: st.tuples(
    st.just(tuple(js)),
    st.sampled_from(perms(len(js))),
    st.sampled_from(perms(len(js))))))
@settings(max_examples=200)
def test_block_perm_composition_law(data):
    js, a, s = data
    js_s = s.permuted(js)
    lhs = block_perm(a.compose(s), js_s)
    rhs = block_perm(a, js).compose(block_perm(s, js_s))
    assert lhs == rhs


@given(sizes_st.flatmap(lambda js: st.tuples(
    st.just(tuple(js)),
    st.sampled_from(perms(len(js))),
    st.tuples(*[st.sampled_from(perms(j)) for j in js]))))
@settings(max_examples=200)
def test_block_interchange_law(data):
    js, s, parts = data
    js_s = s.permuted(js)
    parts_s = s.permuted(parts)
    lhs = block_perm(s, js_s).compose(block_sum(parts_s))
    rhs = block_sum(parts).compose(block_perm(s, js_s))
    assert lhs == rhs


# -- sets and pullbacks ------------------------------------------------------

def test_canon_key_orders_mixed_labels():
    xs = ["b", 2, ("a", 1), "a", 1]
    assert sorted(xs, key=canon_key) == [1, 2, "a", "b", ("a", 1)]


def test_canon_key_puts_none_first_and_refuses_an_unordered_label():
    assert sorted(["a", 1, None, False], key=canon_key) == [None, False, 1, "a"]
    with pytest.raises(TypeError, match="no canonical order for float"):
        canon_key(1.5)


def test_a_table_missing_a_value_or_leaving_its_codomain_is_refused():
    A, Z = finset(["a", "b"]), finset([0])
    with pytest.raises(StructuralError, match="missing value at 'b'"):
        FinFn(A, Z, {"a": 0})
    with pytest.raises(StructuralError, match="value 1 outside codomain"):
        FinFn(A, Z, {"a": 0, "b": 1})


def test_pullback_refuses_a_cospan_whose_codomains_differ():
    A = finset(["a"])
    f, g = FinFn(A, finset([0]), {"a": 0}), FinFn(A, finset([0, 1]), {"a": 0})
    with pytest.raises(StructuralError, match="cospan codomains differ"):
        pullback(f, g)


# labels are the same exactly when they are ==, as in every dict and set;
# canon_key still orders 1 before True, but no longer tells them apart

def test_equal_labels_are_one_label():
    with pytest.raises(StructuralError, match="duplicate labels"):
        finset([1, True])
    assert canon_key(1) != canon_key(True)


def test_pullback_matches_equal_labels():
    Z = finset([1])
    f = FinFn(finset(["a"]), Z, {"a": 1})
    g = FinFn(finset(["b"]), Z, {"b": True})
    P, p1, p2 = pullback(f, g)
    assert P.elems == (("a", "b"),)
    assert is_pullback(P, p1, p2, f, g) == (True, None)


def test_group_action_reads_equal_labels_as_one():
    # the swap sends 1 to True, that is to 1 itself
    table = {(s, x): x for s in perms(2) for x in (1, 2)}
    table[(SWAP, 1)] = True
    assert GroupAction(perms(2), (1, 2), table).validate() == {"ok": True, "failures": []}
    with pytest.raises(FreenessError) as err:
        GroupAction(perms(2), (1, 2), table, free=True)
    assert err.value.witness == (SWAP, 1)


def test_pullback_frozen_example():
    A = finset(["a", "b"])
    Z = finset([0, 1])
    f = FinFn(A, Z, {"a": 0, "b": 1})
    g = FinFn(A, Z, {"a": 1, "b": 1})
    P, p1, p2 = pullback(f, g)
    assert set(P) == {("b", "a"), ("b", "b")}
    ok, witness = is_pullback(P, p1, p2, f, g)
    assert ok, witness
    # a stray point, a doubled point and a missing point, each over the cospan
    stray, double = finset([*P, ("a", "a")]), finset([*P, ("b", "b", 2)])
    for Q, witness in (
            (stray, ("square does not commute", ("a", "a"))),
            (double, ("lift not unique", ("b", "b"))),
            (finset([("b", "a")]), ("lift missing", ("b", "b")))):
        q1, q2 = fn(Q, A, lambda w: w[0]), fn(Q, A, lambda w: w[1])
        assert is_pullback(Q, q1, q2, f, g) == (False, witness)


small_fn_pair = st.tuples(st.integers(1, 4), st.integers(1, 4), st.data())


@given(st.data())
@settings(max_examples=150)
def test_pullback_universal_property(data):
    na = data.draw(st.integers(1, 6))
    nb = data.draw(st.integers(1, 6))
    nz = data.draw(st.integers(1, 4))
    A, B, Z = finset(range(na)), finset(range(10, 10 + nb)), finset(range(100, 100 + nz))
    f = FinFn(A, Z, {a: data.draw(st.sampled_from(Z.elems)) for a in A})
    g = FinFn(B, Z, {b: data.draw(st.sampled_from(Z.elems)) for b in B})
    P, p1, p2 = pullback(f, g)
    ok, witness = is_pullback(P, p1, p2, f, g)
    assert ok, witness


def test_union_find_minimal_roots():
    uf = UnionFind([1, 2, 3, 9])  # in canonical order, as UnionFind expects
    uf.union(3, 9)
    uf.union(9, 2)
    assert uf.find(9) == 2
    assert set(uf.classes()) == {1, 2}
    for root, members in uf.classes().items():
        assert root == min(members, key=canon_key)


def test_union_find_compresses_the_path_it_walks():
    # each union hangs the later root under the earlier: 4 -> 3 -> 2 -> 1
    uf = UnionFind([1, 2, 3, 4])
    for a, b in ((3, 4), (2, 3), (1, 2)):
        assert uf.union(a, b)
    assert uf.parent == {1: 1, 2: 1, 3: 2, 4: 3}
    assert uf.find(4) == 1
    assert uf.parent == {1: 1, 2: 1, 3: 1, 4: 1}
    for root, members in uf.classes().items():
        assert root == min(members, key=canon_key)


class _ReferenceUnionFind:
    """The field-comparing union-find: walks parents with != and compares
    the canon_key of both roots on every merge."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        r = x
        while self.parent[r] != r:
            r = self.parent[r]
        while self.parent[x] != r:
            self.parent[x], x = r, self.parent[x]
        return r

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if canon_key(rb) < canon_key(ra):
                ra, rb = rb, ra
            self.parent[rb] = ra
            return True
        return False

    def classes(self):
        return {r: sort_labels(v) for r, v in fibres(self.parent, self.find).items()}


_uf_items = st.one_of(
    st.lists(st.integers(-20, 20), min_size=1, max_size=12, unique=True),
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from("abc")),
             min_size=1, max_size=12, unique=True))


_uf_cases = _uf_items.flatmap(lambda items: st.tuples(
    st.just(items), st.permutations(items),
    st.lists(st.tuples(st.sampled_from(items), st.sampled_from(items)),
             max_size=20)))


@settings(max_examples=150, deadline=None)
@given(_uf_cases)
def test_union_find_matches_reference(case):
    items, order, pairs = case
    order = sort_labels(order)  # UnionFind takes its items in canonical order
    # callers pass equal copies, not the stored objects
    copy = (lambda x: tuple(list(x))) if isinstance(items[0], tuple) else int
    uf, ref = UnionFind(order), _ReferenceUnionFind(order)
    stored = {id(x) for x in order}
    for a, b in pairs:
        assert uf.union(copy(a), copy(b)) == ref.union(a, b)
        roots = [uf.find(copy(x)) for x in items]
        assert roots == [ref.find(x) for x in items]
        assert all(id(r) in stored for r in roots)
    assert uf.classes() == ref.classes()
    assert list(uf.classes()) == list(ref.classes())
    for root, members in uf.classes().items():
        assert root == min(members, key=canon_key)


@settings(max_examples=150, deadline=None)
@given(_uf_cases)
def test_union_find_roots_come_first_in_the_given_order(case):
    _, order, pairs = case
    uf, ref = UnionFind(order), _ReferenceUnionFind(order)
    position = {x: i for i, x in enumerate(order)}
    for a, b in pairs:
        uf.union(a, b)
        ref.union(a, b)
    classes = uf.classes()
    assert {frozenset(v) for v in classes.values()} == \
        {frozenset(v) for v in ref.classes().values()}
    assert list(classes) == sorted(classes, key=position.get)
    for root, members in classes.items():
        assert members == tuple(sorted(members, key=position.get))
        assert root is members[0]
        assert all(uf.find(x) is root for x in members)


# -- group actions ----------------------------------------------------------

def test_regular_orbit_canonicalizes_to_identity():
    act = regular_action(3)
    _, q = orbit_quotient(act)
    assert q((0, (3, 1, 2))) == (0, (1, 2, 3))
    assert act.freeness_witness() is None


def test_group_action_law_enforced():
    G = perms(2)
    bad = {(G[0], "x"): "x", (G[0], "y"): "y", (G[1], "x"): "x", (G[1], "y"): "x"}
    with pytest.raises(StructuralError):
        GroupAction(G, ("x", "y"), bad)
    # the identity swapping the two points, and the regular action of Sym(3)
    # read on a set of permutations that is not a group
    swapped = {(s, x): x if s == SWAP else "xy".replace(x, "") for s in G for x in "xy"}
    S3, cycle = perms(3), Perm((2, 3, 1))
    regular = {(s, p): s.compose(p) for s in S3 for p in S3}
    # a table with rows for the given permutations alone has no entry at the
    # missing identity or product: reported, not looked up
    rows_of = lambda group: {(s, p): s.compose(p) for s in group for p in S3}
    not_closed = (identity_perm(3), Perm((1, 3, 2)), cycle)
    for group, carrier, table, failure in (
            (G, ("x", "y"), swapped, "identity moves 'x'"),
            ((cycle, cycle.compose(cycle)), S3, regular, "identity missing from group"),
            ((identity_perm(3), cycle), S3, regular, "group not closed under"),
            ((SWAP,), ("x", "y"), {(SWAP, "x"): "y", (SWAP, "y"): "x"},
             "identity missing from group"),
            (not_closed, S3, rows_of(not_closed), "group not closed under"),
            (G, ("x", "y"), {**swapped, (SWAP, "y"): "z"},
             r"Perm\(2, 1\) sends 'y' to no point of the carrier"),
            (G, ("x", "y", "z"), swapped,
             r"Perm\(1, 2\) sends 'z' to no point of the carrier")):
        with pytest.raises(StructuralError, match=f"invalid group action: {failure}"):
            GroupAction(group, carrier, table)


def test_validate_composes_each_pair_once_per_law(monkeypatch):
    # closure and the action law each compose s*t once per pair, not once
    # per carrier point: two regular orbits of Sym(3) have 12 points
    act = regular_action(3, orbits=2)
    calls, compose = [], Perm.compose
    monkeypatch.setattr(Perm, "compose",
                        lambda s, t: calls.append((s, t)) or compose(s, t))
    assert act.validate() == {"ok": True, "failures": []}
    assert 0 < len(calls) <= 2 * len(act.group) ** 2


def test_validate_names_a_broken_action_law_and_a_collapsing_action():
    # right multiplication fixes every point under the identity and is
    # bijective, but (st).p = p s t differs from s.(t.p) = p t s
    S3 = perms(3)
    right = {(s, p): p.compose(s) for s in S3 for p in S3}
    with pytest.raises(StructuralError,
                       match=r"invalid group action: action law fails at"):
        GroupAction(S3, S3, right)
    # sending both points to x keeps the law but moves y under the identity;
    # validate lists each permutation that collapses, after that failure
    G = perms(2)
    act = GroupAction(G, ("x", "y"), {(s, v): v for s in G for v in "xy"})
    act.table.update({(s, "y"): "x" for s in G})
    assert act.validate()["failures"] == [
        "identity moves 'y'", *(f"{s} does not act bijectively" for s in G)]


def test_orbit_quotient_of_two_regular_orbits():
    act = regular_action(2, orbits=2)
    Q, q = orbit_quotient(act)
    assert len(Q) == 2
    assert q((1, (2, 1))) == (1, (1, 2))
    for x in act.carrier:
        assert q(x) == min((act.act(s, x) for s in act.group), key=canon_key)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_free_orbit_quotients_preserve_pullbacks(data):
    n = data.draw(st.sampled_from([2, 3]))
    na, nb, nz = (data.draw(st.integers(1, 2)) for _ in range(3))
    A, B, Z = regular_action(n, na), regular_action(n, nb), regular_action(n, nz)

    def equivariant_to_z(src_orbits):
        G = perms(n)
        targets = [(data.draw(st.integers(0, nz - 1)), data.draw(st.sampled_from(G)))
                   for _ in range(src_orbits)]

        def f(x):
            o, gi = x
            i, h = targets[o]
            return (i, Perm(gi).compose(h).images)
        return f

    f = fn(finset(A.carrier), finset(Z.carrier), equivariant_to_z(na))
    g = fn(finset(B.carrier), finset(Z.carrier), equivariant_to_z(nb))
    assert is_equivariant(f, A, Z) and is_equivariant(g, B, Z)
    rep = orbit_pullback_report(f, g, A, B, Z)
    assert rep["ok"], rep["failures"]


def test_nonfree_base_breaks_orbit_pullback():
    # free sources over a fixed point: the comparison map collapses
    G = perms(2)
    A = regular_action(2)
    B = regular_action(2)
    Z_set = ("*",)
    Z = GroupAction(G, Z_set, {(s, "*"): "*" for s in G})
    f = fn(finset(A.carrier), finset(Z_set), lambda x: "*")
    g = fn(finset(B.carrier), finset(Z_set), lambda x: "*")
    rep = orbit_pullback_report(f, g, A, B, Z)
    assert not rep["ok"]
    assert any("not injective" in fail[0] or "not surjective" in fail[0]
               for fail in rep["failures"])


def test_a_cospan_that_is_not_equivariant_is_refused():
    A = regular_action(2)
    fixed = fn(finset(A.carrier), finset(A.carrier), lambda x: A.carrier[0])
    ident = fn(finset(A.carrier), finset(A.carrier), lambda x: x)
    assert not is_equivariant(fixed, A, A)
    for f, g in ((fixed, ident), (ident, fixed)):
        assert orbit_pullback_report(f, g, A, A, A) == \
            {"ok": False, "failures": ["cospan not equivariant"]}


def test_diagonal_action_freeness_inherits():
    A = regular_action(2)
    P = tuple((x, y) for x in A.carrier for y in A.carrier)
    table = {(s, (x, y)): (A.act(s, x), A.act(s, y)) for s in A.group for x, y in P}
    Q, _ = orbit_quotient(GroupAction(A.group, P, table, free=True))
    assert len(Q) == len(P) // len(A.group)


# -- fibres and the fibre product ----------------------------------------------

small_ints = st.lists(st.integers(0, 6), max_size=8)
small_maps = st.dictionaries(st.integers(0, 6), st.integers(0, 3))


def counted(table):
    calls = []

    def key(x):
        calls.append(x)
        return table.get(x, -1)
    return key, calls


@given(small_ints, small_ints, small_maps, small_maps)
def test_fibre_product_is_the_nested_filter(A, B, ftab, gtab):
    f, f_calls = counted(ftab)
    g, g_calls = counted(gtab)
    got = list(fibre_product(A, f, B, g))
    want = [(a, b) for a in A for b in B
            if ftab.get(a, -1) == gtab.get(b, -1)]
    assert got == want
    assert f_calls == A and g_calls == B


def test_fibre_product_is_lazy_in_its_first_factor():
    def A():
        yield 1
        raise AssertionError("read past the first pair")
    assert next(fibre_product(A(), lambda a: a, [0, 1], lambda b: b)) == (1, 1)


@given(small_ints, small_maps)
def test_fibres_keep_the_input_order(xs, tab):
    key, calls = counted(tab)
    groups = fibres(xs, key)
    assert calls == xs
    assert list(groups) == list(dict.fromkeys(tab.get(x, -1) for x in xs))
    for k, grp in groups.items():
        assert grp == [x for x in xs if tab.get(x, -1) == k]


small_slots = st.lists(st.lists(st.integers(0, 6), max_size=4), max_size=4)
small_weights = st.dictionaries(st.integers(0, 6),
                                st.tuples(st.integers(0, 3), st.integers(0, 3)))


@given(small_slots, small_weights, st.integers(0, 6))
def test_product_within_is_the_filtered_product(slots, wtab, budget):
    calls = []

    def weight(x):
        calls.append(x)
        return wtab.get(x, (1, 0))
    want = []
    for xs in product(*slots):
        sums = tuple(map(sum, zip(*(wtab.get(x, (1, 0)) for x in xs))))
        if all(s <= budget for s in sums):
            want.append((xs, sums))
    assert list(product_within(slots, weight, budget)) == want
    assert len(calls) <= sum(map(len, slots))


def test_product_within_edge_cases():
    one = lambda x: (x,)
    assert list(product_within([], one, 0)) == [((), ())]
    assert list(product_within([[1, 2], []], one, 5)) == []
    assert list(product_within([[0, 1], [1, 0]], one, 0)) == [((0, 0), (0,))]
