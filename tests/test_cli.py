"""JSON round trips and the command-line front end."""

import gc
import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import cache
from itertools import product
from pathlib import Path

import pytest

import gmcat.cli
import gmcat.dmulticat
from gmcat import jsonio
from gmcat.adjoint import L
from gmcat.catoperad import (associativity_operad, barratt_eccles,
                             commutative_operad, operad_tables,
                             tabulated_operad, validate_operad)
from gmcat.cli import main
from gmcat.dalgebra import (free_algebra, underlying, validate_algebra,
                            z2_discrete_algebra)
from gmcat.dmulticat import (ClassicalMulticat, _level_unit_obj, from_symmetric,
                             terminal_multicat, validate_classical,
                             validate_multicat)
from gmcat.errors import BoundExceeded, StructuralError
from gmcat.fincat import category, terminal_category
from gmcat.finset import Perm, perms
from gmcat.opmonad import all_elements, elements_of, eta
from comb_classical import comb_classical
from product_operad import ass_x_be
from test_dmulticat import pairing_classical, sum_classical

BE = barratt_eccles(4)
ASS = associativity_operad(4)


def rt(doc):
    return json.loads(json.dumps(doc))


# ---------------------------------------------------------------------------
# round trips

def test_category_round_trip():
    C = z2_discrete_algebra(BE).carrier
    assert jsonio.decode_category(rt(jsonio.encode_category(C))) == C


def test_operad_builtin_reference():
    doc = jsonio.encode_operad(BE)
    assert doc == {"kind": "operad", "builtin": "barratt_eccles", "truncate": 4}
    op = jsonio.decode_operad(rt(doc))
    assert op.name == "barratt_eccles" and op.max_level == 4


def test_operad_builtin_name_alone_is_not_a_reference():
    # a table-backed copy of BE(3) under the builtin's name, with one action
    # entry changed: the swap now fixes (1, 2)
    base = barratt_eccles(3)
    at, ct = operad_tables(base)
    at[(0, 2, (2, 1), (1, 2))] = (1, 2)
    tampered = tabulated_operad("barratt_eccles", 3, base.levels, base.unit,
                                at, ct)
    assert not validate_operad(tampered)["ok"]
    doc = rt(jsonio.encode_operad(tampered))
    assert "builtin" not in doc and "levels" in doc
    assert not validate_operad(jsonio.decode_operad(doc))["ok"]
    for op in (base, associativity_operad(3)):
        assert jsonio.encode_operad(op) == {"kind": "operad", "builtin": op.name,
                                            "truncate": 3}


def test_operad_tabulated_round_trip():
    base = associativity_operad(2)
    at, ct = operad_tables(base)
    custom = tabulated_operad("word2", 2, base.levels, base.unit, at, ct)
    doc = rt(jsonio.encode_operad(custom))
    assert "levels" in doc and "builtin" not in doc
    assert validate_operad(jsonio.decode_operad(doc))["ok"]


def test_multicat_round_trip():
    M = terminal_multicat(BE)
    M2 = jsonio.decode_multicat(rt(jsonio.encode_multicat(M)))
    assert M2.morphisms == M.morphisms and M2.src == M.src
    assert M2.source_action == M.source_action
    assert M2.composition == M.composition


def test_underlying_dump_round_trip():
    # morphism labels here contain monad elements
    U = underlying(z2_discrete_algebra(BE), bound=2)
    U2 = jsonio.decode_multicat(rt(jsonio.encode_multicat(U)))
    assert U2.morphisms == U.morphisms and U2.src == U.src
    assert U2.composition == U.composition


def test_algebra_round_trip_preserves_partiality():
    A = free_algebra(ASS, terminal_category(), carrier_bound=2)
    A2 = jsonio.decode_algebra(rt(jsonio.encode_algebra(A, 2)))
    r1 = validate_algebra(A, arity_bound=2)
    r2 = validate_algebra(A2, arity_bound=2)
    assert r2["ok"] and r2["bounded"] == r1["bounded"]


def word2():
    """ASS(2) as a table-backed operad, which encodes to explicit tables."""
    base = associativity_operad(2)
    return tabulated_operad("word2", 2, base.levels, base.unit, *operad_tables(base))


@pytest.mark.parametrize("encode", [
    lambda: jsonio.encode_operad(word2()),
    # morphism labels that contain monad elements
    lambda: jsonio.encode_multicat(underlying(z2_discrete_algebra(BE), bound=2)),
    lambda: jsonio.encode_classical(xor_classical(), True),
    lambda: jsonio.encode_algebra(z2_discrete_algebra(barratt_eccles(3)), 2),
], ids=["operad", "dmulticat", "classical", "algebra"])
def test_save_writes_one_line_per_entry_and_load_reads_any_layout(encode, tmp_path):
    doc = encode()
    assert doc == rt(doc)  # JSON-native: lists, not tuples
    a, b, old = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "old.json"
    jsonio.save(doc, a)
    assert jsonio.load(a) == doc
    jsonio.save(jsonio.load(a), b)
    assert a.read_bytes() == b.read_bytes()
    # each entry of a list-valued key on a line of its own
    lines = a.read_text().splitlines()
    entries = [json.loads(line.strip().rstrip(",")) for line in lines
               if line.startswith("    ")]
    tables = [v for _, v in sorted(doc.items()) if isinstance(v, list)]
    assert entries == [entry for table in tables for entry in table]
    assert len(lines) == 2 + len(doc) + sum(len(t) + 1 for t in tables if t)
    # the layout written before: any layout loads to the same document
    old.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert jsonio.load(old) == doc


@pytest.mark.parametrize("value", [[1, 2], [], 3, "x", None, {}, {"a": [], "b": 1}],
                         ids=["list", "empty-list", "int", "str", "null",
                              "empty-object", "empty-table"])
def test_save_writes_any_json_value(value, tmp_path):
    path = tmp_path / "v.json"
    jsonio.save(value, path)
    text = path.read_text()
    assert json.loads(text) == value and text.endswith("\n")


# ---------------------------------------------------------------------------
# the operad reader: one object per label

def reference_decode_operad(doc):
    """The decode rule before labels were shared: every label of every
    entry decodes to a fresh object."""
    lab = jsonio.load_label
    levels = [category([lab(x) for x in L["objects"]],
                       [lab(f) for f in L["morphisms"]],
                       {lab(f): lab(a) for f, a in L["src"]},
                       {lab(f): lab(a) for f, a in L["tgt"]},
                       {lab(a): lab(f) for a, f in L["ident"]},
                       {(lab(f), lab(g)): lab(h) for f, g, h in L["comp"]})
              for L in doc["levels"]]
    act_table = {(j, n, tuple(s), lab(x)): lab(y)
                 for j, n, s, x, y in doc["action"]}
    comp_table = {(j, k, lab(x), tuple((m, lab(y)) for m, y in inners)): lab(z)
                  for j, k, x, inners, z in doc["composition"]}
    return tabulated_operad(doc["name"], doc["max_level"], levels,
                            lab(doc["unit"]), act_table, comp_table)


@cache
def tabulated_doc(make, N):
    """The builtin make(N) as explicit tables, its keys, and its JSON document."""
    base = make(N)
    tables = operad_tables(base)
    table = tabulated_operad(f"{base.name}_table", N, base.levels, base.unit,
                             *tables)
    return tables, json.dumps(jsonio.encode_operad(table))


def table_calls(op, tables):
    """(level, value) of op.act and op.compose on every key of tables."""
    act_table, comp_table = tables
    for j, n, images, x in act_table:
        yield n, op.act(j, n, Perm(images), x)
    for j, k, x, inners in comp_table:
        yield sum(m for m, _ in inners), op.compose(j, k, x, inners)


READER_CASES = pytest.mark.parametrize("make, N", [
    (barratt_eccles, 3), (associativity_operad, 4), (commutative_operad, 3),
], ids=["BE3", "ASS4", "COMM3"])


@READER_CASES
def test_decoded_tables_agree_with_the_reference_rule(make, N):
    tables, text = tabulated_doc(make, N)
    op = jsonio.decode_operad(json.loads(text))
    ref = reference_decode_operad(json.loads(text))
    assert op.levels == ref.levels and op.unit == ref.unit
    for (n, got), (_, want) in zip(table_calls(op, tables),
                                   table_calls(ref, tables), strict=True):
        assert got == want and repr(got) == repr(want)


@READER_CASES
def test_decoded_tables_hold_the_levels_own_objects(make, N):
    tables, text = tabulated_doc(make, N)
    op = jsonio.decode_operad(json.loads(text))
    # the first level to decode a label owns it; COMM's levels repeat "id"
    first = {}
    for level in op.levels:
        for v in (*level.objects, *level.morphisms):
            first.setdefault(v, v)
    assert op.unit is first[op.unit]
    for n, value in table_calls(op, tables):
        level = op.levels[n]
        assert value in level.objects or value in level.morphisms
        assert value is first[value]


def test_a_value_equal_to_a_level_element_decodes_to_that_element(tmp_path):
    # every 1 of a composition value written true: [true, 2] == (1, 2)
    _, text = tabulated_doc(associativity_operad, 2)
    doc = json.loads(text)
    for row in doc["composition"]:
        row[4] = [True if v == 1 else v for v in row[4]]
    path = tmp_path / "ass2.json"
    path.write_text(json.dumps(doc))
    op = jsonio.decode_operad(jsonio.load(path))
    ref = reference_decode_operad(jsonio.load(path))
    inners = ((1, (1,)), (1, (1,)))
    assert ref.compose(0, 2, (1, 2), inners) == (True, 2)
    got = op.compose(0, 2, (1, 2), inners)
    assert got == (1, 2) and type(got[0]) is int
    assert got is op.levels[2].objects[op.levels[2].objects.index((1, 2))]
    plain = jsonio.decode_operad(json.loads(text))
    assert validate_operad(op) == validate_operad(ref) == validate_operad(plain)
    assert validate_operad(op)["ok"]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("text", ['{"a": [1, [2, "x"]]}', '{"a": [1, 2.5]}'],
                         ids=["good", "float"])
def test_load_pauses_the_collector_and_restores_its_state(enabled, text, tmp_path,
                                                          monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(text)
    during, json_load = [], json.load
    monkeypatch.setattr(json, "load", lambda *a, **k: (
        during.append(gc.isenabled()) or json_load(*a, **k)))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if "2.5" in text:
            with pytest.raises(StructuralError, match="2.5 is not an integer"):
                jsonio.load(path)
        else:
            assert jsonio.load(path) == {"a": [1, [2, "x"]]}
        assert gc.isenabled() is enabled and during == [False]
    finally:
        (gc.enable if was else gc.disable)()


def test_algebra_entry_past_its_bound_is_refused_not_read():
    # a hand-written entry at arity 3 in a file whose bound is 2: the bound
    # refuses it, where a lookup would return the planted value
    op = barratt_eccles(3)
    doc = jsonio.encode_algebra(z2_discrete_algebra(op), 2)
    e = next(e for e in all_elements(op, 0, (0, 1), 3) if e.n == 3)
    doc["xi0"].append([jsonio.encode_elem(e), 7])
    A = jsonio.decode_algebra(rt(doc))
    with pytest.raises(BoundExceeded, match="arity 3 beyond tabulated bound 2"):
        A.xi0(e)


# ---------------------------------------------------------------------------
# fixtures for the command line

def xor_classical():
    """Commutative xor monoid on {0,1} as a symmetric multicategory, cap 2."""
    objs = (0, 1)
    mors, src, tgt = [], {}, {}
    for n in range(3):
        for xs in product(objs, repeat=n):
            f = ("m", xs)
            mors.append(f)
            src[f], tgt[f] = xs, sum(xs) % 2
    comp = {}
    for f in mors:
        pools = [tuple(g for g in mors if tgt[g] == a) for a in src[f]]
        for gs in product(*pools):
            glued = tuple(x for g in gs for x in src[g])
            if len(glued) <= 2:
                comp[(f, gs)] = ("m", glued)
    act = {(f, s.images): ("m", s.permuted(src[f]))
           for f in mors for s in perms(len(src[f]))}
    return ClassicalMulticat(objs, tuple(mors), src, tgt,
                             {a: ("m", (a,)) for a in objs}, comp, act)


def corrupt_operad_doc():
    base = associativity_operad(2)
    at, ct = operad_tables(base)
    doc = jsonio.encode_operad(
        tabulated_operad("word2", 2, base.levels, base.unit, at, ct))
    for row in doc["composition"]:
        if row[:4] == [0, 1, [1], [[2, [1, 2]]]]:
            row[4] = [2, 1]  # gamma(unit; x) now moves x
            return doc
    raise AssertionError("expected entry missing")


# ---------------------------------------------------------------------------
# command line

def run(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def test_cli_validate_builtin_operads(tmp_path):
    code, rep = run(["validate", "operad", "barratt_eccles", "--truncate", "3",
                     "--bound", "3", "--require-sigma-free"], tmp_path)
    assert code == 0 and rep["ok"]
    assert [c["status"] for c in rep["checks"]] == ["pass", "pass"]


def test_cli_commutative_not_free(tmp_path):
    code, rep = run(["validate", "operad", "commutative", "--truncate", "3",
                     "--require-sigma-free"], tmp_path)
    assert code == 1
    fail = [c for c in rep["checks"] if c["status"] == "fail"]
    assert fail[0]["name"] == "sigma freeness"
    assert "fixed_point" in fail[0]["witnesses"][0]


@pytest.mark.parametrize("command", [
    ["validate", "multicat", "terminal"],
    ["free", "terminal", "--hom", "2", "2"],
    ["check-adjunction", "terminal", "z2"],
    ["validate", "multicat", "xor.json"],
])
def test_cli_multicat_over_commutative_exits_2(command, tmp_path, capsys,
                                               monkeypatch):
    # refused where the multicategory is built, before any enumeration
    def never(*args):
        raise AssertionError("enumerated a multicategory over a non-free operad")
    monkeypatch.setattr(gmcat.dmulticat, "enumerate_M2", never)
    monkeypatch.setattr(gmcat.dmulticat, "source_action_domain", never)
    jsonio.save(jsonio.encode_classical(xor_classical(), True), tmp_path / "xor.json")
    monkeypatch.chdir(tmp_path)
    code, rep = run([*command, "--operad", "commutative", "--truncate", "3"],
                    tmp_path)
    assert code == 2 and rep is None
    assert "needs a sigma-free operad" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["validate", "algebra", "free"],
                                     ["underlying", "free"]])
def test_cli_free_algebra_over_commutative_exits_2(command, tmp_path, capsys):
    # its carrier DC composes by realigning arrangements: refused, not a
    # carrier with an empty composition table
    code, rep = run([*command, "--operad", "commutative", "--truncate", "3"],
                    tmp_path)
    assert code == 2 and rep is None
    assert "needs a sigma-free operad" in capsys.readouterr().err


def test_cli_corrupted_gamma_file(tmp_path):
    path = tmp_path / "bad_operad.json"
    jsonio.save(corrupt_operad_doc(), path)
    code, rep = run(["validate", "operad", str(path), "--bound", "2"],
                    tmp_path)
    assert code == 1
    wit = rep["checks"][0]["witnesses"][0]
    assert wit[0] == "left unit fails" and isinstance(wit[1], list)


def test_cli_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text('{"kind": "operad", nope')
    assert main(["validate", "operad", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_unknown_kind_exits_2(tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text('{"kind": "poset"}')
    assert main(["validate", "operad", str(path)]) == 2
    assert "expected one of ['operad'], got 'poset'" in capsys.readouterr().err


def test_cli_free_hom_counts(tmp_path):
    code, rep = run(["free", "terminal_symmetric", "--hom", "2", "2"],
                    tmp_path)
    assert code == 0 and rep["dump"]["count"] == 4
    code, rep = run(["free", "terminal_nonsymmetric", "--hom", "2", "2"],
                    tmp_path)
    assert code == 0 and rep["dump"]["count"] == 3
    code, rep = run(["free", "terminal_symmetric", "--hom", "0", "0"],
                    tmp_path)
    assert code == 0 and rep["dump"]["count"] == 1


def test_cli_free_hat_vs_quotient(tmp_path):
    args = ["free", "terminal_symmetric", "--hom", '["*", "*"]', '["*"]']
    code, rep = run(args + ["--hat"], tmp_path)
    assert code == 0 and rep["dump"]["count"] == 2
    code, rep = run(args, tmp_path)
    assert code == 0 and rep["dump"]["count"] == 1
    assert rep["dump"]["classes"][0]["members"] == 2


def test_cli_free_beyond_truncation(tmp_path):
    assert main(["free", "terminal_symmetric", "--hom", "5", "5"]) == 3


def test_cli_underlying_dump(tmp_path):
    code, rep = run(["underlying", "z2_discrete", "--bound", "2"], tmp_path)
    assert code == 0
    assert rep["dump"]["morphisms_by_arity"] == {"0": 1, "1": 2, "2": 4}
    M = jsonio.decode_multicat(rep["dump"])
    assert validate_multicat(M)["ok"]


def test_cli_validate_accepts_report_file(tmp_path):
    # a report produced with --out can be fed back in; its dump is unwrapped
    code, rep = run(["underlying", "z2_discrete", "--bound", "2"], tmp_path,
                    name="underlying_report.json")
    assert code == 0
    code, rep = run(["validate", "multicat",
                     str(tmp_path / "underlying_report.json"), "--bound", "2"],
                    tmp_path)
    assert code == 0 and rep["ok"]


def test_cli_underlying_invalid_algebra(tmp_path):
    doc = jsonio.encode_algebra(z2_discrete_algebra(BE), 2)
    for row in doc["xi0"]:
        if row[0]["n"] == 1 and row[0]["xs"] == [1]:
            row[1] = 0  # eta entry now forgets its argument
            break
    path = tmp_path / "broken_algebra.json"
    jsonio.save(doc, path)
    code, rep = run(["underlying", str(path), "--bound", "2"], tmp_path)
    assert code == 1
    assert any(c["name"] == "algebra laws" and c["status"] == "fail"
               for c in rep["checks"])
    assert "dump" not in rep


def test_cli_malformed_tables_exit_1(tmp_path):
    # a multicategory short of one action entry, an algebra whose carrier is
    # short of one source: each is a failed check, not an internal error
    from test_dmulticat import without_one_action_entry
    M, victim = without_one_action_entry(barratt_eccles(2))
    jsonio.save(jsonio.encode_multicat(M), tmp_path / "m.json")
    code, rep = run(["validate", "multicat", str(tmp_path / "m.json")], tmp_path)
    assert code == 1
    assert rep["checks"][0]["witnesses"] == [
        ["source action: action domain mismatch", [["t", 2], repr(victim[1])]]]

    doc = jsonio.encode_algebra(z2_discrete_algebra(barratt_eccles(3)), 2)
    dropped = doc["carrier"]["src"].pop(0)
    jsonio.save(doc, tmp_path / "a.json")
    code, rep = run(["validate", "algebra", str(tmp_path / "a.json"),
                     "--bound", "2"], tmp_path)
    assert code == 1
    assert [c["name"] for c in rep["checks"]] == ["carrier category laws"]
    assert ["endpoint outside objects", dropped[0]] in rep["checks"][0]["witnesses"]


def _keyed(row):
    """The witness of a (morphism, element) table row, as a report writes it."""
    return [row[0], repr(jsonio.decode_elem(barratt_eccles(3), row[1]))]


def _drop_identity_of_1(doc):
    doc["ident"] = [row for row in doc["ident"] if row[0] != 1]
    return ["bad identity", 1]


def _drop_swap_of_m01(doc):
    doc["act"] = [row for row in doc["act"] if row[:2] != [["m", [0, 1]], [2, 1]]]
    return ["action missing or moves endpoints", [["m", [0, 1]], [2, 1]]]


def _unary_filling_of_m01(doc):
    key = [["m", [0, 1]], [["m", [0]]]]
    doc["comp"].append([*key, ["m", [0]]])
    return ["composition defined outside composable pairs", key]


def _no_identities(doc):
    doc["ident"] = []
    return ["identity not a morphism", "*"]


def _identity_not_a_morphism(doc):
    doc["ident"] = [["*", "nope"]]
    return ["identity not a morphism", "*"]


def _action_value_outside(doc):
    doc["source_action"][0][2] = "nope"
    return ["source action outside morphisms", _keyed(doc["source_action"][0])]


def _composite_outside(doc):
    doc["composition"][0][2] = "nope"
    return ["composite outside morphisms", _keyed(doc["composition"][0])]


def _target_missing(doc):
    return ["endpoint outside objects", doc["tgt"].pop(0)[0]]


def _composite_missing(doc):
    return ["composition missing on composable pair", _keyed(doc["composition"].pop(5))]


@pytest.mark.parametrize("kind, edit", [
    ("classical", _drop_identity_of_1),
    ("classical", _drop_swap_of_m01),
    ("classical", _unary_filling_of_m01),
    ("dmulticat", _no_identities),
    ("dmulticat", _identity_not_a_morphism),
    ("dmulticat", _action_value_outside),
    ("dmulticat", _composite_outside),
    ("dmulticat", _target_missing),
    ("dmulticat", _composite_missing),
], ids=lambda v: v if isinstance(v, str) else v.__name__.strip("_"))
def test_cli_table_defect_exits_1(kind, edit, tmp_path):
    # an entry that is missing, or names no label of the structure, is a
    # failed axiom, reported before any law check looks the entry up
    doc = (jsonio.encode_classical(xor_classical(), True) if kind == "classical"
           else jsonio.encode_multicat(terminal_multicat(barratt_eccles(2))))
    witness = edit(doc)
    jsonio.save(doc, tmp_path / "m.json")
    code, rep = run(["validate", "multicat", str(tmp_path / "m.json")], tmp_path)
    assert code == 1
    assert rep["checks"][-1]["witnesses"] == [witness]



def _level_source_missing(doc):
    return ["level not a category",
            [2, ["endpoint outside objects", doc["levels"][2]["src"].pop(0)[0]]]]


def _level_without_identities(doc):
    doc["levels"][2]["ident"] = []
    return ["level not a category", [2, ["bad identity", doc["levels"][2]["objects"][0]]]]


def _level_identity_not_a_morphism(doc):
    row = doc["levels"][2]["ident"][0]
    row[1] = "nope"
    return ["level not a category", [2, ["bad identity", row[0]]]]


def _level_composite_outside(doc):
    row = doc["levels"][2]["comp"][0]
    row[2] = "nope"
    return ["level not a category", [2, ["composite has wrong endpoints", row[:2]]]]


def _action_value_outside(row):
    def edit(doc):
        j, n, s, x, _ = doc["action"][row]
        doc["action"][row][4] = "nope"
        return ["action value outside the level", [n, j, s, x]]
    edit.__name__ = f"action_value_outside_{'first' if row == 0 else 'last'}"
    return edit


def _composition_value_outside(last):
    def edit(doc):
        # the first entry, or the last of total arity within the checked bound 2
        inside = [i for i, (_, k, _, inners, _) in enumerate(doc["composition"])
                  if k + sum(n for n, _ in inners) <= 2]
        row = doc["composition"][inside[-1] if last else inside[0]]
        row[4] = "nope"
        return ["composition value outside the level", row[:4]]
    edit.__name__ = f"composition_value_outside_{'last' if last else 'first'}"
    return edit


def _action_entry_missing(row):
    def edit(doc):
        j, n, s, x, _ = doc["action"].pop(row)
        return ["action entry missing", [n, j, s, x]]
    edit.__name__ = f"action_entry_missing_{'first' if row == 0 else 'last'}"
    return edit


def _composition_entry_missing(last):
    def edit(doc):
        inside = [i for i, (_, k, _, inners, _) in enumerate(doc["composition"])
                  if k + sum(n for n, _ in inners) <= 2]
        row = doc["composition"].pop(inside[-1] if last else inside[0])
        return ["composition entry missing", row[:4]]
    edit.__name__ = f"composition_entry_missing_{'last' if last else 'first'}"
    return edit


@pytest.mark.parametrize("edit", [
    _level_source_missing, _level_without_identities,
    _level_identity_not_a_morphism, _level_composite_outside,
    _action_value_outside(0), _action_value_outside(-1),
    _composition_value_outside(False), _composition_value_outside(True),
    _action_entry_missing(0), _action_entry_missing(-1),
    _composition_entry_missing(False), _composition_entry_missing(True),
], ids=lambda f: f.__name__.strip("_"))
def test_cli_operad_table_defect_exits_1(edit, tmp_path):
    # a level that is not a category, or an action or composition entry that
    # is missing or outside its level, fails before the group, unit and
    # composition laws look it up
    base = barratt_eccles(2)
    doc = jsonio.encode_operad(
        tabulated_operad("be2", 2, base.levels, base.unit, *operad_tables(base)))
    witness = edit(doc)
    jsonio.save(doc, tmp_path / "op.json")
    code, rep = run(["validate", "operad", str(tmp_path / "op.json")], tmp_path)
    assert code == 1
    assert rep["checks"][0]["witnesses"] == [witness]


@pytest.mark.parametrize("command", [
    ["validate", "algebra", "z2"], ["validate", "algebra", "terminal"],
    ["validate", "algebra", "free"], ["underlying", "z2"],
    ["free", "terminal", "--hom", "2", "2"],
    ["validate", "multicat", "pairing.json"],
    ["check-adjunction", "terminal", "z2"],
], ids=["validate-algebra-z2", "validate-algebra-terminal",
        "validate-algebra-free", "underlying-z2", "free-terminal",
        "validate-multicat-pairing", "check-adjunction"])
def test_cli_action_leaving_its_level_exits_2(command, tmp_path, capsys,
                                              monkeypatch):
    # each command reads the orbit table before anything else of the
    # operad's monad, so each is refused (exit 2) for the translate itself
    base = barratt_eccles(2)
    act_table, comp_table = operad_tables(base)
    act_table[(0, 2, (2, 1), (1, 2))] = (0, 0)
    jsonio.save(jsonio.encode_operad(tabulated_operad(
        "be2_fault", 2, base.levels, base.unit, act_table, comp_table)),
        tmp_path / "bad.json")
    jsonio.save(jsonio.encode_classical(pairing_classical(), True),
                tmp_path / "pairing.json")
    monkeypatch.chdir(tmp_path)
    code, rep = run([*command, "--operad", "bad.json", "--truncate", "2",
                     "--bound", "2"], tmp_path)
    assert code == 2 and rep is None
    assert capsys.readouterr().err == ("error: the action of (2, 1) sends "
                                       "(1, 2) outside level 2: (0, 0)\n")
    # validate operad reads the table itself and reports the entry
    code, rep = run(["validate", "operad", "bad.json"], tmp_path)
    assert code == 1
    assert rep["checks"][0]["witnesses"] == [
        ["action value outside the level", [2, 0, [2, 1], [1, 2]]]]


@pytest.mark.parametrize("table, row",[("xi0", 0), ("xi0", -1), ("xi1", 0), ("xi1", -1)],
                         ids=["xi0_first", "xi0_last", "xi1_first", "xi1_last"])
def test_cli_algebra_value_outside_carrier_exits_1(table, row, tmp_path):
    # the carrier's tables are read at every action value: one that is not a
    # label of the carrier is a failed law, not a lookup error
    op = barratt_eccles(3)
    doc = jsonio.encode_algebra(z2_discrete_algebra(op), 2)
    doc[table][row][1] = "nope"
    jsonio.save(doc, tmp_path / "a.json")
    code, rep = run(["validate", "algebra", str(tmp_path / "a.json"),
                     "--bound", "2"], tmp_path)
    assert code == 1
    laws = rep["checks"][-1]
    assert laws["name"] == "algebra laws" and laws["status"] == "fail"
    assert ["action value outside the carrier",
            repr(jsonio.decode_elem(op, doc[table][row][0]))] in laws["witnesses"]

def test_cli_check_adjunction(tmp_path):
    code, rep = run(["check-adjunction", "terminal_symmetric", "z2_discrete",
                     "--bound", "2"], tmp_path)
    assert code == 0 and rep["ok"]
    assert len(rep["checks"]) == 3


def test_cli_terminal_over_a_tabulated_product_operad(tmp_path):
    # level 2 of ASS x BE holds two orbits of objects, so the terminal
    # multicategory has a morphism out of each
    jsonio.save(jsonio.encode_operad(ass_x_be(2)), tmp_path / "op.json")
    common = ["--operad", str(tmp_path / "op.json"), "--truncate", "2",
              "--bound", "2"]
    code, rep = run(["validate", "multicat", "terminal", *common], tmp_path)
    assert code == 0 and rep["ok"]
    code, rep = run(["check-adjunction", "terminal", "z2", *common], tmp_path)
    assert code == 0 and rep["ok"]


def test_cli_hom_element_spec_reaches_every_orbit(tmp_path):
    # level 2 of ASS x BE holds two orbits; the arity and label-list forms
    # name the base one, the element form either
    path = tmp_path / "op.json"
    jsonio.save(jsonio.encode_operad(ass_x_be(2)), path)
    op = jsonio.decode_operad(jsonio.load(path))
    M = terminal_multicat(op)
    a = next(e for e in elements_of(op, 0, ("*",), 2)
             if e.d != _level_unit_obj(op, 2))
    lz, spec_a = L(M), json.dumps(jsonio.encode_elem(a))
    for b, spec_b in ((eta(op, 0, "*"), '["*"]'), (a, spec_a)):
        code, rep = run(["free", "terminal", "--operad", str(path), "--truncate",
                         "2", "--bound", "2", "--hom", spec_a, spec_b], tmp_path)
        assert code == 0
        assert (rep["dump"]["source"], rep["dump"]["target"]) == (repr(a), repr(b))
        assert rep["dump"]["count"] == len(lz.hom(a, b)) > 0


@pytest.mark.parametrize("argv", [
    ["free", "M", "--hom", '["*","*","*"]', '["*"]', "--truncate", "3"],
    ["check-adjunction", "M", "z2", "--truncate", "3", "--bound", "3"],
], ids=["free", "check-adjunction"])
def test_cli_unlawful_multicat_file_exits_1(argv, tmp_path):
    # a multicategory read from JSON must pass the axioms validate checks
    # before the free construction reads its tables
    doc = jsonio.encode_multicat(terminal_multicat(barratt_eccles(3)))
    dropped = doc["source_action"].pop()
    jsonio.save(doc, tmp_path / "m.json")
    argv = [str(tmp_path / "m.json") if a == "M" else a for a in argv]
    code, rep = run(argv, tmp_path)
    assert code == 1
    assert [(c["name"], c["status"]) for c in rep["checks"]] == \
        [("multicategory axioms", "fail")]
    assert rep["checks"][0]["witnesses"] == [
        ["source action: action domain mismatch",
         [dropped[0], repr(jsonio.decode_elem(barratt_eccles(3), dropped[1]))]]]


def test_cli_check_adjunction_unlawful_algebra_file_exits_1(tmp_path):
    # an algebra read from JSON must pass the checks validate runs before
    # the counit reads its tables
    doc = jsonio.encode_algebra(z2_discrete_algebra(BE), 2)
    doc["xi1"][-1][1] = "nope"
    jsonio.save(doc, tmp_path / "a.json")
    code, rep = run(["check-adjunction", "terminal_symmetric",
                     str(tmp_path / "a.json"), "--bound", "2"], tmp_path)
    assert code == 1
    assert [(c["name"], c["status"]) for c in rep["checks"]] == \
        [("carrier category laws", "pass"), ("algebra laws", "fail")]
    assert ["action value outside the carrier",
            repr(jsonio.decode_elem(BE, doc["xi1"][-1][0]))] \
        in rep["checks"][1]["witnesses"]


def test_cli_check_adjunction_bounded_exits_3(tmp_path):
    # the free pair at bound 2 passes everywhere it can look, but the
    # counit evaluation pushes some instances past the carrier bound
    code, rep = run(["check-adjunction", "terminal_nonsymmetric", "free",
                     "--operad", "associativity", "--bound", "2"], tmp_path)
    assert code == 3 and rep["ok"]
    by_name = {c["name"]: c for c in rep["checks"]}
    counit = by_name["counit algebra map"]
    assert counit["status"] == "bound-exceeded"
    assert counit["counts"]["bounded"] > 0


def test_cli_triangles_bounded_exits_3(tmp_path, monkeypatch):
    # a bounded triangle instance is not a pass, though nothing failed
    inner = gmcat.cli.check_triangles
    monkeypatch.setattr(gmcat.cli, "check_triangles",
                        lambda *a, **k: {**inner(*a, **k), "bounded": 1})
    code, rep = run(["check-adjunction", "terminal_symmetric", "z2",
                     "--bound", "2"], tmp_path)
    assert code == 3 and rep["ok"]
    tri = rep["checks"][-1]
    assert tri["name"] == "triangle identities"
    assert tri["status"] == "bound-exceeded" and tri["counts"]["bounded"] == 1


def test_cli_check_adjunction_hat_witness(tmp_path):
    code, rep = run(["check-adjunction", "terminal_symmetric", "z2_discrete",
                     "--bound", "2", "--hat"], tmp_path)
    assert code == 1
    assert rep["checks"][0]["status"] == "fail"
    assert "delta" in rep["dump"]["unit_defect"]


def test_cli_operad_mismatch_exits_2(tmp_path, capsys):
    assert main(["check-adjunction", "terminal_nonsymmetric", "z2_discrete",
                 "--bound", "2"]) == 2
    assert "operad mismatch" in capsys.readouterr().err


def test_cli_classical_multicat_file(tmp_path):
    path = tmp_path / "xor.json"
    jsonio.save(jsonio.encode_classical(xor_classical(), True), path)
    code, rep = run(["validate", "multicat", str(path), "--truncate", "2",
                     "--bound", "2"], tmp_path)
    assert code == 0
    assert [c["name"] for c in rep["checks"]] == \
        ["classical multicategory axioms", "multicategory axioms"]


def test_cli_classical_multicat_file_failing_its_axioms(tmp_path):
    # the classical check fails, so no multicategory is built or validated
    cm = xor_classical()
    path = tmp_path / "xor.json"
    jsonio.save(jsonio.encode_classical(
        replace(cm, ident={**cm.ident, 1: ("m", (0,))}), True), path)
    code, rep = run(["validate", "multicat", str(path), "--truncate", "2",
                     "--bound", "2"], tmp_path)
    assert code == 1
    assert [c["name"] for c in rep["checks"]] == ["classical multicategory axioms"]
    assert rep["checks"][0]["witnesses"][0] == ["bad identity", 1]


@pytest.mark.parametrize("edit, witness", [
    (lambda cm: replace(cm, tgt={**cm.tgt, "s2": "nope"}),
     ["endpoint outside objects", "s2"]),
    (lambda cm: replace(cm, comp={**cm.comp, ("s1", ("s1",)): "nope"}),
     ["composite outside morphisms", ["s1", ["s1"]]]),
], ids=["target-outside-objects", "composite-outside-morphisms"])
def test_cli_classical_label_outside_its_table_exits_1(edit, witness, tmp_path):
    # the classical check refuses the file before it is encoded
    path = tmp_path / "sum.json"
    jsonio.save(jsonio.encode_classical(edit(sum_classical(3)), True), path)
    code, rep = run(["validate", "multicat", str(path)], tmp_path)
    assert code == 1
    assert [c["name"] for c in rep["checks"]] == ["classical multicategory axioms"]
    assert rep["checks"][0]["witnesses"] == [witness]


@pytest.mark.parametrize("symmetric, options, message", [
    (True, ["--truncate", "2", "--bound", "2"], "arity exceeds the operad truncation"),
    (False, ["--operad", "barratt_eccles"],
     "non-identity action morphism over barratt_eccles"),
], ids=["arity-past-truncation", "non-symmetric-over-barratt-eccles"])
def test_cli_classical_file_its_operad_cannot_encode_exits_2(
        symmetric, options, message, tmp_path, capsys):
    # lawful classical tables that the encoding over the operad refuses
    cm = sum_classical(3)
    path = tmp_path / "sum.json"
    jsonio.save(jsonio.encode_classical(
        cm if symmetric else replace(cm, act={}), symmetric), path)
    code, rep = run(["validate", "multicat", str(path), *options], tmp_path)
    assert code == 2 and rep is None
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["dmulticat", "classical_multicat"])
def test_cli_outer_equivariance_failure_exits_1(kind, tmp_path):
    # broken in the outer slot only: the classical tables are well formed,
    # and the encoding fails the outer interchange, whichever form is read
    cm = comb_classical(lambda f, p, g: (f, p))
    doc = (jsonio.encode_multicat(from_symmetric(cm, barratt_eccles(3)))
           if kind == "dmulticat" else jsonio.encode_classical(cm, True))
    jsonio.save(doc, tmp_path / "comb.json")
    code, rep = run(["validate", "multicat", str(tmp_path / "comb.json"),
                     "--truncate", "3"], tmp_path)
    assert code == 1
    checks = [(c["name"], c["status"]) for c in rep["checks"]]
    assert checks[-1] == ("multicategory axioms", "fail")
    assert checks[:-1] == ([] if kind == "dmulticat" else
                           [("classical multicategory axioms", "pass")])
    assert {w[0] for w in rep["checks"][-1]["witnesses"]} == \
        {"outer action does not interchange with composition"}


@pytest.mark.parametrize("command", [
    ["validate", "multicat", "pairing.json"],
    ["free", "xor.json", "--truncate", "2", "--bound", "2",
     "--hom", "[0, 1]", "[1]"],
], ids=["validate-pairing", "free-xor"])
def test_cli_checks_classical_tables_once_per_load(command, tmp_path,
                                                   monkeypatch):
    calls = []

    def counted(cm, symmetric):
        calls.append(symmetric)
        return validate_classical(cm, symmetric)
    monkeypatch.setattr(gmcat.cli, "validate_classical", counted)
    monkeypatch.setattr(gmcat.dmulticat, "validate_classical", counted)
    jsonio.save(jsonio.encode_classical(pairing_classical(), True),
                tmp_path / "pairing.json")
    jsonio.save(jsonio.encode_classical(xor_classical(), True), tmp_path / "xor.json")
    monkeypatch.chdir(tmp_path)
    code, rep = run(command, tmp_path)
    assert code == 0 and rep["checks"][0]["name"] == \
        "classical multicategory axioms"
    assert calls == [True]


def test_cli_validate_terminal_algebra(tmp_path):
    code, rep = run(["validate", "algebra", "terminal", "--bound", "2"], tmp_path)
    assert code == 0
    assert [(c["name"], c["status"]) for c in rep["checks"]] == \
        [("carrier category laws", "pass"), ("algebra laws", "pass")]


@pytest.mark.parametrize("target, hom, message", [
    ("terminal_symmetric", [], "free needs --hom SRC TGT"),
    ("terminal_symmetric", ["two", "2"],
     "hom spec 'two' is neither an arity nor a JSON list"),
    ("terminal_symmetric", ["2", '{"n": 2}'], "must be a JSON list"),
    ("terminal_symmetric", ['["*", "x"]', "1"],
     "'x' is not an object of the multicategory"),
    ("xor.json", ["2", "2"], "arity shorthand needs a single-object multicategory"),
    ("terminal_symmetric", ['{"j": 1, "n": 1, "d": [[1], [1]], "xs": ["*"]}', "1"],
     "must be a JSON list or an object-level element"),
    ("terminal_symmetric", ['{"j": 0, "n": 2, "d": [9, 9], "xs": ["*", "*"]}', "1"],
     "(9, 9) is not a level-2 element"),
    ("terminal", ["-1", "1"], "hom spec '-1' is a negative arity"),
], ids=["no-hom", "not-a-spec", "not-a-list", "not-an-object", "shorthand",
        "element-j-1", "element-d-outside-its-level", "negative-arity"])
def test_cli_free_unusable_hom_exits_2(target, hom, message, tmp_path, capsys,
                                       monkeypatch):
    jsonio.save(jsonio.encode_classical(xor_classical(), True), tmp_path / "xor.json")
    monkeypatch.chdir(tmp_path)
    code, rep = run(["free", target, "--truncate", "2", "--bound", "2",
                     *(["--hom", *hom] if hom else [])], tmp_path)
    assert code == 2 and rep is None
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["validate", "algebra", "z2", "--bound", "0"], "arity bound must be >= 1, got 0"),
    (["validate", "operad", "nope.json"], "no such file"),
    (["validate", "multicat", "terminal", "--operad", "be3.json", "--bound", "4"],
     "operad truncation 3 below arity bound 4"),
    (["validate", "operad", "list.json"], "top-level JSON value must be an object"),
    (["validate", "operad", "unknown.json"], "unknown builtin operad"),
    (["validate", "multicat", "level-2.json"],
     "element level 2 is neither 0 (objects) nor 1 (morphisms)"),
], ids=["bound-0", "no-such-file", "tabulated-truncation", "top-level-list",
        "unknown-builtin", "element-level-2"])
def test_cli_unusable_input_exits_2(argv, message, tmp_path, capsys, monkeypatch):
    jsonio.save(jsonio.encode_operad(barratt_eccles(3)), tmp_path / "be3.json")
    jsonio.save([1, 2], tmp_path / "list.json")
    jsonio.save({"kind": "operad", "builtin": "nope"}, tmp_path / "unknown.json")
    # an element level other than 0 or 1 was read as the morphism level
    doc = jsonio.encode_multicat(terminal_multicat(barratt_eccles(2)))
    doc["source_action"][0][1] = {**doc["source_action"][0][1], "j": 2}
    jsonio.save(doc, tmp_path / "level-2.json")
    monkeypatch.chdir(tmp_path)
    code, rep = run(argv, tmp_path)
    assert code == 2 and rep is None
    assert message in capsys.readouterr().err


def one_object_classical(label):
    """A classical multicategory file whose one object is the JSON token label."""
    x, f = "@x@", ["id", "@x@"]
    doc = {"kind": "classical_multicat", "symmetric": True, "objects": [x],
           "morphisms": [f], "src": [[f, [x]]], "tgt": [[f, x]],
           "ident": [[x, f]], "comp": [[f, [f], f]], "act": [[f, [1], f]]}
    return json.dumps(doc).replace('"@x@"', label)


def tabulated_operad_file(max_level):
    """ASS(2) as explicit tables, with the JSON token max_level."""
    base = associativity_operad(2)
    doc = jsonio.encode_operad(tabulated_operad(
        "word2", 2, base.levels, base.unit, *operad_tables(base)))
    return json.dumps({**doc, "max_level": "@n@"}).replace('"@n@"', max_level)


@pytest.mark.parametrize("command, text, token", [
    ("multicat", one_object_classical("1.5"), "1.5"),
    ("multicat", one_object_classical("NaN"), "NaN"),
    ("operad", tabulated_operad_file("1.0"), "1.0"),
], ids=["float-label", "nan-label", "float-max-level"])
def test_cli_non_integer_number_exits_2(command, text, token, tmp_path, capsys):
    # a float label crashed the canonical order (exit 4), NaN != NaN failed
    # the identity law (exit 1), a float level count crashed range (exit 4)
    path = tmp_path / "input.json"
    path.write_text(text)
    code, rep = run(["validate", command, str(path)], tmp_path)
    assert code == 2 and rep is None
    assert f"JSON number {token} is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("multicat", one_object_classical('[{"elem": {}}]')),
    ("multicat", one_object_classical('["a", [1, {"elem": {}}]]')),
    ("operad", json.dumps({**json.loads(tabulated_operad_file("2")),
                           "unit": [{"elem": {}}]})),
], ids=["in-a-list", "in-a-nested-list", "operad-unit"])
def test_cli_element_label_without_an_operad_exits_2(command, text, tmp_path, capsys):
    # a list of scalars converts at once; a dict inside a list still needs
    # the ambient operad, which no label of these two formats has
    path = tmp_path / "input.json"
    path.write_text(text)
    code, rep = run(["validate", command, str(path)], tmp_path)
    assert code == 2 and rep is None
    assert "needs an ambient operad" in capsys.readouterr().err


def test_cli_algebra_file_past_its_bound_exits_3(tmp_path):
    # the file tabulates the action up to arity 2; arity 3 is bounded, not failed
    path = tmp_path / "z2.json"
    jsonio.save(jsonio.encode_algebra(z2_discrete_algebra(barratt_eccles(3)), 2), path)
    code, rep = run(["validate", "algebra", str(path), "--bound", "3"], tmp_path)
    assert code == 3 and rep["ok"]
    laws = rep["checks"][-1]
    assert laws["name"] == "algebra laws" and laws["status"] == "bound-exceeded"
    assert laws["counts"]["bounded"] > 0


def test_cli_config_invariant(capsys):
    assert main(["validate", "operad", "barratt_eccles",
                 "--truncate", "2", "--bound", "3"]) == 2
    assert "below arity bound" in capsys.readouterr().err


def test_cli_reports_are_deterministic(tmp_path):
    _, r1 = run(["check-adjunction", "terminal_symmetric", "z2_discrete",
                 "--bound", "2", "--seed", "7"], tmp_path, "a.json")
    _, r2 = run(["check-adjunction", "terminal_symmetric", "z2_discrete",
                 "--bound", "2", "--seed", "7"], tmp_path, "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert r1 == r2


@pytest.mark.parametrize("command, code", [
    (["check-adjunction", "terminal_symmetric", "z2", "--bound", "2"], 0),
    (["free", "terminal_symmetric", "--hom", "2", "2"], 0),
    (["validate", "multicat", "M"], 1),
], ids=["command0", "command1", "missing_composites"])
def test_cli_reports_do_not_depend_on_the_hash_seed(command, code, tmp_path):
    # fresh processes, so a hash that varies between processes (of a str
    # label, say) would reorder some set and change the report's bytes; M is
    # terminal BE(3) without six composites, so its report lists six witnesses
    doc = jsonio.encode_multicat(terminal_multicat(barratt_eccles(3)))
    del doc["composition"][:6]
    jsonio.save(doc, tmp_path / "m.json")
    command = [str(tmp_path / "m.json") if a == "M" else a for a in command]
    src = Path(__file__).resolve().parent.parent / "src"
    reports = []
    for seed in ("0", "1", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        out = tmp_path / f"seed{seed}.json"
        done = subprocess.run([sys.executable, "-m", "gmcat", *command,
                               "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == code, done.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    if code:
        witnesses = json.loads(reports[0])["checks"][-1]["witnesses"]
        assert [w[0] for w in witnesses].count(
            "composition missing on composable pair") == 6


def test_cli_internal_error_exits_4(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise KeyError("injected")
    monkeypatch.setattr(gmcat.cli, "validate_multicat", crash)
    assert main(["validate", "multicat", "terminal_symmetric"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "internal error: KeyError: 'injected'" in err
