"""JSON round trips for every structure kind the command line accepts.

Labels are JSON strings, integers, booleans, null, or lists of labels
(load refuses any other number); lists decode to tuples so composite
labels like ["t", 2] round-trip. A monad element used *as a label* (the
carrier of a free algebra, the morphisms of an underlying multicategory)
is wrapped as {"elem": {...}} and needs the ambient operad to decode.
Tables whose keys are not strings are stored as entry lists
([key parts..., value]) rather than JSON objects. Operads over a builtin
are stored by reference ({"builtin": name, "truncate": N}); anything else
gets explicit tables, which only scales to small truncations.

Each encoder dumps each distinct label once: its dump is a functools.cache
of dump_label local to the call, so the document may share a label's list
among entries (it is still plain JSON). Labels equal under == are one
label, as everywhere in gmcat, and decode_category and decode_operad
decode them to one object: the first one decoded, read through a _One
dict local to the call (an operad seeds its _One with its levels' objects
and morphisms, so its tables hold the levels' own objects and share each
key's tuples). A tabulated ASS(4) has 16 286 composition entries over
the 34 objects of its levels, so sharing is most of its decoded size.

save writes through json's C encoder, one line per table entry. load
reads any layout, with the cyclic collector paused: a parsed document is
lists, dicts, strs, ints, bools and None, with no reference cycle for a
collection to free, and collections during the parse only re-scan the
growing document.
"""

import gc
import json
from functools import cache

from .catoperad import BUILTIN_OPERADS, operad_tables, tabulated_operad
from .dalgebra import DAlgebra
from .dmulticat import ClassicalMulticat, DMulticat
from .errors import BoundExceeded, StructuralError
from .fincat import category
from .opmonad import MonadElem, all_elements, melem


def dump_label(v):
    if isinstance(v, MonadElem):
        return {"elem": encode_elem(v)}
    if isinstance(v, tuple):
        return [dump_label(x) for x in v]
    return v


def load_label(v, op=None):
    if isinstance(v, list):
        # a list of scalars converts at once; only lists and elements recurse
        for x in v:
            if isinstance(x, (list, dict)):
                return tuple([load_label(x, op) for x in v])
        return tuple(v)
    if isinstance(v, dict):
        if op is None or "elem" not in v:
            raise StructuralError(f"label {v!r} needs an ambient operad")
        return decode_elem(op, v["elem"])
    return v


def _entries(table, dump):
    return sorted(([dump(k), dump(v)] for k, v in table.items()), key=repr)


def encode_elem(e):
    return {"j": e.j, "n": e.n, "d": dump_label(e.d),
            "xs": [dump_label(x) for x in e.xs]}


def decode_elem(op, doc):
    return melem(op, doc["j"], load_label(doc["d"]),
                 tuple(load_label(x, op) for x in doc["xs"]))


# ---------------------------------------------------------------------------
# categories

def encode_category(C):
    dump = cache(dump_label)
    return {"kind": "category",
            "objects": [dump(x) for x in C.objects],
            "morphisms": [dump(f) for f in C.morphisms],
            "src": _entries(C.src, dump),
            "tgt": _entries(C.tgt, dump),
            "ident": _entries(C.ident, dump),
            "comp": [[dump(f), dump(g), dump(h)]
                     for (f, g), h in sorted(C.comp.items(), key=repr)]}


class _One(dict):
    """one[v] is the first object equal to v that one was asked for, so
    equal labels decode to one object; a hit is one dict lookup."""

    def __missing__(self, key):
        self[key] = key
        return key


def decode_category(doc, op=None):
    one = _One()
    lab = lambda v: one[load_label(v, op)]
    return category(
        [lab(x) for x in doc["objects"]],
        [lab(f) for f in doc["morphisms"]],
        {lab(f): lab(a) for f, a in doc["src"]},
        {lab(f): lab(a) for f, a in doc["tgt"]},
        {lab(a): lab(f) for a, f in doc["ident"]},
        {(lab(f), lab(g)): lab(h) for f, g, h in doc["comp"]})


# ---------------------------------------------------------------------------
# operads

def encode_operad(op):
    # a table-backed operad may carry a builtin's name: refer to the builtin
    # only when op runs the builtin's own procedures over the builtin's levels
    make = BUILTIN_OPERADS.get(op.name)
    ref = make(op.max_level) if make else None
    if ref is not None and all(
            getattr(mine, "__code__", None) is theirs.__code__
            for mine, theirs in ((op._act, ref._act),
                                 (op._compose, ref._compose))) and \
            ref.levels == op.levels:
        return {"kind": "operad", "builtin": op.name, "truncate": op.max_level}
    act_table, comp_table = operad_tables(op)
    dump = cache(dump_label)
    return {"kind": "operad", "name": op.name, "max_level": op.max_level,
            "unit": dump(op.unit),
            "levels": [encode_category(L) for L in op.levels],
            "action": [[j, n, list(s), dump(x), dump(y)]
                       for (j, n, s, x), y in sorted(act_table.items(), key=repr)],
            "composition": [[j, k, dump(x), [[m, dump(y)] for m, y in inners],
                             dump(z)]
                            for (j, k, x, inners), z
                            in sorted(comp_table.items(), key=repr)]}


def decode_operad(doc):
    if "builtin" in doc:
        name = doc["builtin"]
        if name not in BUILTIN_OPERADS:
            raise StructuralError(f"unknown builtin operad {name!r}")
        return BUILTIN_OPERADS[name](doc.get("truncate", 4))
    levels = [decode_category(L) for L in doc["levels"]]
    # the levels' own labels come first, so the tables hold those objects
    one = _One()
    for L in levels:
        for v in (*L.objects, *L.morphisms):
            one[v]
    act_table = {(j, n, one[tuple(s)], one[load_label(x)]): one[load_label(y)]
                 for j, n, s, x, y in doc["action"]}
    comp_table = {(j, k, one[load_label(x)],
                   one[tuple([one[(m, one[load_label(y)])] for m, y in inners])]):
                  one[load_label(z)]
                  for j, k, x, inners, z in doc["composition"]}
    return tabulated_operad(doc["name"], doc["max_level"], levels,
                            one[load_label(doc["unit"])], act_table, comp_table)


# ---------------------------------------------------------------------------
# multicategories

def encode_multicat(M):
    dump = cache(dump_label)
    elem = lambda e: dump(e)["elem"]
    return {"kind": "dmulticat",
            "operad": encode_operad(M.operad),
            "objects": [dump(x) for x in M.objects],
            "morphisms": [dump(f) for f in M.morphisms],
            "tgt": _entries(M.tgt, dump),
            "src": [[dump(f), elem(e)] for f, e in sorted(M.src.items(), key=repr)],
            "ident": _entries(M.ident, dump),
            "source_action": [[dump(f), elem(d), dump(g)]
                              for (f, d), g in sorted(M.source_action.items(),
                                                      key=repr)],
            "composition": [[dump(f), elem(p), dump(g)]
                            for (f, p), g in sorted(M.composition.items(),
                                                    key=repr)]}


def decode_multicat(doc):
    op = decode_operad(doc["operad"])
    lab = lambda v: load_label(v, op)
    return DMulticat(
        op,
        tuple(lab(x) for x in doc["objects"]),
        tuple(lab(f) for f in doc["morphisms"]),
        {lab(f): lab(a) for f, a in doc["tgt"]},
        {lab(f): decode_elem(op, e) for f, e in doc["src"]},
        {lab(x): lab(f) for x, f in doc["ident"]},
        {(lab(f), decode_elem(op, d)): lab(g)
         for f, d, g in doc["source_action"]},
        {(lab(f), decode_elem(op, p)): lab(g)
         for f, p, g in doc["composition"]})


def encode_classical(cm, symmetric):
    dump = cache(dump_label)
    return {"kind": "classical_multicat",
            "symmetric": symmetric,
            "objects": [dump(x) for x in cm.objects],
            "morphisms": [dump(f) for f in cm.morphisms],
            "src": [[dump(f), [dump(x) for x in xs]]
                    for f, xs in sorted(cm.src.items(), key=repr)],
            "tgt": _entries(cm.tgt, dump),
            "ident": _entries(cm.ident, dump),
            "comp": [[dump(f), [dump(g) for g in gs], dump(h)]
                     for (f, gs), h in sorted(cm.comp.items(), key=repr)],
            "act": [[dump(f), list(s), dump(g)]
                    for (f, s), g in sorted(cm.act.items(), key=repr)]}


def decode_classical(doc):
    return ClassicalMulticat(
        tuple(load_label(x) for x in doc["objects"]),
        tuple(load_label(f) for f in doc["morphisms"]),
        {load_label(f): tuple(load_label(x) for x in xs)
         for f, xs in doc["src"]},
        {load_label(f): load_label(a) for f, a in doc["tgt"]},
        {load_label(a): load_label(f) for a, f in doc["ident"]},
        {(load_label(f), tuple(load_label(g) for g in gs)): load_label(h)
         for f, gs, h in doc["comp"]},
        {(load_label(f), tuple(s)): load_label(g)
         for f, s, g in doc.get("act", [])})


# ---------------------------------------------------------------------------
# algebras (tabulated within a stated bound)

def encode_algebra(A, bound):
    C, dump = A.carrier, cache(dump_label)
    xi0, xi1 = [], []
    for e in all_elements(A.operad, 0, C.objects, bound):
        try:
            xi0.append([dump(e)["elem"], dump(A.xi0(e))])
        except BoundExceeded:
            pass
    for e in all_elements(A.operad, 1, C.morphisms, bound):
        try:
            xi1.append([dump(e)["elem"], dump(A.xi1(e))])
        except BoundExceeded:
            pass
    return {"kind": "algebra", "name": A.name, "bound": bound,
            "operad": encode_operad(A.operad),
            "carrier": encode_category(C), "xi0": xi0, "xi1": xi1}


def decode_algebra(doc):
    op = decode_operad(doc["operad"])
    C = decode_category(doc["carrier"], op)
    bound = doc["bound"]
    t0 = {decode_elem(op, e): load_label(v, op) for e, v in doc["xi0"]}
    t1 = {decode_elem(op, e): load_label(v, op) for e, v in doc["xi1"]}

    def lookup(table, degree):
        # absent entries are partiality, not corruption: the encoder skips
        # instances whose value leaves a truncated carrier
        def xi(e):
            if e.n > bound:
                raise BoundExceeded(
                    f"arity {e.n} beyond tabulated bound {bound}")
            if e not in table:
                raise BoundExceeded(
                    f"degree-{degree} action not tabulated at {e!r}")
            return table[e]
        return xi

    return DAlgebra(op, C, lookup(t0, 0), lookup(t1, 1),
                    doc.get("name", "tabulated"))


# ---------------------------------------------------------------------------
# file plumbing

def _not_an_integer(token):
    raise StructuralError(f"JSON number {token} is not an integer")


def load(path):
    enabled = gc.isenabled()  # paused for the parse (module docstring)
    gc.disable()
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=_not_an_integer,
                            parse_constant=_not_an_integer)
    finally:
        if enabled:
            gc.enable()
    if not isinstance(doc, dict):
        raise StructuralError("top-level JSON value must be an object")
    return doc


def save(doc, path):
    """Write doc with sorted keys through json's C encoder (which an indent
    would turn off): an object one key a line, each entry of a list value
    on a line of its own; any other value on one line."""
    encode = json.JSONEncoder(sort_keys=True).encode
    if isinstance(doc, dict) and doc:
        lines = []
        for key, value in sorted(doc.items()):
            if isinstance(value, list) and value:
                value = "[\n    " + ",\n    ".join(map(encode, value)) + "\n  ]"
            else:
                value = encode(value)
            lines.append(f"  {encode(key)}: {value}")
        text = "{\n" + ",\n".join(lines) + "\n}"
    else:
        text = encode(doc)
    with open(path, "w") as fh:
        fh.write(text + "\n")
