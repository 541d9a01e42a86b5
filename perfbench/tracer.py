"""Spans and call counts around the calls into each gmcat module.

The tracer replaces functions from outside the package: every `gmcat.*`
module attribute that holds a traced function (modules import each other
by name), and traced methods on their class. `restore` puts every
original back.

Two modes, used in separate passes:

- `spans` times the layer boundaries in SPAN_TARGETS. Each span keeps
  (name, start, end, parent); self time is a span's duration minus the
  time its child spans cover, summed per module.
- `counts` counts calls to the leaves in COUNT_TARGETS, which run
  millions of times per pass. Timing them would distort the span self
  times, so they get a pass of their own.
"""

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

MARK = "_perfbench_wrapped"

# (module, attribute or Class.method); the metric name is module.method
SPAN_TARGETS = [
    ("finset", "orbit_pullback_report"), ("finset", "is_equivariant"),
    ("fincat", "validate_category"), ("fincat", "validate_presheaf"),
    ("fincat", "grothendieck"), ("fincat", "is_target_cover"),
    ("catoperad", "validate_operad"), ("catoperad", "freeness_report"),
    ("catoperad", "is_sigma_free"), ("catoperad", "barratt_eccles"),
    ("catoperad", "associativity_operad"),
    ("catoperad", "commutative_operad"), ("catoperad", "tabulated_operad"),
    ("catoperad", "operad_tables"),
    ("opmonad", "elements_of"), ("opmonad", "all_elements"),
    ("opmonad", "nested_elements"), ("opmonad", "check_cartesian"),
    ("opmonad", "check_preserves_cover"),
    ("dmulticat", "enumerate_M2"), ("dmulticat", "enumerate_M3"),
    ("dmulticat", "validate_multicat"), ("dmulticat", "validate_classical"),
    ("dmulticat", "terminal_multicat"), ("dmulticat", "from_symmetric"),
    ("dmulticat", "from_nonsymmetric"),
    ("dalgebra", "underlying"), ("dalgebra", "validate_algebra"),
    ("dalgebra", "z2_discrete_algebra"), ("dalgebra", "free_algebra"),
    ("adjoint", "LazyDAlgebra.hom"), ("adjoint", "LazyDAlgebra.hom_hat"),
    ("adjoint", "LazyDAlgebra.relation_instances"),
    ("adjoint", "LazyDAlgebra.class_of"), ("adjoint", "LazyDAlgebra.compose"),
    ("adjoint", "unit_report"), ("adjoint", "hat_unit_report"),
    ("adjoint", "witness_hat_unit_failure"), ("adjoint", "coeq_equiv"),
    ("adjoint", "counit_report"), ("adjoint", "check_triangles"),
    ("jsonio", "load"), ("jsonio", "save"), ("jsonio", "decode_operad"),
    ("jsonio", "decode_classical"), ("jsonio", "decode_multicat"),
    ("jsonio", "decode_algebra"), ("jsonio", "encode_multicat"),
    ("cli", "main"),
    ("report", "render"), ("report", "build"),
]
GENERATORS = {"adjoint.relation_instances"}

COUNT_TARGETS = [
    ("opmonad", "canonicalize"), ("opmonad", "map_elem"),
    ("finset", "canon_key"),
    ("catoperad", "CatOperad.act"), ("catoperad", "CatOperad.compose"),
]

LAYERS = ("finset", "fincat", "catoperad", "opmonad", "dmulticat",
          "dalgebra", "adjoint", "jsonio", "cli", "report")


def _counit_extra(tracer, rep):
    tracer.add("adjoint.counit.checked", rep["action_checked"])
    tracer.add("adjoint.counit.bounded", rep["bounded"])


# what to read off a traced call's result, outside its span
RESULT_HOOKS = {
    "dmulticat.enumerate_M2": lambda t, r: t.add("dmulticat.enumerate_M2.pairs",
                                                 len(r)),
    "dalgebra.underlying": lambda t, r: t.add("dalgebra.underlying.morphisms",
                                              len(r.morphisms)),
    "adjoint.counit_report": _counit_extra,
    "report.render": lambda t, r: t.add("report.bytes", len(r.encode())),
}


def _gmcat_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gmcat" or name.startswith("gmcat."))]


def _resolve(module, path):
    mod = importlib.import_module(f"gmcat.{module}")
    if "." in path:
        cls_name, meth = path.split(".")
        cls = getattr(mod, cls_name)
        return cls, meth, cls.__dict__[meth]
    return mod, path, getattr(mod, path)


def leftover_wrappers():
    """Names of gmcat attributes that still hold a tracer wrapper."""
    found = []
    for mod in _gmcat_modules():
        for name, val in vars(mod).items():
            if getattr(val, MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(val, type) and val.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{name}.{k}"
                          for k, v in vars(val).items()
                          if getattr(v, MARK, False)]
    return found


class Tracer:
    def __init__(self, mode, run_id):
        if mode not in ("spans", "counts"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode, self.run_id = mode, run_id
        self.spans = []            # [name, start_ns, end_ns, parent index]
        self.stack = []            # indices of open spans
        self.child_ns = []         # time covered by children of open spans
        self.active = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.extra = defaultdict(int)
        self.distinct = set()
        self.patched = []          # (owner, attribute, original)

    def add(self, key, n):
        self.extra[key] += n

    # -- spans ---------------------------------------------------------------
    def _enter(self, name):
        self.calls[name] += 1
        self.active[name] += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.child_ns.append(0)
        self.spans.append([name, perf_counter_ns(), 0, parent])

    def _exit(self, layer):
        end = perf_counter_ns()
        span = self.spans[self.stack.pop()]
        span[2] = end
        took = end - span[1]
        self.self_ns[layer] += took - self.child_ns.pop()
        if self.child_ns:
            self.child_ns[-1] += took
        self.active[span[0]] -= 1
        if not self.active[span[0]]:   # outermost call of a recursive one
            self.incl_ns[span[0]] += took

    def _span_wrapper(self, fn, name, layer):
        hook = RESULT_HOOKS.get(name)
        enter, exit_ = self._enter, self._exit
        if name == "cli.main":
            def wrapper(argv=None):
                enter(f"cli.main.{argv[0] if argv else 'none'}")
                try:
                    return fn(argv)
                finally:
                    exit_(layer)
        elif name in GENERATORS:
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            exit_(layer)
                        self.extra[f"{name}.yielded"] += 1
                        yield item
                finally:
                    inner.close()
        else:
            def wrapper(*args, **kwargs):
                enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(layer)
                if hook:
                    hook(self, result)
                return result
        return wrapper

    # -- counts --------------------------------------------------------------
    def _count_wrapper(self, fn, name):
        calls = self.calls
        if name == "opmonad.canonicalize":
            seen = self.distinct

            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                seen.add(id(result))   # results live on in the operad's cache
                return result
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    # -- install / restore ---------------------------------------------------
    def install(self):
        targets = SPAN_TARGETS if self.mode == "spans" else COUNT_TARGETS
        modules = _gmcat_modules()
        for module, path in targets:
            owner, attr, original = _resolve(module, path)
            name = f"{module}.{path.split('.')[-1]}"
            if self.mode == "spans":
                wrapper = self._span_wrapper(original, name, module)
            else:
                wrapper = self._count_wrapper(original, name)
            setattr(wrapper, MARK, True)
            wrapper.__wrapped__ = original
            if owner in modules:      # every module that imported it by name
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self.patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
            else:
                self.patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- results -------------------------------------------------------------
    def summary(self):
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        return {"self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
                "incl_s": {k: v / 1e9 for k, v in self.incl_ns.items()},
                "calls": dict(self.calls), "extra": dict(self.extra),
                "distinct": len(self.distinct)}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.run_id])
                         + "\n")
