"""One-object symmetric multicategories of cap 3 built from binary terms, for
tests: the unary identity 1, a binary m with its transpose mt, and the
ternary composites of one binary after another. A morphism of arity n is a
term over the variables 1..n; the action relabels variables and
composition substitutes.

`comb_classical(tag)` files each ternary composite f o gs under
tag(f, p, g), with p the slot of the binary filler g. A constant tag gives
the lawful structure: two Sigma_3-orbits, the left and the right comb. A
tag that the inner action cannot see but the outer one can, (f, p), breaks
only the outer equivariance law: the four composites with g = m land in
four independent orbits. A tag that only the inner action can see, g,
breaks only the inner law."""

from gmcat.dmulticat import ClassicalMulticat
from gmcat.finset import perms

UNIT, M, MT = 1, ("m", 1, 2), ("m", 2, 1)


def _relabel(term, s):
    """Variable i becomes s^-1(i), so relabelling is a right action."""
    if isinstance(term, int):
        return s.inverse()(term)
    return (term[0],) + tuple(_relabel(t, s) for t in term[1:])


def _arity(term):
    return 1 if isinstance(term, int) else sum(_arity(t) for t in term[1:])


def _shift(term, k):
    if isinstance(term, int):
        return term + k
    return (term[0],) + tuple(_shift(t, k) for t in term[1:])


def _substitute(f, gs):
    """f with its i-th variable replaced by gs[i], the variables renumbered
    in slot order."""
    shifted, off = [], 0
    for g in gs:
        shifted.append(_shift(g, off))
        off += _arity(g)

    def go(t):
        if isinstance(t, int):
            return shifted[t - 1]
        return (t[0],) + tuple(go(x) for x in t[1:])
    return go(f)


def comb_classical(tag):
    comp = {}
    for f in (M, MT):
        for p in (0, 1):
            for g in (M, MT):
                gs = (g, UNIT) if p == 0 else (UNIT, g)
                comp[(f, gs)] = (tag(f, p, g), _substitute(f, gs))
    ternary = sorted({(t, _relabel(term, s)) for t, term in comp.values()
                      for s in perms(3)}, key=repr)
    morphisms = (UNIT, M, MT, *ternary)
    arity = {f: 3 if f in ternary else _arity(f) for f in morphisms}
    for f in morphisms:
        comp[(UNIT, (f,))] = f
        comp[(f, (UNIT,) * arity[f])] = f
    act = {(f, s.images): (f[0], _relabel(f[1], s)) if arity[f] == 3
           else _relabel(f, s) for f in morphisms for s in perms(arity[f])}
    return ClassicalMulticat(("*",), morphisms,
                             {f: ("*",) * arity[f] for f in morphisms},
                             dict.fromkeys(morphisms, "*"), {"*": UNIT},
                             comp, act)
