"""Tabulate free-construction hom-set sizes against closed-form counts.

Over the symmetric builtin the hom from an m-fold object to an n-fold one
should have n^m classes (functions between index sets); over the
non-symmetric builtin it collapses to multisets, C(m+n-1, n-1).
"""

import argparse
from math import comb

from gmcat.adjoint import L, hat_L
from gmcat.catoperad import BUILTIN_OPERADS
from gmcat.dmulticat import terminal_multicat
from gmcat.opmonad import elements_of

ORACLES = {
    "barratt_eccles": lambda m, n: n ** m,
    "associativity": lambda m, n: (1 if m == 0 else 0) if n == 0
    else comb(m + n - 1, n - 1),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--operad", default="barratt_eccles",
                    choices=sorted(ORACLES))
    ap.add_argument("--max-arity", type=int, default=4)
    ap.add_argument("--hat", action="store_true",
                    help="count provisional morphisms instead of classes")
    args = ap.parse_args()

    op = BUILTIN_OPERADS[args.operad](args.max_arity)
    M = terminal_multicat(op)
    free = hat_L(M) if args.hat else L(M)
    oracle = ORACLES[args.operad]

    def ob(n):
        return elements_of(op, 0, M.objects, n)[0]

    top = args.max_arity
    print(f"{args.operad} truncated at {top}, "
          f"{'provisional' if args.hat else 'quotiented'} hom sizes")
    header = "m\\n " + "".join(f"{n:>8}" for n in range(top + 1))
    print(header)
    mismatches = 0
    for m in range(top + 1):
        row = [f"{m:<4}"]
        for n in range(top + 1):
            got = len(free.hom(ob(m), ob(n)))
            want = oracle(m, n)
            mark = "" if (args.hat or got == want) else "!"
            if not args.hat and got != want:
                mismatches += 1
            row.append(f"{got}{mark:>1}".rjust(8))
        print("".join(row))
    if args.hat:
        print("(no oracle for provisional counts; compare against the "
              "quotiented table)")
    elif mismatches:
        print(f"{mismatches} cells disagree with the closed form")
        raise SystemExit(1)
    else:
        print("all cells match the closed form")


if __name__ == "__main__":
    main()