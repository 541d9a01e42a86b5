"""The product P x Q of two operads, for tests: level n is the product of the
two level-n categories, Sigma_n acts diagonally and composition composes
factor by factor. ASS x BE and BE x BE are free, and their levels hold more
than one Sigma_n-orbit of objects."""

from gmcat.catoperad import CatOperad, associativity_operad, barratt_eccles
from gmcat.fincat import category


def _product_category(A, B):
    objects = [(a, b) for a in A.objects for b in B.objects]
    morphisms = [(f, g) for f in A.morphisms for g in B.morphisms]
    return category(
        objects, morphisms,
        {m: (A.src[m[0]], B.src[m[1]]) for m in morphisms},
        {m: (A.tgt[m[0]], B.tgt[m[1]]) for m in morphisms},
        {o: (A.ident[o[0]], B.ident[o[1]]) for o in objects},
        {((f, g), (f2, g2)): (A.comp[(f, f2)], B.comp[(g, g2)])
         for f, f2 in A.comp for g, g2 in B.comp})


def product_operad(P, Q):
    def act(j, n, sigma, x):
        return (P.act(j, n, sigma, x[0]), Q.act(j, n, sigma, x[1]))

    def compose(j, k, x, inners):
        return (P.compose(j, k, x[0], tuple((n, y[0]) for n, y in inners)),
                Q.compose(j, k, x[1], tuple((n, y[1]) for n, y in inners)))

    N = min(P.max_level, Q.max_level)
    return CatOperad(f"{P.name}x{Q.name}", N,
                     tuple(_product_category(P.level(n), Q.level(n))
                           for n in range(N + 1)),
                     (P.unit, Q.unit), act, compose)


def ass_x_be(N):
    return product_operad(associativity_operad(N), barratt_eccles(N))


def be_x_be(N):
    return product_operad(barratt_eccles(N), barratt_eccles(N))
