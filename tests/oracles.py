"""Independent oracles for cross-checking the collector and the solvers.

The matrix oracles deliberately share no code with the package engine: the
representations are built from scratch with plain integer matrix loops, so
agreement between the two paths is meaningful evidence of correctness.
`product_step3_rows` uses the engine's group operations, but not the
closed-form row table it checks.  The `series_*` functions are the group
operations of the truncated-series model, each result recovered by the
self-checking peel: the path every basis of step > 3 runs, and the oracle
for the exponent law of the lower steps.  `series_collect` folds a word's
letters by the series product, and `series_bar` runs it on the reversed
free word of its input, so it shares no code with either `bar` path and
never runs on the law.  `ring_fox_derivative`, with the ring image
`embed` of a word, and
`word_tameness_residue` are the ring-product Fox derivative and the
two-lift word path of the tameness residue, the references for
`foxring.fox_derivative` and the per-basis table of `autos`.
`fraction_inv_unimodular` is Gauss-Jordan over Fractions, the reference
for the Smith-form inverse `intlinalg.inv_unimodular`.
`signed_permutation_palindromic` searches all 2^n sign vectors of the
signed permutation in e = eps . omega, the reference for the one
candidate that `autos.classify` tries.
`solve_integer` and `invariant_factors` are Smith-form solves and
invariants built on `intlinalg.smith_normal_form`, for the tests only.
"""

from array import array
from itertools import product


def mat_eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n = len(a)
    m = len(b[0])
    inner = len(b)
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(m)]
        for i in range(n)
    ]


def fraction_inv_unimodular(a):
    """Inverse of an integer matrix with determinant +-1 by Gauss-Jordan
    over Fractions; the reference for `intlinalg.inv_unimodular`."""
    from fractions import Fraction

    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    out = []
    for row in work:
        ints = []
        for x in row[n:]:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            ints.append(int(x))
        out.append(ints)
    return out


def solve_integer(a, b):
    """One integer solution x of a*x == b, or None if none exists."""
    from nilpal.intlinalg import smith_normal_form, solve_from_smith

    if not a:
        return [] if not any(b) else None
    return solve_from_smith(smith_normal_form(a), b)


def invariant_factors(a):
    """Nonzero diagonal of the Smith form of a."""
    from nilpal.intlinalg import smith_normal_form

    _, d, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]


def heisenberg_matrix(word):
    """Evaluate a rank-2 word in the integral Heisenberg group (3x3)."""
    x1 = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    x1inv = [[1, -1, 0], [0, 1, 0], [0, 0, 1]]
    x2 = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    x2inv = [[1, 0, 0], [0, 1, -1], [0, 0, 1]]
    table = {(1, 1): x1, (1, -1): x1inv, (2, 1): x2, (2, -1): x2inv}
    out = mat_eye(3)
    for let in word.letters:
        out = mat_mul(out, table[(let.index, let.sign)])
    return out


class TruncatedWordRep:
    """Left-multiplication matrices on monomial words of length <= k.

    The generator x_i acts as 1 + (prepend letter i); words longer than k are
    dropped.  This is a faithful unitriangular integer representation of the
    rank-n step-k free nilpotent group.
    """

    def __init__(self, n, k):
        self.n = n
        self.k = k
        labels = [""]
        frontier = [""]
        for _ in range(k):
            frontier = [str(c) + w for w in frontier for c in range(1, n + 1)]
            labels.extend(sorted(frontier))
        labels = sorted(labels, key=lambda w: (len(w), w))
        self.labels = labels
        self.pos = {w: i for i, w in enumerate(labels)}
        self.dim = len(labels)
        self.gen = {}
        self.geninv = {}
        for c in range(1, n + 1):
            shift = [[0] * self.dim for _ in range(self.dim)]
            for w in labels:
                longer = str(c) + w
                if len(longer) <= k:
                    shift[self.pos[longer]][self.pos[w]] = 1
            mat = [row[:] for row in shift]
            for i in range(self.dim):
                mat[i][i] += 1
            self.gen[c] = mat
            # inverse by the alternating series of the nilpotent shift
            inv = mat_eye(self.dim)
            powm = mat_eye(self.dim)
            sign = 1
            for _ in range(k):
                powm = mat_mul(powm, shift)
                sign = -sign
                for i in range(self.dim):
                    for j in range(self.dim):
                        inv[i][j] += sign * powm[i][j]
            self.geninv[c] = inv

    def evaluate(self, word):
        out = mat_eye(self.dim)
        for let in word.letters:
            mat = self.gen[let.index] if let.sign > 0 else self.geninv[let.index]
            out = mat_mul(out, mat)
        return out


def monomial_table(n, k):
    """Monomials of degree <= k in letters 1..n and their product table.

    Monomials are letter tuples, degree-major and lexicographic within a
    degree (the numbering of the series kernel).  table[i*m + j] is the
    index of monomial i followed by monomial j, or -1 above degree k.
    """
    monos = [()]
    for w in range(1, k + 1):
        monos.extend(product(range(1, n + 1), repeat=w))
    index = {mo: i for i, mo in enumerate(monos)}
    m = len(monos)
    table = array("i", bytes(4 * m * m))
    for i, a in enumerate(monos):
        base = i * m
        for j, b in enumerate(monos):
            table[base + j] = index[a + b] if len(a) + len(b) <= k else -1
    return monos, table


def table_poly_mul(a, b, table, m):
    """Truncated series product by looking every monomial pair up."""
    out = {}
    for ia, ca in a.items():
        base = ia * m
        for ib, cb in b.items():
            idx = table[base + ib]
            if idx >= 0:
                out[idx] = out.get(idx, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def product_step3_rows(basis, i, alpha):
    """Step-3 witness lattice rows by group products, one per weight-2 z_j.

    Row j is wt3(bar(q1 z_j) x_i q1 z_j) - wt3(bar(q1) x_i q1) with
    q1 = x^alpha: the direct construction that `solve_conjugator` used to
    run on every call.
    """
    from nilpal.nilpotent import bar, multiply

    nelem = len(basis.elements)
    xi = basis.generator(i)
    q1 = basis.from_exponents(tuple(alpha) + (0,) * (nelem - basis.n))
    f0_w3 = multiply(multiply(bar(q1), xi), q1).weight_block(3)
    start = basis.weight_offset[1]
    rows = []
    for j in range(len(basis.by_weight[1])):
        exps = [0] * nelem
        exps[start + j] = 1
        q1z = multiply(q1, basis.from_exponents(exps))
        fz_w3 = multiply(multiply(bar(q1z), xi), q1z).weight_block(3)
        rows.append([a - b for a, b in zip(fz_w3, f0_w3)])
    return rows


def signed_permutation_palindromic(e):
    """Whether e = eps . omega with eps elementary palindromic and omega a
    signed permutation, trying every sign vector of omega.  The permutation
    is the one that the abelianization of e is mod 2."""
    from nilpal.autos import Endo, compose, identity_endo, palindromic_witnesses
    from nilpal.nilpotent import invert

    basis = e.basis
    n = basis.n
    odd = [[j for j, v in enumerate(row) if v % 2] for row in e.abel_matrix]
    if any(len(cols) != 1 for cols in odd) or len({cols[0] for cols in odd}) != n:
        return False
    perm = [cols[0] + 1 for cols in odd]
    inv_perm = [perm.index(j) + 1 for j in range(1, n + 1)]

    def signed(p, signs):
        gens = [basis.generator(v) for v in p]
        return Endo(basis, [g if s > 0 else invert(g) for g, s in zip(gens, signs)])

    for signs in product((1, -1), repeat=n):
        omega = signed(perm, signs)
        omega_inv = signed(inv_perm, [signs[v - 1] for v in inv_perm])
        assert compose(omega, omega_inv) == identity_endo(basis)
        if palindromic_witnesses(compose(e, omega_inv)) is not None:
            return True
    return False


def gf2_rank(rows):
    """Rank over GF(2) of integer rows, by Gaussian elimination on lists."""
    rows = [[v % 2 for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def series_multiply(a, b):
    basis = a.basis
    return basis.element_from_poly(basis.mul(a.poly, b.poly))


def series_invert(a):
    basis = a.basis
    return basis.element_from_poly(basis.inverse_poly(a.exponents))


def series_collect(word, basis):
    """collect on the series path at every step: the letters' series
    multiplied left to right, then peeled."""
    poly = {0: 1}
    for let in word.letters:
        poly = basis.mul(poly, basis._lift(let.index - 1, let.sign < 0))
    return basis.element_from_poly(poly)


def series_bar(a):
    """bar by its definition: collect(reverse_word(element_as_word(a))).

    That word is the reversed words of the factors c_j^e_j of a in reverse
    order; each factor is collected as the reversed word of c_j raised to
    e_j, so large exponents build no long word.
    """
    from nilpal.words import reverse_word

    basis = a.basis
    out = basis.one()
    for c, e in reversed(list(zip(basis.elements, a.exponents))):
        if e:
            rev = series_collect(reverse_word(c.as_word(basis.n)), basis)
            out = series_multiply(out, series_power(rev, e))
    return out


def series_power(a, e):
    basis = a.basis
    poly = basis.inverse_poly(a.exponents) if e < 0 else a.poly
    return basis.element_from_poly(basis.pow(poly, abs(e)))


def series_apply(endo, g):
    """endo(g), substituting the image series into a free word for g."""
    from nilpal.nilpotent import element_as_word

    basis = g.basis
    images = [img.poly for img in endo.images]
    inverses = [basis.inverse_poly(img.exponents) for img in endo.images]
    poly = {0: 1}
    for let in element_as_word(g).letters:
        factor = images if let.sign > 0 else inverses
        poly = basis.mul(poly, factor[let.index - 1])
    return basis.element_from_poly(poly)


def _letter_elem(let, n):
    """Ring image of one letter."""
    from nilpal.foxring import RingElemModR

    lin = [0] * n
    if let.sign > 0:
        lin[let.index - 1] = 1
        return RingElemModR(n, const=1, lin=lin)
    # x^-1 = 1 - (x-1) + (x-1)^2 after truncation
    lin[let.index - 1] = -1
    quad = [[0] * n for _ in range(n)]
    quad[let.index - 1][let.index - 1] = 1
    return RingElemModR(n, const=1, lin=lin, quad=quad)


def embed(w):
    """Ring image of a word; multiplicative, with augmentation 1."""
    from nilpal.foxring import mul, ring_one

    out = ring_one(w.rank)
    for let in w.letters:
        out = mul(out, _letter_elem(let, w.rank))
    return out


def ring_fox_derivative(w, j):
    """j-th Fox derivative by ring products: each letter multiplies the
    prefix and adds prefix * d(letter) through `foxring.mul`/`add`, three
    ring elements per letter."""
    from nilpal.foxring import add, mul, negate, ring_one, ring_zero

    n = w.rank
    if not 1 <= j <= n:
        raise ValueError(f"derivative index {j} out of range 1..{n}")
    out = ring_zero(n)
    prefix = ring_one(n)
    for let in w.letters:
        if let.index == j:
            # d(x) = 1, d(x^-1) = -x^-1
            step = ring_one(n) if let.sign > 0 else negate(_letter_elem(let, n))
            out = add(out, mul(prefix, step))
        prefix = mul(prefix, _letter_elem(let, n))
    return out


def word_tameness_residue(e):
    """The tameness residue of a central automorphism at step 3 on free
    words: the Fox-derivative sum of the defect lifts, evaluated on two
    lifts (basis order and reversed basis order) that must agree."""
    from nilpal.foxring import bglm_residue
    from nilpal.nilpotent import element_as_word, invert, multiply

    basis = e.basis
    defects = [multiply(invert(basis.generator(i)), img)
               for i, img in enumerate(e.images, start=1)]
    r1 = bglm_residue([element_as_word(d) for d in defects])
    r2 = bglm_residue([element_as_word(d, reverse=True) for d in defects])
    assert r1 == r2, "obstruction depends on the free lift"
    return r1
