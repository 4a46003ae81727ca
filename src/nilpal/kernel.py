"""Truncated noncommutative series (the Magnus model's kernel).

A monomial of degree d in the letters 1..n has rank r, its letters minus 1
read base n (first letter most significant), and index offset[d] + r, where
offset[d] counts the monomials of degree < d.  The concatenation of
monomials (da, ra) and (db, rb) is the monomial (da + db, ra * n**db + rb),
so a product needs index arithmetic only.

A series truncated above degree k is a list of k+1 dicts, one per degree:
dict d maps the index of a monomial of degree d to its exact nonzero
coefficient.  A group series has dict 0 equal to {0: 1} (`one`).  A factor
is the read-only form of a series minus its constant term that products
and divisions read: a tuple of (degree, items) for its nonzero degrees,
ascending, items being (monomial index, coefficient) pairs (`factor`).
Only this module knows that layout; the others go through its functions.
"""

# The only kernel; `nilpal info` reports it.
BACKEND = "pure"


class SeriesShape:
    """Monomial numbering of the series of rank n truncated above degree k.

    `dr[i]` is the (degree, rank) of monomial i, and `rowbase[i][e]` is
    the index of monomial i followed by the rank-0 monomial of degree e,
    for e <= k - degree: monomial i times monomial j of degree e is
    rowbase[i][e] + j - offset[e].  `reverse[i]` is the index of monomial
    i with its letters reversed.
    """

    __slots__ = ("n", "k", "offset", "dr", "rowbase", "reverse")

    def __init__(self, n, k):
        self.n = n
        self.k = k
        offset = [0]
        for d in range(k + 1):
            offset.append(offset[-1] + n**d)
        self.offset = offset
        self.dr = [(d, r) for d in range(k + 1) for r in range(n**d)]
        self.rowbase = [
            tuple(offset[d + e] + r * n**e for e in range(k - d + 1)) for d, r in self.dr
        ]
        # the base-n digits of a rank are its letters: a rank q * n + c
        # (last letter c) reverses to c * n^(d-1) + (q reversed)
        self.reverse = [0]
        ranks = [0]
        for d in range(1, k + 1):
            top = n ** (d - 1)
            ranks = [c * top + q for q in ranks for c in range(n)]
            self.reverse.extend(offset[d] + q for q in ranks)

    def index(self, letters):
        """Index of the monomial with the given letters (each in 1..n)."""
        r = 0
        for c in letters:
            r = r * self.n + c - 1
        return self.offset[len(letters)] + r


def shape_entries(n, k, stop):
    """The index entries of SeriesShape(n, k), k - d + 1 in `rowbase` for
    each of the n^d monomials of degree d <= k, summed up by degree until
    the sum passes `stop`, so that an oversized (n, k) costs a few products."""
    total = 0
    for d in range(k + 1):
        total += n**d * (k - d + 1)
        if total > stop:
            break
    return total


def one(shape):
    """A fresh series 1."""
    return [{0: 1}] + [{} for _ in range(shape.k)]


def factor(a):
    """The factor form of a - (constant term of a)."""
    return tuple((d, tuple(part.items())) for d, part in enumerate(a) if d and part)


def series(f, shape):
    """The fresh series 1 + f, for a factor f."""
    r = one(shape)
    for d, items in f:
        r[d] = dict(items)
    return r


def letter(gen, shape):
    """The factor of the series 1 + X_gen of the letter x_gen."""
    return ((1, ((shape.index((gen,)), 1),)),)


def copy(a):
    """A fresh copy of the series a."""
    return [part.copy() for part in a]


def is_one(a, top=None):
    """Whether the series a is 1 up to degree `top` (default k)."""
    return a[0] == {0: 1} and not any(a[1:None if top is None else top + 1])


def terms(a, d):
    """The (monomial index, coefficient) pairs of degree d of the series a."""
    return a[d].items()


def term_count(a, d=None):
    """The number of terms of the series a, or of its degree-d part."""
    return sum(map(len, a)) if d is None else len(a[d])


def lowest_terms(f):
    """The lowest-degree terms of the nonzero factor f, as a fresh dict."""
    return dict(f[0][1])


def add_scaled(r, f, c):
    """r += c * f in place, for a series r and a factor f; cancelled terms
    are dropped."""
    if not c:
        return
    for d, items in f:
        out = r[d]
        for i, v in items:
            v = out.get(i, 0) + c * v
            if v:
                out[i] = v
            else:
                del out[i]


def add_product(out, a, b, shape, sign=1, top=None):
    """out += sign * a b up to degree `top` (default k), in place, for
    factors a and b; zero entries may be left in out.  This is the
    kernel's one product: monomial ia times monomial ib of degree db is
    rowbase[ia][db] + ib - offset[db], one index shift per term of a and
    degree of b."""
    rowbase, offset = shape.rowbase, shape.offset
    if top is None:
        top = shape.k
    for da, pa in a:
        for db, pb in b:
            d = da + db
            if d > top:
                break
            out_d = out[d]
            off = offset[db]
            for ia, ca in pa:
                shift = rowbase[ia][db] - off
                ca *= sign
                for ib, cb in pb:
                    i = shift + ib
                    out_d[i] = out_d.get(i, 0) + ca * cb


def poly_mul(a, b, shape):
    """Product a * b truncated above degree shape.k: the constant terms
    scale copies of whole degrees, and `add_product` does the rest."""
    a0 = a[0].get(0, 0)
    b0 = b[0].get(0, 0)
    out = [{0: a0 * b0} if a0 and b0 else {}]
    for part_a, part_b in zip(a[1:], b[1:]):
        part = (part_b.copy() if a0 == 1 else {i: a0 * c for i, c in part_b.items()}
                if a0 else {})
        if b0:
            for i, c in part_a.items():
                part[i] = part.get(i, 0) + c * b0
        out.append(part)
    add_product(out, factor(a), factor(b), shape)
    return [{i: c for i, c in part.items() if c} for part in out]


def factor_powers(f, count, shape):
    """The factors of L, L^2, ..., L^count, for L the series of the factor
    f with no constant term; `poly_mul` takes each power from the last."""
    low = series(f, shape)
    low[0] = {}
    out, power = [f], low
    for _ in range(1, count):
        power = poly_mul(power, low, shape)
        out.append(factor(power))
    return tuple(out)


def factor_sum(pairs, shape):
    """The factor of sum c f over the (integer c, factor f) `pairs`."""
    out = [{} for _ in range(shape.k + 1)]
    for c, f in pairs:
        add_scaled(out, f, c)
    return factor(out)


def left_divide(r, p, shape, solve):
    """r <- P^-1 r if `solve`, else P r, in place, for a series r and
    P = 1 + the factor p; cancelled terms are dropped.  The index shift
    is `add_product`'s.  Solving walks the degrees up, so that r[d - e] is
    already (P^-1 r)_(d-e); multiplying walks them down, so that it is
    still r_(d-e)."""
    if not p:
        return
    rowbase, offset = shape.rowbase, shape.offset
    sign = -1 if solve else 1
    w = p[0][0]
    for d in range(w, shape.k + 1) if solve else range(shape.k, w - 1, -1):
        out = r[d]
        for e, pe in p:
            if e > d:
                break
            db = d - e
            s = r[db]
            if not s:
                continue
            off = offset[db]
            for ia, ca in pe:
                shift = rowbase[ia][db] - off
                ca *= sign
                for ib, cb in s.items():
                    i = shift + ib
                    v = out.get(i, 0) + ca * cb
                    if v:
                        out[i] = v
                    else:
                        del out[i]


def bracket_factor(a, b, w, shape):
    """The factor of [1+a, 1+b], for factors a and b whose bracket has
    lowest degree >= w.

    From (1+a)(1+b) = (1+b)(1+a) [1+a, 1+b], X = [1+a, 1+b] - 1 solves
    (1 + S) X = D with D = ab - ba and S = a + b + ba: one left division
    up the degrees, from the two products of the halves and no inverse
    series.  X has lowest degree >= w, so only the degrees <= k - w of S
    take part."""
    r = [{} for _ in range(shape.k + 1)]
    add_product(r, a, b, shape)
    add_product(r, b, a, shape, -1)
    r = [{i: c for i, c in part.items() if c} for part in r]
    top = shape.k - w
    s = [{} for _ in range(top + 1)]
    for f in (a, b):
        add_scaled(s, [(d, items) for d, items in f if d <= top], 1)
    add_product(s, b, a, shape, 1, top)
    left_divide(r, factor([{i: c for i, c in part.items() if c} for part in s]), shape, True)
    return factor(r)


def poly_div(a, b, shape):
    """a^-1 b, for a series a with constant term 1: b divided on the left
    by a, one `left_divide`; a^-1 itself for b = `one`."""
    out = copy(b)
    left_divide(out, factor(a), shape, True)
    return out


def poly_reverse(a, shape):
    """a with the letters of every monomial reversed.  Word reversal is an
    anti-automorphism of the series ring that fixes each 1 + X_i, and it
    keeps the degree."""
    rev = shape.reverse
    return [{rev[i]: c for i, c in part.items()} for part in a]


def poly_inv(a, shape):
    """Inverse of a unit polynomial 1 + r with r of positive degree.

    Geometric series truncated at degree k; requires constant term 1.
    """
    if a[0] != {0: 1}:
        raise ValueError("not a unit with constant term 1")
    r = [{}] + a[1:]
    out = one(shape)
    for _ in range(shape.k):
        # out <- 1 - r*out; r*out never has a constant term.  The j-th
        # iterate is sum_{i<=j} (-r)^i, fixed once (-r)^(j+1) truncates to 0.
        nxt = [{i: -c for i, c in part.items()} for part in poly_mul(r, out, shape)]
        nxt[0] = {0: 1}
        if nxt == out:
            break
        out = nxt
    return out


def poly_pow(a, e, shape):
    """a**e for e >= 0 by repeated squaring."""
    out = None
    sq = a
    while e:
        if e & 1:
            out = sq if out is None else poly_mul(out, sq, shape)
        e >>= 1
        if e:
            sq = poly_mul(sq, sq, shape)
    return one(shape) if out is None else out
