"""Products of truncated noncommutative series (the Magnus model's kernel).

A series is a dict mapping a monomial index to an exact integer
coefficient.  A monomial of degree d in the letters 1..n has rank r, its
letters minus 1 read base n (first letter most significant), and index
offset[d] + r, where offset[d] counts the monomials of degree < d.  The
concatenation of monomials (da, ra) and (db, rb) is the monomial
(da + db, ra * n**db + rb), so a product needs index arithmetic only.
"""

# The only kernel; `nilpal info` reports it.
BACKEND = "pure"


class SeriesShape:
    """Monomial numbering of the series of rank n truncated above degree k.

    `dr[i]` is the (degree, rank) of monomial i, and `rowbase[i][e]` is
    the index of monomial i followed by the rank-0 monomial of degree e,
    for e <= k - degree: monomial i times monomial j is
    rowbase[i][d_j] + r_j, and it is truncated when d_j >= len(rowbase[i]).
    `reverse[i]` is the index of monomial i with its letters reversed.
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


def poly_mul(a, b, shape):
    """Product a * b truncated above degree shape.k.

    The constant terms are handled as whole-series copies.  The other
    terms of b are walked in index order, which is degree-major, so the
    walk for a term of a stops at the first term of b that would carry the
    product above degree k.
    """
    dr = shape.dr
    rowbase = shape.rowbase
    a0 = a.get(0, 0)
    bt = sorted(b.items())
    b0 = 0
    if bt and not bt[0][0]:
        b0 = bt.pop(0)[1]
    if a0 == 1:
        out = b.copy()
    elif a0:
        out = {i: a0 * c for i, c in b.items()}
    else:
        out = {}
    for ia, ca in a.items():
        if ia:
            if b0:
                out[ia] = out.get(ia, 0) + ca * b0
            row = rowbase[ia]
            lim = len(row)
            for ib, cb in bt:
                db, rb = dr[ib]
                if db >= lim:
                    break
                idx = row[db] + rb
                out[idx] = out.get(idx, 0) + ca * cb
    return {i: c for i, c in out.items() if c}


def poly_reverse(a, shape):
    """a with the letters of every monomial reversed.  Word reversal is an
    anti-automorphism of the series ring that fixes each 1 + X_i."""
    rev = shape.reverse
    return {rev[i]: c for i, c in a.items()}


def poly_inv(a, shape):
    """Inverse of a unit polynomial 1 + r with r of positive degree.

    Geometric series truncated at degree k; requires constant term 1.
    """
    if a.get(0) != 1:
        raise ValueError("not a unit with constant term 1")
    r = {i: c for i, c in a.items() if i != 0}
    out = {0: 1}
    for _ in range(shape.k):
        # out <- 1 - r*out; r*out never has a constant term.  The j-th
        # iterate is sum_{i<=j} (-r)^i, fixed once (-r)^(j+1) truncates to 0.
        nxt = {i: -c for i, c in poly_mul(r, out, shape).items()}
        nxt[0] = 1
        if nxt == out:
            break
        out = nxt
    return out


def poly_pow(a, e, shape):
    if e < 0:
        return poly_pow(poly_inv(a, shape), -e, shape)
    out = None
    sq = a
    while e:
        if e & 1:
            out = sq if out is None else poly_mul(out, sq, shape)
        e >>= 1
        if e:
            sq = poly_mul(sq, sq, shape)
    return {0: 1} if out is None else out
