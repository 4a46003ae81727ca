"""Exact integer linear algebra.

Everything here works on plain lists of Python ints, so all results are
exact at arbitrary precision.  The Smith normal form carries its unimodular
transforms, which is what the lattice-membership solvers need.
"""

import operator
from fractions import Fraction

Matrix = list


def eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a:
        return []
    bt = list(zip(*b)) if b else []
    return [[sum(map(operator.mul, arow, bcol)) for bcol in bt] for arow in a]


def mat_vec(a, v):
    return [sum(map(operator.mul, row, v)) for row in a]


def vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def transpose(a):
    return [list(row) for row in zip(*a)] if a else []


def det(a):
    """Determinant by fraction-free Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                m[i][j] = (m[i][j] * m[col][col] - m[i][col] * m[col][j]) // prev
            m[i][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def inv_unimodular(a):
    """Exact inverse of an integer matrix with determinant +-1, read from
    its Smith form u a v = d: a is unimodular iff d is the identity, and
    then a^-1 = v u."""
    u, d, v = smith_normal_form(a)
    if not all(d[i][i] for i in range(len(a))):
        raise ValueError("matrix is singular")
    if any(d[i][i] != 1 for i in range(len(a))):
        raise ValueError("matrix is not unimodular")
    return mat_mul(v, u)


def smith_normal_form(a):
    """Return (u, d, v) with u*a*v == d, u and v unimodular, d in Smith form.

    d is diagonal with nonnegative entries and d[i] | d[i+1].
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    d = [list(row) for row in a]
    u = eye(nrows)
    v = eye(ncols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, f):
        d[dst] = [x + f * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, f):
        for row in d:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    def eliminate(t):
        """Clear row and column t below/right of the pivot at (t, t)."""
        while True:
            piv = None
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    w = abs(d[i][j])
                    if w and (best is None or w < best):
                        best, piv = w, (i, j)
            if piv is None:
                return False
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            done = True
            for i in range(t + 1, nrows):
                if d[i][t]:
                    add_row(i, t, -(d[i][t] // d[t][t]))
                    if d[i][t]:
                        done = False
            for j in range(t + 1, ncols):
                if d[t][j]:
                    add_col(j, t, -(d[t][j] // d[t][t]))
                    if d[t][j]:
                        done = False
            if done:
                return True

    rank = 0
    for t in range(min(nrows, ncols)):
        if not eliminate(t):
            break
        rank += 1

    for i in range(rank):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]

    # enforce the divisibility chain d[i] | d[i+1]
    i = 0
    while i < rank - 1:
        if d[i + 1][i + 1] % d[i][i] != 0:
            add_col(i, i + 1, 1)
            eliminate(i)
            for j in range(i, rank):
                if d[j][j] < 0:
                    d[j] = [-x for x in d[j]]
                    u[j] = [-x for x in u[j]]
            i = max(i - 1, 0)
        else:
            i += 1
    return u, d, v


def solve_from_smith(factors, b):
    """One integer solution x of a*x == b from the Smith factors
    (u, d, v) = smith_normal_form(a), or None if none exists.

    Factor a once, then solve for as many right-hand sides as needed.
    """
    u, d, v = factors
    nrows, ncols = len(u), len(v)
    c = mat_vec(u, b)
    y = [0] * ncols
    for i in range(min(nrows, ncols)):
        di = d[i][i]
        if di == 0:
            break
        if c[i] % di != 0:
            return None
        y[i] = c[i] // di
    rank = sum(1 for i in range(min(nrows, ncols)) if d[i][i] != 0)
    if any(c[i] != 0 for i in range(rank, nrows)):
        return None
    return mat_vec(v, y)


def lattice_factors(rows):
    """Smith factors of the nonempty `rows` taken as columns, the system
    that `lattice_solve(rows, target)` solves."""
    return smith_normal_form(transpose(rows))


def lattice_solve(rows, target):
    """Coefficients t with sum(t[i]*rows[i]) == target, or None.

    Decides membership of target in the integer row span of `rows`.
    """
    if not rows:
        return [] if not any(target) else None
    return solve_from_smith(lattice_factors(rows), target)


def _unit(a):
    return a == 1 or a == -1


def _quotient(a, b):
    """Exact a / b: an int when b is +-1, else a Fraction."""
    return a * b if _unit(b) else Fraction(a, b)


class PivotSolver:
    """Exact solver for a full-column-rank sparse system E x = t.

    `columns` are the columns of E as dicts {row: nonzero int}.  Sparse
    Gaussian elimination, run once, picks one pivot row per column and
    keeps the factors L and U of the square submatrix E_P on those rows.
    Each step takes the sparsest remaining column that has a +-1 entry and
    pivots on that entry in the shortest row, so that the factors stay
    integral.  When no remaining column has one, the sparsest column
    pivots on the entry of its shortest row, and the factors carry
    Fractions from there on.

    `solve(t)` reads only the pivot entries of t and returns the unique x
    with (E x)_P == t_P.  It does not check the other rows: a caller that
    needs E x == t checks its residual.
    """

    def __init__(self, columns):
        rows = {}
        for j, col in enumerate(columns):
            for i, v in col.items():
                rows.setdefault(i, {})[j] = v
        holders = [set(col) for col in columns]  # column -> rows with an entry in it
        left = set(range(len(columns)))
        self.rows, self.cols, self.pivots = [], [], []
        urows, lcols = [], []  # per step: rest of the pivot row; [(row, factor)]
        while left:
            by_count = sorted(left, key=lambda j: (len(holders[j]), j))
            if not holders[by_count[0]]:
                raise ValueError("matrix does not have full column rank")
            c = next((j for j in by_count if any(_unit(rows[i][j]) for i in holders[j])),
                     by_count[0])
            units = [i for i in holders[c] if _unit(rows[i][c])]
            p = min(units or holders[c], key=lambda i: (len(rows[i]), i))
            prow = rows.pop(p)
            a = prow.pop(c)
            for j in prow:
                holders[j].discard(p)
            holders[c].discard(p)
            mults = []
            for i in holders[c]:
                row = rows[i]
                f = _quotient(row.pop(c), a)
                mults.append((i, f))
                for j, v in prow.items():
                    nv = row.get(j, 0) - f * v
                    if nv:
                        row[j] = nv
                        holders[j].add(i)
                    elif j in row:
                        del row[j]
                        holders[j].discard(i)
            holders[c] = set()
            left.discard(c)
            self.rows.append(p)
            self.cols.append(c)
            self.pivots.append(a)
            urows.append(prow)
            lcols.append(mults)
        step_of_row = {p: s for s, p in enumerate(self.rows)}
        step_of_col = {c: s for s, c in enumerate(self.cols)}
        # Forward: step s subtracts f * t[s] from each later pivot row.
        self._lower = [[(step_of_row[i], f) for i, f in mults if i in step_of_row]
                       for mults in lcols]
        # Backward, by column: x[cols[s]] feeds the earlier pivot rows.
        self._upper = [[] for _ in self.rows]
        for s, prow in enumerate(urows):
            for j, v in prow.items():
                self._upper[step_of_col[j]].append((s, v))
        self.nonunit_pivots = sum(1 for a in self.pivots if not _unit(a))

    def solve(self, t):
        """The x with (E x)_P == t_P, as ints, or None if x is not integral.

        `t` maps rows to values; absent rows read as 0.
        """
        v = [t.get(p, 0) for p in self.rows]
        m = len(v)
        for s in range(m):
            vs = v[s]
            if vs:
                for s2, f in self._lower[s]:
                    v[s2] -= f * vs
        x = [0] * m
        for s in range(m - 1, -1, -1):
            vs = v[s]
            if vs:
                xs = _quotient(vs, self.pivots[s])
                x[self.cols[s]] = xs
                for s2, u in self._upper[s]:
                    v[s2] -= u * xs
        for j, xj in enumerate(x):
            if type(xj) is not int:
                if xj.denominator != 1:
                    return None
                x[j] = int(xj)
        return x
