"""Exact integer linear algebra.

Everything here works on plain lists of Python ints, so all results are
exact at arbitrary precision.  The Smith normal form carries its unimodular
transforms, which is what the lattice-membership solvers need.
"""

import operator
from heapq import heapify, heappop, heappush
from typing import NamedTuple

Matrix = list


def eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a:
        return []
    bt = list(zip(*b)) if b else []
    return [[sum(map(operator.mul, arow, bcol)) for bcol in bt] for arow in a]


def mat_vec(a, v):
    """a v, as a sum of the columns of a at the nonzero entries of v, one
    pass over the rows per entry."""
    out = [0] * len(a)
    for j, x in enumerate(v):
        if x:
            out = [o + row[j] * x for o, row in zip(out, a)]
    return out


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
    """Exact inverse of an integer matrix with determinant +-1, by one
    fraction-free (Bareiss) Gauss-Jordan pass over [a | I].

    Step c scales every other row by the pivot p and subtracts the pivot
    row times its column-c entry, then divides by the previous pivot; by
    Sylvester's identity the division is exact.  A row whose column-c
    entry is 0 is only scaled, and is kept as it is when p equals the
    previous pivot.  At the end every diagonal entry is d = +-det(a) and
    the right half is d a^-1.  A column with no nonzero pivot means
    det(a) = 0; |d| > 1 means a^-1 is not integral."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for c in range(n):
        for r in range(c, n):
            if m[r][c]:
                break
        else:
            raise ValueError("matrix is singular")
        m[c], m[r] = m[r], m[c]
        pivot_row = m[c]
        p = pivot_row[c]
        for i in range(n):
            row = m[i]
            f = row[c]
            if i == c or not f and p == prev:
                continue
            m[i] = ([(p * x - f * y) // prev for x, y in zip(row, pivot_row)] if f
                    else [p * x // prev for x in row])
        prev = p
    if prev == 1:
        return [row[n:] for row in m]
    if prev == -1:
        return [[-x for x in row[n:]] for row in m]
    raise ValueError("matrix is not unimodular")


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


class SmithFactors(NamedTuple):
    """Smith factors u a v = d of an integer matrix a, as the nonzero
    entries (row, value) of each column of u and of v and the nonzero
    diagonal entries of d, which come first.  Solving and explaining
    a x = b read no more than that, and most entries of the factors of
    the lattices in `autos` are zero."""

    ucols: tuple
    diag: tuple
    vcols: tuple

    def u_times(self, b):
        """u b, as the sum of the columns of u at the nonzero entries of b."""
        c = [0] * len(self.ucols)
        for col, x in zip(self.ucols, b):
            if x:
                for i, w in col:
                    c[i] += w * x
        return c


def solve_from_smith(factors, b):
    """One integer solution x of a*x == b from the `SmithFactors` of a
    (`lattice_factors`), or None if none exists.

    Factor a once, then solve for as many right-hand sides as needed:
    c = u b must be divisible by d on the rank rows and zero below them,
    and x = v (c / d).  Both products go through the nonzero entries of
    the factors at the nonzero entries of b and c / d only.
    """
    c = factors.u_times(b)
    diag = factors.diag
    if any(c[len(diag):]):
        return None
    x = [0] * len(factors.vcols)
    for ci, di, col in zip(c, diag, factors.vcols):
        if ci % di:
            return None
        y = ci // di
        if y:
            for r, w in col:
                x[r] += w * y
    return x


def lattice_factors(rows):
    """`SmithFactors` of the nonempty `rows` taken as columns, the system
    that `lattice_solve(rows, target)` solves."""
    u, d, v = smith_normal_form(transpose(rows))

    def columns(m):
        return tuple(tuple((i, row[j]) for i, row in enumerate(m) if row[j])
                     for j in range(len(m)))

    return SmithFactors(columns(u), tuple(d[i][i] for i in range(min(len(u), len(v))) if d[i][i]),
                        columns(v))


def lattice_solve(rows, target):
    """Coefficients t with sum(t[i]*rows[i]) == target, or None.

    Decides membership of target in the integer row span of `rows`.
    """
    if not rows:
        return [] if not any(target) else None
    return solve_from_smith(lattice_factors(rows), target)


def _unit(a):
    return a == 1 or a == -1


def _integral_quotient(a, b):
    """a / b as an int, or None if it is not an integer."""
    q, r = divmod(a, b)
    return None if r else q


class PivotSolver:
    """Exact solver for a full-column-rank sparse system E x = t.

    `columns` are the columns of E as dicts {row: nonzero int}.  Sparse
    Gaussian elimination, run once, picks one pivot row per column and
    keeps the factors L and U of the square submatrix E_P on those rows.
    The columns pivot in one order, fixed before the first step by their
    starting entry counts, ties to the lower column.  Each pivots on a
    +-1 entry in the shortest remaining row that holds one, so that the
    factors stay integral, or, when it has no +-1 entry left, on its
    entry in the shortest row, and the factors carry Fractions from
    there on.  Ties go to the lower row.

    `solve(t)` uses only the pivot entries of t and returns the nonzero
    coordinates of the unique x with (E x)_P == t_P.  It does not check
    the other rows: a caller that needs E x == t checks its residual.
    """

    def __init__(self, columns):
        rows = {}
        for j, col in enumerate(columns):
            for i, v in col.items():
                row = rows.get(i)
                if row is None:
                    rows[i] = {j: v}
                else:
                    row[j] = v
        holders = [set(col) for col in columns]  # column -> rows with an entry in it
        self.rows, self.cols, self.pivots = [], [], []
        urows, lcols = [], []  # per step: rest of the pivot row; [(row, factor)]
        for c in sorted(range(len(columns)), key=lambda j: (len(columns[j]), j)):
            if not holders[c]:
                raise ValueError("matrix does not have full column rank")
            units = [i for i in holders[c] if _unit(rows[i][c])]
            p = min((len(rows[i]), i) for i in units or holders[c])[1]
            prow = rows.pop(p)
            a = prow.pop(c)
            for j in prow:
                holders[j].discard(p)
            holders[c].discard(p)
            # most pivot rows hold no other column, so most steps only
            # take column c out of its rows
            mults = [(i, rows[i].pop(c)) for i in holders[c]]
            if _unit(a):
                mults = [(i, v * a) for i, v in mults]
            else:
                from fractions import Fraction  # imported here: no peel rung pivots off +-1
                mults = [(i, Fraction(v, a)) for i, v in mults]
            for j, v in prow.items():
                holder = holders[j]
                for i, f in mults:
                    row = rows[i]
                    if j not in row:
                        row[j] = -f * v
                        holder.add(i)
                    elif nv := row[j] - f * v:
                        row[j] = nv
                    else:
                        del row[j]
                        holder.discard(i)
            self.rows.append(p)
            self.cols.append(c)
            self.pivots.append(a)
            urows.append(prow)
            lcols.append(mults)
        step_of_row = {p: s for s, p in enumerate(self.rows)}
        step_of_col = {c: s for s, c in enumerate(self.cols)}
        # Forward: step s subtracts f * v[s] from the later pivot rows in
        # lower[s].  Backward: x[cols[s]] feeds the earlier pivot rows in
        # upper[s].  Only the steps that carry entries are keys.
        lower = {s: [(step_of_row[i], f) for i, f in mults if i in step_of_row]
                 for s, mults in enumerate(lcols)}
        self._lower = {s: fs for s, fs in lower.items() if fs}
        self._upper = {}
        for s, prow in enumerate(urows):
            for j, v in prow.items():
                self._upper.setdefault(step_of_col[j], []).append((s, v))
        self._step_of_row = step_of_row
        self.nonunit_pivots = sum(1 for a in self.pivots if not _unit(a))

    def solve(self, t):
        """The nonzero coordinates of the x with (E x)_P == t_P, as
        {column: int}, or None if x is not integral.

        `t` is an iterable of (row, value) pairs, each row at most once;
        absent rows read as 0, and rows off the pivot rows P are ignored.
        The work follows the entries, since the peel solves for a few
        coordinates out of hundreds: t is read pair by pair, and each sweep
        pops from a heap of step numbers only the steps that hold a value
        and carry factor entries.  Forward substitution only adds values at
        later steps and back substitution only at earlier ones, so each
        step is taken once, after every update to it.
        """
        step_of_row = self._step_of_row
        v = {}
        for i, c in t:
            s = step_of_row.get(i)
            if s is not None:
                v[s] = c
        lower, upper = self._lower, self._upper
        heap = [s for s in v if s in lower]
        heapify(heap)
        while heap:
            s = heappop(heap)
            vs = v[s]
            if vs:
                for s2, f in lower[s]:
                    if s2 in v:
                        v[s2] -= f * vs
                    else:
                        v[s2] = -f * vs
                        if s2 in lower:
                            heappush(heap, s2)
        pivots, cols = self.pivots, self.cols
        x = {}
        heap = [-s for s in v if s in upper]
        heapify(heap)
        while heap:
            s = -heappop(heap)
            vs = v.pop(s)
            if vs:
                xs = _integral_quotient(vs, pivots[s])
                if xs is None:
                    return None
                x[cols[s]] = xs
                for s2, u in upper[s]:
                    if s2 in v:
                        v[s2] -= u * xs
                    else:
                        v[s2] = -u * xs
                        if s2 in upper:
                            heappush(heap, -s2)
        # the steps left feed no earlier row, and every update has reached them
        for s, vs in v.items():
            if vs:
                xs = _integral_quotient(vs, pivots[s])
                if xs is None:
                    return None
                x[cols[s]] = xs
        return x
