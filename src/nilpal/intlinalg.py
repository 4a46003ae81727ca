"""Exact integer linear algebra on plain lists and dicts of Python ints,
so all results are exact at arbitrary precision, with no fractions.  Two
integer echelons serve the package: `RowEchelon` of the BGLM rows, whose
pivots are 1 or 2 up to sign and which decides lattice membership, and
`PivotSolver` of the peel's Lie columns, whose pivots are all +-1.  No
package path runs the Smith normal form, or the dense `lattice_solve`
that reads it.
"""

import operator
from bisect import insort
from heapq import heapify, heappop, heappush


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


def lattice_solve(rows, target):
    """Coefficients t with sum(t[i]*rows[i]) == target, or None, by the
    Smith form u a v = d of the rows as columns: t = v (u target / d)."""
    if not rows:
        return [] if not any(target) else None
    u, d, v = smith_normal_form(transpose(rows))
    c = mat_vec(u, target)
    diag = [d[i][i] if i < len(v) else 0 for i in range(len(c))]
    if any(ci % di if di else ci for ci, di in zip(c, diag)):
        return None
    return mat_vec(v, [ci // di if di else 0 for ci, di in zip(c, diag)])


class RowEchelon:
    """Integer row echelon of the rows given to `add`, in order.  A row is
    reduced by the kept rows in pivot order, each by the exact multiple
    that clears its pivot.  A row left nonzero raises the rank and is kept,
    reduced, its leading entry the pivot; a row left zero is an integer
    combination of the kept rows and is dropped, so the kept rows are a
    basis of the lattice of all rows.  A pivot that does not divide the
    entry it meets raises ValueError (the row is off the kept rows'
    lattice); no gcd step is taken."""

    def __init__(self):
        self._steps = []  # (pivot column, kept position, reduced entries), by column
        self._mults = []  # per kept row: (position, multiple) its reduction took

    def _reduce(self, t):
        """Clear t at the pivot columns, in place; the multiples of the
        reduced rows taken, or None where a pivot does not divide t."""
        y = [0] * len(self._mults)
        for col, pos, entries in self._steps:
            if t[col]:
                y[pos], r = divmod(t[col], entries[0][1])
                if r:
                    return None
                for j, w in entries:
                    t[j] -= y[pos] * w
        return y

    def add(self, row):
        """Whether the row raises the rank, and is kept."""
        t = list(row)
        y = self._reduce(t)
        if y is None:
            raise ValueError("a pivot does not divide the entry it meets")
        entries = [(j, v) for j, v in enumerate(t) if v]
        if entries:
            insort(self._steps, (entries[0][0], len(self._mults), entries))
            self._mults.append([(pos, q) for pos, q in enumerate(y) if q])
        return bool(entries)

    def solve(self, target):
        """The unique x with sum x[i] * row[i] == target over the kept rows,
        in the order kept, or None.  The pass gives multiples of the reduced
        rows; a kept row is its reduced row plus the multiples its reduction
        took, so those are taken back, last row first."""
        t = list(target)
        x = self._reduce(t)
        if x is None or any(t):
            return None
        for pos in reversed(range(len(x))):
            for j, q in self._mults[pos]:
                x[j] -= x[pos] * q
        return x


def _integral_quotient(a, b):
    """a / b as an int, or None if it is not an integer."""
    q, r = divmod(a, b)
    return None if r else q


class PivotSolver:
    """Exact solver for a full-column-rank sparse system E x = t whose
    integer echelon has unit pivots.

    `columns` are the columns of E as dicts {row: nonzero int}.  Each
    column, in order, is reduced by the kept reduced columns in ascending
    pivot-row order, each time by the exact multiple that clears the pivot
    of the lowest row holding a value; the rows holding a value come off a
    heap.  It is kept with that lowest row as its pivot row, together with
    its combination over the given columns.  A column reduced to zero
    (rank deficiency) or a pivot other than +-1 raises ValueError.  The
    peel's Lie lattices pivot on the Lyndon words, each with +-1 (README).

    `solve(t)` uses only the pivot entries of t and returns the nonzero
    coordinates of the unique x with (E x)_P == t_P.  It does not check
    the other rows: a caller that needs E x == t checks its residual.
    """

    def __init__(self, columns):
        kept = {}  # pivot row -> (reduced column, column, its combination)
        for j, col in enumerate(columns):
            red, combo = dict(col), {j: 1}
            heap = list(red)
            heapify(heap)
            while heap:
                i = heappop(heap)
                v = red.get(i)
                if not v:
                    continue
                if i not in kept:
                    break
                rcol, _, rcombo = kept[i]
                q = v * rcol[i]  # v / pivot, the pivot being +-1
                for r, u in rcol.items():
                    if r not in red:
                        red[r] = -q * u
                        heappush(heap, r)
                    elif nv := red[r] - q * u:
                        red[r] = nv
                    else:
                        del red[r]
                for c, u in rcombo.items():
                    combo[c] = combo.get(c, 0) - q * u
            else:
                raise ValueError("matrix does not have full column rank")
            if red[i] not in (1, -1):
                raise ValueError(f"pivot {red[i]} at row {i} is not a unit")
            kept[i] = (red, j, combo)
        # per pivot row: its pivot, the later pivot rows its reduced column
        # holds, its column, and the rest of its combination (coefficient 1
        # at its own column, the others at earlier columns)
        self.pivots = {i: red[i] for i, (red, _, _) in kept.items()}
        self._steps = {
            i: (red[i], [(r, u) for r, u in red.items() if r != i and r in kept], j,
                [(c, u) for c, u in combo.items() if u and c != j])
            for i, (red, j, combo) in kept.items()}

    def solve(self, t):
        """The nonzero coordinates of the x with (E x)_P == t_P, as
        {column: int}, or None if x is not integral.

        `t` is an iterable of (row, value) pairs, each row at most once;
        absent rows read as 0, and rows off the pivot rows P are ignored.
        The work follows the entries, since the peel solves for a few
        coordinates out of hundreds: one ascending sweep pops from a heap
        only the pivot rows that hold a value.  A reduced column only adds
        values at later pivot rows, so each row is taken once, after every
        update to it.  Its multiple y, the value over the pivot (refused
        where it is not an integer), is the coordinate of its
        own column, and the rest of its combination adds multiples of y to
        other columns once the sweep is done.
        """
        steps = self._steps
        v = {i: c for i, c in t if i in steps}
        heap = list(v)
        heapify(heap)
        x, rests = {}, []
        while heap:
            i = heappop(heap)
            if vi := v[i]:
                pivot, later, col, rest = steps[i]
                y = _integral_quotient(vi, pivot)
                if y is None:
                    return None
                for r, u in later:
                    if r in v:
                        v[r] -= u * y
                    else:
                        v[r] = -u * y
                        heappush(heap, r)
                x[col] = y
                if rest:
                    rests.append((rest, y))
        for rest, y in rests:
            for c, u in rest:
                x[c] = x.get(c, 0) + u * y
        if rests and 0 in x.values():
            return {c: xc for c, xc in x.items() if xc}
        return x
