import random

from fractions import Fraction

import pytest
from oracles import (
    fraction_combination,
    fraction_inv_unimodular,
    invariant_factors,
    pivot_solve_by_sweep,
    solve_integer,
    unit_echelon_rows,
)

from nilpal.intlinalg import (
    PivotSolver,
    RowEchelon,
    _integral_quotient,
    det,
    eye,
    inv_unimodular,
    lattice_solve,
    mat_mul,
    mat_vec,
    smith_normal_form,
)


def rand_matrix(rng, rows, cols, span=6):
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


def test_det_small():
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [2, 4]]) == 0


def test_det_matches_cofactor_expansion():
    rng = random.Random(1)

    def cofactor_det(m):
        if len(m) == 1:
            return m[0][0]
        total = 0
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
        return total

    for _ in range(40):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        assert det(m) == cofactor_det(m)


def test_inv_unimodular():
    rng = random.Random(2)
    built = 0
    while built < 25:
        n = rng.randint(1, 4)
        m = eye(n)
        for _ in range(8):  # random product of elementary matrices stays unimodular
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                f = rng.randint(-3, 3)
                for col in range(n):
                    m[i][col] += f * m[j][col]
        inv = inv_unimodular(m)
        assert mat_mul(m, inv) == eye(n)
        assert mat_mul(inv, m) == eye(n)
        built += 1


def rand_unimodular(rng, n, steps=12):
    """A random product of elementary matrices and a sign change."""
    m = eye(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            f = rng.randint(-3, 3)
            for col in range(n):
                m[i][col] += f * m[j][col]
    i = rng.randrange(n)
    m[i] = [-v for v in m[i]]
    rng.shuffle(m)
    return m


@pytest.mark.parametrize("n", range(1, 6))
def test_inv_unimodular_matches_the_fraction_oracle(n):
    rng = random.Random(20 + n)
    for _ in range(40):
        m = rand_unimodular(rng, n)
        assert inv_unimodular(m) == fraction_inv_unimodular(m)


@pytest.mark.parametrize("m,message", [
    ([[0]], "singular"),
    ([[2, 0], [0, 0]], "singular"),
    ([[0, 0], [0, 2]], "singular"),
    ([[1, 2], [2, 4]], "singular"),
    ([[2, 4, 1], [3, 6, 5], [1, 2, 7]], "singular"),
    ([[2]], "not unimodular"),
    ([[2, 0], [0, 1]], "not unimodular"),
    ([[1, 2], [3, 4]], "not unimodular"),
    ([[4, 6], [6, 4]], "not unimodular"),
    ([[2, 1, 0], [0, 3, 1], [1, 0, 2]], "not unimodular"),
])
def test_inv_unimodular_errors_match_the_fraction_oracle(m, message):
    for inv in (inv_unimodular, fraction_inv_unimodular):
        with pytest.raises(ValueError, match=f"matrix is {message}"):
            inv(m)


def test_inv_unimodular_error_classes_on_random_matrices():
    rng = random.Random(29)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n, span=2)
        outs = []
        for inv in (inv_unimodular, fraction_inv_unimodular):
            try:
                outs.append(inv(m))
            except ValueError as exc:
                outs.append(str(exc))
        assert outs[0] == outs[1], m
        seen.add(outs[0] if isinstance(outs[0], str) else "inverse")
    assert seen == {"matrix is singular", "matrix is not unimodular", "inverse"}


def test_smith_normal_form_properties():
    rng = random.Random(3)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols)
        u, d, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert det(u) in (1, -1)
        assert det(v) in (1, -1)
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for a_, b_ in zip(nonzero, nonzero[1:]):
            assert b_ % a_ == 0


def test_solve_integer_round_trip():
    rng = random.Random(4)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols)
        x = [rng.randint(-4, 4) for _ in range(cols)]
        b = mat_vec(a, x)
        got = solve_integer(a, b)
        assert got is not None
        assert mat_vec(a, got) == b


def test_solve_integer_detects_nonmembers():
    assert solve_integer([[2]], [1]) is None
    assert solve_integer([[1], [0]], [0, 1]) is None
    assert solve_integer([[2, 0], [0, 3]], [4, 3]) == [2, 1]


def test_lattice_solve():
    rows = [[1, 2], [0, 2]]
    assert lattice_solve(rows, [1, 0]) == [1, -1]
    assert lattice_solve(rows, [0, 1]) is None
    assert lattice_solve([], [0, 0]) == []
    assert lattice_solve([], [1]) is None


def test_row_echelon_keeps_a_basis_and_solves_over_it():
    echelon = RowEchelon()
    # (0,2,2) is kept with pivot 2; (1,2,0) raises the rank at column 0;
    # (2,6,2) is (0,2,2) + 2 (1,2,0) and is dropped
    assert [echelon.add(row) for row in ([0, 2, 2], [1, 2, 0], [2, 6, 2])] == [True, True, False]
    # coefficients over the kept rows in the order added, unique
    assert echelon.solve([2, 6, 2]) == [1, 2]
    assert echelon.solve([0, 0, 0]) == [0, 0]
    assert echelon.solve([0, 1, 1]) is None  # the pivot 2 does not divide 1
    assert echelon.solve([0, 0, 1]) is None  # off the rational span
    # a pivot that does not divide the entry it meets raises
    with pytest.raises(ValueError, match="does not divide"):
        echelon.add([0, 1, 1])
    assert echelon.solve([1, 4, 2]) == [1, 1]


def test_invariant_factors():
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[1, 2], [0, 2]]) == [1, 2]


def _columns(a):
    return [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(len(a[0]))]


def _sparse(x):
    """The nonzero coordinates of x, the form `PivotSolver.solve` returns."""
    return {j: v for j, v in enumerate(x) if v}


def _combination(columns, x):
    """E x for E given by its sparse columns, as {row: nonzero value}."""
    t = {}
    for col, xj in zip(columns, x):
        for i, v in col.items():
            t[i] = t.get(i, 0) + v * xj
    return {i: v for i, v in t.items() if v}


def _unit_echelon_columns(rng, rows, cols, span):
    """(pivot rows, columns) of a system that `PivotSolver` builds: each
    column has +-1 at its own random pivot row and entries up to `span`
    in size below it only, and then gains random multiples of the columns
    before it, so every prefix spans a lattice with a unit echelon."""
    pivots = rng.sample(range(rows), cols)
    columns = []
    for p in pivots:
        col = {p: rng.choice((-1, 1))}
        for i in range(p + 1, rows):
            if v := rng.randint(-span, span):
                col[i] = v
        for prev in columns:
            f = rng.randint(-2, 2)
            for i, v in prev.items():
                col[i] = col.get(i, 0) + f * v
        columns.append({i: v for i, v in col.items() if v})
    return sorted(pivots), columns


def test_pivot_solver_recovers_integer_solutions():
    rng = random.Random(11)
    for _ in range(200):
        rows = rng.randint(1, 7)
        pivots, columns = _unit_echelon_columns(rng, rows, rng.randint(1, rows), 3)
        solver = PivotSolver(columns)
        assert sorted(solver.pivots) == pivots
        x = [rng.randint(-5, 5) for _ in columns]
        t = _combination(columns, x)
        assert solver.solve(t.items()) == _sparse(x)


def _sparse_system(rng, entries):
    """A 30%-dense system with full rational column rank, as its rows,
    or None where the draw is rank-deficient."""
    rows, cols = rng.randint(2, 14), rng.randint(1, 7)
    a = [[rng.choice(entries) if rng.random() < 0.3 else 0 for _ in range(cols)]
         for _ in range(rows)]
    columns = [[row[j] for row in a] for j in range(cols)]
    if fraction_combination(columns, [0] * rows)[0] < cols:
        return None
    return a


def _rational_target(rng, a):
    """(E y, y) for a random y with denominators 1..3, E y as {row: value}."""
    y = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in a[0]]
    return {i: v for i, row in enumerate(a) if (v := sum(c * yj for c, yj in zip(row, y)))}, y


def test_pivot_solver_matches_gauss_jordan_on_sparse_systems():
    # Sparse columns with entries up to 3 in size.  The solver builds
    # exactly the systems whose every column prefix spans a lattice with
    # unit echelon pivots, on the rows the reference names.  For targets
    # E y with y rational (denominators 1..3) it returns y when y is
    # integral and None otherwise, as Gauss-Jordan over Fractions finds.
    rng = random.Random(23)
    entries = (-3, -2, -1, -1, 1, 1, 2, 3)
    seen = {"built": 0, "refused": 0, "integral": 0, "rejected": 0}
    for _ in range(1200):
        a = _sparse_system(rng, entries)
        if a is None:
            continue
        pivots = unit_echelon_rows(_columns(a))
        try:
            solver = PivotSolver(_columns(a))
        except ValueError:
            assert pivots is None
            seen["refused"] += 1
            continue
        assert sorted(solver.pivots) == pivots
        seen["built"] += 1
        columns = [[row[j] for row in a] for j in range(len(a[0]))]
        for _ in range(3):
            t, y = _rational_target(rng, a)
            _, exact = fraction_combination(columns, [t.get(i, 0) for i in range(len(a))])
            assert exact == y
            got = solver.solve(t.items())
            if all(v.denominator == 1 for v in y):
                seen["integral"] += 1
                assert got == _sparse(y)
                assert all(type(v) is int for v in got.values())
            else:
                seen["rejected"] += 1
                assert got is None
    assert min(seen.values()) > 80, seen


def test_pivot_solver_sweeps_match_the_full_sweep_and_gauss_jordan():
    # For every t, solve returns the nonzero coordinates of the unique
    # rational x with (E x)_P == t_P when it is integral, else None: the
    # same as the sweep through every pivot row of the same steps, and as
    # Gauss-Jordan over Fractions on the pivot rows alone.  The targets
    # are an empty t, t with entries only off the pivot rows, E y for y
    # rational, and random vectors.
    rng = random.Random(41)
    entries = (-3, -2, -1, -1, 1, 1, 2, 3)
    seen = {"built": 0, "off_pivot": 0, "integral": 0, "rejected": 0}
    for _ in range(1600):
        a = _sparse_system(rng, entries)
        if a is None:
            continue
        try:
            solver = PivotSolver(_columns(a))
        except ValueError:
            continue
        seen["built"] += 1
        pivots = sorted(solver.pivots)
        targets = [{}]
        off = [i for i in range(len(a)) if i not in pivots]
        if off:
            seen["off_pivot"] += 1
            picked = rng.sample(off, rng.randint(1, len(off)))
            targets.append({i: rng.choice(entries) for i in picked})
        targets.extend(_rational_target(rng, a)[0] for _ in range(3))
        picked = rng.sample(range(len(a)), rng.randint(1, len(a)))
        targets.append({i: rng.randint(-5, 5) for i in picked})
        pivot_columns = [[a[i][j] for i in pivots] for j in range(len(a[0]))]
        for t in targets:
            _, exact = fraction_combination(pivot_columns, [t.get(i, 0) for i in pivots])
            got = solver.solve(t.items())
            swept = pivot_solve_by_sweep(solver, t)
            if all(v.denominator == 1 for v in exact):
                seen["integral"] += 1
                assert swept == exact
                assert got == _sparse(exact)
                assert all(type(v) is int for v in got.values())
            else:
                seen["rejected"] += 1
                assert got is None and swept is None
    assert min(seen.values()) > 80, seen


def _pivot_rows(columns):
    """The solver's pivot rows, ascending, None if it refuses a non-unit
    pivot, or the message of a rank-deficient system."""
    try:
        return sorted(PivotSolver(columns).pivots)
    except ValueError as err:
        if "full column rank" in str(err):
            return str(err)
        return None


def test_pivot_solver_refuses_exactly_the_nonunit_prefix_lattices():
    # On 30%-dense systems, some with columns holding no +-1 entry, on
    # unit-echelon systems with one entry moved by 1 or not, and on
    # systems with a column a multiple of another, the solver keeps the
    # reference's pivot rows, refuses where a prefix lattice has a
    # non-unit echelon pivot, and raises the same ValueError on
    # rank-deficient systems.
    rng = random.Random(53)
    seen = {"built": 0, "refused": 0, "deficient": 0}
    for _ in range(400):
        rows, cols = rng.randint(1, 16), rng.randint(1, 9)
        if rng.random() < 0.5:
            _, columns = _unit_echelon_columns(rng, rows, min(rows, cols), 3)
            if rng.random() < 0.5:
                col = rng.choice(columns)
                i = rng.randrange(rows)
                if v := col.get(i, 0) + rng.choice((-1, 1)):
                    col[i] = v
                else:
                    del col[i]
        else:
            plain = (-3, -2, -1, 1, 2, 3)
            columns = []
            for _ in range(cols):
                entries = (-3, -2, 2, 3) if rng.random() < 0.3 else plain
                columns.append({i: rng.choice(entries) for i in range(rows)
                                if rng.random() < 0.3})
        if cols > 1 and rng.random() < 0.15:
            # a column that is a multiple of another
            f = rng.choice((-2, -1, 1, 2))
            columns[-1] = {i: f * v for i, v in columns[0].items()}
        got = _pivot_rows(columns)
        try:
            want = unit_echelon_rows(columns)
        except ValueError as err:
            want = str(err)
        assert got == want
        seen["deficient" if isinstance(got, str) else "refused" if got is None else "built"] += 1
    assert min(seen.values()) > 20, seen


def test_integral_quotient_matches_fractions():
    # unit divisors, |b| >= 2 and negative values on both sides; multiples
    # of b are drawn too, so both answers occur
    rng = random.Random(23)
    divisors = [1, -1] + [s * m for s in (1, -1) for m in (2, 3, 7, 12, 10**20)]
    for b in divisors:
        for _ in range(60):
            a = rng.randint(-10**6, 10**6)
            if rng.random() < 0.5:
                a *= b
            q = Fraction(a, b)
            want = q.numerator if q.denominator == 1 else None
            got = _integral_quotient(a, b)
            assert got == want and type(got) is type(want), (a, b)


def test_pivot_solver_takes_any_iterable_of_pairs():
    # solve reads t once, pair by pair: a dict's items, a list and a
    # one-shot generator give the same x, off-pivot rows included
    rng = random.Random(57)
    for _ in range(60):
        rows = rng.randint(2, 9)
        _, columns = _unit_echelon_columns(rng, rows, rng.randint(1, min(rows, 5)), 3)
        solver = PivotSolver(columns)
        x = [rng.randint(-5, 5) for _ in columns]
        t = _combination(columns, x)
        pairs = list(t.items())
        rng.shuffle(pairs)
        assert solver.solve(t.items()) == _sparse(x)
        assert solver.solve(pairs) == _sparse(x)
        assert solver.solve(pair for pair in pairs) == _sparse(x)
        assert solver.solve(iter(())) == {}


def test_pivot_solver_fraction_path():
    # The solver runs on ints and has no Fraction path: the system whose
    # second pivot was 2 - 4 * 4 / 2 = -6 is refused, and Fraction values
    # in t are taken exactly, an integral x coming back as ints and
    # x = 1/2 refused, not rounded.
    with pytest.raises(ValueError, match="not a unit"):
        PivotSolver(_columns([[2, 4], [4, 2]]))
    solver = PivotSolver(_columns([[1, 2], [0, 1]]))
    assert solver.solve({0: Fraction(1, 2)}.items()) is None
    got = solver.solve({0: Fraction(4), 1: 1}.items())
    assert got == {0: 2, 1: 1} and all(type(v) is int for v in got.values())
    ones = PivotSolver(_columns([[1], [1]]))
    assert ones.solve({0: Fraction(1, 2), 1: Fraction(1, 2)}.items()) is None
    got = ones.solve({0: Fraction(4), 1: 4}.items())
    assert got == {0: 4} and type(got[0]) is int


def test_pivot_solver_prefers_unit_pivots():
    # There is no search for a unit: each reduced column pivots on its
    # lowest row, kept with its sign when that entry is +-1.  The matrix
    # whose column 0 holds 2 above a unit is refused; with the unit row
    # first and the 2 moved last, the same columns build on units.
    assert PivotSolver(_columns([[-1, 0], [3, -1]])).pivots == {0: -1, 1: -1}
    with pytest.raises(ValueError, match="pivot 2 at row 0 is not a unit"):
        PivotSolver(_columns([[2, 0], [1, 1], [0, 1]]))
    solver = PivotSolver(_columns([[1, 1], [0, 1], [2, 0]]))
    assert solver.pivots == {0: 1, 1: 1}
    assert solver.solve({0: 1, 1: -2, 2: 6}.items()) == {0: 3, 1: -2}


def test_pivot_solver_refuses_nonunit_pivots():
    # A pivot of 2 is refused, not run on Fractions: in the first column,
    # after one step, and where a later column would bring the lattice a
    # unit pivot, since the columns are taken in order.
    for a in ([[2], [2]], [[2, 1], [1, 0]], [[1, 1], [1, -1]]):
        with pytest.raises(ValueError, match="not a unit"):
            PivotSolver(_columns(a))
    # the same lattice in the other order
    solver = PivotSolver(_columns([[1, 2], [0, 1]]))
    assert solver.solve({0: 4, 1: 1}.items()) == {0: 2, 1: 1}


def test_pivot_solver_rejects_rank_deficient():
    with pytest.raises(ValueError):
        PivotSolver(_columns([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        PivotSolver([{0: 1}, {}])
