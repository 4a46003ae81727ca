import random

from fractions import Fraction

import pytest
from oracles import (
    fraction_combination,
    fraction_inv_unimodular,
    invariant_factors,
    pivot_order_by_sort,
    pivot_solve_by_sweep,
    solve_integer,
)

from nilpal.nilpotent import HallBasis
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


def test_pivot_solver_recovers_integer_solutions():
    rng = random.Random(11)
    tried = 0
    for _ in range(200):
        rows, cols = rng.randint(1, 7), rng.randint(1, 4)
        a = rand_matrix(rng, rows, cols, span=3)
        if len(invariant_factors(a)) < cols:
            continue
        tried += 1
        solver = PivotSolver(_columns(a))
        assert len(solver.rows) == cols
        x = [rng.randint(-5, 5) for _ in range(cols)]
        t = {i: v for i, v in enumerate(mat_vec(a, x)) if v}
        assert solver.solve(t.items()) == _sparse(x)
    assert tried > 50


def test_pivot_solver_matches_gauss_jordan_on_sparse_systems():
    # Sparse columns with entries up to 3 in size, and targets E y with y
    # rational (denominators 1..3): solve returns y when it is integral
    # and None otherwise, reading t entry by entry.
    rng = random.Random(23)
    tried = nonunit = integral = 0
    for _ in range(400):
        rows, cols = rng.randint(2, 14), rng.randint(1, 7)
        a = [[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.3 else 0
              for _ in range(cols)] for _ in range(rows)]
        columns = [[row[j] for row in a] for j in range(cols)]
        if fraction_combination(columns, [0] * rows)[0] < cols:
            continue
        tried += 1
        solver = PivotSolver(_columns(a))
        nonunit += solver.nonunit_pivots > 0
        for _ in range(4):
            y = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(cols)]
            target = [sum(c * v for c, v in zip(row, y)) for row in a]
            _, exact = fraction_combination(columns, target)
            assert exact == y
            t = {i: v for i, v in enumerate(target) if v}
            got = solver.solve(t.items())
            if all(v.denominator == 1 for v in exact):
                integral += 1
                assert got == _sparse(exact)
                assert all(type(v) is int for v in got.values())
            else:
                assert got is None
    assert tried > 100 and nonunit > 20 and integral > 100


def test_pivot_solver_sweeps_match_the_full_sweep_and_gauss_jordan():
    # 30%-dense systems with entries up to 3, so non-unit pivots occur.
    # For every t, solve returns the nonzero coordinates of the unique
    # rational x with (E x)_P == t_P when it is integral, else None: the
    # same as the sweep through every step of the same factors, and as
    # Gauss-Jordan over Fractions on the pivot rows alone.  The targets
    # are E y for y integral and rational, random vectors, an empty t,
    # and t with entries only off the pivot rows.
    rng = random.Random(41)
    entries = (-3, -2, -1, 1, 2, 3)
    tried = nonunit = off_pivot = integral = rejected = 0
    for _ in range(300):
        rows, cols = rng.randint(2, 16), rng.randint(1, 8)
        a = [[rng.choice(entries) if rng.random() < 0.3 else 0 for _ in range(cols)]
             for _ in range(rows)]
        columns = [[row[j] for row in a] for j in range(cols)]
        if fraction_combination(columns, [0] * rows)[0] < cols:
            continue
        tried += 1
        solver = PivotSolver(_columns(a))
        nonunit += solver.nonunit_pivots > 0
        targets = [{}]
        off = [i for i in range(rows) if i not in solver.rows]
        if off:
            off_pivot += 1
            picked = rng.sample(off, rng.randint(1, len(off)))
            targets.append({i: rng.choice(entries) for i in picked})
        for _ in range(3):
            y = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(cols)]
            targets.append({i: v for i, row in enumerate(a)
                            if (v := sum(c * yj for c, yj in zip(row, y)))})
        picked = rng.sample(range(rows), rng.randint(1, rows))
        targets.append({i: rng.randint(-5, 5) for i in picked})
        pivot_columns = [[col[i] for i in solver.rows] for col in columns]
        for t in targets:
            _, exact = fraction_combination(pivot_columns, [t.get(i, 0) for i in solver.rows])
            got = solver.solve(t.items())
            swept = pivot_solve_by_sweep(solver, t)
            if all(v.denominator == 1 for v in exact):
                integral += 1
                assert swept == exact
                assert got == _sparse(exact)
                assert all(type(v) is int for v in got.values())
            else:
                rejected += 1
                assert got is None and swept is None
    assert tried > 150 and nonunit > 80 and off_pivot > 150
    assert integral > 500 and rejected > 300


def _pivot_order(columns):
    """(rows, cols, pivots) of the solver, or the message it raises."""
    try:
        solver = PivotSolver(columns)
    except ValueError as err:
        return str(err)
    return [solver.rows, solver.cols, solver.pivots]


def test_pivot_solver_picks_the_pivots_of_the_sorting_reference():
    # The solver's sparse elimination must pick the same pivot at every
    # step as the dense reference with the columns sorted once: on
    # 30%-dense systems, on systems where some columns hold no +-1 entry
    # (so their pivot falls back to the shortest row), and on
    # rank-deficient systems, which raise the same ValueError.
    rng = random.Random(53)
    seen = {"full": 0, "deficient": 0, "no_unit_column": 0, "nonunit_pivot": 0}
    for _ in range(400):
        rows, cols = rng.randint(1, 16), rng.randint(1, 9)
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
        got = _pivot_order(columns)
        try:
            want = pivot_order_by_sort(columns)
        except ValueError as err:
            want = str(err)
        assert got == want
        if isinstance(got, str):
            seen["deficient"] += 1
            continue
        seen["full"] += 1
        seen["no_unit_column"] += any(
            col and all(abs(v) != 1 for v in col.values()) for col in columns)
        seen["nonunit_pivot"] += any(abs(a) != 1 for a in got[2])
    assert min(seen.values()) > 20, seen


@pytest.mark.parametrize("n,k", [(3, 5), (2, 6), (4, 4)])
def test_peel_solvers_pick_the_pivots_of_the_sorting_reference(n, k):
    basis = HallBasis(n, k)
    for w in range(1, k + 1):
        columns = basis.lie_columns(w)
        assert _pivot_order(columns) == pivot_order_by_sort(columns)


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
    tried = 0
    for _ in range(60):
        rows, cols = rng.randint(2, 9), rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols, span=3)
        if len(invariant_factors(a)) < cols:
            continue
        tried += 1
        solver = PivotSolver(_columns(a))
        x = [rng.randint(-5, 5) for _ in range(cols)]
        t = {i: v for i, v in enumerate(mat_vec(a, x)) if v}
        pairs = list(t.items())
        rng.shuffle(pairs)
        assert solver.solve(t.items()) == _sparse(x)
        assert solver.solve(pairs) == _sparse(x)
        assert solver.solve(pair for pair in pairs) == _sparse(x)
        assert solver.solve(iter(())) == {}
    assert tried > 20


def test_pivot_solver_fraction_path():
    # Pivots 2, then 2 - 4 * 4 / 2 = -6: the second step runs on Fractions.
    solver = PivotSolver(_columns([[2, 4], [4, 2]]))
    assert solver.nonunit_pivots == 2
    assert solver.solve({0: 2 - 16, 1: 4 - 8}.items()) == {0: 1, 1: -4}
    assert solver.solve({0: 1, 1: 0}.items()) is None
    # x = 1/2 on a single column of 2s is rejected, not rounded.
    half = PivotSolver(_columns([[2], [2]]))
    assert half.solve({0: 1, 1: 1}.items()) is None
    assert half.solve({0: Fraction(4), 1: 4}.items()) == {0: 2}


def test_pivot_solver_prefers_unit_pivots():
    # The shortest row of column 0 holds a 2; the unit in row 1 wins.
    a = [[2, 0], [1, 1], [0, 1]]
    assert PivotSolver(_columns(a)).nonunit_pivots == 0


def test_pivot_solver_rejects_rank_deficient():
    with pytest.raises(ValueError):
        PivotSolver(_columns([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        PivotSolver([{0: 1}, {}])
