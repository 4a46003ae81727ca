import random

from fractions import Fraction

import pytest
from oracles import fraction_inv_unimodular

from nilpal.intlinalg import (
    PivotSolver,
    det,
    eye,
    inv_unimodular,
    invariant_factors,
    lattice_solve,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_integer,
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


def test_invariant_factors():
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[1, 2], [0, 2]]) == [1, 2]


def _columns(a):
    return [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(len(a[0]))]


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
        assert solver.solve(t) == x
    assert tried > 50


def test_pivot_solver_fraction_path():
    # Pivots 2, then 2 - 4 * 4 / 2 = -6: the second step runs on Fractions.
    solver = PivotSolver(_columns([[2, 4], [4, 2]]))
    assert solver.nonunit_pivots == 2
    assert solver.solve({0: 2 - 16, 1: 4 - 8}) == [1, -4]
    assert solver.solve({0: 1, 1: 0}) is None
    # x = 1/2 on a single column of 2s is rejected, not rounded.
    half = PivotSolver(_columns([[2], [2]]))
    assert half.solve({0: 1, 1: 1}) is None
    assert half.solve({0: Fraction(4), 1: 4}) == [2]


def test_pivot_solver_prefers_unit_pivots():
    # The shortest row of column 0 holds a 2; the unit in row 1 wins.
    a = [[2, 0], [1, 1], [0, 1]]
    assert PivotSolver(_columns(a)).nonunit_pivots == 0


def test_pivot_solver_rejects_rank_deficient():
    with pytest.raises(ValueError):
        PivotSolver(_columns([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        PivotSolver([{0: 1}, {}])
