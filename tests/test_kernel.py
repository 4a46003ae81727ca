"""Kernel parity: the compiled extension must agree with the pure fallback."""

import random

import pytest

from nilpal import _kernel_py
from nilpal.kernel import BACKEND, poly_inv, poly_mul, poly_pow
from nilpal.nilpotent import hall_basis

try:
    from nilpal import _speedups
except ImportError:
    _speedups = None


def rand_poly(rng, m, k, terms):
    poly = {0: 1}
    for _ in range(terms):
        poly[rng.randrange(m)] = rng.randint(-50, 50)
    return {i: c for i, c in poly.items() if c} | {0: 1}


@pytest.mark.skipif(_speedups is None, reason="compiled kernel not built")
def test_backends_agree():
    rng = random.Random(5)
    basis = hall_basis(3, 4)
    basis._ensure_monos()
    table, m = basis._table, basis._mono_count
    for _ in range(200):
        a = rand_poly(rng, m, 4, rng.randint(0, 25))
        b = rand_poly(rng, m, 4, rng.randint(0, 25))
        assert _speedups.poly_mul(a, b, table, m) == _kernel_py.poly_mul(a, b, table, m)


def test_inverse_is_two_sided():
    rng = random.Random(6)
    basis = hall_basis(2, 5)
    basis._ensure_monos()
    table, m = basis._table, basis._mono_count
    for _ in range(50):
        a = rand_poly(rng, m, 5, rng.randint(0, 10))
        inv = poly_inv(a, table, m, 5)
        assert poly_mul(a, inv, table, m) == {0: 1}
        assert poly_mul(inv, a, table, m) == {0: 1}


def test_inverse_stops_once_iterate_repeats(monkeypatch):
    # r of lowest degree d >= 2: the geometric series is exact after
    # floor(k/d) products, and one more product shows the repeat.
    from nilpal import kernel

    rng = random.Random(8)
    k = 7
    basis = hall_basis(2, k)
    basis._ensure_monos()
    table, m = basis._table, basis._mono_count
    counted = []

    def counting_mul(a, b, table, m):
        counted.append(1)
        return poly_mul(a, b, table, m)

    for d in (2, 3, 4):
        low = basis._deg_offset[d]
        for _ in range(10):
            a = {0: 1}
            for _ in range(rng.randint(1, 8)):
                a[rng.randrange(low, m)] = rng.choice([-3, -2, -1, 1, 2, 3])
            monkeypatch.setattr(kernel, "poly_mul", counting_mul)
            counted.clear()
            inv = kernel.poly_inv(a, table, m, k)
            monkeypatch.undo()
            assert poly_mul(a, inv, table, m) == {0: 1}
            assert poly_mul(inv, a, table, m) == {0: 1}
            lowest = min(len(basis._monos[i]) for i in a if i)
            assert len(counted) == k // lowest + 1


def test_pow_matches_iteration():
    rng = random.Random(7)
    basis = hall_basis(2, 3)
    basis._ensure_monos()
    table, m = basis._table, basis._mono_count
    for _ in range(40):
        a = rand_poly(rng, m, 3, rng.randint(0, 6))
        e = rng.randint(-6, 6)
        expected = {0: 1}
        base = a if e >= 0 else poly_inv(a, table, m, 3)
        for _ in range(abs(e)):
            expected = poly_mul(expected, base, table, m)
        assert poly_pow(a, e, table, m, 3) == expected


def test_backend_reports():
    assert BACKEND in ("compiled", "pure")
