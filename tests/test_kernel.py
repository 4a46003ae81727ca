"""Series kernel: products against the monomial-table oracle, inverses,
powers.  The tests build flat series, dicts {monomial index: coefficient},
and hand the kernel their split by degree (`oracles.by_degree`)."""

import random
from itertools import product

import pytest

from oracles import by_degree, flatten, monomial_table, table_poly_mul

from nilpal.kernel import BACKEND, SeriesShape, one, poly_inv, poly_mul, poly_pow, poly_reverse
from nilpal.nilpotent import hall_basis


def rand_poly(rng, shape, terms):
    poly = {0: 1}
    for _ in range(terms):
        poly[rng.randrange(shape.offset[-1])] = rng.randint(-50, 50)
    return by_degree({i: c for i, c in poly.items() if c} | {0: 1}, shape)


@pytest.mark.parametrize("n,k", [(2, 3), (3, 4), (4, 5), (2, 8)])
def test_poly_mul_matches_table_oracle(n, k):
    rng = random.Random(100 * n + k)
    monos, table = monomial_table(n, k)
    m = len(monos)
    of_degree = [[i for i, mo in enumerate(monos) if len(mo) == d] for d in range(k + 1)]
    shape = SeriesShape(n, k)
    assert [shape.index(mo) for mo in monos] == list(range(m))

    def rand_series():
        # Degrees drawn uniformly, so that products below degree k are
        # common; the constant term is 0, 1 or another integer.
        poly = {}
        for _ in range(rng.randint(0, 25)):
            poly[rng.choice(of_degree[rng.randint(1, k)])] = rng.randint(-50, 50)
        poly[0] = rng.choice([0, 1, 1, -1, 2, -3])
        return {i: c for i, c in poly.items() if c}

    for _ in range(200):
        a, b = rand_series(), rand_series()
        assert flatten(by_degree(a, shape)) == a
        assert flatten(poly_mul(by_degree(a, shape), by_degree(b, shape), shape)) == \
            table_poly_mul(a, b, table, m)


@pytest.mark.parametrize("n,k", [(1, 3), (2, 4), (3, 3), (4, 2), (2, 8), (4, 6)])
def test_reverse_reverses_letters(n, k):
    shape = SeriesShape(n, k)
    for d in range(k + 1):
        for word in product(range(1, n + 1), repeat=d):
            assert shape.reverse[shape.index(word)] == shape.index(word[::-1])
    # an anti-automorphism: the reverse of a product is the product of the
    # reverses in the other order
    rng = random.Random(n + k)
    terms = min(5, len(shape.dr))
    a, b = (by_degree({i: rng.randint(lo, hi) for i in rng.sample(range(len(shape.dr)), terms)},
                      shape) for lo, hi in ((1, 3), (-3, -1)))
    assert poly_reverse(poly_mul(a, b, shape), shape) == poly_mul(
        poly_reverse(b, shape), poly_reverse(a, shape), shape)


def test_inverse_is_two_sided():
    rng = random.Random(6)
    shape = hall_basis(2, 5).shape
    for _ in range(50):
        a = rand_poly(rng, shape, rng.randint(0, 10))
        inv = poly_inv(a, shape)
        assert poly_mul(a, inv, shape) == one(shape)
        assert poly_mul(inv, a, shape) == one(shape)


def test_inverse_stops_once_iterate_repeats(monkeypatch):
    # r of lowest degree d >= 2: the geometric series is exact after
    # floor(k/d) products, and one more product shows the repeat.
    from nilpal import kernel

    rng = random.Random(8)
    k = 7
    shape = hall_basis(2, k).shape
    m = shape.offset[-1]
    counted = []

    def counting_mul(a, b, shape):
        counted.append(1)
        return poly_mul(a, b, shape)

    for d in (2, 3, 4):
        low = shape.offset[d]
        for _ in range(10):
            a = {0: 1}
            for _ in range(rng.randint(1, 8)):
                a[rng.randrange(low, m)] = rng.choice([-3, -2, -1, 1, 2, 3])
            lowest = min(shape.dr[i][0] for i in a if i)
            a = by_degree(a, shape)
            monkeypatch.setattr(kernel, "poly_mul", counting_mul)
            counted.clear()
            inv = kernel.poly_inv(a, shape)
            monkeypatch.undo()
            assert poly_mul(a, inv, shape) == one(shape)
            assert poly_mul(inv, a, shape) == one(shape)
            assert len(counted) == k // lowest + 1


def test_pow_matches_iteration():
    # poly_pow takes e >= 0; a negative e raises the inverse
    rng = random.Random(7)
    shape = hall_basis(2, 3).shape
    for _ in range(40):
        a = rand_poly(rng, shape, rng.randint(0, 6))
        e = rng.randint(-6, 6)
        expected = one(shape)
        base = a if e >= 0 else poly_inv(a, shape)
        for _ in range(abs(e)):
            expected = poly_mul(expected, base, shape)
        assert poly_pow(base, abs(e), shape) == expected


def test_backend_reports():
    assert BACKEND == "pure"
