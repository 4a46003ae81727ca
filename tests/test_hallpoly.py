"""The exponent-vector group law at step <= 3 against the series model."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import series_apply, series_bar, series_invert, series_multiply, series_power

from nilpal import hallpoly, kernel, nilpotent
from nilpal.autos import Endo, compose, make_generator, mu, phi2
from nilpal.nilpotent import (
    HallBasis,
    InternalError,
    bar,
    collect,
    commutator,
    hall_basis,
    invert,
    multiply,
    power,
)
from nilpal.words import parse_word

LAW_BASES = [(1, 3), (2, 2), (2, 3), (3, 3), (4, 2), (4, 3)]


def rand_element(rng, basis, span=3):
    return basis.from_exponents(rng.randint(-span, span) for _ in basis.elements)


@pytest.mark.parametrize("n,k", LAW_BASES)
def test_group_ops_match_the_series_model(n, k):
    basis = hall_basis(n, k)
    assert basis.law is not None
    rng = random.Random(100 * n + k)
    for _ in range(25):
        g, h = rand_element(rng, basis), rand_element(rng, basis)
        assert multiply(g, h) == series_multiply(g, h)
        assert invert(g) == series_invert(g)
        assert bar(g) == series_bar(g)
        e = rng.randint(-4, 4)
        assert power(g, e) == series_power(g, e)
        assert commutator(g, h) == series_multiply(
            series_multiply(series_invert(g), series_invert(h)), series_multiply(g, h))


def gamma2_heavy(rng, basis, span=5):
    """An element with small linear part and entries in [-span, span] on
    the basis elements of weight >= 2."""
    n = basis.n
    return basis.from_exponents([rng.randint(-1, 1) for _ in range(n)]
                                + [rng.randint(-span, span) for _ in basis.elements[n:]])


@pytest.mark.parametrize("n,k", LAW_BASES)
def test_endo_apply_matches_the_series_model(n, k):
    basis = hall_basis(n, k)
    rng = random.Random(200 * n + k)
    for _ in range(4):
        e = Endo(basis, [rand_element(rng, basis, 2) for _ in range(n)])
        for _ in range(5):
            g = rand_element(rng, basis)
            assert e.apply(g) == series_apply(e, g)
        for _ in range(3):
            g = gamma2_heavy(rng, basis)
            assert e.apply(g) == series_apply(e, g)
        f = Endo(basis, [gamma2_heavy(rng, basis, 2) for _ in range(n)])
        composed = compose(e, f)
        assert composed.images == tuple(series_apply(f, img) for img in e.images)
        g = gamma2_heavy(rng, basis)
        assert composed.apply(g) == series_apply(f, series_apply(e, g))


def top_heavy(rng, basis, span=2):
    """An element with every entry in [-span, span], no zero entry on
    the basis elements of weight w with 2w > k, and a negative one there."""
    exps = [rng.randint(-span, span) for _ in basis.elements]
    for c in basis.elements:
        if 2 * c.weight > basis.k:
            exps[c.index] = rng.choice([-span, -1, 1, span])
    exps[-1] = -1
    return basis.from_exponents(exps)


@pytest.mark.parametrize("n,k", [(2, 4), (3, 4), (2, 5)])
def test_endo_apply_above_step3_matches_the_series_model(n, k):
    # the blocks of weight w with 2w > k are linear sums of image series
    basis = hall_basis(n, k)
    rng = random.Random(300 * n + k)
    e = Endo(basis, [rand_element(rng, basis, 1) for _ in range(n)])
    f = Endo(basis, [top_heavy(rng, basis, 1) for _ in range(n)])
    for _ in range(2):
        g = top_heavy(rng, basis)
        assert e.apply(g) == series_apply(e, g)
        assert f.apply(g) == series_apply(f, g)
    composed = compose(e, f)
    assert composed.images == tuple(series_apply(f, img) for img in e.images)


def test_endo_apply_shortcut_is_gated_by_step_not_by_law(monkeypatch):
    # with a law at step 4, gamma_2 is not abelian: apply keeps the series
    monkeypatch.setattr(nilpotent, "LAW_MAX_STEP", 4)
    basis = HallBasis(2, 4)
    assert basis.law is not None
    rng = random.Random(24)
    e = Endo(basis, [rand_element(rng, basis, 2) for _ in range(2)])
    for _ in range(3):
        g = gamma2_heavy(rng, basis, 3)
        assert e.apply(g) == series_apply(e, g)
    assert all(not isinstance(img, tuple) for img in e._basis_images.values())


def test_group_ops_run_no_series_product(monkeypatch):
    basis = hall_basis(3, 3)
    e = compose(make_generator(mu(1, 2), basis), make_generator(phi2(2, 1, 3), basis))
    g = basis.from_exponents(range(-6, 8))
    h = basis.from_exponents(range(7, -7, -1))
    word = parse_word("x1^3 x2^-1 [x3, x1, x2]^-2 x3 x1^-1", 3)
    calls = []
    monkeypatch.setattr(kernel, "poly_mul", lambda *args: calls.append(args))
    for out in (multiply(g, h), invert(g), bar(g), power(g, -5), commutator(g, h), e.apply(g),
                collect(word, basis)):
        assert len(out.exponents) == 14
    assert calls == []


def test_law_is_kept_per_basis_and_gated_by_step():
    basis = HallBasis(2, 3)
    law = basis.law
    assert vars(basis)["law"] is law
    assert basis.law is law
    assert HallBasis(2, 4).law is None


def test_collect_above_the_law_step_does_not_import_hallpoly():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "from nilpal.nilpotent import collect, hall_basis\n"
            "from nilpal.words import parse_word\n"
            "collect(parse_word('x1 x2^-1', 2), hall_basis(2, 4))\n"
            "print('nilpal.hallpoly' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout == "False\n"


def test_elements_build_their_series_on_demand():
    basis = HallBasis(2, 3)
    g = basis.from_exponents((2, -1, 3, 0, -2))
    assert g._poly is None
    assert basis.element_from_poly(g.poly) == g
    assert g.poly is g.poly


def test_from_exponents_takes_integers_only():
    basis = hall_basis(2, 3)
    with pytest.raises(TypeError):
        basis.from_exponents((1.0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        basis.from_exponents((1, 0))


def test_large_entries_and_powers():
    basis = hall_basis(3, 3)
    rng = random.Random(5)
    g = rand_element(rng, basis, 10**9)
    h = rand_element(rng, basis, 10**9)
    assert multiply(g, h) == series_multiply(g, h)
    assert invert(g) == series_invert(g)
    assert bar(g) == series_bar(g)
    big = 10**6 + 3
    assert power(h, big) == series_power(h, big)


# the sample functions of `hallpoly.derive` whose fits are perturbed, by the
# index that the test ids carry
FITTED = ("product_sample", "series_bar", "series_inv", "commutator_sample")


def _perturbed_fit(which, coordinate):
    """`hallpoly._fit` with the first coefficient of one coordinate changed
    in the fit of the sample function FITTED[which]; a coordinate with no
    term (a linear coordinate of the commutator) gets the constant 1."""
    real = hallpoly._fit

    def fit(weights, top, sample):
        terms = real(weights, top, sample)
        if sample.__name__ == FITTED[which]:
            coef, point = terms[coordinate][0] if terms[coordinate] else (0, ())
            terms[coordinate][:1] = [(coef + 1, point)]
        return terms

    return fit


@pytest.mark.parametrize("which,op", [(0, "multiply"), (1, "bar"), (2, "invert"),
                                      (3, "commutator")])
@pytest.mark.parametrize("coordinate", range(14))
def test_changed_coefficient_fails_the_check(monkeypatch, which, op, coordinate):
    monkeypatch.setattr(hallpoly, "_fit", _perturbed_fit(which, coordinate))
    with pytest.raises(InternalError, match=f"derived {op} polynomial disagrees") as err:
        hallpoly.derive(HallBasis(3, 3))
    assert err.value.context == {"n": 3, "k": 3, "coordinate": coordinate}
