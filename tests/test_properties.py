"""Properties of the palindromic witness solver, the layered inverse and
the generator symbols over generated inputs."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nilpal.autos import (  # noqa: E402
    GeneratorSymbol,
    compose,
    compose_symbols,
    identity_endo,
    inverse_with_factors,
    palindromic_witnesses,
    solve_conjugator,
)
from nilpal.nilpotent import bar, hall_basis, multiply, weight  # noqa: E402


def conjugate(q, i):
    return multiply(multiply(bar(q), q.basis.generator(i)), q)


@st.composite
def witness_cases(draw, min_weight=1):
    """(q, i) at (2,3) or (3,3), q's exponents in [-3,3] and zero below
    weight min_weight, so q is the identity or has weight >= min_weight."""
    n = draw(st.sampled_from((2, 3)))
    basis = hall_basis(n, 3)
    start = basis.weight_offset[min_weight - 1]
    size = len(basis.elements) - start
    tail = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    q = basis.from_exponents((0,) * start + tuple(tail))
    return q, draw(st.integers(1, n))


@given(witness_cases())
def test_witness_found_and_reproduces(case):
    q, i = case
    g = conjugate(q, i)
    found = solve_conjugator(g, i)
    assert found is not None
    assert conjugate(found, i) == g


@given(st.data(), st.sampled_from((2, 3)))
def test_witness_respects_min_weight(data, w):
    q, i = data.draw(witness_cases(min_weight=w))
    assert q.is_identity() or weight(q) >= w
    g = conjugate(q, i)
    found = solve_conjugator(g, i, min_weight=w)
    assert found is not None
    assert found.is_identity() or weight(found) >= w
    assert conjugate(found, i) == g


@given(witness_cases(), st.integers(1, 3))
def test_odd_parity_has_no_witness(case, j):
    # times x_j, the abelianization is no longer e_i mod 2
    q, i = case
    basis = q.basis
    j = min(j, basis.n)
    g = multiply(conjugate(q, i), basis.generator(j))
    assert solve_conjugator(g, i) is None


@st.composite
def symbols(draw, n, families=("mu", "t", "alpha", "sigma", "phi2", "phi3", "psi")):
    """A valid generator symbol of rank n other than `inner`, exponent in
    [-3, 3]."""
    tag = draw(st.sampled_from(families))
    idx = st.integers(1, n)
    pair = st.lists(idx, min_size=2, max_size=2, unique=True)
    if tag in ("mu", "psi"):
        params = tuple(draw(pair))
    elif tag == "t":
        params = (draw(idx),)
    elif tag == "alpha":
        params = (draw(st.integers(1, n - 1)),)
    elif tag == "sigma":
        params = tuple(draw(st.permutations(range(1, n + 1))))
    elif tag == "phi2":
        params = (*draw(pair), draw(idx))
    else:
        params = (*draw(pair), draw(idx), draw(idx))
    return GeneratorSymbol(tag, params, draw(st.integers(-3, 3)))


@st.composite
def symbol_lists(draw, **kw):
    n = draw(st.sampled_from((2, 3)))
    return hall_basis(n, 3), draw(st.lists(symbols(n, **kw), max_size=4))


@given(symbol_lists(families=("mu", "t", "phi2", "phi3", "psi")))
def test_inverse_round_trips_on_elementary_palindromic(case):
    basis, syms = case
    e = compose_symbols(syms, basis)
    assert palindromic_witnesses(e) is not None
    inv, factors = inverse_with_factors(e)
    one = identity_endo(basis)
    assert compose(e, inv) == one
    assert compose(inv, e) == one
    assert len(factors) == basis.k
    for f in factors:
        assert palindromic_witnesses(f) is not None


@given(symbol_lists())
def test_symbols_then_reversed_negated_symbols_is_identity(case):
    basis, syms = case
    back = [GeneratorSymbol(s.tag, s.params, -s.exponent) for s in reversed(syms)]
    e = compose_symbols(syms, basis)
    assert compose(e, compose_symbols(back, basis)) == identity_endo(basis)
