"""Properties of the group law, endomorphisms, the word grammar, the
palindromic witness solver, the layered inverse, the generator symbols and
the Fox-derivative tameness residue over generated inputs."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import (  # noqa: E402
    ring_fox_derivative,
    series_collect,
    signed_permutation_palindromic,
    word_tameness_residue,
)

from nilpal.autos import (  # noqa: E402
    Endo,
    GeneratorSymbol,
    classify,
    compose,
    compose_symbols,
    identity_endo,
    inverse_with_factors,
    make_generator,
    palindromic_witnesses,
    solve_conjugator,
    tameness_residue,
)
from nilpal.foxring import _in_gamma3, fox_derivative  # noqa: E402
from nilpal.nilpotent import (  # noqa: E402
    bar,
    collect,
    hall_basis,
    invert,
    multiply,
    render_element,
    weight,
)
from nilpal.words import reverse_word, word_commutator, word_from_ints  # noqa: E402

# (2,5) runs on the series path, the others on the exponent law
WORD_BASES = [(2, 3), (3, 3), (4, 2), (2, 5)]
LAW_BASES = [(2, 3), (3, 3), (4, 2), (4, 3)]


@st.composite
def elements(draw, bases, count=1, span=4):
    """`count` elements of one basis drawn from `bases`, exponents in
    [-span, span]."""
    basis = hall_basis(*draw(st.sampled_from(bases)))
    size = len(basis.elements)
    vec = st.lists(st.integers(-span, span), min_size=size, max_size=size)
    return [basis.from_exponents(draw(vec)) for _ in range(count)]


@st.composite
def words(draw, bases):
    basis = hall_basis(*draw(st.sampled_from(bases)))
    n = basis.n
    letters = st.integers(-n, n).filter(bool)
    return basis, word_from_ints(draw(st.lists(letters, max_size=14)), n)


@given(elements(LAW_BASES, count=3))
def test_multiply_is_associative(gs):
    a, b, c = gs
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@given(elements(LAW_BASES))
def test_inverse_is_two_sided(gs):
    (g,) = gs
    assert multiply(g, invert(g)).is_identity()
    assert multiply(invert(g), g).is_identity()
    assert invert(invert(g)) == g


@given(elements(LAW_BASES, count=2))
def test_bar_is_an_involutive_anti_automorphism(gs):
    g, h = gs
    assert bar(bar(g)) == g
    assert bar(multiply(g, h)) == multiply(bar(h), bar(g))


@st.composite
def endo_cases(draw, bases, maps=1, points=1, span=4):
    """`maps` endomorphisms of one basis drawn from `bases`, with image
    exponents in [-2, 2], and `points` elements with exponents in
    [-span, span]."""
    basis = hall_basis(*draw(st.sampled_from(bases)))
    size = len(basis.elements)

    def vec(bound):
        return basis.from_exponents(
            draw(st.lists(st.integers(-bound, bound), min_size=size, max_size=size)))

    endos = [Endo(basis, [vec(2) for _ in range(basis.n)]) for _ in range(maps)]
    return endos, [vec(span) for _ in range(points)]


@given(endo_cases(LAW_BASES, points=2))
def test_endo_apply_is_a_homomorphism(case):
    (e,), (g, h) = case
    assert e.apply(multiply(g, h)) == multiply(e.apply(g), e.apply(h))


@given(endo_cases(LAW_BASES, maps=2))
def test_compose_applies_first_then_second(case):
    (e1, e2), (g,) = case
    assert compose(e1, e2).apply(g) == e2.apply(e1.apply(g))


@pytest.mark.parametrize("n,k", LAW_BASES)
@given(data=st.data())
def test_collect_on_the_law_matches_the_series_fold(n, k, data):
    basis = hall_basis(n, k)
    w = word_from_ints(data.draw(st.lists(st.integers(-n, n).filter(bool), max_size=24)), n)
    assert collect(w, basis) == series_collect(w, basis)


@given(words(WORD_BASES))
def test_bar_reverses_words(case):
    basis, w = case
    assert bar(collect(w, basis)) == collect(reverse_word(w), basis)


@given(elements(WORD_BASES))
def test_render_parse_round_trip(gs):
    (g,) = gs
    assert g.basis.from_text(render_element(g)) == g


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


@st.composite
def classification_cases(draw):
    """At (2,2), (3,2), (2,3), (3,3) or (4,3), a product of up to three
    generator symbols other than `inner` and one t, alpha or sigma, with up
    to two transvections x_i -> x_i x_j^+-1, which are not palindromic, put
    in among them."""
    basis = hall_basis(*draw(st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3), (4, 3)])))
    n = basis.n
    gens = [basis.generator(i) for i in range(1, n + 1)]
    syms = draw(st.lists(symbols(n), max_size=3))
    syms.insert(draw(st.integers(0, len(syms))), draw(symbols(n, ("t", "alpha", "sigma"))))
    factors = [make_generator(sym, basis) for sym in syms]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        images = list(gens)
        xj = draw(st.sampled_from((gens[j - 1], invert(gens[j - 1]))))
        images[i - 1] = multiply(gens[i - 1], xj)
        factors.insert(draw(st.integers(0, len(factors))), Endo(basis, images))
    e = identity_endo(basis)
    for f in factors:
        e = compose(e, f)
    return e


def test_classify_palindromic_matches_the_sign_search():
    seen = set()

    @given(classification_cases())
    def check(e):
        flags = classify(e)
        assert flags.is_palindromic == signed_permutation_palindromic(e)
        seen.add((flags.is_elementary_palindromic, flags.is_palindromic))

    check()
    # elementary palindromic, palindromic only, and not palindromic all occur
    assert seen == {(True, True), (False, True), (False, False)}


@st.composite
def central_automorphisms(draw):
    """A product of up to four phi2, phi3 and psi symbols at (2,3), (3,3) or
    (4,3), led half the time by a phi2(a, b, i) with i in {a, b}, whose
    tameness residue is nonzero."""
    n = draw(st.sampled_from((2, 3, 4)))
    syms = draw(st.lists(symbols(n, families=("phi2", "phi3", "psi")), max_size=4))
    if draw(st.booleans()):
        a, b = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        i = draw(st.sampled_from((a, b)))
        syms.insert(0, GeneratorSymbol("phi2", (a, b, i), draw(st.sampled_from((-2, -1, 1, 2)))))
    return compose_symbols(syms, hall_basis(n, 3))


@given(central_automorphisms())
def test_tameness_residue_matches_the_free_word_path(e):
    assert tameness_residue(e) == word_tameness_residue(e)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-n, n).filter(bool), max_size=40))))
def test_fox_derivative_matches_ring_products(case):
    n, ints = case
    w = word_from_ints(ints, n)
    for j in range(1, n + 1):
        assert fox_derivative(w, j) == ring_fox_derivative(w, j)


@st.composite
def commutator_words(draw):
    """(depth, w) at rank 1-4: w is a word (depth 0), a commutator [u, v]
    of words, in gamma_2 (depth 1), or [[u, v], t], in gamma_3 (depth 2)."""
    n = draw(st.integers(1, 4))
    part = st.lists(st.integers(-n, n).filter(bool), max_size=6).map(
        lambda ints: word_from_ints(ints, n))
    depth = draw(st.integers(0, 2))
    w = draw(part)
    for _ in range(depth):
        w = word_commutator(w, draw(part))
    return depth, w


@given(commutator_words())
def test_in_gamma3_matches_collect(case):
    depth, w = case
    inside = _in_gamma3(w)
    assert inside == series_collect(w, hall_basis(w.rank, 2)).is_identity()
    assert inside or depth < 2
