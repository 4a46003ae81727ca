"""Properties of the group law, endomorphisms, the word grammar, the
palindromic witness solver, the layered inverse, the generator symbols, the
pi-level, the Fox-derivative tameness residue, the Smith-form lattice
solve, the order of the BGLM decomposition's checks, the peel, the
series-path `collect`, the bracket lifts, the per-degree series kernel and
the group operations above the law's step over generated inputs."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import (  # noqa: E402
    bglm_by_preconditions,
    bracket_by_three_products,
    by_degree,
    compose_symbols_by_chain,
    element_series,
    epa_inverse_by_witnesses,
    exponents_series_by_fold,
    flat_poly_inv,
    flat_poly_mul,
    flat_poly_pow,
    flatten,
    fraction_combination,
    fraction_inv_unimodular,
    generator_series,
    gf2_rank,
    inverse_series,
    lift_by_three_products,
    peel_by_block_division,
    pi_level_by_search,
    product_step3_rows,
    ring_fox_derivative,
    series_apply,
    series_bar,
    series_collect,
    series_conjugate,
    series_invert,
    series_multiply,
    series_power,
    signed_permutation_palindromic,
    word_series,
    word_tameness_residue,
)

from nilpal import autos  # noqa: E402
from nilpal.autos import (  # noqa: E402
    Endo,
    GeneratorSymbol,
    _central_sum,
    _palindromic_image,
    classify,
    compose,
    compose_symbols,
    decompose_bglm,
    identity_endo,
    inverse_with_factors,
    make_generator,
    mu,
    palindromic_witnesses,
    parse_endo_file,
    phi2,
    phi3,
    psi,
    solve_conjugator,
    t,
    tameness_residue,
)
from nilpal import kernel  # noqa: E402
from nilpal.foxring import _in_gamma3, fox_derivative  # noqa: E402
from nilpal.intlinalg import inv_unimodular, lattice_factors, solve_from_smith  # noqa: E402
from nilpal.nilpotent import (  # noqa: E402
    HallBasis,
    InternalError,
    Lifts,
    bar,
    collect,
    commutator,
    hall_basis,
    invert,
    multiply,
    power,
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


# the law bases, and two series bases where the top-central path skips the
# block product
CENTRAL_BASES = LAW_BASES + [(2, 4), (3, 4)]


@st.composite
def top_central_cases(draw, near_miss=False):
    """A map x_i -> x_i D_i with random D_i in gamma_k, at a basis drawn
    from CENTRAL_BASES, and an element with at most four nonzero
    exponents.  A near miss sends x_i to x_i D_i z_i with z_i in
    gamma_{k-1}, and the weight-(k-1) block of some z_i is nonzero."""
    basis = hall_basis(*draw(st.sampled_from(CENTRAL_BASES)))
    n, k, size = basis.n, basis.k, len(basis.elements)

    def block(w):
        span = basis.weight_slices[w - 1]
        start, stop = span.start, span.stop
        vec = [0] * size
        vec[start:stop] = draw(st.lists(st.integers(-2, 2), min_size=stop - start,
                                        max_size=stop - start))
        return vec

    images = []
    for i in range(1, n + 1):
        exps = block(k)
        exps[i - 1] += 1
        images.append(basis.from_exponents(exps))
    if near_miss:
        zs = [block(k - 1) for _ in range(n)]
        i = draw(st.integers(0, n - 1))
        pos = draw(st.sampled_from(range(size)[basis.weight_slices[k - 2]]))
        zs[i][pos] = draw(st.sampled_from((-2, -1, 1, 2)))
        images = [multiply(g, basis.from_exponents(z)) for g, z in zip(images, zs)]
    g = [0] * size
    for pos, v in draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(-2, 2)),
                                max_size=4)):
        g[pos] = v
    return Endo(basis, images), basis.from_exponents(g)


@given(top_central_cases())
def test_top_central_apply_matches_the_series_oracle(case):
    e, g = case
    assert e.top_defects() is not None
    assert e.apply(g) == series_apply(e, g)


@given(top_central_cases(near_miss=True))
def test_near_miss_takes_the_general_path(case):
    e, g = case
    assert e.top_defects() is None
    assert e.apply(g) == series_apply(e, g)


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


@st.composite
def law_witness_cases(draw):
    """(q, i, min_weight) at steps 2 and 3 of ranks 2-4, q's exponents in
    [-2,2] and zero below weight min_weight."""
    basis = hall_basis(*draw(st.sampled_from([(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)])))
    min_weight = draw(st.integers(1, basis.k))
    start = basis.weight_offset[min_weight - 1]
    size = len(basis.elements) - start
    tail = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    q = basis.from_exponents((0,) * start + tuple(tail))
    return q, draw(st.integers(1, basis.n)), min_weight


@given(law_witness_cases())
def test_witness_reproduces_under_the_series_oracles(case):
    q, i, w = case
    g = series_conjugate(q, i)
    found = solve_conjugator(g, i, min_weight=w)
    assert found is not None
    assert found.is_identity() or weight(found) >= w
    assert series_conjugate(found, i) == g


# The step-2 witness box: every q = x^alpha with each |alpha_j| <= 1.  At
# step 2 the weight-2 part of q does not change bar(q) x_i q, so these q
# reach every value a witness can, for g whose even d = ab(g) - e_i = 2 alpha
# has alpha in the box.
STEP2_BOX = 1


@lru_cache(maxsize=None)
def step2_box_values(n, i):
    """{alpha: exponents of bar(q) x_i q} over the step-2 box, by the
    series oracles."""
    basis = hall_basis(n, 2)
    tail = (0,) * (len(basis.elements) - n)
    span = range(-STEP2_BOX, STEP2_BOX + 1)
    return {a: series_conjugate(basis.from_exponents(a + tail), i).exponents
            for a in product(span, repeat=n)}


@st.composite
def step2_conjugator_cases(draw):
    """(g, i, min_weight) at step 2 of ranks 2-4.  With d = ab(g) - e_i, g
    is drawn with an odd entry of d; with d = 2 alpha != 0 (alpha in the
    box), the value of x^alpha with its weight-2 block shifted or not;
    with d = 0 and a nonzero weight-2 block; or as the value of x^alpha
    for alpha in the box, zero included."""
    basis = hall_basis(draw(st.integers(2, 4)), 2)
    n, m2 = basis.n, len(basis.by_weight[1])
    i = draw(st.integers(1, n))
    kind = draw(st.sampled_from(("odd d", "even d", "zero d", "value")))
    span = st.integers(-STEP2_BOX, STEP2_BOX)
    alpha = tuple(draw(st.lists(span, min_size=n, max_size=n)))
    if kind == "zero d":
        alpha = (0,) * n
    elif kind == "even d" and not any(alpha):
        alpha = tuple(int(j == i % n) for j in range(n))
    value = step2_box_values(n, i)[alpha]
    linear, block = list(value[:n]), list(value[n:])
    if kind == "odd d":
        flips = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
        linear = [v + f for v, f in zip(linear, flips)]
    shift = st.lists(st.integers(-2, 2), min_size=m2, max_size=m2)
    if kind == "zero d":
        block = draw(shift.filter(any))
    elif kind != "value":
        block = [v + s for v, s in zip(block, draw(shift))]
    return basis.from_exponents(linear + block), i, draw(st.integers(1, 2))


@given(step2_conjugator_cases())
def test_step2_witness_decision_matches_the_box_search(case):
    g, i, min_weight = case
    basis = g.basis
    # a q of weight >= 2 has alpha = 0
    reachable = any(value == g.exponents and (min_weight == 1 or not any(a))
                    for a, value in step2_box_values(basis.n, i).items())
    found = solve_conjugator(g, i, min_weight=min_weight)
    assert (found is not None) == reachable
    if min_weight == 2:
        assert (found is None) == (g != basis.generator(i))
    if found is not None:
        assert found.is_identity() or weight(found) >= min_weight
        assert series_conjugate(found, i) == g


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


FIXTURES = Path(__file__).parent / "golden" / "fixtures"


@st.composite
def inverse_inputs(draw):
    """At ranks 1-4 and steps 1-3: a product of up to four t, alpha, mu,
    phi2, phi3 and psi symbols; the IA map with a weight-2 defect of the
    rank-2 or rank-3 fixture; or, at step 3, a top-central map with one odd
    top block outside the witness lattice (x_i -> x_i c^e for a weight-3
    c whose parity vector the witness rows mod 2 do not span, e odd)."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    basis = hall_basis(n, k)
    kind = draw(st.sampled_from(("symbols",) + ("fixture",) * (n in (2, 3))
                                + ("odd_top",) * (k == 3 and n > 1)))
    if kind == "fixture":
        return parse_endo_file((FIXTURES / f"r{n}_ia_weight2.auto").read_text(), basis)
    if kind == "odd_top":
        start3, m3 = basis.weight_offset[2], len(basis.by_weight[2])
        outside = []
        for i in range(1, n + 1):
            rows = product_step3_rows(basis, i, (0,) * n)
            outside += [(i, c) for c in range(m3)
                        if gf2_rank(rows + [[int(j == c) for j in range(m3)]]) > gf2_rank(rows)]
        i, c = draw(st.sampled_from(outside))
        exps = [0] * len(basis.elements)
        exps[i - 1], exps[start3 + c] = 1, draw(st.sampled_from((-3, -1, 1, 3)))
        images = [basis.generator(j) for j in range(1, n + 1)]
        images[i - 1] = basis.from_exponents(exps)
        return Endo(basis, images)
    families = ("t", "alpha", "mu", "phi2", "phi3", "psi") if n > 1 else ("t",)
    return compose_symbols(draw(st.lists(symbols(n, families), max_size=4)), basis)


def test_inverse_matches_the_witness_route():
    seen = set()

    @settings(max_examples=300)
    @given(inverse_inputs())
    def check(e):
        want = epa_inverse_by_witnesses(e)
        inv, factors = inverse_with_factors(e)
        one = identity_endo(e.basis)
        assert compose(e, inv) == one == compose(inv, e)
        assert len(factors) == e.basis.k
        if want is None:
            assert palindromic_witnesses(e) is None
        else:
            assert (inv, factors) == want
            for f in factors:
                assert palindromic_witnesses(f) is not None
        seen.add((e.basis.n, e.basis.k, want is not None, e.top_defects() is not None))

    check()
    # every rank and step is reached, EPA inputs and others occur, and so
    # do step-3 top-central maps with a top block outside the lattice
    assert {case[:2] for case in seen} == set(product(range(1, 5), range(1, 4)))
    assert {case[2] for case in seen} == {True, False}
    assert any(k == 3 and not epa and top for _, k, epa, top in seen)


@pytest.mark.parametrize("n", [2, 3, 4])
@given(data=st.data())
def test_palindromic_image_is_additive_on_gamma2(n, data):
    # q = z^beta c^delta in gamma_2 at step 3: bar(q) x_i q has top block
    # sum_j beta_j row_j + 2 delta, with the rows built by group products
    basis = hall_basis(n, 3)
    i = data.draw(st.integers(1, n))
    m2, m3 = len(basis.by_weight[1]), len(basis.by_weight[2])
    ints = st.integers(-5, 5)
    beta = data.draw(st.lists(ints, min_size=m2, max_size=m2))
    delta = data.draw(st.lists(ints, min_size=m3, max_size=m3))
    rows = product_step3_rows(basis, i, (0,) * n)
    top = [sum(b * row[c] for b, row in zip(beta, rows)) + 2 * d for c, d in enumerate(delta)]
    want = tuple(int(j == i) for j in range(1, n + 1)) + (0,) * m2 + tuple(top)
    assert _palindromic_image(basis, i, (0,) * n + tuple(beta) + tuple(delta)) == want


@st.composite
def square_matrices(draw):
    """An n x n integer matrix, n in 1..5: entries in [-3, 3]; a product
    of elementary row operations with one row negated (det +-1); that with
    one row doubled (det +-2); or a matrix with one row a combination of
    the others (singular)."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("random", "unimodular", "det2", "singular")))
    ints = st.integers(-3, 3)
    if kind == "random":
        return [[draw(ints) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        m = [[draw(ints) for _ in range(n)] for _ in range(n - 1)]
        coeffs = [draw(ints) for _ in m]
        row = [sum(c * r[j] for c, r in zip(coeffs, m)) for j in range(n)]
        m.insert(draw(st.integers(0, n - 1)), row)
        return m
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 8))):
        i, j, f = draw(index), draw(index), draw(ints)
        if i != j:
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    i = draw(index)
    m[i] = [(-2 if kind == "det2" else -1) * v for v in m[i]]
    return m


def test_inv_unimodular_matches_the_fraction_oracle():
    seen = set()

    def outcome(inv, m):
        try:
            return inv(m)
        except ValueError as exc:
            return str(exc)

    @given(square_matrices())
    def check(m):
        got = outcome(inv_unimodular, m)
        assert got == outcome(fraction_inv_unimodular, m)
        seen.add(got if isinstance(got, str) else "inverse")

    check()
    assert seen == {"inverse", "matrix is singular", "matrix is not unimodular"}


@given(symbol_lists())
def test_symbols_then_reversed_negated_symbols_is_identity(case):
    basis, syms = case
    back = [GeneratorSymbol(s.tag, s.params, -s.exponent) for s in reversed(syms)]
    e = compose_symbols(syms, basis)
    assert compose(e, compose_symbols(back, basis)) == identity_endo(basis)


@st.composite
def mixed_symbol_lists(draw):
    """(basis, symbols) at ranks 2-4 and steps 2-4: up to five symbols
    mixing phi2, phi3 and psi, exponents in +-1..+-3, with mu, t, sigma
    and inner.  A central symbol is sometimes followed by one that cancels
    it: its own inverse, or phi3(b,a,c;i) after phi3(a,b,c;i) with the
    same exponent, since [x_b,x_a,x_c] = [x_a,x_b,x_c]^-1."""
    n, k = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    basis = hall_basis(n, k)
    idx = st.integers(1, n)
    pair = st.lists(idx, min_size=2, max_size=2, unique=True)
    exponent = st.sampled_from((-3, -2, -1, 1, 2, 3))
    syms = []
    for _ in range(draw(st.integers(0, 5))):
        tag = draw(st.sampled_from(("phi2", "phi3", "psi", "phi2", "phi3", "psi",
                                    "mu", "t", "sigma", "inner")))
        m = draw(exponent)
        if tag in ("mu", "psi"):
            params = tuple(draw(pair))
        elif tag == "t":
            params = (draw(idx),)
        elif tag == "sigma":
            params = tuple(draw(st.permutations(range(1, n + 1))))
        elif tag == "inner":
            size = len(basis.elements)
            params = (basis.from_exponents(draw(st.lists(
                st.integers(-1, 1), min_size=size, max_size=size))),)
            m = draw(st.sampled_from((-2, -1, 1, 2)))
        elif tag == "phi2":
            params = (*draw(pair), draw(idx))
        else:
            params = (*draw(pair), draw(idx), draw(idx))
        syms.append(GeneratorSymbol(tag, params, m))
        if tag in ("phi2", "phi3", "psi") and draw(st.integers(0, 3)) == 0:
            if tag == "phi3" and draw(st.booleans()):
                a, b, c, i = params
                syms.append(GeneratorSymbol(tag, (b, a, c, i), m))
            else:
                syms.append(GeneratorSymbol(tag, params, -m))
    return basis, syms


def _central_runs(syms, basis):
    """The summed blocks of each maximal run of top-central symbols that
    holds a nonzero block."""
    runs, run = [], None
    for sym in syms + [None]:
        top = (None if sym is None or sym.tag == "inner"
               else make_generator(GeneratorSymbol(sym.tag, sym.params), basis).top_defects())
        if top is None:
            if run is not None and run[1]:
                runs.append(run[0])
            run = None
            continue
        if run is None:
            run = [[0] * len(b) for b in top], False
        run = ([[r + sym.exponent * v for r, v in zip(acc, b)] for acc, b in zip(run[0], top)],
               run[1] or any(map(any, top)))
    return runs


def test_compose_symbols_matches_the_chain():
    seen = set()

    @given(mixed_symbol_lists())
    def check(case):
        basis, syms = case
        got = compose_symbols(syms, basis)
        assert got == compose_symbols_by_chain(syms, basis)
        # the blocks a central map is built with are the ones its images hold
        assert got.top_defects() == Endo(basis, got.images).top_defects()
        runs = _central_runs(syms, basis)
        # each central run's block sum is the one the chain of its maps holds
        for central, run in groupby(syms, key=lambda s: s.tag != "inner" and make_generator(
                GeneratorSymbol(s.tag, s.params), basis).top_defects() is not None):
            run = list(run)
            assert not central or (_central_sum(basis, run)
                                   == compose_symbols_by_chain(run, basis).top_defects())
        seen.add((basis.n, basis.k, bool(runs), any(not any(map(any, r)) for r in runs)))

    check()
    assert {case[:2] for case in seen} == set(product(range(2, 5), range(2, 5)))
    # step 3 has central runs, some summing to zero; at step 4 nothing is
    # top-central
    assert any(k == 3 and zero for _, k, _, zero in seen)
    assert not any(k == 4 and runs for _, k, runs, _ in seen)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_compose_symbols_edge_cases(n):
    basis = hall_basis(n, 3)
    one = identity_endo(basis)
    assert compose_symbols([], basis) == one == compose_symbols_by_chain([], basis)
    # central runs whose blocks sum to zero, alone and between other maps
    zero = [phi2(2, 1, n, 2), phi3(1, 2, n, 1, -3), phi3(2, 1, n, 1, -3), phi2(2, 1, n, -2)]
    assert compose_symbols(zero, basis) == one
    mixed = [mu(1, 2), *zero, t(n), *zero, mu(1, 2, -1), psi(1, 2, 3)]
    assert compose_symbols(mixed, basis) == compose_symbols_by_chain(mixed, basis)
    # the block sum refuses a map that is not top-central
    with pytest.raises(InternalError, match="not top-central") as err:
        _central_sum(basis, [*zero, mu(1, 2)])
    assert err.value.context == {"n": n, "k": 3, "symbol": "mu(1,2)"}


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
def epa_products(draw):
    """At (2,1), (2,2), (3,2), (2,3), (3,3) or (4,3), a product of up to
    four mu, phi2, phi3 and psi symbols, which is elementary palindromic."""
    basis = hall_basis(*draw(st.sampled_from([(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3)])))
    syms = draw(st.lists(symbols(basis.n, families=("mu", "phi2", "phi3", "psi")), max_size=4))
    return compose_symbols(syms, basis)


def test_pi_level_matches_the_level_search():
    seen = set()

    @given(epa_products())
    def check(e):
        level = classify(e).pi_level
        assert level == pi_level_by_search(e)
        seen.add(level)

    check()
    assert seen == {1, 2, 3}


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


@st.composite
def bglm_inputs(draw):
    """At (2,3), (3,3) or (4,3): an integer combination of up to four BGLM
    families, the same map with one top entry moved by +-1, or a product
    of up to four phi2, phi3 and psi symbols."""
    n = draw(st.sampled_from((2, 3, 4)))
    basis = hall_basis(n, 3)
    kind = draw(st.sampled_from(("families", "moved", "symbols")))
    if kind == "symbols":
        syms = draw(st.lists(symbols(n, families=("phi2", "phi3", "psi")), max_size=4))
        return kind, compose_symbols(syms, basis)
    fams = autos._bglm_families(basis)
    picks = draw(st.lists(st.tuples(st.sampled_from(fams), st.integers(-3, 3)), max_size=4))
    e = compose_symbols([GeneratorSymbol(s.tag, s.params, m * s.exponent)
                         for fam, m in picks for s in fam], basis)
    if kind == "moved":
        blocks = [list(block) for block in e.top_defects()]
        block = blocks[draw(st.integers(0, n - 1))]
        block[draw(st.integers(0, len(block) - 1))] += draw(st.sampled_from((-1, 1)))
        e = autos._central_map(basis, blocks)
    return kind, e


def _decompose_or_refuse(run, e):
    """(residual_trivial, the Decomposition), or the class and text of the
    refusal."""
    try:
        dec = run(e)
    except ValueError as exc:  # PreconditionError is a ValueError
        return type(exc), str(exc)
    return dec.residual_trivial, dec


def test_decompose_bglm_matches_the_precondition_order():
    seen = set()

    @given(bglm_inputs())
    def check(case):
        kind, e = case
        got = _decompose_or_refuse(decompose_bglm, e)
        assert got == _decompose_or_refuse(bglm_by_preconditions, e)
        seen.add((kind, got[0] if isinstance(got[0], bool) else got[1].split(":")[0]))

    check()
    # combinations of the families decompose; a moved entry meets both
    # refusals; products of the generators are palindromic, and some are
    # obstructed, some decompose and some lie outside the generated lattice
    assert {("families", True), ("moved", "tameness obstruction is nonzero"),
            ("moved", "not central palindromic"), ("symbols", True), ("symbols", False),
            ("symbols", "tameness obstruction is nonzero")} <= seen


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


@st.composite
def lattice_cases(draw):
    """(rows, target, combined) on small boxes: one to three rows of length
    one to four, entries in [-3, 3].  When `combined`, target is an integer
    combination of the rows with coefficients in [-3, 3]; otherwise its
    entries are drawn from [-6, 6]."""
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                         min_size=1, max_size=3))
    combined = draw(st.booleans())
    if combined:
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        target = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(m)]
    else:
        target = draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    return rows, target, combined


def test_solve_from_smith_matches_the_rational_solution():
    seen = set()

    @given(lattice_cases())
    def check(case):
        rows, target, combined = case
        x = solve_from_smith(lattice_factors(rows), target)
        if x is not None:
            assert [sum(c * row[j] for c, row in zip(x, rows))
                    for j in range(len(target))] == target
        rank, exact = fraction_combination(rows, target)
        independent = rank == len(rows)
        if independent:
            # the unique rational solution decides membership
            if exact is not None and all(v.denominator == 1 for v in exact):
                assert x == exact
            else:
                assert x is None
        elif combined:
            assert x is not None
        seen.add((independent, x is not None))

    check()
    # independent and dependent rows, each with targets in and out of the lattice
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# series bases, up to the (4,5) of the wide-setup benchmark
PEEL_BASES = [(2, 4), (3, 4), (3, 5), (4, 5)]


@st.composite
def group_series(draw):
    """A flat group series at a basis drawn from PEEL_BASES: the product of
    the letters of a short word (sparse), or of two elements with
    exponents in [-3, 3] (dense), and maybe its monomials reversed (its
    `bar`)."""
    basis = hall_basis(*draw(st.sampled_from(PEEL_BASES)))
    if draw(st.booleans()):
        n = basis.n
        ints = draw(st.lists(st.integers(-n, n).filter(bool), max_size=6))
        poly = word_series(word_from_ints(ints, n), basis)
    else:
        size = len(basis.elements)
        vec = st.lists(st.integers(-3, 3), min_size=size, max_size=size)
        a, b = (basis.from_exponents(draw(vec)) for _ in range(2))
        poly = flatten(kernel.poly_mul(a.poly, b.poly, basis.shape))
    if draw(st.booleans()):
        poly = {basis.shape.reverse[i]: c for i, c in poly.items()}
    return basis, poly


def _peel_outcome(peel, poly):
    """The exponents, or the message and context of the InternalError."""
    try:
        return peel(poly)
    except InternalError as err:
        return str(err), err.context


@given(group_series(), st.data())
def test_peel_matches_block_division(case, data):
    basis, poly = case

    def both(p):
        got = _peel_outcome(
            lambda q: basis.element_from_poly(by_degree(q, basis.shape)).exponents, p)
        assert got == _peel_outcome(lambda q: peel_by_block_division(basis, q), p)
        return got

    assert both(poly) == peel_by_block_division(basis, poly)
    offset = basis.shape.offset
    nonzero = st.integers(-3, 3).filter(bool)
    # a stray monomial at each degree; one of degree >= 2 is never a Lie
    # element, so it must be caught
    for d in range(1, basis.k + 1):
        i = data.draw(st.integers(offset[d], offset[d + 1] - 1))
        bad = dict(poly)
        bad[i] = bad.get(i, 0) + data.draw(nonzero)
        bad = {j: c for j, c in bad.items() if c}
        got = both(bad)
        if d >= 2:
            assert isinstance(got[0], str)
    # half a Lie column at each weight: a Lie layer with a coordinate 1/2
    for w in range(1, basis.k + 1):
        column = data.draw(st.sampled_from(basis.lie_columns(w)))
        bad = dict(poly)
        for i, c in column.items():
            bad[i] = bad.get(i, 0) + Fraction(c, 2)
        got = both({j: c for j, c in bad.items() if c})
        assert got[0].startswith(f"degree-{w} coordinates are not integral")
    got = both({**poly, 0: data.draw(st.integers(-3, 3).filter(lambda c: c != 1))})
    assert got[0].startswith("series has constant term != 1")


# series bases for collect: (2,4) and (3,5) below the wide-setup rung,
# (4,5) at it, (2,6) with weight-3 factors divided by powers
COLLECT_BASES = [(2, 4), (3, 5), (4, 5), (2, 6)]


def _runs_to_ints(runs):
    return [i for i, count in runs for _ in range(count)]


@st.composite
def run_words(draw):
    """A basis from COLLECT_BASES and a word given as runs of one letter,
    inverted or not, each repeated 1 to 7 times."""
    basis = hall_basis(*draw(st.sampled_from(COLLECT_BASES)))
    n = basis.n
    runs = draw(st.lists(st.tuples(st.integers(-n, n).filter(bool), st.integers(1, 7)),
                         max_size=4))
    return basis, _runs_to_ints(runs)


@given(run_words())
def test_series_collect_matches_the_letter_fold_and_block_division(case):
    # collect builds the series by degree, one binomial block per run;
    # the oracles multiply the letters' series one at a time, and peel
    # that series by the engine and by whole-block division
    basis, ints = case
    word = word_from_ints(ints, basis.n)
    got = collect(word, basis)
    assert got == series_collect(word, basis)
    poly = word_series(word, basis)
    assert got.exponents == peel_by_block_division(basis, poly)
    assert flatten(got.poly) == poly


@pytest.mark.parametrize("n,k", COLLECT_BASES)
def test_power_blocks_match_poly_pow(n, k):
    # c_j^e - 1 as the binomial sum of cached powers of c_j - 1, against
    # the kernel's repeated squaring, for every c_j with 2w <= k
    basis = HallBasis(n, k)
    shape = basis.shape
    lifts = basis.lifts
    for c in basis.elements:
        if 2 * c.weight > k:
            continue
        lift = kernel.series(lifts.lift(c.index), shape)
        for e in (1, 2, 3, 4, 5):
            got = kernel.series(lifts.power(c.index, e), shape)
            assert got == kernel.poly_pow(lift, e, shape)


def test_collect_caches_stay_bounded_per_basis(monkeypatch):
    # Once the lifts and solvers exist, 200 collects at (4,5) peel once
    # each, take no series power, and run a series product only to fill
    # the power cache: one block per basis element, and k // w powers of
    # c_j - 1 for each c_j with 2w <= k.
    basis = HallBasis(4, 5)
    for w in range(1, basis.k + 1):
        basis._peel_solver(w)
    rng = random.Random(45)
    letters = [i for i in range(-4, 5) if i]
    words = [word_from_ints(_runs_to_ints((rng.choice(letters), rng.randint(1, 7))
                                          for _ in range(rng.randint(1, 4))), 4)
             for _ in range(200)]
    calls = {"peel": 0, "mul": 0, "pow": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(HallBasis, "element_from_poly",
                        counted("peel", HallBasis.element_from_poly))
    monkeypatch.setattr(kernel, "poly_mul", counted("mul", kernel.poly_mul))
    monkeypatch.setattr(kernel, "poly_pow", counted("pow", kernel.poly_pow))
    got = [collect(word, basis).exponents for word in words]
    monkeypatch.undo()
    assert got == [series_collect(word, hall_basis(4, 5)).exponents for word in words]
    assert calls["peel"] == 200 and calls["pow"] == 0
    k, lifts = basis.k, basis.lifts
    assert len(lifts.factors) <= len(basis.elements)
    weights = {i: basis.elements[i].weight for i in lifts.powers}
    assert all(2 * w <= k for w in weights.values())
    assert all(len(lifts.powers[i]) == k // w for i, w in weights.items())
    bound = sum(k // c.weight for c in basis.elements if 2 * c.weight <= k)
    assert 0 < sum(map(len, lifts.powers.values())) <= bound
    assert calls["mul"] == sum(len(p) - 1 for p in lifts.powers.values())


# series bases for the bracket lifts, up to the wide-setup rung
LIFT_BASES = [(2, 4), (3, 4), (3, 5), (4, 5), (2, 6)]


def _inverse_image(lifts, idx):
    """Series of the inverse of the image of basis element idx under the
    map of `lifts`: 1 divided by a generator's image, and for a bracket
    [a, b] the bracket [b, a], `kernel.bracket_factor` with its halves swapped."""
    basis = lifts.basis
    shape = basis.shape
    c = basis.elements[idx]
    if c.gen is not None:
        return kernel.poly_div(kernel.series(lifts.lift(idx), shape), kernel.one(shape), shape)
    return kernel.series(kernel.bracket_factor(lifts.lift(c.right.index),
                                               lifts.lift(c.left.index), c.weight, shape), shape)


@pytest.mark.parametrize("n,k", LIFT_BASES)
def test_lifts_match_the_three_product_recursion(n, k):
    # every positive and inverse lift, one left division per bracket (a
    # `Lifts` on the generators' own series, the inverse from the swapped
    # halves), against a^-1 b^-1 a b from the halves and their inverses;
    # the basis's stored factors hold the positive lifts
    basis = HallBasis(n, k)
    shape = basis.shape
    lifts = Lifts(basis, lambda gen: kernel.factor(
        by_degree(generator_series(basis, gen, False), shape)))
    cache = {}
    for idx in range(len(basis.elements)):
        assert (flatten(kernel.series(lifts.lift(idx), shape))
                == lift_by_three_products(basis, idx, False, cache))
        assert (flatten(_inverse_image(lifts, idx))
                == lift_by_three_products(basis, idx, True, cache))
        assert ([(d, dict(items)) for d, items in basis.lifts.lift(idx)]
                == [(d, dict(items))
                    for d, items in kernel.factor(by_degree(cache[(idx, False)], shape))])


@st.composite
def bracket_halves(draw):
    """A basis from LIFT_BASES and two series 1 + a and 1 + b with up to
    eight terms, a of lowest degree >= wa and b of lowest degree >= wb,
    wa + wb <= k."""
    basis = hall_basis(*draw(st.sampled_from(LIFT_BASES)))
    k, offset = basis.k, basis.shape.offset

    def half(low):
        terms = draw(st.lists(st.tuples(st.integers(offset[low], offset[k + 1] - 1),
                                         st.integers(-3, 3).filter(bool)), max_size=8))
        return {0: 1, **dict(terms)}

    wa = draw(st.integers(1, k - 1))
    wb = draw(st.integers(1, k - wa))
    return basis, half(wa), half(wb), wa + wb


@given(bracket_halves(), st.booleans())
def test_bracket_recurrence_matches_three_products(case, inverse):
    # (1 + S) X = D solved up the degrees, on series that are not lifts;
    # the inverse bracket [b, a] is the same division with swapped halves
    basis, a, b, w = case
    shape = basis.shape
    if inverse:
        a, b = b, a
    inv = [flat_poly_inv(p, shape) for p in (a, b)]
    want = flat_poly_mul(flat_poly_mul(*inv, shape), flat_poly_mul(a, b, shape), shape)
    got = kernel.bracket_factor(kernel.factor(by_degree(a, shape)),
                                kernel.factor(by_degree(b, shape)), w, shape)
    assert flatten(kernel.series(got, shape)) == want


@given(endo_cases([(2, 4), (3, 4)]))
def test_endo_series_images_match_the_three_product_recursion(case):
    # the images of the basis elements and of their inverses under a
    # random map, through the same recurrence as the lifts
    (e,), _ = case
    basis = e.basis

    def leaf(gen, inverse):
        g = e.images[gen - 1].poly
        return flatten(kernel.poly_div(g, kernel.one(basis.shape), basis.shape) if inverse else g)

    cache = {}
    for idx in range(len(basis.elements)):
        assert (flatten(kernel.series(e.lifts.lift(idx), basis.shape))
                == bracket_by_three_products(basis, idx, False, leaf, cache))
        assert (flatten(_inverse_image(e.lifts, idx))
                == bracket_by_three_products(basis, idx, True, leaf, cache))


@pytest.mark.parametrize("n,k", [(3, 6), (4, 5)])
def test_element_series_raise_lifts_by_power_blocks(n, k, monkeypatch):
    # exponents in [-3, 3]: each factor c_j^e with |e| >= 2 and 2w <= k is
    # the binomial sum of the cached powers of c_j - 1, not a kernel power
    basis = HallBasis(n, k)
    rng = random.Random(10 * n + k)
    pows = []
    poly_pow = kernel.poly_pow
    monkeypatch.setattr(kernel, "poly_pow", lambda *args: pows.append(args) or poly_pow(*args))
    for _ in range(2):
        exps = [rng.randint(-3, 3) for _ in basis.elements]
        assert flatten(basis.from_exponents(exps).poly) == exponents_series_by_fold(basis, exps)
    assert pows == []


@pytest.mark.parametrize("n,k", [(3, 4), (2, 5), (2, 6)])
def test_endo_apply_raises_images_by_power_blocks(n, k, monkeypatch):
    # above step 3, apply raises the image of c_j to e with |e| >= 2 by the
    # binomial sum of the cached powers of phi(c_j) - 1, not a kernel
    # power; the map keeps one factor per basis element and k // w powers
    # only for elements with 2w <= k
    basis = HallBasis(n, k)
    rng = random.Random(100 * n + k)

    def vec():
        return basis.from_exponents(rng.randint(-3, 3) for _ in basis.elements)

    e = Endo(basis, [vec() for _ in range(n)])
    points = [vec() for _ in range(2)]
    pows = []
    poly_pow = kernel.poly_pow
    monkeypatch.setattr(kernel, "poly_pow", lambda *args: pows.append(args) or poly_pow(*args))
    got = [e.apply(g) for g in points]
    monkeypatch.undo()
    assert got == [series_apply(e, g) for g in points]
    assert pows == []
    lifts = e.lifts
    assert e._basis_images == {} and lifts.powers
    assert set(lifts.factors) <= set(range(len(basis.elements)))
    weights = {i: basis.elements[i].weight for i in lifts.powers}
    assert all(2 * w <= k and len(lifts.powers[i]) == k // w for i, w in weights.items())


def test_lifts_take_no_series_product(monkeypatch):
    # Building every lift at (4,5) multiplies the halves of each bracket
    # as factors, so no kernel product runs (two per bracket at most).
    basis = HallBasis(4, 5)
    muls = []
    poly_mul = kernel.poly_mul
    monkeypatch.setattr(kernel, "poly_mul", lambda *args: muls.append(args) or poly_mul(*args))
    for idx in range(len(basis.elements)):
        basis.lifts.lift(idx)
    assert muls == []
    assert len(basis.lifts.factors) == len(basis.elements)


def test_collect_builds_no_flat_or_inverse_lift():
    # 200 collects on a fresh (4,5) basis keep one factor per lift
    basis = HallBasis(4, 5)
    rng = random.Random(54)
    letters = [i for i in range(-4, 5) if i]
    for _ in range(200):
        ints = _runs_to_ints((rng.choice(letters), rng.randint(1, 7))
                             for _ in range(rng.randint(1, 4)))
        collect(word_from_ints(ints, 4), basis)
    assert len(basis.lifts.factors) == len(basis.elements)


# -- the per-degree series layout against the flat oracles -----------------

# series bases: (2,4) and (3,5) below the wide-setup rung, (4,5) at it,
# and (2,6)
KERNEL_BASES = [(2, 4), (3, 5), (4, 5), (2, 6)]


def _reversed_index(shape, i):
    """Index of monomial i with its letters reversed, from its base-n
    digits, without `SeriesShape.reverse`."""
    d, r = shape.dr[i]
    digits = []
    for _ in range(d):
        r, c = divmod(r, shape.n)
        digits.append(c)
    rank = 0
    for c in digits:
        rank = rank * shape.n + c
    return shape.offset[d] + rank


@st.composite
def flat_operand(draw, shape, constants):
    """A flat series with terms of degree lo..hi only: sparse (up to six
    monomials), or dense (every monomial there, coefficients from a
    drawn seed), with a constant term drawn from `constants`."""
    k, offset = shape.k, shape.offset
    lo = draw(st.integers(1, k))
    hi = draw(st.integers(lo, k))
    if draw(st.booleans()):
        terms = draw(st.lists(st.tuples(st.integers(offset[lo], offset[hi + 1] - 1),
                                         st.integers(-5, 5).filter(bool)), max_size=6))
        poly = dict(terms)
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        poly = {i: rng.randint(-5, 5) for i in range(offset[lo], offset[hi + 1])}
    poly[0] = draw(st.sampled_from(constants))
    return {i: c for i, c in poly.items() if c}


@st.composite
def kernel_operands(draw):
    """A basis from KERNEL_BASES and two flat operands, sparse, dense or
    one of each, with terms up to any degree, so that products truncate
    at every degree."""
    basis = hall_basis(*draw(st.sampled_from(KERNEL_BASES)))
    a = draw(flat_operand(basis.shape, (0, 1, 1, -1, 2)))
    b = draw(flat_operand(basis.shape, (0, 1, 1, -1, 2)))
    return basis, a, b


@given(kernel_operands())
def test_kernel_matches_the_flat_product(case):
    basis, a, b = case
    shape = basis.shape
    sa, sb = by_degree(a, shape), by_degree(b, shape)
    # the layout round trip
    assert flatten(sa) == a
    assert by_degree(flatten(sb), shape) == sb
    assert all(shape.dr[i][0] == d for d, part in enumerate(sa) for i in part)
    ab = kernel.poly_mul(sa, sb, shape)
    assert flatten(ab) == flat_poly_mul(a, b, shape)
    assert all(c for part in ab for c in part.values())
    # the reverse of a product is the product of the reverses, swapped
    flip = {i: _reversed_index(shape, i) for i in range(shape.offset[-1])}
    assert flatten(kernel.poly_reverse(ab, shape)) == flat_poly_mul(
        {flip[i]: c for i, c in b.items()}, {flip[i]: c for i, c in a.items()}, shape)
    # left multiplication and division by P = 1 + (a - a_0), in place
    unit = {**a, 0: 1}
    p = kernel.factor(sa)
    r = [part.copy() for part in sb]
    kernel.left_divide(r, p, shape, False)
    assert flatten(r) == flat_poly_mul(unit, b, shape)
    r = [part.copy() for part in sb]
    kernel.left_divide(r, p, shape, True)
    assert flat_poly_mul(unit, flatten(r), shape) == b
    assert r == kernel.poly_div(by_degree(unit, shape), sb, shape)
    assert flatten(kernel.series(p, shape)) == unit


@given(kernel_operands())
def test_kernel_reads_and_sums_match_the_flat_oracles(case):
    # the operations other modules read and build series through: copy,
    # is_one, terms, term_count, lowest_terms, letter, factor_powers and
    # factor_sum, against the flat layout
    basis, a, b = case
    shape, k = basis.shape, basis.k
    sa = by_degree(a, shape)

    def part(poly, d):
        return {i: c for i, c in poly.items() if shape.dr[i][0] == d}

    copied = kernel.copy(sa)
    kernel.add_scaled(copied, kernel.letter(1, shape), 1)
    assert flatten(sa) == a
    assert flatten(copied) == {i: c for i, c in {**a, 1: a.get(1, 0) + 1}.items() if c}
    for d in range(k + 1):
        assert dict(kernel.terms(sa, d)) == part(a, d)
        assert kernel.term_count(sa, d) == len(part(a, d))
    assert kernel.term_count(sa) == len(a)
    for top in (*range(k + 1), None):
        low = {i: c for i, c in a.items() if top is None or shape.dr[i][0] <= top}
        assert kernel.is_one(sa, top) == (low == {0: 1})
    for gen in range(1, basis.n + 1):
        assert (flatten(kernel.series(kernel.letter(gen, shape), shape))
                == generator_series(basis, gen, False))
    # L = a - a_0, its powers L^i and the sum of c_i L^i
    tail = {i: c for i, c in a.items() if i}
    fa = kernel.factor(sa)
    if tail:
        assert kernel.lowest_terms(fa) == part(tail, min(shape.dr[i][0] for i in tail))
    powers = kernel.factor_powers(fa, k, shape)
    coeffs = [b.get(i, 0) - 2 for i in range(1, k + 1)]
    total = {}
    for i, (c, p) in enumerate(zip(coeffs, powers), start=1):
        power = flat_poly_pow(tail, i, shape)
        assert flatten(kernel.series(p, shape)) == {0: 1, **power}
        for m, v in power.items():
            total[m] = total.get(m, 0) + c * v
    got = kernel.factor_sum(zip(coeffs, powers), shape)
    assert flatten(kernel.series(got, shape)) == {0: 1, **{m: v for m, v in total.items() if v}}


# bracket bases from (2,4) up to the wide-setup rung (4,5)
BRACKET_BASES = [(2, 4), (3, 4), (2, 5), (3, 5), (4, 5)]


@st.composite
def sparse_element_pairs(draw):
    """Two elements of a basis from BRACKET_BASES, each with up to four
    nonzero exponents in [-3, 3], so that the flat oracles stay cheap at
    (4,5)."""
    basis = hall_basis(*draw(st.sampled_from(BRACKET_BASES)))
    size = len(basis.elements)
    out = []
    for _ in range(2):
        exps = [0] * size
        for i, e in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                            st.integers(-3, 3).filter(bool)), max_size=4)):
            exps[i] = e
        out.append(basis.from_exponents(exps))
    return out


@given(sparse_element_pairs())
def test_bracket_factor_matches_the_series_commutator_oracle(gs):
    # [g, h] by the kernel's one left division, with w the sum of the
    # filtration weights of g and h, against the flat series g^-1 h^-1 g h
    # and the commutator of the series_* oracles
    g, h = gs
    basis = g.basis
    shape = basis.shape
    w = weight(g) + weight(h)
    got = kernel.series(kernel.bracket_factor(kernel.factor(g.poly), kernel.factor(h.poly),
                                              w, shape), shape)
    inv = flat_poly_mul(inverse_series(basis, g.exponents), inverse_series(basis, h.exponents),
                        shape)
    assert flatten(got) == flat_poly_mul(
        inv, flat_poly_mul(element_series(basis, g.exponents),
                           element_series(basis, h.exponents), shape), shape)
    assert basis.element_from_poly(got) == series_multiply(
        series_multiply(series_invert(g), series_invert(h)), series_multiply(g, h))


# bases above the exponent law's step
SERIES_OP_BASES = [(2, 4), (3, 4), (2, 5), (2, 6), (3, 5)]


@st.composite
def series_elements(draw, count):
    """`count` elements of a basis from SERIES_OP_BASES with exponents in
    [-3, 3]: made by `from_exponents` with no series yet, with their
    series already built, or by `collect` of a word of up to eight
    letters, which keeps its series."""
    basis = hall_basis(*draw(st.sampled_from(SERIES_OP_BASES)))
    size, n = len(basis.elements), basis.n
    out = []
    for _ in range(count):
        how = draw(st.sampled_from(("fresh", "cached", "collect")))
        if how == "collect":
            ints = draw(st.lists(st.integers(-n, n).filter(bool), max_size=8))
            out.append(collect(word_from_ints(ints, n), basis))
            continue
        g = basis.from_exponents(draw(st.lists(st.integers(-3, 3), min_size=size,
                                               max_size=size)))
        if how == "cached":
            g.poly
        out.append(g)
    return out


@given(series_elements(2), st.sampled_from((1, 2, 3, -1, -2, -3)))
def test_series_ops_match_the_flat_oracles(gs, e):
    g, h = gs
    assert g.basis.law is None
    assert multiply(g, h) == series_multiply(g, h)
    assert invert(g) == series_invert(g)
    assert power(h, e) == series_power(h, e)
    assert commutator(g, h) == series_multiply(
        series_multiply(series_invert(g), series_invert(h)), series_multiply(g, h))
    assert bar(g) == series_bar(g)
