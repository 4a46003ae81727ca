import random
from itertools import permutations, product

import pytest

from nilpal import intlinalg, kernel, nilpotent
from nilpal.nilpotent import (
    HallBasis,
    InternalError,
    bar,
    collect,
    commutator,
    element_as_word,
    hall_basis,
    invert,
    law_values,
    left_normed,
    multiply,
    power,
    render_element,
    verify_w2k,
    weight,
    witt_count,
)
from nilpal.words import (
    MAX_LAW_VALUES,
    MAX_SERIES_ENTRIES,
    concat,
    parse_word,
    reverse_word,
    word_from_ints,
)

import oracles
from oracles import (
    TruncatedWordRep,
    by_degree,
    heisenberg_matrix,
    invariant_factors,
    series_bar,
    series_collect,
)


def rand_word(rng, n, max_len=12):
    alphabet = [i for i in range(-n, n + 1) if i]
    return word_from_ints(
        [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))], n
    )


# -- basis ------------------------------------------------------------------

def test_hall_basis_n2_k3():
    basis = hall_basis(2, 3)
    assert [c.render() for c in basis.elements] == [
        "x1", "x2", "[x2,x1]", "[x2,x1,x1]", "[x2,x1,x2]",
    ]


def test_hall_basis_witt_counts():
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3, 4, 5):
            if n == 4 and k > 3:
                continue
            basis = hall_basis(n, k)
            for w_, level in enumerate(basis.by_weight, start=1):
                assert len(level) == witt_count(n, w_)
    assert len(hall_basis(3, 2).elements) == 6
    assert [c.render() for c in hall_basis(2, 1).elements] == ["x1", "x2"]


def test_witt_values():
    assert witt_count(2, 2) == 1
    assert witt_count(2, 3) == 2
    assert witt_count(2, 4) == 3
    assert witt_count(2, 5) == 6
    assert witt_count(3, 2) == 3
    assert witt_count(3, 3) == 8


def test_basis_validation():
    with pytest.raises(ValueError):
        hall_basis(0, 2)
    with pytest.raises(ValueError):
        hall_basis(2, 0)


def test_oversized_groups_are_refused_before_anything_is_built(monkeypatch):
    def build(n, k):
        raise AssertionError(f"built the elements of ({n}, {k})")

    monkeypatch.setattr(nilpotent, "_build_elements", build)
    for n, k, entries in ((1, 100_000, 200_001), (9, 9, 340_453), (2, 16, 262_125)):
        with pytest.raises(ValueError) as err:
            HallBasis(n, k)
        assert str(err.value) == (
            f"group too large: n={n}, k={k} needs at least {entries} series index "
            f"entries, over MAX_SERIES_ENTRIES = {MAX_SERIES_ENTRIES}")


def test_series_cap_admits_every_ladder_rung():
    # estimates only: the rungs that tests, CI and the ROADMAP ladder build
    rungs = [(2, 3), (3, 3), (4, 3), (3, 5), (4, 4), (4, 5), (3, 6), (2, 8), (3, 7), (4, 6),
             (5, 5), (2, 10), (3, 8), (4, 7)]
    for n, k in rungs:
        assert kernel.shape_entries(n, k, MAX_SERIES_ENTRIES) <= MAX_SERIES_ENTRIES


def test_law_values_counts_the_fit_it_estimates():
    from nilpal import hallpoly

    for n, k in ((1, 1), (1, 3), (2, 1), (3, 2), (2, 3), (4, 3)):
        basis = hall_basis(n, k)
        weights = [c.weight for c in basis.elements]
        assert law_values(n, k) == len(hallpoly._points(weights * 2, k)) * len(basis.elements)


def test_oversized_law_derivations_are_refused_before_the_series_shape(monkeypatch):
    def build(n, k):
        raise AssertionError(f"built the series shape of ({n}, {k})")

    monkeypatch.setattr(kernel, "SeriesShape", build)
    for n, k, values in ((12, 3, 4_789_850), (20, 3, 95_401_670), (40, 2, 4_002_420),
                         (2000, 1, 8_002_000)):
        with pytest.raises(ValueError) as err:
            HallBasis(n, k)
        assert str(err.value) == (
            f"group too large: n={n}, k={k} needs {values} law sample values, "
            f"over MAX_LAW_VALUES = {MAX_LAW_VALUES}")


def test_law_cap_admits_the_groups_in_use():
    # estimates only: tests, CI and the benchmark derive laws up to rank 4,
    # and the cap admits ranks up to 10, 33 and 999 at steps 3, 2 and 1
    assert law_values(4, 3) == 9_390
    for k, n in ((3, 10), (2, 33), (1, 999)):
        assert law_values(n, k) <= MAX_LAW_VALUES < law_values(n + 1, k)


def test_witt_count_mismatch_context(monkeypatch):
    from nilpal import nilpotent

    monkeypatch.setattr(nilpotent, "witt_count", lambda n, w: 99)
    with pytest.raises(InternalError, match="weight-1 layer has 2 elements, expected 99") as err:
        HallBasis(2, 3)
    assert err.value.context == {"n": 2, "k": 3, "weight": 1}


# -- collect ----------------------------------------------------------------

def test_collect_examples():
    basis = hall_basis(2, 2)
    e = collect(parse_word("x2 x1", 2), basis)
    assert e.exponents == (1, 1, 1)
    e = collect(parse_word("[x2,x1]", 2), basis)
    assert e.exponents == (0, 0, 1)
    assert collect(parse_word("x1 x1^-1", 2), basis).is_identity()


def test_collect_is_homomorphism():
    rng = random.Random(10)
    for _ in range(120):
        n = rng.randint(1, 3)
        k = rng.randint(1, 5)
        basis = hall_basis(n, k)
        u, v = rand_word(rng, n), rand_word(rng, n)
        assert collect(concat(u, v), basis) == multiply(collect(u, basis), collect(v, basis))


def _count_series_products(monkeypatch):
    # the kernel's products, and the flat products of the oracles
    calls = []
    for module, name in ((kernel, "poly_mul"), (oracles, "flat_poly_mul")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda a, b, shape, real=real:
                            calls.append(1) or real(a, b, shape))
    return calls


def test_series_collect_powers_each_run_of_a_letter(monkeypatch):
    # one series power per run: O(log e) products for x1^e, not e
    basis = hall_basis(2, 4)
    word = parse_word("x1^20000 x2", 2)
    collect(parse_word("x2 x1", 2), basis)  # builds the lifts and peel solvers
    calls = _count_series_products(monkeypatch)
    g = collect(word, basis)
    assert g.exponents == (20000, 1) + (0,) * (len(basis.elements) - 2)
    assert len(calls) <= 4 * (20000).bit_length()


def test_series_collect_costs_no_more_products_than_the_letter_fold(monkeypatch):
    # against the oracle fold that multiplies one letter series at a time,
    # peeled by the engine: both peel the same series, so the peel's
    # products cancel
    rng = random.Random(12)
    calls = _count_series_products(monkeypatch)
    for _ in range(40):
        n, k = rng.randint(1, 3), rng.randint(4, 5)
        basis = hall_basis(n, k)
        ints = []
        for _ in range(rng.randint(0, 5)):
            ints += [rng.choice([i for i in range(-n, n + 1) if i])] * rng.randint(1, 7)
        word = word_from_ints(ints, n)
        del calls[:]
        want = basis.element_from_poly(by_degree(oracles.word_series(word, basis), basis.shape))
        fold = len(calls)
        del calls[:]
        assert collect(word, basis) == want
        assert len(calls) <= fold
        assert want == series_collect(word, basis)


def test_group_ops_examples():
    basis = hall_basis(2, 2)
    x1 = basis.generator(1)
    assert multiply(x1, basis.one()) == x1
    assert commutator(basis.generator(2), x1).exponents == (0, 0, 1)
    c = collect(parse_word("[x2,x1]", 2), basis)
    assert power(c, -2).exponents == (0, 0, -2)
    assert multiply(x1, invert(x1)).is_identity()


def test_group_inverse_random():
    rng = random.Random(11)
    for _ in range(60):
        n, k = rng.randint(1, 3), rng.randint(1, 5)
        basis = hall_basis(n, k)
        g = collect(rand_word(rng, n), basis)
        assert multiply(g, invert(g)).is_identity()
        assert multiply(invert(g), g).is_identity()
        assert invert(invert(g)) == g


def test_power_large_exponents():
    basis = hall_basis(2, 3)
    g = collect(parse_word("x2 x1", 2), basis)
    big = 10**12
    h = power(g, big)
    assert h.exponents[0] == big and h.exponents[1] == big
    assert multiply(h, power(g, -big)).is_identity()


# -- bar --------------------------------------------------------------------

def test_bar_examples():
    b2 = hall_basis(2, 2)
    c = collect(parse_word("[x2,x1]", 2), b2)
    assert bar(c) == invert(c)
    b3 = hall_basis(2, 3)
    d = collect(parse_word("[x2,x1,x1]", 2), b3)
    assert bar(d) == d
    assert bar(b3.generator(1)) == b3.generator(1)


def test_bar_matches_word_reversal():
    rng = random.Random(12)
    for _ in range(100):
        n, k = rng.randint(1, 3), rng.randint(1, 5)
        basis = hall_basis(n, k)
        u = rand_word(rng, n)
        assert bar(collect(u, basis)) == collect(reverse_word(u), basis)


@pytest.mark.parametrize("n,k", [(2, 5), (3, 5), (4, 4), (3, 6), (2, 8), (4, 5)])
def test_bar_by_reversal_on_the_ladder(n, k):
    # above step 3 bar reverses the monomials of the series; check it
    # against collecting the reversed word, and against series_bar on
    # elements whose series come from exponents
    basis = hall_basis(n, k)
    rng = random.Random(10 * n + k)
    for _ in range(2):
        u = rand_word(rng, n)
        assert bar(collect(u, basis)) == collect(reverse_word(u), basis)
        g = basis.from_exponents([rng.randint(-2, 2) for _ in basis.elements])
        assert bar(g) == series_bar(g)


def test_bar_involution_and_antihomomorphism():
    rng = random.Random(13)
    for _ in range(60):
        n, k = rng.randint(2, 3), rng.randint(1, 4)
        basis = hall_basis(n, k)
        g = collect(rand_word(rng, n), basis)
        h = collect(rand_word(rng, n), basis)
        assert bar(bar(g)) == g
        assert bar(multiply(g, h)) == multiply(bar(h), bar(g))


def test_bar_on_commutators_sign():
    # weight-w commutators of generators reverse to their (-1)^(w+1) power
    for n in (2, 3):
        for k in (2, 3, 4, 5):
            basis = hall_basis(n, k)
            gens = [basis.generator(i) for i in range(1, n + 1)]
            for tup in product(range(n), repeat=k):
                c = left_normed([gens[j] for j in tup])
                want = c if (k + 1) % 2 == 0 else invert(c)
                assert bar(c) == want


# -- structure identities ----------------------------------------------------

def test_multilinearity_on_generator_commutators():
    rng = random.Random(14)
    for _ in range(80):
        n, k = rng.randint(2, 3), rng.randint(2, 4)
        basis = hall_basis(n, k)
        zs = [basis.generator(rng.randint(1, n)) for _ in range(k)]
        exps = [rng.randint(-2, 2) for _ in range(k)]
        prod = 1
        for a in exps:
            prod *= a
        lhs = left_normed([power(z, a) for z, a in zip(zs, exps)])
        assert lhs == power(left_normed(zs), prod)


def test_jacobi_step3():
    for n in (3, 4):
        basis = hall_basis(n, 3)
        for i, j, l in permutations(range(1, n + 1), 3):
            a, b, c = (basis.generator(v) for v in (i, j, l))
            prod = multiply(
                multiply(left_normed([a, b, c]), left_normed([b, c, a])),
                left_normed([c, a, b]),
            )
            assert prod.is_identity()


def test_weight_examples():
    basis = hall_basis(2, 3)
    assert weight(basis.generator(1)) == 1
    assert weight(collect(parse_word("[x2,x1]", 2), basis)) == 2
    assert weight(basis.one()) == 4


def test_verify_w2k_examples():
    b3 = hall_basis(2, 3)
    assert verify_w2k([b3.generator(1), b3.generator(2)], 1)
    assert verify_w2k([b3.generator(1), b3.generator(1)], 1)
    b5 = hall_basis(2, 5)
    assert verify_w2k(
        [b5.generator(1), b5.generator(2), b5.generator(1), b5.generator(2)], 2
    )
    with pytest.raises(ValueError):
        verify_w2k([b3.generator(1)], 1)
    with pytest.raises(ValueError):
        verify_w2k([b5.generator(1), b5.generator(2)], 1)


def test_verify_w2k_beyond_generators():
    # the identity needs reversal-invariant inputs (bar(y) == y); generator
    # powers and products g * bar(g) qualify, and the checker reports
    # honestly when an input is not of that kind
    rng = random.Random(15)
    basis = hall_basis(2, 3)
    for _ in range(20):
        ys = []
        for _ in range(2):
            if rng.random() < 0.5:
                g = collect(rand_word(rng, 2, 5), basis)
                ys.append(multiply(g, bar(g)))
            else:
                ys.append(power(basis.generator(rng.randint(1, 2)), rng.randint(-3, 3)))
        assert all(bar(y) == y for y in ys)
        assert verify_w2k(ys, 1)
    bad = collect(parse_word("x1 x2", 2), basis)
    assert bar(bad) != bad
    assert not verify_w2k([bad, basis.generator(2)], 1)


# -- rendering ---------------------------------------------------------------

def test_render_round_trip():
    rng = random.Random(16)
    for _ in range(80):
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        basis = hall_basis(n, k)
        g = collect(rand_word(rng, n), basis)
        assert collect(parse_word(render_element(g), n), basis) == g
    assert render_element(hall_basis(2, 2).one()) == "1"


def test_render_format():
    basis = hall_basis(2, 3)
    g = basis.from_exponents((2, 1, -1, 0, 3))
    assert render_element(g) == "x1^2 * x2 * [x2,x1]^-1 * [x2,x1,x2]^3"


def test_element_as_word_collects_back():
    rng = random.Random(17)
    for _ in range(40):
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        basis = hall_basis(n, k)
        g = collect(rand_word(rng, n), basis)
        assert collect(element_as_word(g), basis) == g


def test_reversed_element_word_of_central_element():
    # the weight-3 factors commute at step 3, so either order collects to g
    basis = hall_basis(3, 3)
    g = basis.from_exponents((0,) * 6 + (1, -2, 0, 0, 3, 0, 0, 1))
    forward, backward = element_as_word(g), element_as_word(g, reverse=True)
    assert forward != backward
    assert collect(forward, basis) == collect(backward, basis) == g
    one_factor = basis.from_exponents((0,) * 6 + (0, 0, 2, 0, 0, 0, 0, 0))
    assert element_as_word(one_factor, reverse=True) == element_as_word(one_factor)


# -- matrix oracles -----------------------------------------------------------

def test_collector_agrees_with_heisenberg():
    rng = random.Random(18)
    basis = hall_basis(2, 2)
    for _ in range(200):
        u = rand_word(rng, 2, 14)
        nf_word = element_as_word(collect(u, basis))
        assert heisenberg_matrix(u) == heisenberg_matrix(nf_word)


def test_collector_agrees_with_truncated_rep():
    rng = random.Random(19)
    for k in (1, 2, 3):
        rep = TruncatedWordRep(2, k)
        basis = hall_basis(2, k)
        for _ in range(120):
            u = rand_word(rng, 2, 14)
            v = rand_word(rng, 2, 14)
            nf_word = element_as_word(collect(u, basis))
            assert rep.evaluate(u) == rep.evaluate(nf_word)
            same_group = collect(u, basis) == collect(v, basis)
            same_matrix = rep.evaluate(u) == rep.evaluate(v)
            assert same_group == same_matrix


def test_collect_rank_mismatch():
    with pytest.raises(ValueError):
        collect(word_from_ints([1], 2), hall_basis(3, 2))


def test_collector_agrees_with_truncated_rep_rank3():
    rng = random.Random(20)
    for k, count in ((1, 40), (2, 25), (3, 12)):
        rep = TruncatedWordRep(3, k)
        basis = hall_basis(3, k)
        for _ in range(count):
            u = rand_word(rng, 3, 8)
            v = rand_word(rng, 3, 8)
            nf = element_as_word(collect(u, basis))
            assert rep.evaluate(u) == rep.evaluate(nf)
            prod = element_as_word(multiply(collect(u, basis), collect(v, basis)))
            assert rep.evaluate(concat(u, v)) == rep.evaluate(prod)


# -- normal-form recovery (the peel) -----------------------------------------

def _mono(basis, *letters):
    return basis.shape.index(letters)


@pytest.mark.parametrize("n,k,letters", [(2, 4, (1, 2)), (2, 3, (1, 2)), (1, 3, (1, 1))])
def test_peel_rejects_non_lie_layer(n, k, letters):
    # X1 X2 alone is not a Lie element.  At (2,4) weight 2 peels with a
    # series product (2w <= k), at (2,3) with the linear update (2w > k).
    # In rank 1 no basis element has weight 2 at all.
    basis = hall_basis(n, k)
    with pytest.raises(InternalError, match="degree-2 component is not a Lie element") as err:
        basis.element_from_poly(by_degree({0: 1, _mono(basis, *letters): 1}, basis.shape))
    assert err.value.context == {"n": n, "k": k, "weight": 2, "residual_terms": 1}
    assert f"n={n}, k={k}, weight=2, residual_terms=1" in str(err.value)


def test_peel_rejects_non_lie_layer_above_weight_one():
    # A valid element times 1 + X1 X1 X2: the defect sits at weight 3 of
    # a series whose lower layers peel normally.
    basis = hall_basis(2, 3)
    g = basis.from_text("x1^2 x2 [x2,x1]^-1")
    bad = kernel.poly_mul(g.poly, by_degree({0: 1, _mono(basis, 1, 1, 2): 1}, basis.shape),
                          basis.shape)
    with pytest.raises(InternalError) as err:
        basis.element_from_poly(bad)
    assert err.value.context["weight"] == 3
    assert err.value.context["residual_terms"] >= 1


def test_peel_rejects_constant_term():
    basis = hall_basis(2, 3)
    with pytest.raises(InternalError, match="constant term") as err:
        basis.element_from_poly(by_degree({0: 2, _mono(basis, 1): 1}, basis.shape))
    assert err.value.context == {"n": 2, "k": 3, "weight": 0, "residual_terms": 2}


def test_peel_rejects_non_integral_coordinates():
    # Half of the series of [x2,x1] at degree 2: a Lie element, but with
    # coordinate 1/2.
    from fractions import Fraction

    basis = hall_basis(2, 3)
    half = {i: Fraction(c, 2) for i, c in basis.lie_columns(2)[0].items()}
    with pytest.raises(InternalError, match="not integral") as err:
        basis.element_from_poly(by_degree({0: 1, **half}, basis.shape))
    assert err.value.context == {"n": 2, "k": 3, "weight": 2, "residual_terms": 2}


@pytest.mark.parametrize("n,k", [(2, 3), (3, 3), (3, 5), (4, 4), (2, 8)])
def test_lie_layers_are_unimodular(n, k):
    # The Lie elements of each degree are a direct summand of the free
    # module on the monomials, so every layer's Lie-coordinate matrix has
    # witt_count(n, w) invariant factors, all 1.
    basis = hall_basis(n, k)
    for w in range(1, k + 1):
        cols = basis.lie_columns(w)
        monos = sorted({i for col in cols for i in col})
        matrix = [[col.get(i, 0) for col in cols] for i in monos]
        assert invariant_factors(matrix) == [1] * witt_count(n, w)


def _round_trips(basis, rng, cases):
    m = len(basis.elements)
    for case in range(cases):
        # A dense vector first, then sparse ones that reach the top layers
        # with few factors.
        density = 1.0 if case == 0 else 0.1
        exps = tuple(rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(m))
        g = basis.from_exponents(exps)
        assert basis.element_from_poly(g.poly).exponents == exps
        inv = invert(g)
        assert invert(inv) == g
        assert multiply(g, inv).is_identity()
        assert bar(bar(g)) == g
        assert bar(inv) == invert(bar(g))


def test_round_trips_at_3_6():
    basis = hall_basis(3, 6)
    _round_trips(basis, random.Random(36), 6)


@pytest.mark.parametrize("n,k", [(2, 3), (3, 3), (3, 5), (4, 4), (4, 5), (3, 6),
                                 (2, 8), (3, 7), (4, 6)])
def test_peel_pivots_are_units_on_the_ladder(n, k):
    # Columns pivot in the order of their starting entry counts, each on
    # a +-1 entry where it has one: on every rung of the ladder that is
    # enough, and no layer needs a Fraction.
    basis = HallBasis(n, k)
    assert all(basis._peel_solver(w).nonunit_pivots == 0 for w in range(1, k + 1))


def test_round_trips_through_fraction_pivots(monkeypatch):
    # With unit pivots preferred no rung of the ladder needs a non-unit
    # one.  Built while no entry counts as a unit, the solvers of (2,7)
    # take the shortest row of each column instead, which puts
    # entries other than +-1 on the weight-7 diagonal, so every peel of a
    # series with a weight-7 part runs the Fraction path.
    basis = HallBasis(2, 7)
    monkeypatch.setattr(intlinalg, "_unit", lambda a: False)
    for w in range(1, 8):
        basis._peel_solver(w)
    monkeypatch.undo()
    assert any(abs(a) != 1 for a in basis._peel[7].pivots)
    _round_trips(basis, random.Random(27), 12)
    for word in ("x1 x2^-1 x1 x2 x2 x1^-1 x2", "[x1,x2,x2,x1,x1,x2,x1]^3"):
        g = basis.from_text(word)
        assert any(g.weight_block(7))
        assert basis.from_exponents(g.exponents) == g
