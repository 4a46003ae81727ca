import random
from itertools import permutations, product

import pytest
from oracles import gf2_rank, product_step3_rows, word_tameness_residue

from nilpal import autos, intlinalg, nilpotent
from nilpal.autos import (
    Endo,
    NotAutomorphismError,
    UndecidedError,
    alpha,
    classify,
    compose,
    compose_symbols,
    decompose_bglm,
    decompose_central,
    endo_power,
    identity_endo,
    inner,
    inverse,
    inverse_with_factors,
    is_automorphism,
    make_endo,
    make_generator,
    mu,
    palindromic_witnesses,
    parse_endo_file,
    phi2,
    phi3,
    psi,
    quotient_rank_q,
    render_endo,
    render_symbol,
    sigma,
    solve_conjugator,
    t,
    tameness_necessary,
    tameness_residue,
    verify_tame_factorization,
)
from nilpal.foxring import _TABLE_ROWS, PreconditionError, mul, ring_delta, ring_zero
from nilpal.intlinalg import lattice_solve, solve_from_smith
from nilpal.nilpotent import (
    HallBasis,
    InternalError,
    bar,
    collect,
    element_as_word,
    hall_basis,
    invert,
    multiply,
    power,
    weight,
)
from nilpal.words import parse_word, word_from_ints


def rand_word(rng, n, max_len=8):
    alphabet = [i for i in range(-n, n + 1) if i]
    return word_from_ints(
        [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))], n
    )


def rand_epa(rng, basis, length=None):
    """Random product of palindromic generator symbols."""
    n = basis.n
    e = identity_endo(basis)
    for _ in range(length if length is not None else rng.randint(1, 5)):
        kind = rng.random()
        if kind < 0.5 or n < 2 or basis.k < 3:
            i, j = rng.sample(range(1, n + 1), 2)
            e = compose(e, make_generator(mu(i, j, rng.choice([1, -1])), basis))
        elif kind < 0.75:
            a, b = rng.sample(range(1, n + 1), 2)
            e = compose(e, make_generator(phi2(a, b, rng.randint(1, n)), basis))
        else:
            a, b = rng.sample(range(1, n + 1), 2)
            c = rng.randint(1, n)
            e = compose(e, make_generator(phi3(a, b, c, rng.randint(1, n)), basis))
    return e


# -- endomorphism basics ------------------------------------------------------

def test_make_endo_examples():
    basis = hall_basis(2, 2)
    assert make_endo(basis, ["x1", "x2"]) == identity_endo(basis)
    m12 = make_endo(basis, ["x2 x1 x2", "x2"])
    assert m12 == make_generator(mu(1, 2), basis)
    e = make_endo(basis, ["x1 x1", "x2"])
    assert e.abel_matrix == ((2, 0), (0, 1))
    with pytest.raises(ValueError):
        make_endo(basis, ["x1"])


def test_apply_and_compose():
    basis = hall_basis(2, 2)
    m12 = make_generator(mu(1, 2), basis)
    g = collect(parse_word("x1", 2), basis)
    assert m12.apply(g) == collect(parse_word("x2 x1 x2", 2), basis)
    assert identity_endo(basis).apply(g) == g
    t1 = make_generator(t(1), basis)
    assert compose(t1, t1) == identity_endo(basis)


def test_compose_is_left_to_right():
    rng = random.Random(30)
    basis = hall_basis(3, 2)
    for _ in range(30):
        e1, e2 = rand_epa(rng, basis), rand_epa(rng, basis)
        e12 = compose(e1, e2)
        g = collect(rand_word(rng, 3), basis)
        assert e12.apply(g) == e2.apply(e1.apply(g))
        # row convention: matrix of the composition is the ordered product
        m = [[sum(e1.abel_matrix[i][t_] * e2.abel_matrix[t_][j] for t_ in range(3))
              for j in range(3)] for i in range(3)]
        assert tuple(tuple(r) for r in m) == e12.abel_matrix


def test_apply_is_homomorphism():
    rng = random.Random(31)
    for _ in range(30):
        n, k = rng.randint(2, 3), rng.randint(1, 4)
        basis = hall_basis(n, k)
        e = make_endo(basis, [collect(rand_word(rng, n), basis) for _ in range(n)])
        g = collect(rand_word(rng, n), basis)
        h = collect(rand_word(rng, n), basis)
        assert e.apply(multiply(g, h)) == multiply(e.apply(g), e.apply(h))


def test_is_automorphism():
    basis = hall_basis(2, 2)
    assert is_automorphism(identity_endo(basis))
    assert not is_automorphism(make_endo(basis, ["x1 x1", "x2"]))
    m12 = make_generator(mu(1, 2), basis)
    assert is_automorphism(m12)
    assert m12.abel_matrix == ((1, 2), (0, 1))


# -- generators ----------------------------------------------------------------

def test_generator_images():
    basis = hall_basis(2, 3)
    g = make_generator(phi2(2, 1, 1), basis)
    want = collect(parse_word("x1 [x2,x1,x1] [x2,x1,x1] [x2,x1,x2]", 2), basis)
    assert g.images[0] == want
    assert g.images[1] == basis.generator(2)

    s = make_generator(sigma((2, 1)), basis)
    assert s.images[0] == basis.generator(2)

    # psi squared inverts the matching phi3 generator
    p = make_generator(psi(1, 2), basis)
    assert compose(p, p) == inverse(make_generator(phi3(2, 1, 1, 2), basis))


def test_generator_constraints():
    basis = hall_basis(2, 2)
    with pytest.raises(ValueError):
        make_generator(mu(1, 1), basis)
    with pytest.raises(ValueError):
        make_generator(phi2(1, 1, 2), basis)
    with pytest.raises(ValueError):
        make_generator(alpha(2), basis)
    with pytest.raises(ValueError):
        make_generator(sigma((1, 1)), basis)
    with pytest.raises(ValueError):
        make_generator(psi(2, 2), basis)


def test_inner_generator():
    basis = hall_basis(2, 3)
    g = collect(parse_word("x1 x2", 2), basis)
    e = make_generator(inner(g), basis)
    for i in (1, 2):
        assert e.images[i - 1] == multiply(multiply(invert(g), basis.generator(i)), g)
    assert classify(e).is_central is False  # conjugation by weight-1 element


def test_render_symbols():
    assert render_symbol(phi2(2, 1, 1, 3)) == "phi2(2,1;1)^3"
    assert render_symbol(mu(1, 2, -1)) == "mu(1,2)^-1"
    assert render_symbol(sigma((2, 1, 3))) == "sigma(2 1 3)"
    basis = hall_basis(2, 2)
    c = power(collect(parse_word("[x1,x2]", 2), basis), 2)
    assert render_symbol(inner(c)) == "inner([x2,x1]^-2)"


def all_symbols(n, exponent=1):
    """Every generator symbol of rank n except `inner`."""
    r = range(1, n + 1)
    syms = [mu(i, j, exponent) for i, j in permutations(r, 2)]
    syms += [t(i, exponent) for i in r] + [alpha(j, exponent) for j in range(1, n)]
    syms += [sigma(p, exponent) for p in permutations(r)]
    syms += [phi2(a, b, i, exponent) for a, b in permutations(r, 2) for i in r]
    syms += [phi3(a, b, c, i, exponent)
             for a, b in permutations(r, 2) for c in r for i in r]
    syms += [psi(a, i, exponent) for a, i in permutations(r, 2)]
    return syms


@pytest.mark.parametrize("n,k", [(2, 3), (3, 3), (3, 4)])
def test_negative_powers_match_fresh_inverses(n, k):
    basis = hall_basis(n, k)
    for m in (1, 2, 3):
        for pos, neg in zip(all_symbols(n, m), all_symbols(n, -m)):
            assert make_generator(neg, basis) == inverse(make_generator(pos, basis)), neg


def test_generator_inverse_built_once_per_symbol(monkeypatch):
    basis = hall_basis(3, 3)
    monkeypatch.setattr(basis, "memo", {})
    calls = []
    real = autos.inverse_with_factors

    def counting(e):
        calls.append(1)
        return real(e)

    monkeypatch.setattr(autos, "inverse_with_factors", counting)
    syms = [mu(1, 2, -1), phi2(2, 1, 3, -2), mu(1, 2, -3), psi(1, 2),
            phi2(2, 1, 3, -1), mu(2, 1, -1), mu(1, 2, -1)]
    e = compose_symbols(syms, basis)
    assert len(calls) == 3
    assert compose_symbols(syms, basis) == e
    assert len(calls) == 3


def test_generators_are_kept_with_their_image_tables():
    basis = nilpotent.HallBasis(3, 3)
    m12 = make_generator(mu(1, 2), basis)
    assert make_generator(mu(1, 2), basis) is m12
    inv = make_generator(mu(1, 2, -1), basis)
    assert make_generator(mu(1, 2, -1), basis) is inv
    assert basis.memo[("generator", "mu", (1, 2))] is m12
    assert basis.memo[("generator_inverse", "mu", (1, 2))] is inv
    # the image table stays with the kept map: one exponent tuple per basis
    # element used, none for an inverse
    m12.apply(basis.from_exponents((-1) ** i * (i + 1) for i in range(14)))
    assert make_generator(mu(1, 2), basis)._basis_images == m12._basis_images
    assert sorted(m12._basis_images) == list(range(14))
    assert all(len(img) == 14 for img in m12._basis_images.values())
    # powers other than +-1 and inner maps are built afresh
    assert make_generator(mu(1, 2, 2), basis) is not make_generator(mu(1, 2, 2), basis)
    x = basis.generator(1)
    assert make_generator(inner(x), basis) is not make_generator(inner(x), basis)
    assert make_generator(inner(x, -1), basis) == inverse(make_generator(inner(x), basis))
    assert not any(key[1] == "inner" for key in basis.memo if key[0].startswith("generator"))


def test_step4_generators_are_kept_with_their_image_tables():
    # the series path keeps its generators by the same rule
    basis = nilpotent.HallBasis(3, 4)
    m12 = make_generator(mu(1, 2), basis)
    assert make_generator(mu(1, 2), basis) is m12
    inv = make_generator(mu(1, 2, -1), basis)
    assert make_generator(mu(1, 2, -1), basis) is inv
    assert basis.memo[("generator", "mu", (1, 2))] is m12
    assert basis.memo[("generator_inverse", "mu", (1, 2))] is inv
    assert compose(m12, inv).images == tuple(basis.generator(i) for i in (1, 2, 3))
    assert inv._basis_images


def test_invalid_negative_symbol_raises_every_time():
    basis = hall_basis(2, 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="a != b"):
            make_generator(phi2(1, 1, 2, -1), basis)
        with pytest.raises(ValueError, match="unknown generator tag"):
            make_generator(autos.GeneratorSymbol("nu", (1, 2), -1), basis)
    assert ("generator_inverse", "phi2", (1, 1, 2)) not in basis.memo


def test_compose_symbols_skips_the_identity(monkeypatch):
    basis = hall_basis(2, 3)
    assert compose_symbols([], basis) == identity_endo(basis)
    assert endo_power(make_generator(mu(1, 2), basis), 0) == identity_endo(basis)
    syms = [mu(1, 2), phi2(2, 1, 1), t(2)]
    gens = [make_generator(s, basis) for s in syms]
    calls = []
    real = autos.compose

    def counting(e1, e2):
        calls.append(1)
        return real(e1, e2)

    monkeypatch.setattr(autos, "compose", counting)
    e = compose_symbols(syms, basis)
    assert len(calls) == 2
    # x^5 = x * x^4: two squarings and one product
    p5 = endo_power(gens[0], 5)
    assert len(calls) == 5
    monkeypatch.undo()
    assert e == real(real(gens[0], gens[1]), gens[2])
    assert p5 == real(gens[0], real(real(gens[0], gens[0]), real(gens[0], gens[0])))


# -- solve_conjugator -----------------------------------------------------------

def test_solve_conjugator_examples():
    b22 = hall_basis(2, 2)
    q = solve_conjugator(collect(parse_word("x2 x1 x2", 2), b22), 1)
    assert q == b22.generator(2)

    g = multiply(b22.generator(1), b22.from_exponents((0, 0, 1)))
    assert solve_conjugator(g, 1) is None

    b23 = hall_basis(2, 3)
    g = multiply(b23.generator(1), b23.from_exponents((0, 0, 0, 2, 0)))
    q = solve_conjugator(g, 1)
    assert q == b23.from_exponents((0, 0, 0, 1, 0))
    assert solve_conjugator(g, 1, min_weight=3) == q


def test_solve_conjugator_round_trip_random():
    rng = random.Random(32)
    for _ in range(120):
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        basis = hall_basis(n, k)
        q = collect(rand_word(rng, n), basis)
        i = rng.randint(1, n)
        g = multiply(multiply(bar(q), basis.generator(i)), q)
        found = solve_conjugator(g, i)
        assert found is not None
        assert multiply(multiply(bar(found), basis.generator(i)), found) == g


def test_solve_conjugator_k4_raises():
    basis = hall_basis(2, 4)
    with pytest.raises(UndecidedError):
        solve_conjugator(basis.generator(1), 1)


def test_solve_conjugator_min_weight():
    basis = hall_basis(2, 3)
    g = collect(parse_word("x2 x1 x2", 2), basis)
    assert solve_conjugator(g, 1, min_weight=1) is not None
    assert solve_conjugator(g, 1, min_weight=2) is None


def step3_rows(basis, i, alpha):
    """Every row of `autos._step3_row(basis, i, alpha)`."""
    return list(map(autos._step3_row(basis, i, alpha), range(len(basis.by_weight[1]))))


def test_step3_rows_match_products():
    # the closed-form rows against the direct group-product construction,
    # for every i and every alpha in a box
    for n, r in ((2, 2), (3, 2), (4, 1)):
        basis = hall_basis(n, 3)
        for i in range(1, n + 1):
            for a in product(range(-r, r + 1), repeat=n):
                assert step3_rows(basis, i, list(a)) == product_step3_rows(basis, i, a)
    # rank 1: no weight-2 elements, so the table and the rows are empty
    basis = hall_basis(1, 3)
    assert autos._step3_table(basis) == ([], [[]])
    for a in range(-2, 3):
        assert step3_rows(basis, 1, [a]) == product_step3_rows(basis, 1, (a,)) == []


def _conjugate(q, i):
    return multiply(multiply(bar(q), q.basis.generator(i)), q)


def test_solve_conjugator_multiply_count(monkeypatch):
    # after warm-up a step-3 call builds no rows from group products: one
    # multiply pair for f0 and one for the final check
    basis = hall_basis(3, 3)
    q = basis.from_exponents((1, 0, -1, 2, 0, 1) + (0,) * 7 + (1,))
    g = _conjugate(q, 2)
    assert solve_conjugator(g, 2) is not None
    calls = []
    real = nilpotent.multiply

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(autos, "multiply", counting)
    monkeypatch.setattr(nilpotent, "multiply", counting)
    found = solve_conjugator(g, 2, min_weight=1)
    assert found is not None and len(calls) <= 4


def test_solve_conjugator_verification_failure_context(monkeypatch):
    basis = hall_basis(3, 3)
    g = _conjugate(basis.from_exponents((1, 0, -1, 2, 0, 1) + (0,) * 8), 2)
    real = autos._solve_mod2

    def wrong(echelon, row, target):
        # flipping beta_1 moves the value by the first row, which is odd
        beta, delta = real(echelon, row, target)
        return beta ^ 1, delta

    monkeypatch.setattr(autos, "_solve_mod2", wrong)
    with pytest.raises(InternalError, match="witness verification failed") as err:
        solve_conjugator(g, 2)
    assert err.value.context == {"n": 3, "k": 3, "i": 2, "min_weight": 1}


def test_witness_mod2_solve_matches_lattice_solve():
    # the mod-2 solve over the echelon built at alpha = 0 against a Smith
    # form solve of rows + 2I, on lattice points and points moved by one
    # unit vector, for every i and alpha in a box
    for n, r in ((2, 2), (3, 2), (4, 1)):
        basis = hall_basis(n, 3)
        m3 = len(basis.by_weight[2])
        rng = random.Random(n)
        for i in range(1, n + 1):
            echelon = autos._witness_echelon(basis, i)
            parity = [autos._parity_mask(row) for row in step3_rows(basis, i, [0] * n)]
            for a in product(range(-r, r + 1), repeat=n):
                rows = step3_rows(basis, i, list(a))
                assert [autos._parity_mask(row) for row in rows] == parity
                doubled = [[2 * (j == c) for j in range(m3)] for c in range(m3)]
                for shift in (False, True):
                    coeffs = [rng.randint(-2, 2) for _ in rows + doubled]
                    vec = [sum(c * row[j] for c, row in zip(coeffs, rows + doubled))
                           for j in range(m3)]
                    if shift:
                        vec[rng.randrange(m3)] += 1
                    sol = autos._solve_mod2(echelon, rows.__getitem__, vec)
                    found = lattice_solve(rows + doubled, vec) is not None
                    assert (sol is not None) == found
                    assert found or shift
                    if sol is not None:
                        beta, delta = sol
                        assert beta >> len(rows) == 0
                        picked = [row for j, row in enumerate(rows) if beta >> j & 1]
                        assert [sum(row[j] for row in picked) + 2 * d
                                for j, d in enumerate(delta)] == vec


def test_warm_solve_conjugator_runs_no_smith_form(monkeypatch):
    basis = hall_basis(3, 3)
    # (witness exponents, i): witnesses of weight 1, 2 and 3
    cases = [
        ((1, 0, -1, 2, 0, 1) + (0,) * 8, 2),
        ((0, 0, 0, 1, -1, 2) + (0,) * 8, 3),
        ((0,) * 6 + (1, 0, -3) + (0,) * 5, 1),
    ]

    def run():
        for level, (exps, i) in enumerate(cases, start=1):
            g = _conjugate(basis.from_exponents(exps), i)
            for min_weight in (1, 2, 3):
                found = solve_conjugator(g, i, min_weight=min_weight)
                assert (found is not None) == (min_weight <= level)

    run()
    calls = []
    real = intlinalg.smith_normal_form

    def counting(a):
        calls.append(1)
        return real(a)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
    run()
    assert calls == []


def test_solve_conjugator_weight_bound_context(monkeypatch):
    basis = hall_basis(3, 3)
    g = _conjugate(basis.from_exponents((0, 0, 0, 1, 0, 0, 1) + (0,) * 7), 1)
    monkeypatch.setattr(autos, "weight", lambda q: 1)
    with pytest.raises(InternalError, match="violates the weight bound") as err:
        solve_conjugator(g, 1, min_weight=2)
    assert err.value.context == {"n": 3, "k": 3, "i": 1, "min_weight": 2}


# -- inverse ---------------------------------------------------------------------

def test_inverse_examples():
    basis = hall_basis(2, 2)
    assert inverse(identity_endo(basis)) == identity_endo(basis)
    m12 = make_generator(mu(1, 2), basis)
    assert compose(m12, inverse(m12)) == identity_endo(basis)
    with pytest.raises(NotAutomorphismError):
        inverse(make_endo(basis, ["x1 x1", "x2"]))


def test_inverse_round_trip_epa():
    rng = random.Random(33)
    for _ in range(60):
        n, k = rng.randint(2, 4), rng.randint(1, 3)
        basis = hall_basis(n, k)
        e = rand_epa(rng, basis)
        inv, factors = inverse_with_factors(e)
        assert compose(e, inv) == identity_endo(basis)
        assert compose(inv, e) == identity_endo(basis)
        assert len(factors) == k
        for f in factors:
            assert palindromic_witnesses(f) is not None


def test_inverse_missing_witness_context(monkeypatch):
    # a wrong palindromic linear lift leaves phi = e, and e's weight-1
    # defect has no weight-2 witness
    basis = hall_basis(2, 3)
    monkeypatch.setattr(autos, "_epa_linear_lift", lambda b, minv: identity_endo(b))
    with pytest.raises(InternalError, match="missing level-2 witness") as err:
        inverse_with_factors(make_generator(mu(1, 2), basis))
    assert err.value.context == {"n": 2, "k": 3, "i": 1, "level": 2}


def test_inverse_escaped_residue_context(monkeypatch):
    basis = hall_basis(2, 3)
    monkeypatch.setattr(autos, "_ordered_linear_lift", lambda b, minv: identity_endo(b))
    with pytest.raises(InternalError, match="residue escaped weight 2") as err:
        inverse_with_factors(make_endo(basis, ["x1 x2", "x2"]))
    assert err.value.context == {"n": 2, "k": 3, "i": 1, "level": 2}


def test_inverse_nontermination_context(monkeypatch):
    # witnesses of weight >= 2 replaced by the identity leave phi = e
    real = autos.solve_conjugator

    def no_higher(g, i, min_weight=1):
        return real(g, i) if min_weight == 1 else g.basis.from_exponents(
            (0,) * len(g.basis.elements))

    monkeypatch.setattr(autos, "solve_conjugator", no_higher)
    basis = hall_basis(2, 3)
    with pytest.raises(InternalError, match="did not terminate") as err:
        inverse_with_factors(make_generator(phi2(2, 1, 1), basis))
    assert err.value.context == {"n": 2, "k": 3, "factors": 3}


def test_inverse_general_route():
    rng = random.Random(34)
    for _ in range(30):
        n, k = rng.randint(2, 3), rng.randint(1, 5)
        basis = hall_basis(n, k)
        e = identity_endo(basis)
        for _ in range(rng.randint(1, 4)):
            which = rng.random()
            if which < 0.4:
                e = compose(e, make_generator(t(rng.randint(1, n)), basis))
            elif which < 0.7:
                e = compose(e, make_generator(alpha(rng.randint(1, n - 1)), basis))
            else:
                i, j = rng.sample(range(1, n + 1), 2)
                e = compose(e, make_generator(mu(i, j), basis))
        inv = inverse(e)
        assert compose(e, inv) == identity_endo(basis)
        assert compose(inv, e) == identity_endo(basis)


# -- classify ---------------------------------------------------------------------

def test_classify_mu():
    basis = hall_basis(2, 2)
    flags = classify(make_generator(mu(1, 2), basis))
    assert flags.is_elementary_palindromic and flags.is_palindromic
    assert not flags.is_ia
    assert flags.pi_level == 1


def test_classify_searches_level_1_once(monkeypatch):
    # 3 level-1 witnesses, then one failed search each at levels 3 and 2;
    # the level-1 witnesses are not searched again
    basis = hall_basis(3, 3)
    e = make_generator(mu(1, 2), basis)
    calls = []
    real = autos.solve_conjugator

    def counting(g, i, min_weight=1):
        calls.append((i, min_weight))
        return real(g, i, min_weight)

    monkeypatch.setattr(autos, "solve_conjugator", counting)
    assert classify(e).pi_level == 1
    assert calls == [(1, 1), (2, 1), (3, 1), (1, 3), (1, 2)]


def test_classify_pi_element():
    basis = hall_basis(2, 3)
    e = make_endo(basis, ["x1 [x2,x1,x1]^2", "x2"])
    flags = classify(e)
    assert flags.is_elementary_palindromic and flags.is_ia
    assert flags.pi_level >= 2


def test_classify_palindromic_with_swap():
    basis = hall_basis(2, 2)
    e = compose(make_generator(alpha(1), basis), make_generator(mu(1, 2), basis))
    flags = classify(e)
    assert flags.is_palindromic and not flags.is_elementary_palindromic


def test_classify_negative_and_undecided():
    basis = hall_basis(2, 2)
    flags = classify(make_endo(basis, ["x1 x2", "x2"]))
    assert not flags.is_palindromic and not flags.is_elementary_palindromic
    b4 = hall_basis(2, 4)
    flags = classify(identity_endo(b4))
    assert flags.is_elementary_palindromic is None
    assert flags.is_ia and flags.is_central
    assert any("undecided" in note for note in flags.notes)


def test_classify_identity_levels():
    basis = hall_basis(2, 3)
    flags = classify(identity_endo(basis))
    assert flags.is_ia and flags.is_central
    assert flags.pi_level == 3


def test_classify_tries_one_signed_permutation(monkeypatch):
    # the abelianization is a 4-cycle mod 2; the parent searched all 16
    # signs of it, one palindromic_witnesses call each
    basis = hall_basis(4, 3)
    e = make_endo(basis, ["x2", "x3", "x4", "x1 [x2,x1]"])
    assert classify(e).is_palindromic is False  # warms the generator memo
    calls = []
    real = autos.palindromic_witnesses
    monkeypatch.setattr(autos, "palindromic_witnesses", lambda f: calls.append(f) or real(f))
    flags = classify(e)
    assert flags.is_palindromic is False and flags.is_elementary_palindromic is False
    assert len(calls) <= 2


def test_classify_palindromic_through_a_four_cycle():
    basis = hall_basis(4, 3)
    e = make_endo(basis, ["x2", "x3", "x4", "x1 x2^2 [x2,x1] [x2,x1,x2]"])
    flags = classify(e)
    assert flags.is_palindromic is True and flags.is_elementary_palindromic is False


def test_parity_without_witness_is_flagged():
    basis = hall_basis(2, 2)
    e = make_endo(basis, ["x1 [x2,x1]", "x2"])
    flags = classify(e)
    assert not flags.is_elementary_palindromic
    assert flags.notes  # parity holds, witness impossible


# -- central decomposition ---------------------------------------------------------

def test_decompose_central_examples():
    basis = hall_basis(2, 3)
    dec = decompose_central(identity_endo(basis))
    assert dec.residual_trivial and dec.factors == ()

    e = compose_symbols([phi2(2, 1, 1), phi3(2, 1, 2, 2)], basis)
    dec = decompose_central(e)
    assert dec.residual_trivial
    assert dec.compose(basis) == e

    odd = make_endo(basis, ["x1 [x2,x1,x1]", "x2"])
    dec = decompose_central(odd)
    assert not dec.residual_trivial
    assert dec.diagnostics


def test_decompose_central_round_trip_random():
    rng = random.Random(35)
    for _ in range(60):
        n = rng.randint(2, 3)
        basis = hall_basis(n, 3)
        syms = []
        for _ in range(rng.randint(0, 5)):
            a, b = rng.sample(range(1, n + 1), 2)
            if b > a:
                a, b = b, a
            if rng.random() < 0.5:
                syms.append(phi2(a, b, rng.randint(1, n), rng.randint(-2, 2)))
            else:
                syms.append(phi3(a, b, rng.randint(b, n), rng.randint(1, n),
                                 rng.randint(-2, 2)))
        e = compose_symbols(syms, basis)
        dec = decompose_central(e)
        assert dec.residual_trivial
        assert dec.compose(basis) == e


def test_recompose_failure_context(monkeypatch):
    basis = hall_basis(2, 3)
    e = compose_symbols([phi2(2, 1, 1), phi3(2, 1, 2, 2)], basis)
    monkeypatch.setattr(autos, "compose_symbols", lambda syms, b: identity_endo(b))
    with pytest.raises(InternalError, match="central decomposition failed") as err:
        decompose_central(e)
    assert err.value.context == {"n": 2, "k": 3, "factors": 2}
    # the inner-square generator is obstruction-free: two bglm factors
    inner_square = make_endo(basis, ["x1 [x2,x1,x1]^2", "x2 [x2,x1,x2]^2"])
    with pytest.raises(InternalError, match="^decomposition failed") as err:
        decompose_bglm(inner_square)
    assert err.value.context == {"n": 2, "k": 3, "factors": 2}


def test_decompose_central_requires_central():
    basis = hall_basis(2, 3)
    with pytest.raises(PreconditionError):
        decompose_central(make_generator(mu(1, 2), basis))


def test_quotient_rank():
    assert quotient_rank_q(2) == 1
    assert quotient_rank_q(3) == 5
    assert quotient_rank_q(4) == 14
    with pytest.raises(ValueError):
        quotient_rank_q(1)


def test_quotient_rank_invariants_context(monkeypatch):
    monkeypatch.setattr(autos, "_central_parity", lambda basis, i: [])
    with pytest.raises(InternalError, match="disagree with q=1") as err:
        quotient_rank_q(2)
    assert err.value.context == {"n": 2, "k": 3}


def test_warm_quotient_rank_runs_no_smith_form(monkeypatch):
    # the invariants come from the cached GF(2) echelon, not a fresh Smith form
    quotient_rank_q(4)
    calls = []
    real = intlinalg.smith_normal_form
    monkeypatch.setattr(intlinalg, "smith_normal_form", lambda a: calls.append(1) or real(a))
    assert quotient_rank_q(4) == 14
    assert calls == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_phi2_rows_mod_2_have_rank_m3_minus_q(n):
    # the lattice has index 2^q over 2Z^m3, so the phi2 rows span a
    # GF(2) space of dimension m3 - q
    basis = hall_basis(n, 3)
    m3 = len(basis.by_weight[2])
    q = quotient_rank_q(n)
    for i in range(1, n + 1):
        rows, labels = autos._central_rows(basis, i)
        phi2_rows = [row for row, label in zip(rows, labels) if label[0] == "phi2"]
        assert gf2_rank(phi2_rows) == m3 - q
        echelon = autos._central_parity(basis, i)
        assert len(echelon) == m3 - q
        # each echelon row is the parity of the sum of the rows it records
        for mask, combo in echelon:
            picked = [row for j, row in enumerate(rows) if combo >> j & 1]
            assert autos._parity_mask([sum(col) for col in zip(*picked)]) == mask


# -- tameness -----------------------------------------------------------------------

def test_tameness_phi2_classification():
    for n in (2, 3, 4):
        basis = hall_basis(n, 3)
        for a, b in permutations(range(1, n + 1), 2):
            for i in range(1, n + 1):
                e = make_generator(phi2(a, b, i), basis)
                assert tameness_necessary(e) == (i not in (a, b))


def test_tameness_phi3_classification():
    for n in (2, 3, 4):
        basis = hall_basis(n, 3)
        for a, b in permutations(range(1, n + 1), 2):
            for c in range(1, n + 1):
                for i in range(1, n + 1):
                    e = make_generator(phi3(a, b, c, i), basis)
                    want = i not in (a, b, c) or (c == i and i not in (a, b))
                    assert tameness_necessary(e) == want


def test_tameness_residue_values():
    basis = hall_basis(3, 3)
    r = tameness_residue(make_generator(phi2(1, 2, 1), basis))  # a == i
    assert r.pair(1, 2) == 2 and r.pair(2, 2) == 1
    r = tameness_residue(make_generator(phi2(2, 1, 1), basis))  # b == i
    assert r.pair(1, 2) == -2 and r.pair(2, 2) == -1


def test_tameness_requires_central():
    basis = hall_basis(2, 3)
    with pytest.raises(PreconditionError):
        tameness_necessary(make_generator(mu(1, 2), basis))


def test_tame_factorizations():
    b33 = hall_basis(3, 3)
    assert verify_tame_factorization("identity", b33)
    assert verify_tame_factorization("phi2", b33)
    assert verify_tame_factorization("phi3", b33)
    b43 = hall_basis(4, 3)
    for idx in permutations(range(1, 5), 3):
        assert verify_tame_factorization("phi2", b43, idx)
        assert verify_tame_factorization("phi3", b43, idx)


# -- obstruction-free decomposition ---------------------------------------------------

def test_decompose_bglm_n2():
    basis = hall_basis(2, 3)
    gen = compose_symbols([phi3(2, 1, 1, 1), phi3(2, 1, 2, 2)], basis)
    conj = make_generator(
        inner(power(collect(parse_word("[x1,x2]", 2), basis), 2)), basis
    )
    assert gen == conj
    for m in (-2, -1, 0, 1, 2, 3):
        e = endo_power(gen, m)
        dec = decompose_bglm(e)
        assert dec.residual_trivial
        assert dec.compose(basis) == e


def test_decompose_bglm_n3_round_trip():
    rng = random.Random(36)
    basis = hall_basis(3, 3)
    for _ in range(40):
        syms = []
        for _ in range(rng.randint(0, 6)):
            fam = rng.randrange(4)
            trio = rng.sample(range(1, 4), 3)
            m = rng.randint(-2, 2)
            if fam == 0:
                syms.append(phi2(trio[0], trio[1], trio[2], m))
            elif fam == 1:
                syms.append(phi3(trio[0], trio[1], trio[2], trio[2], m))
            elif fam == 2:
                syms.extend([psi(trio[0], trio[1], m), psi(trio[0], trio[2], -m)])
            else:
                k_, u, v = trio
                syms.extend([phi3(k_, u, v, k_, m), phi3(v, u, u, u, m)])
        e = compose_symbols(syms, basis)
        dec = decompose_bglm(e)
        assert dec.residual_trivial
        assert dec.compose(basis) == e


def test_decompose_bglm_rejects_obstructed():
    basis = hall_basis(2, 3)
    e = make_generator(phi2(2, 1, 1), basis)  # b == i: obstruction nonzero
    with pytest.raises(PreconditionError):
        decompose_bglm(e)


@pytest.mark.parametrize("n,texts,message", [
    (2, ["x1 [x2,x1,x1]", "x2 [x2,x1,x2]"],
     "not central palindromic: x1: class 1: residue 1 mod 2; x2: class 1: residue 1 mod 2"),
    (3, ["x1 [x2,x1,x1]", "x2 [x2,x1,x2]", "x3"],
     "not central palindromic: x1: class 5: residue 1 mod 2; x2: class 3: residue 1 mod 2"),
])
def test_decompose_bglm_rejects_non_palindromic(monkeypatch, n, texts, message):
    # obstruction-free but outside the palindromic lattice: the message
    # carries the same diagnostics as decompose_central
    basis = hall_basis(n, 3)
    e = make_endo(basis, texts)
    assert tameness_residue(e).is_zero()
    central = decompose_central(e)
    assert not central.residual_trivial
    assert message == "not central palindromic: " + "; ".join(central.diagnostics)

    def no_central(e):
        raise AssertionError("decompose_bglm needs no central decomposition")

    monkeypatch.setattr(autos, "decompose_central", no_central)
    with pytest.raises(PreconditionError) as err:
        decompose_bglm(e)
    assert str(err.value) == message


@pytest.mark.parametrize("n", [2, 3])
def test_central_lattice_membership_matches_lattice_solve(n):
    basis = hall_basis(n, 3)
    m3 = len(basis.by_weight[2])
    rng = random.Random(n)
    for i in range(1, n + 1):
        rows, _ = autos._central_rows(basis, i)
        for trial in range(40):
            # lattice points, and lattice points moved by one unit vector
            coeffs = [rng.randint(-2, 2) for _ in rows]
            vec = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(m3)]
            if trial % 2:
                vec[rng.randrange(m3)] += 1
            inside = lattice_solve(rows, vec) is not None
            assert inside or trial % 2
            assert autos._in_central_lattice(basis, i, vec) == inside


# -- files ------------------------------------------------------------------------------

def test_endo_file_round_trip():
    basis = hall_basis(2, 3)
    text = "# comment\nx1 -> x2 x1 x2\nx2 -> x2\n"
    e = parse_endo_file(text, basis)
    assert e == make_generator(mu(1, 2), basis)
    again = parse_endo_file(render_endo(e), basis)
    assert again == e


def test_endo_file_defaults_and_errors():
    basis = hall_basis(2, 2)
    assert parse_endo_file("", basis) == identity_endo(basis)
    with pytest.raises(ValueError):
        parse_endo_file("x1 -> x1\nx1 -> x2", basis)
    with pytest.raises(ValueError):
        parse_endo_file("x9 -> x1", basis)
    with pytest.raises(ValueError):
        parse_endo_file("x1 = x1", basis)


# -- further structural properties --------------------------------------------

def test_abelian_rigidity_pointwise_witnesses():
    # on the abelian quotient every parity-compatible diagonal map has
    # pointwise witnesses; the solver must find them
    basis = hall_basis(3, 1)
    e = make_endo(basis, [invert(basis.generator(1)), invert(basis.generator(2)),
                          basis.generator(3)])
    flags = classify(e)
    assert flags.is_elementary_palindromic
    assert solve_conjugator(e.images[0], 1) == invert(basis.generator(1))


def test_even_step4_bounded_witness_search():
    # reduced-scale brute force at step 4: no witness with zero
    # abelianization produces a nontrivial central defect (witnesses with
    # nonzero abelianization cannot, since the value's weight-1 part moves)
    basis = hall_basis(2, 4)
    nelem = len(basis.elements)
    from itertools import product as iproduct

    hits = []
    for i in (1, 2):
        xi = basis.generator(i)
        for tail in iproduct((-1, 0, 1), repeat=nelem - 2):
            q = basis.from_exponents((0, 0) + tail)
            g = multiply(multiply(bar(q), xi), q)
            defect = multiply(invert(xi), g)
            if not defect.is_identity() and weight(defect) >= 4:
                hits.append((i, tail))
    assert hits == []


def test_lemma41_restated():
    # triviality of w x1 bar(w) x1^-1 modulo the weight-3 layer forces a
    # trivial abelianization for w
    rng = random.Random(40)
    basis = hall_basis(2, 3)
    for _ in range(150):
        w = collect(rand_word(rng, 2, 8), basis)
        value = multiply(multiply(multiply(w, basis.generator(1)), bar(w)),
                         invert(basis.generator(1)))
        trivial_mod_gamma3 = value.is_identity() or weight(value) >= 3
        if trivial_mod_gamma3:
            assert w.abelianization() == (0, 0)
        if w.abelianization() != (0, 0):
            assert not trivial_mod_gamma3


def test_mismatched_bases_raise():
    b2 = hall_basis(2, 2)
    b3 = hall_basis(2, 3)
    with pytest.raises(ValueError):
        multiply(b2.generator(1), b3.generator(1))
    with pytest.raises(ValueError):
        compose(identity_endo(b2), identity_endo(b3))
    with pytest.raises(ValueError):
        identity_endo(b2).apply(b3.generator(1))


def test_tameness_residue_lift_independent():
    basis = hall_basis(3, 3)
    e = make_generator(phi2(1, 2, 1), basis)
    defect = multiply(invert(basis.generator(1)), e.images[0])
    lift = element_as_word(defect)
    # a different free preimage: pad with a weight-4 commutator word
    pad = parse_word("[[x2,x1,x1],x1]", 3)
    from nilpal.foxring import bglm_residue
    one = parse_word("1", 3)
    assert bglm_residue([lift, one, one]) == bglm_residue([lift * pad, one, one])


def _all_ones(basis):
    """The product of every weight-3 basis element."""
    m3 = len(basis.by_weight[2])
    return basis.from_exponents((0,) * basis.weight_offset[2] + (1,) * m3)


def test_tameness_residue_compares_both_lifts(monkeypatch):
    # a derivative that tells the basis-order and reversed lifts of the
    # all-ones defect apart fails the build-time check of the Fox table
    basis = HallBasis(3, 3)  # not the cached basis, so the table is built here
    ones = _all_ones(basis)
    forward = element_as_word(ones)
    backward = element_as_word(ones, reverse=True)
    assert forward != backward and collect(forward, basis) == collect(backward, basis)
    real = autos.fox_derivative
    seen = []

    def skewed(w, j):
        seen.append(w)
        d = real(w, j)
        return d + mul(ring_delta(1, 3), ring_delta(2, 3)) if w == backward else d

    monkeypatch.setattr(autos, "fox_derivative", skewed)
    with pytest.raises(InternalError, match="depends on the free lift") as err:
        tameness_residue(make_generator(phi2(1, 2, 3), basis))
    assert err.value.context == {"n": 3, "k": 3, "i": 1}
    assert forward in seen and backward in seen
    assert ("fox_table",) not in basis.memo


def test_fox_table_rejects_constant_or_linear_parts(monkeypatch):
    basis = HallBasis(3, 3)
    j = 2
    word = basis.by_weight[2][j].as_word(3)
    real = autos.fox_derivative

    def shifted(w, i):
        d = real(w, i)
        return d + ring_delta(1, 3) if (w, i) == (word, 2) else d

    monkeypatch.setattr(autos, "fox_derivative", shifted)
    with pytest.raises(InternalError, match="constant or linear part") as err:
        tameness_residue(identity_endo(basis))
    assert err.value.context == {"n": 3, "k": 3, "i": 2,
                                 "coordinate": basis.weight_offset[2] + j}
    assert ("fox_table",) not in basis.memo


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fox_table_matches_closed_forms(n):
    # every entry whose basis element contains x_i is a row of the
    # derivative table of `foxring`; the others are zero
    basis = hall_basis(n, 3)
    table = autos._fox_table(basis)
    index = {c.render(): j for j, c in enumerate(basis.by_weight[2])}
    checked = set()
    for name, letters, pattern, expected in _TABLE_ROWS:
        for assign in permutations(range(1, n + 1), len(letters)):
            env = dict(zip(letters, assign))
            j = index.get("[" + ",".join(f"x{env[s]}" for s in pattern) + "]")
            if j is None:  # not a basis element
                continue
            i = env["i"]
            want = ring_zero(n)
            if expected is not None:
                sign, u, v = expected
                want = mul(ring_delta(env[u], n), ring_delta(env[v], n))
                if sign < 0:
                    want = -want
            got = [[0] * n for _ in range(n)]
            for r, c, v in table[i - 1][j]:
                got[r][c] = v
            assert tuple(map(tuple, got)) == want.quad, (name, env)
            checked.add((i, j))
    for i in range(1, n + 1):
        for j, c in enumerate(basis.by_weight[2]):
            if (i, j) not in checked:
                assert i not in (c.left.left.gen, c.left.right.gen, c.right.gen)
                assert table[i - 1][j] == []


def test_tameness_residue_rank_one():
    basis = hall_basis(1, 3)
    e = identity_endo(basis)
    assert tameness_residue(e) == word_tameness_residue(e) == ring_zero(1)


def test_decompose_bglm_computes_defects_once(monkeypatch):
    basis = hall_basis(3, 3)
    e = compose_symbols([phi2(2, 1, 3), phi3(3, 1, 2, 2)], basis)
    calls = []
    real = autos._weight3_defects

    def counting(e):
        calls.append(1)
        return real(e)

    monkeypatch.setattr(autos, "_weight3_defects", counting)
    assert decompose_bglm(e).residual_trivial
    assert len(calls) == 1


def test_warm_decompositions_run_no_smith_form(monkeypatch):
    basis = hall_basis(3, 3)
    central = compose_symbols([phi2(2, 1, 3, 2), phi3(3, 1, 2, 1, -1)], basis)
    tame = compose_symbols([phi2(2, 1, 3), phi3(3, 1, 2, 2)], basis)
    outside = make_endo(basis, ["x1 [x2,x1,x1]", "x2 [x2,x1,x2]", "x3"])
    message = "not central palindromic: x1: class 5: residue 1 mod 2; x2: class 3: residue 1 mod 2"

    def run():
        assert decompose_central(central).compose(basis) == central
        assert decompose_bglm(tame).compose(basis) == tame
        assert not decompose_central(outside).residual_trivial
        with pytest.raises(PreconditionError) as err:
            decompose_bglm(outside)
        assert str(err.value) == message

    run()
    calls = []
    real = intlinalg.smith_normal_form

    def counting(a):
        calls.append(1)
        return real(a)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
    run()
    assert calls == []


def test_cached_lattice_solve_matches_lattice_solve():
    rng = random.Random(7)
    lattices = []
    for n in (2, 3):
        basis = hall_basis(n, 3)
        for i in range(1, n + 1):
            rows, _, smith = autos._central_lattice(basis, i)
            lattices.append((rows, smith))
        fams, smith = autos._bglm_lattice(basis)
        lattices.append(([row for _, row, _ in fams], smith))
    for rows, factors in lattices:
        dim = len(rows[0])
        for trial in range(40):
            # lattice points, and lattice points moved by one unit vector
            coeffs = [rng.randint(-2, 2) for _ in rows]
            vec = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(dim)]
            if trial % 2:
                vec[rng.randrange(dim)] += 1
            assert solve_from_smith(factors, vec) == lattice_solve(rows, vec)


def test_doubled_central_normal_instance_is_palindromic():
    # x_i -> x_i [x_i, x_1, x_1]^2 simultaneously for every i
    for n in (2, 3):
        basis = hall_basis(n, 3)
        images = []
        for i in range(1, n + 1):
            xi = basis.generator(i)
            if i == 1:
                images.append(xi)
            else:
                from nilpal.nilpotent import left_normed

                c = left_normed([xi, basis.generator(1), basis.generator(1)])
                images.append(multiply(xi, power(c, 2)))
        flags = classify(Endo(basis, images))
        assert flags.is_elementary_palindromic
        assert flags.is_ia and flags.is_central
