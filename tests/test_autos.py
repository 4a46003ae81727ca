import random
from itertools import permutations, product
from pathlib import Path

import pytest
from oracles import (
    bglm_kernel_hermite,
    epa_inverse_by_witnesses,
    gf2_rank,
    hand_bglm_lattice,
    hand_central_lattice,
    hermite_form,
    product_step3_rows,
    series_conjugate,
    word_tameness_residue,
)

from nilpal import autos, intlinalg, nilpotent
from nilpal.autos import (
    Decomposition,
    Endo,
    GeneratorSymbol,
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
from nilpal.intlinalg import lattice_solve
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

GOLDEN_FIXTURES = Path(__file__).parent / "golden" / "fixtures"


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


def central_symbols(n, exponent):
    return [sym for sym in all_symbols(n, exponent) if sym.tag in ("phi2", "phi3", "psi")]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_central_generator_powers_scale_the_defect(monkeypatch, n):
    # at step 3 the defect of phi2/phi3/psi is central and fixed, so a power,
    # the inverse included, is one element power; it must agree with
    # composing by `endo_power`
    basis = hall_basis(n, 3)
    for m in (2, -2, 3, -3, 4, -1):
        want = [endo_power(make_generator(sym, basis), m) for sym in central_symbols(n, 1)]
        calls = []
        real = autos.compose
        monkeypatch.setattr(autos, "compose", lambda e1, e2: calls.append(1) or real(e1, e2))
        got = [make_generator(sym, basis) for sym in central_symbols(n, m)]
        monkeypatch.undo()
        assert calls == []
        assert got == want, m


def test_step4_central_generator_powers_compose(monkeypatch):
    # above step 3 the defect is not central: powers are composed
    basis = hall_basis(2, 4)
    for sym in (phi2(2, 1, 1), phi3(2, 1, 2, 1), psi(1, 2)):
        g = make_generator(sym, basis)
        calls = []
        real = autos.compose
        monkeypatch.setattr(autos, "compose", lambda e1, e2: calls.append(1) or real(e1, e2))
        got = make_generator(autos.GeneratorSymbol(sym.tag, sym.params, 2), basis)
        monkeypatch.undo()
        assert calls == [1]
        assert got == compose(g, g)


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
    # mu(1, 2) and mu(2, 1) are inverted once each; the top-central phi2 is
    # inverted by negating its defect, with no inverse_with_factors
    assert len(calls) == 2
    assert compose_symbols(syms, basis) == e
    assert len(calls) == 2
    assert ("generator_inverse", "phi2", (2, 1, 3)) not in basis.memo


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
    # nor does compose_symbols keep an inner symbol's blocks
    compose_symbols([inner(x), phi2(2, 1, 3), inner(x, -1)], basis)
    assert ("top_entries", "phi2", (2, 1, 3)) in basis.memo
    assert not any(key[1:2] == ("inner",) for key in basis.memo)


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
    assert make_generator(mu(1, 2, -1), basis).lifts.factors
    assert inv._basis_images == {}


def test_each_commutator_triple_is_built_once_per_basis(monkeypatch):
    # every phi2, psi and phi3 symbol on ordered pairs a != b at rank 3:
    # 6 * 3 = 18 distinct triples [x_a, x_b, x_c] among their defects
    basis = nilpotent.HallBasis(3, 3)
    builds = []
    real = autos.left_normed

    def counting(elements):
        builds.append(1)
        return real(elements)

    monkeypatch.setattr(autos, "left_normed", counting)
    for a, b in permutations(range(1, 4), 2):
        for c in range(1, 4):
            make_generator(phi2(a, b, c), basis)
            make_generator(psi(a, b), basis)
            for i in range(1, 4):
                make_generator(phi3(a, b, c, i), basis)
    assert len(builds) == 18
    assert len([key for key in basis.memo if key[0] == "comm3"]) == 18


def test_per_basis_values_are_built_once_under_their_keys(monkeypatch):
    basis = nilpotent.HallBasis(3, 3)
    builds = []
    for name in ("_base_generator", "inverse", "left_normed", "_palindromic_image",
                 "fox_derivative", "_bglm_families"):
        def counting(*args, real=getattr(autos, name), name=name):
            builds.append(name)
            return real(*args)

        monkeypatch.setattr(autos, name, counting)
    reads = [(("identity",), lambda: identity_endo(basis)),
             (("comm3", 2, 1, 3), lambda: autos._comm3(basis, 2, 1, 3)),
             (("generator", "mu", (1, 2)), lambda: make_generator(mu(1, 2), basis)),
             (("generator_inverse", "mu", (1, 2)), lambda: make_generator(mu(1, 2, -1), basis)),
             (("top_entries", "phi2", (2, 1, 3)),
              lambda: autos._top_entries(basis, phi2(2, 1, 3))),
             (("witness_lattice", 2), lambda: autos._witness_lattice(basis, 2)),
             (("central_lattice", 2), lambda: autos._central_lattice(basis, 2)),
             (("fox_table",), lambda: autos._fox_table(basis)),
             (("bglm_lattice",), lambda: autos._bglm_lattice(basis))]
    for key, read in reads:
        value = read()
        assert basis.memo[key] is value
        cold = list(builds)
        assert all(read() is value for _ in range(3)), key
        assert builds == cold, key
    assert builds.count("inverse") == builds.count("_bglm_families") == 1


def test_a_kept_none_is_read_without_a_rebuild(monkeypatch):
    # mu(1,2) is not top-central: its top entries are None, kept as such;
    # an inner symbol is never kept
    basis = nilpotent.HallBasis(3, 3)
    assert autos._top_entries(basis, mu(1, 2)) is None
    assert basis.memo[("top_entries", "mu", (1, 2))] is None
    calls = []
    monkeypatch.setattr(autos, "_forward_generator", lambda *args: calls.append(args))
    assert autos._top_entries(basis, mu(1, 2)) is None
    assert autos._top_entries(basis, inner(basis.generator(1))) is None
    assert calls == []
    assert not any(key[1:2] == ("inner",) for key in basis.memo)


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


def _conjugate(q, i):
    return multiply(multiply(bar(q), q.basis.generator(i)), q)


def test_step3_rows_match_products():
    # the witness-lattice rows, built once at alpha = 0, against the direct
    # group-product construction; for every i and every alpha in a box the
    # product rows at alpha keep the parity of those at alpha = 0, which is
    # why one echelon serves every alpha
    for n, r in ((2, 2), (3, 2), (4, 1)):
        basis = hall_basis(n, 3)
        for i in range(1, n + 1):
            rows = product_step3_rows(basis, i, (0,) * n)
            assert autos._witness_lattice(basis, i) == autos._mod2_echelon(rows)
            parity = [autos._parity_mask(row) for row in rows]
            for a in product(range(-r, r + 1), repeat=n):
                moved = product_step3_rows(basis, i, a)
                assert [autos._parity_mask(row) for row in moved] == parity
    # rank 1: no weight-2 elements, so the rows and the echelon are empty
    basis = hall_basis(1, 3)
    assert autos._witness_lattice(basis, 1) == []
    for a in range(-2, 3):
        assert product_step3_rows(basis, 1, (a,)) == []


def test_witness_mod2_solve_matches_lattice_solve():
    # the mod-2 reduction over the echelon built at alpha = 0 against a
    # Smith form solve of rows + 2I, on lattice points and points moved by
    # one unit vector, for every i and alpha in a box
    for n, r in ((2, 2), (3, 2), (4, 1)):
        basis = hall_basis(n, 3)
        m3 = len(basis.by_weight[2])
        doubled = [[2 * (j == c) for j in range(m3)] for c in range(m3)]
        rng = random.Random(n)
        for i in range(1, n + 1):
            echelon = autos._witness_lattice(basis, i)
            assert echelon == autos._mod2_echelon(product_step3_rows(basis, i, (0,) * n))
            for a in product(range(-r, r + 1), repeat=n):
                rows = product_step3_rows(basis, i, a)
                for shift in (False, True):
                    coeffs = [rng.randint(-2, 2) for _ in rows + doubled]
                    vec = [sum(c * row[j] for c, row in zip(coeffs, rows + doubled))
                           for j in range(m3)]
                    if shift:
                        vec[rng.randrange(m3)] += 1
                    rest, beta = autos._reduce_mod2(echelon, autos._parity_mask(vec))
                    found = lattice_solve(rows + doubled, vec) is not None
                    assert (rest == 0) == found
                    assert found or shift
                    if found:
                        assert beta >> len(rows) == 0
                        picked = [row for j, row in enumerate(rows) if beta >> j & 1]
                        delta = [v - sum(row[j] for row in picked) for j, v in enumerate(vec)]
                        assert all(d % 2 == 0 for d in delta)


def test_solve_conjugator_decides_the_step3_lattice():
    # g is f0 = bar(x^alpha) x_i x^alpha with its weight-3 block moved by an
    # integer combination of the rows built by group products and 2I, and
    # by one unit vector more: the solve returns None exactly when
    # lattice_solve finds no solution, and every witness reproduces g
    # under the series oracles, for every i and alpha in a box
    for n, r in ((2, 2), (3, 2), (4, 1)):
        basis = hall_basis(n, 3)
        start3, m3 = basis.weight_offset[2], len(basis.by_weight[2])
        doubled = [[2 * (j == c) for j in range(m3)] for c in range(m3)]
        rng = random.Random(n)
        for i in range(1, n + 1):
            assert autos._witness_lattice(basis, i) == autos._mod2_echelon(
                product_step3_rows(basis, i, (0,) * n))
            for a in product(range(-r, r + 1), repeat=n):
                rows = product_step3_rows(basis, i, a)
                q1 = basis.from_exponents(a + (0,) * (len(basis.elements) - n))
                f0 = _conjugate(q1, i).exponents
                for shift in (False, True):
                    coeffs = [rng.randint(-2, 2) for _ in rows + doubled]
                    move = [sum(c * row[j] for c, row in zip(coeffs, rows + doubled))
                            for j in range(m3)]
                    if shift:
                        move[rng.randrange(m3)] += 1
                    g = basis.from_exponents(
                        f0[:start3] + tuple(v + w for v, w in zip(f0[start3:], move)))
                    found = solve_conjugator(g, i)
                    assert (found is None) == (lattice_solve(rows + doubled, move) is None)
                    assert found is not None or shift
                    if found is not None:
                        assert series_conjugate(found, i) == g
    # rank 1: no weight-2 elements, so the rows and the echelon are empty
    basis = hall_basis(1, 3)
    assert autos._witness_lattice(basis, 1) == autos._mod2_echelon(
        product_step3_rows(basis, 1, (0,))) == []


def _count_law_calls(monkeypatch, basis, names):
    """Record each call of the named `basis.law` operations."""
    calls = []
    for name in names:
        real = getattr(basis.law, name)
        monkeypatch.setattr(basis.law, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    return calls


def test_solve_conjugator_multiply_count(monkeypatch):
    # after warm-up a step-3 call builds no rows from group products: one
    # law.mul pair for f0 and one for the image of (alpha, beta, 0)
    basis = hall_basis(3, 3)
    q = basis.from_exponents((1, 0, -1, 2, 0, 1) + (0,) * 7 + (1,))
    g = _conjugate(q, 2)
    assert solve_conjugator(g, 2) is not None
    calls = _count_law_calls(monkeypatch, basis, ("mul",))
    found = solve_conjugator(g, 2, min_weight=1)
    assert found is not None and len(calls) <= 4


def test_prop33_reject_makes_no_law_calls(monkeypatch):
    # at alpha = 0, f0 is x_i: the Prop 3.3 reject is a parity test and a
    # look at the weight-2 block
    basis = hall_basis(4, 2)
    cases = [(i, multiply(basis.generator(i), basis.from_exponents((0,) * 4 + c)))
             for i in (1, 4) for c in ((1, 0, 0, 0, 0, -2), (0, 3, 0, 0, 1, 0))]
    calls = _count_law_calls(monkeypatch, basis, ("mul", "bar", "inv"))
    for i, g in cases:
        assert solve_conjugator(g, i, min_weight=2) is None
    assert calls == []


def _refuse(monkeypatch, target, names):
    """Make each named attribute of `target` raise when called."""
    def refused(*args, **kwargs):
        raise AssertionError("called on a reject path")

    for name in names:
        monkeypatch.setattr(target, name, refused)


@pytest.mark.parametrize("n,k", [(4, 2), (3, 3)])
def test_witness_rejects_read_only_the_exponents(monkeypatch, n, k):
    # one case per early exit of solve_conjugator, with d = ab(g) - e_i:
    # an odd entry of d; an even d != 0 at min_weight 2; and d = 0 with a
    # nonzero weight-2 block.  No law op, witness lattice, palindromic
    # image or letter vector is reached.
    basis = hall_basis(n, k)
    m = len(basis.elements)
    i = 2

    def element(linear, w2=()):
        exps = [0] * m
        exps[:n] = linear
        exps[n:n + len(w2)] = w2
        return basis.from_exponents(exps)

    unit = [int(j == i) for j in range(1, n + 1)]
    cases = [
        (element([1] + unit[1:], (1, -2)), 1),
        (element([1] + unit[1:], (1, -2)), 2),
        (element([-2] + unit[1:]), 2),
        (element(unit, (0, 3)), 1),
        (element(unit, (0, 3)), 2),
    ]
    _refuse(monkeypatch, basis.law, ("mul", "bar", "inv", "pow", "comm"))
    _refuse(monkeypatch, autos, ("_witness_lattice", "_palindromic_image"))

    def no_letter_vectors(self):
        raise AssertionError("letter vectors read on a reject path")

    # a data descriptor on the class wins over the value cached on the basis
    monkeypatch.setattr(HallBasis, "_letter_vectors", property(no_letter_vectors))
    for g, min_weight in cases:
        assert solve_conjugator(g, i, min_weight=min_weight) is None


def test_solve_conjugator_verification_failure_context(monkeypatch):
    basis = hall_basis(3, 3)
    g = _conjugate(basis.from_exponents((1, 0, -1, 2, 0, 1) + (0,) * 8), 2)
    assert solve_conjugator(g, 2) is not None  # builds the echelon unpatched
    real = autos._reduce_mod2

    def wrong(echelon, mask, combo=0):
        # flipping beta_1 moves the value by the first row, which is odd
        rest, beta = real(echelon, mask, combo)
        return rest, beta ^ 1

    monkeypatch.setattr(autos, "_reduce_mod2", wrong)
    with pytest.raises(InternalError, match="witness verification failed") as err:
        solve_conjugator(g, 2)
    assert err.value.context == {"n": 3, "k": 3, "i": 2, "min_weight": 1}


def test_solve_conjugator_checks_the_blocks_below_weight_3(monkeypatch):
    # the image of (alpha, beta, 0) moved in its weight-2 block: its top
    # block still gives an even residual, so only the lower blocks differ
    basis = hall_basis(3, 3)
    g = _conjugate(basis.from_exponents((1, 0, -1, 2, 0, 1) + (0,) * 8), 2)
    assert solve_conjugator(g, 2) is not None
    real = autos._palindromic_image

    def wrong(basis, i, q):
        image = list(real(basis, i, q))
        image[basis.n] += any(q[basis.weight_slices[1]])
        return tuple(image)

    monkeypatch.setattr(autos, "_palindromic_image", wrong)
    with pytest.raises(InternalError, match="witness verification failed") as err:
        solve_conjugator(g, 2)
    assert err.value.context == {"n": 3, "k": 3, "i": 2, "min_weight": 1}


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


def _count_solves(monkeypatch):
    """Record (i, min_weight) of each `solve_conjugator` call, and fail on
    any `palindromic_witnesses` call."""
    calls = []
    real = autos.solve_conjugator

    def counting(g, i, min_weight=1):
        calls.append((i, min_weight))
        return real(g, i, min_weight)

    def refused(e):
        raise AssertionError("palindromic_witnesses called")

    monkeypatch.setattr(autos, "solve_conjugator", counting)
    monkeypatch.setattr(autos, "palindromic_witnesses", refused)
    return calls


def test_inverse_of_epa_solves_no_witness(monkeypatch):
    # phi = e psi_1 is IA and, e being EPA, top-central, so the level-2
    # factor is phi^-1.  No witness is solved, no palindromicity test is
    # run, no Smith form is taken, and the factors are those of the
    # witness route
    basis = hall_basis(3, 3)
    e = compose_symbols([mu(1, 2), phi2(2, 1, 3), mu(3, 1, -1), phi3(3, 2, 1, 2)], basis)
    want = epa_inverse_by_witnesses(e)
    calls = _count_solves(monkeypatch)
    smith = []
    real = intlinalg.smith_normal_form
    monkeypatch.setattr(intlinalg, "smith_normal_form", lambda a: smith.append(1) or real(a))
    inv, factors = inverse_with_factors(e)
    assert (inv, factors) == want
    assert calls == [] and smith == []
    assert compose(e, inv) == identity_endo(basis)


def test_inverse_of_epa_skips_the_identity_level_3_factor(monkeypatch):
    # one compose, phi = e psi_1: the level-2 factor psi_2 = phi^-1, the
    # check that phi psi_2 is the identity and the inverse psi_1 psi_2 are
    # block sums.  The level-3 factor is the identity, and is neither
    # composed with phi nor folded into the inverse.
    basis = hall_basis(3, 3)
    e = compose_symbols([mu(1, 2), phi2(2, 1, 3), mu(3, 1, -1), phi3(3, 2, 1, 2)], basis)
    want = inverse_with_factors(e)
    calls = []
    real = autos.compose
    monkeypatch.setattr(autos, "compose", lambda e1, e2: calls.append(1) or real(e1, e2))
    inv, factors = inverse_with_factors(e)
    assert (inv, factors) == want
    assert len(calls) == 1
    assert len(factors) == 3 and factors[2] == identity_endo(basis)
    assert real(e, inv) == identity_endo(basis)
    assert inv == real(factors[0], factors[1])


@pytest.mark.parametrize("n", [2, 3])
def test_inverse_of_non_palindromic_ia_map(n):
    # parity holds but the weight-2 defect has no witness: the linear lift
    # is the identity, and the level-2 factor strips that defect by group
    # products
    text = (GOLDEN_FIXTURES / f"r{n}_ia_weight2.auto").read_text()
    basis = hall_basis(n, 3)
    e = autos.parse_endo_file(text, basis)
    assert palindromic_witnesses(e) is None
    inv, factors = inverse_with_factors(e)
    assert factors[0] == autos._ordered_linear_lift(basis, [list(r) for r in e.abel_matrix])
    assert len(factors) == 3
    assert compose(e, inv) == identity_endo(basis) == compose(inv, e)
    # the level-2 factor came from the defect route: it is not palindromic
    assert palindromic_witnesses(factors[1]) is None


def test_inverse_runs_one_elimination(monkeypatch):
    # the one Bareiss pass of inv_unimodular tells GL(n, Z) apart; no
    # determinant and no Smith form
    basis = hall_basis(2, 3)
    monkeypatch.setattr(autos, "det", None)
    m12 = make_generator(mu(1, 2), basis)
    assert compose(m12, inverse(m12)) == identity_endo(basis)
    for images in (["x1 x1", "x2"], ["x1 x2", "x1 x2"], ["x1^3", "x2"]):
        with pytest.raises(NotAutomorphismError,
                           match=r"^abelianization matrix is not in GL\(n, Z\)$"):
            inverse(make_endo(basis, images))


def test_inverse_escaped_residue_context(monkeypatch):
    basis = hall_basis(2, 3)
    monkeypatch.setattr(autos, "_ordered_linear_lift", lambda b, minv: identity_endo(b))
    with pytest.raises(InternalError, match="residue escaped weight 2") as err:
        inverse_with_factors(make_endo(basis, ["x1 x2", "x2"]))
    assert err.value.context == {"n": 2, "k": 3, "i": 1, "level": 2}


def test_inverse_nontermination_context(monkeypatch):
    # level factors that leave phi unchanged: e's weight-3 defect passes
    # every level's weight check and is never stripped.  (A weight-2 defect
    # left in place fails the level-3 check instead.)
    monkeypatch.setattr(autos, "_top_central_power", lambda phi, m: identity_endo(phi.basis))
    basis = hall_basis(2, 3)
    with pytest.raises(InternalError, match="did not terminate") as err:
        inverse_with_factors(make_endo(basis, ["x1 [x2,x1,x1]", "x2"]))
    assert err.value.context == {"n": 2, "k": 3, "factors": 3}


def test_inverse_stuck_level_factor_context(monkeypatch):
    # level factors x_i -> x_i D_i^-1 with D_i^-1 read as the identity leave
    # phi = e, whose weight-2 defect the level-3 check refuses
    monkeypatch.setattr(autos, "invert", lambda g: g.basis.one())
    basis = hall_basis(2, 3)
    with pytest.raises(InternalError, match="residue escaped weight 3") as err:
        inverse_with_factors(make_endo(basis, ["x1 [x2,x1]", "x2"]))
    assert err.value.context == {"n": 2, "k": 3, "i": 1, "level": 3}


def test_inverse_wrong_sign_level_2_factor_context(monkeypatch):
    # a level-2 factor x_i -> x_i D_i instead of x_i D_i^-1 leaves
    # x_i -> x_i D_i^2, which the final identity check refuses
    cases = [(2, [phi3(2, 1, 1, 1)]), (3, [mu(1, 2), phi2(2, 1, 3)])]
    maps = [compose_symbols(symbols, hall_basis(n, 3)) for n, symbols in cases]
    real = autos._top_central_power
    monkeypatch.setattr(autos, "_top_central_power", lambda phi, m: real(phi, -m))
    for (n, _), e in zip(cases, maps):
        with pytest.raises(InternalError, match="did not terminate") as err:
            inverse_with_factors(e)
        assert err.value.context == {"n": n, "k": 3, "factors": 3}


def test_inverse_missing_witness_context(monkeypatch):
    # a wrong palindromic linear lift leaves phi = e; e's weight-1 defect
    # has no weight-2 witness, and the level-2 strip refuses it
    basis = hall_basis(2, 3)
    monkeypatch.setattr(autos, "_epa_linear_lift", lambda b, minv: identity_endo(b))
    with pytest.raises(InternalError, match="residue escaped weight 2") as err:
        inverse_with_factors(make_generator(mu(1, 2), basis))
    assert err.value.context == {"n": 2, "k": 3, "i": 1, "level": 2}


def test_inverse_parity_guard_context(monkeypatch):
    # A is the identity mod 2, so A^-1 must be too; an inverse matrix that
    # is unimodular but swaps the generators mod 2 is refused before any
    # lift is built
    basis = hall_basis(2, 3)
    e = make_generator(mu(1, 2), basis)
    monkeypatch.setattr(autos, "inv_unimodular", lambda a: [[0, 1], [1, 0]])
    monkeypatch.setattr(autos, "_epa_linear_lift", None)
    with pytest.raises(InternalError, match="^inverse matrix lost the parity structure") as err:
        inverse_with_factors(e)
    assert err.value.context == {"n": 2, "k": 3}


def test_law_calls_of_the_inverse_and_classify(monkeypatch):
    # x1 -> x2 x1 x2 [x2,x3,x1] [x2,x3,x3] [x2,x3,x2], x2 -> x3 x2 x3,
    # x3 -> x3.  The inverse evaluates the law for psi_1 and phi = e psi_1
    # only: two rows of A^-1 other than e_i take a bar and two products
    # each, and phi takes 6 products and 8 commutators.  The level-2
    # factor, its check and the fold are block sums.  classify solves two
    # witnesses with alpha != 0 and re-images one with beta != 0, a bar and
    # two products each.  A compose or solve more would change the counts.
    basis = hall_basis(3, 3)
    e = parse_endo_file((GOLDEN_FIXTURES / "r3_mu_phi2.auto").read_text(), basis)
    want = inverse_with_factors(e), classify(e)  # builds the witness lattices
    calls = _count_law_calls(monkeypatch, basis, ("mul", "comm", "bar", "inv"))
    assert inverse_with_factors(e) == want[0]
    assert sorted(calls) == ["bar"] * 2 + ["comm"] * 8 + ["mul"] * 10
    calls.clear()
    assert classify(e) == want[1]
    assert sorted(calls) == ["bar"] * 3 + ["mul"] * 6


def test_inverse_certificate_rejects_an_odd_top_defect(monkeypatch):
    # An echelon that accepts every parity mask, the odd top defect of
    # x1 -> x1 [x2,x1,x1] among them, does not reach the inverse.
    basis = hall_basis(2, 3)
    e = parse_endo_file((GOLDEN_FIXTURES / "r2_odd.auto").read_text(), basis)
    want = inverse_with_factors(e)
    m3 = len(basis.by_weight[2])
    with monkeypatch.context() as patch:
        patch.setattr(autos, "_witness_lattice",
                      lambda b, i: [(1 << j, 0) for j in reversed(range(m3))])
        assert inverse_with_factors(e) == want
    assert compose(e, want[0]) == identity_endo(basis)
    # A level-2 factor built from a witness c^delta of that odd block, with
    # 2 delta in place of the block, leaves phi a nonidentity map at every
    # level, and the final check refuses it.
    monkeypatch.setattr(autos, "_top_central_power", lambda phi, m: autos._central_map(
        phi.basis, [[m * 2 * (v // 2) for v in block] for block in phi.top_defects()]))
    with pytest.raises(InternalError, match="did not terminate") as err:
        inverse_with_factors(e)
    assert err.value.context == {"n": 2, "k": 3, "factors": 3}


@pytest.mark.parametrize("name", sorted(
    p.stem for p in GOLDEN_FIXTURES.glob("*.auto") if p.stem != "r2_bad_index"))
def test_inverse_solves_no_witness_on_the_golden_fixtures(monkeypatch, name):
    # one route for every input: no palindromicity test, EPA or not
    basis = hall_basis(int(name[1]), 3)
    e = parse_endo_file((GOLDEN_FIXTURES / f"{name}.auto").read_text(), basis)
    calls = _count_solves(monkeypatch)
    try:
        inv, _ = inverse_with_factors(e)
    except NotAutomorphismError:
        assert name == "r2_notauto"
    else:
        assert compose(e, inv) == identity_endo(basis)
    assert calls == []


def _corrupt_bar(monkeypatch, basis, idx, change):
    """Make `basis.law.bar` add `change` to its value on basis element idx."""
    real, size = basis.law.bar, len(basis.elements)
    unit = tuple(int(c == idx) for c in range(size))

    def wrong(q):
        out = real(q)
        return tuple(v + d for v, d in zip(out, change)) if tuple(q) == unit else out

    monkeypatch.setattr(basis.law, "bar", wrong)


@pytest.mark.parametrize("n", [2, 3])
def test_witness_rows_are_checked_against_the_law(monkeypatch, n):
    # bar(z_1) on the law moved by z_1 in its weight-2 block: the first
    # step-3 solve at x_1 on a fresh memo finds that bar(z_1) x_1 z_1 loses
    # the head of x_1
    basis = hall_basis(n, 3)
    monkeypatch.setattr(basis, "memo", {})
    _corrupt_bar(monkeypatch, basis, n, [int(c == n) for c in range(len(basis.elements))])
    with pytest.raises(InternalError, match="witness row disagrees with the law") as err:
        solve_conjugator(basis.generator(1), 1)
    assert err.value.context == {"n": n, "k": 3, "i": 1, "coordinate": n}


@pytest.mark.parametrize("n", [2, 3])
def test_witness_lattice_checks_h_of_a_weight3_element(monkeypatch, n):
    # bar(c) = c^-1 on the first weight-3 c: bar(c) x_1 c is x_1, not
    # x_1 c^2, so the check of h(c) = c^2 fails at c
    basis = hall_basis(n, 3)
    monkeypatch.setattr(basis, "memo", {})
    c = basis.weight_offset[2]
    _corrupt_bar(monkeypatch, basis, c, [-2 * (j == c) for j in range(len(basis.elements))])
    with pytest.raises(InternalError, match="witness row disagrees with the law") as err:
        solve_conjugator(basis.generator(1), 1)
    assert err.value.context == {"n": n, "k": 3, "i": 1, "coordinate": c}


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
    # n level-1 witnesses give the pi-level at every level; no generator is
    # solved again
    basis = hall_basis(3, 3)
    calls = []
    real = autos.solve_conjugator

    def counting(g, i, min_weight=1):
        calls.append((i, min_weight))
        return real(g, i, min_weight)

    monkeypatch.setattr(autos, "solve_conjugator", counting)
    for symbols, level in (([mu(1, 2)], 1), ([phi2(2, 3, 1)], 2),
                           ([phi3(2, 1, 1, 1)], 3), ([], 3)):
        e = compose_symbols(symbols, basis)
        calls.clear()
        assert classify(e).pi_level == level
        assert calls == [(1, 1), (2, 1), (3, 1)]


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


def test_records_keep_their_repr_equality_defaults_and_immutability():
    # the auto-step3 benchmark digest renders repr(classify(...))
    basis = hall_basis(3, 3)
    e = compose(make_generator(mu(1, 2), basis), make_generator(phi2(2, 1, 3), basis))
    flags = classify(e)
    assert repr(flags) == ("AutoFlags(is_ia=False, is_central=False, is_elementary_palindromic=True, "
                           "is_palindromic=True, pi_level=1, notes=())")
    assert repr(classify(identity_endo(hall_basis(2, 4)))) == (
        "AutoFlags(is_ia=True, is_central=True, is_elementary_palindromic=None, "
        "is_palindromic=None, pi_level=None, notes=('palindromicity undecided for step > 3',))")
    # phi2(2,1;3)^2 has an even defect: in the canonical form it is the
    # phi3 factors of half of it
    dec = decompose_central(make_generator(phi2(2, 1, 3, 2), basis))
    assert repr(dec) == ("Decomposition(factors=(GeneratorSymbol(tag='phi3', params=(2, 1, 1, 3), "
                         "exponent=1), GeneratorSymbol(tag='phi3', params=(2, 1, 2, 3), exponent=1), "
                         "GeneratorSymbol(tag='phi3', params=(2, 1, 3, 3), exponent=1)), "
                         "residual_trivial=True, diagnostics=())")
    a, b = mu(1, 2), GeneratorSymbol("mu", (1, 2))
    assert b.exponent == 1
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != mu(2, 1) and a != mu(1, 2, -1)
    assert str(mu(1, 2, -1)) == "mu(1,2)^-1"
    for record, name in ((a, "exponent"), (flags, "pi_level"), (dec, "residual_trivial")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_step1_maps_are_central_but_never_top_central():
    # at k = 1 the top block is the whole vector, so the top-central test
    # would read x3 -> x3 x4^2 as x3 times a defect x3 x4^2
    basis = hall_basis(4, 1)
    e = make_endo(basis, ["x1", "x2", "x3 x4^2", "x4"])
    assert e.top_defects() is None
    assert e.apply(basis.generator(3)) == collect(parse_word("x3 x4^2", 4), basis)
    maps = [e, identity_endo(basis)] + [
        make_generator(sym, basis)
        for sym in (mu(1, 2), mu(4, 3, -2), t(3), alpha(2), sigma((2, 3, 4, 1)), phi2(2, 1, 3))]
    assert all(classify(f).is_central for f in maps)


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
    # rank 1 has no weight-3 element: the identity is its one central map
    for n in (1, 2):
        assert decompose_central(identity_endo(hall_basis(n, 3))) == Decomposition((), True)
    basis = hall_basis(2, 3)

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
        n = rng.randint(1, 3)
        basis = hall_basis(n, 3)
        syms = []
        # phi2 and phi3 need two generators: rank 1 draws the empty product
        for _ in range(rng.randint(0, 5) if n > 1 else 0):
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
    # the inner-square generator is obstruction-free: two bglm factors
    inner_square = make_endo(basis, ["x1 [x2,x1,x1]^2", "x2 [x2,x1,x2]^2"])
    # the lattice rows are memoized first, so the fault reaches only the
    # check of the factors: they sum to the identity's blocks
    decompose_central(e)
    decompose_bglm(inner_square)
    monkeypatch.setattr(autos, "_central_sum", lambda b, syms: identity_endo(b).top_defects())
    with pytest.raises(InternalError, match="central decomposition failed") as err:
        decompose_central(e)
    assert err.value.context == {"n": 2, "k": 3, "factors": 2}
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
    monkeypatch.setattr(autos, "_witness_lattice", lambda basis, i: [])
    with pytest.raises(InternalError, match="disagree with q=1") as err:
        quotient_rank_q(2)
    assert err.value.context == {"n": 2, "k": 3}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cold_quotient_rank_runs_no_smith_form(monkeypatch, n):
    # the invariants come from the witness echelon, which no Smith form builds
    monkeypatch.setattr(hall_basis(n, 3), "memo", {})
    calls = []
    real = intlinalg.smith_normal_form
    monkeypatch.setattr(intlinalg, "smith_normal_form", lambda a: calls.append(1) or real(a))
    assert quotient_rank_q(n) == n * (n * n - 1) // 3 - n * (n - 1) // 2
    assert calls == []


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
        fams, rows = hand_central_lattice(basis, i)
        phi2_rows = [row for row, (sym,) in zip(rows, fams) if sym.tag == "phi2"]
        assert gf2_rank(phi2_rows) == m3 - q
        rows, echelon = product_step3_rows(basis, i, (0,) * n), autos._witness_lattice(basis, i)
        assert echelon == autos._mod2_echelon(rows)
        assert len(echelon) == m3 - q
        # each echelon row is the parity of the sum of the rows it records
        for mask, combo in echelon:
            picked = [row for j, row in enumerate(rows) if combo >> j & 1]
            assert autos._parity_mask([sum(col) for col in zip(*picked)]) == mask


@pytest.mark.parametrize("n", [2, 3, 4])
def test_central_and_witness_echelons_are_equal(n):
    # the phi2 rows are congruent mod 2 to the witness rows, in the same
    # order, and the phi3 rows are even: one lattice, one echelon
    basis = hall_basis(n, 3)
    for i in range(1, n + 1):
        fams, _ = autos._central_lattice(basis, i)
        central = autos._mod2_echelon([autos._family_row(basis, fam, [i - 1]) for fam in fams])
        assert central == autos._witness_lattice(basis, i)


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
     "not central palindromic: x1: odd at [x2,x1,x1]; x2: odd at [x2,x1,x2]"),
    (3, ["x1 [x2,x1,x1]", "x2 [x2,x1,x2]", "x3"],
     "not central palindromic: x1: odd at [x2,x1,x1]; x2: odd at [x2,x1,x2]"),
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


@pytest.mark.parametrize("n, families", [(2, 1), (3, 21), (4, 96)])
def test_lattices_match_the_hand_built_rows(n, families):
    # rows read off the generator maps equal the rows written out from the
    # commutators; so do the kept phi2 rows.  The BGLM echelon keeps the
    # families whose rows raise the rank, in list order
    basis = hall_basis(n, 3)
    m2 = len(basis.by_weight[1])
    for i in range(1, n + 1):
        fams, phi2_rows = autos._central_lattice(basis, i)
        rows = [autos._family_row(basis, fam, [i - 1]) for fam in fams]
        assert (fams, rows) == hand_central_lattice(basis, i)
        assert phi2_rows == [[(j, v) for j, v in enumerate(row) if v] for row in rows[:m2]]
    fams = autos._bglm_families(basis)
    rows = [autos._family_row(basis, fam, range(n)) for fam in fams]
    assert len(fams) == families
    assert (fams, rows) == hand_bglm_lattice(basis)
    basis_fams = autos._bglm_lattice(basis)[0]
    assert basis_fams == [fam for fam in fams if fam in basis_fams]
    assert len(basis_fams) == {2: 1, 3: 18, 4: 70}[n]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bglm_families_span_the_paper_lattice(n):
    # the paper's closing result: the BGLM families span K, the central
    # palindromic defects with zero tameness residue, found by elimination
    # with the ring-product Fox derivatives; the kept families are a basis
    basis = hall_basis(n, 3)
    fams = autos._bglm_lattice(basis)[0]
    kernel = bglm_kernel_hermite(basis)
    assert hermite_form([autos._family_row(basis, fam, range(n)) for fam in fams]) == kernel
    assert hermite_form(hand_bglm_lattice(basis)[1]) == kernel
    assert len(kernel) == len(fams)


@pytest.mark.parametrize("n, free", [(2, 0), (3, 30), (4, 144)])
def test_every_obstruction_free_generator_decomposes(n, free):
    # each single phi2 or phi3 symbol and each psi pair psi(a,i) psi(b,j)^-1
    # with a zero tameness residue decomposes over the BGLM families
    basis = hall_basis(n, 3)
    idx = range(1, n + 1)
    cases = ([(phi2(a, b, i),) for a, b in permutations(idx, 2) for i in idx]
             + [(phi3(a, b, c, i),) for a, b in permutations(idx, 2) for c in idx for i in idx]
             + [(psi(a, i), psi(b, j, -1))
                for (a, i), (b, j) in permutations(permutations(idx, 2), 2)])
    decomposed = 0
    for syms in cases:
        e = compose_symbols(syms, basis)
        if tameness_residue(e).is_zero():
            dec = decompose_bglm(e)
            assert dec.residual_trivial and dec.compose(basis) == e, syms
            decomposed += 1
    assert decomposed == free


@pytest.mark.parametrize("n", [2, 3])
def test_central_lattice_membership_matches_lattice_solve(n):
    basis = hall_basis(n, 3)
    m3 = len(basis.by_weight[2])
    rng = random.Random(n)
    for i in range(1, n + 1):
        _, rows = hand_central_lattice(basis, i)
        for trial in range(40):
            # lattice points, and lattice points moved by one unit vector
            coeffs = [rng.randint(-2, 2) for _ in rows]
            vec = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(m3)]
            if trial % 2:
                vec[rng.randrange(m3)] += 1
            inside = lattice_solve(rows, vec) is not None
            assert inside or trial % 2
            assert (not autos._odd_rest(basis, i, vec)) == inside


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


@pytest.mark.parametrize("text,line,generator", [
    ("x\u0662 -> x1 x2 x1", 1, "x\u0662"),  # an Arabic-Indic 2 is not x2
    ("x1 -> x1\nx\uff12 -> x2", 2, "x\uff12"),  # nor is a fullwidth 2
    ("x\u00b2 -> x1", 1, "x\u00b2"),  # a superscript 2 is no index at all
])
def test_endo_file_generators_are_ascii_digits(text, line, generator):
    with pytest.raises(ValueError, match=f"^line {line}: bad generator '{generator}'$"):
        parse_endo_file(text, hall_basis(2, 2))


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


def test_solved_decompose_bglm_checks_no_precondition(monkeypatch):
    # on an obstruction-free palindromic input the solve succeeds, and the
    # family check made once with the lattice stands for both
    # preconditions; a refused input still runs them, residue first
    basis = hall_basis(3, 3)
    tame = compose_symbols([phi2(2, 1, 3), phi3(3, 1, 2, 2, -2), psi(1, 2), psi(1, 3, -1)], basis)
    outside = make_endo(basis, ["x1 [x2,x1,x1]", "x2 [x2,x1,x2]", "x3"])
    autos._bglm_lattice(basis)
    calls = []
    for name in ("_residue_of_defects", "_odd_rest"):
        def counting(*args, real=getattr(autos, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(autos, name, counting)
    dec = decompose_bglm(tame)
    assert dec.residual_trivial and dec.compose(basis) == tame
    assert calls == []
    with pytest.raises(PreconditionError, match="^not central palindromic"):
        decompose_bglm(outside)
    assert calls == ["_residue_of_defects"] + ["_odd_rest"] * 3


def test_bglm_lattice_refuses_a_family_that_breaks_a_precondition(monkeypatch):
    # a family put among the BGLM families that is obstructed, or that is
    # obstruction-free but not central palindromic, stops the lattice
    # build, so no integer combination of a bad family is ever accepted
    # unchecked.  Put last, the second is off the lattice of the others
    # but in its rational span, so it meets a pivot that does not divide it
    basis = hall_basis(3, 3)
    outside = make_endo(basis, ["x1 [x2,x1,x1]", "x2 [x2,x1,x2]", "x3"])
    assert tameness_residue(outside).is_zero()
    # a made-up top-central symbol whose map is `outside`
    monkeypatch.setitem(basis.memo, ("generator", "outside", ()), outside)
    real = autos._bglm_families
    outside_fam = (GeneratorSymbol("outside", (), 1),)
    for family, first, why in [((phi2(2, 1, 1),), False, "has a nonzero tameness residue"),
                               (outside_fam, True, "is not central palindromic"),
                               (outside_fam, False, "meets a pivot that does not divide it")]:
        monkeypatch.delitem(basis.memo, ("bglm_lattice",), raising=False)
        monkeypatch.setattr(autos, "_bglm_families", lambda b, family=family, first=first:
                            [family] + real(b) if first else real(b) + [family])
        for build in (autos._bglm_lattice, lambda b: decompose_bglm(identity_endo(b))):
            with pytest.raises(InternalError, match=f"^BGLM family {why}") as err:
                build(basis)
            assert err.value.context == {"n": 3, "k": 3, "family": render_symbol(family[0])}
            assert ("bglm_lattice",) not in basis.memo
    monkeypatch.undo()
    del basis.memo[("top_entries", "outside", ())]
    assert len(autos._bglm_families(basis)) == 21
    assert len(autos._bglm_lattice(basis)[0]) == 18


def test_central_composes_and_defect_reads_make_no_law_calls(monkeypatch):
    # once the generators are warm, every compose of central maps at step 3
    # adds defect blocks, and the defects are read off the images
    basis = hall_basis(3, 3)
    syms = [phi2(2, 1, 3), phi3(3, 1, 2, 2, -2), psi(1, 2, -1)]
    e = compose_symbols(syms, basis)
    calls = _count_law_calls(monkeypatch, basis, ("mul", "comm"))
    assert compose_symbols(syms, basis) == e
    defects = autos._weight3_defects(e)
    assert calls == []
    monkeypatch.undo()
    assert defects == [list(multiply(invert(basis.generator(i)), img).weight_block(3))
                       for i, img in enumerate(e.images, 1)]
    assert any(any(d) for d in defects)


def test_warm_decompositions_run_no_smith_form(monkeypatch):
    basis = hall_basis(3, 3)
    central = compose_symbols([phi2(2, 1, 3, 2), phi3(3, 1, 2, 1, -1)], basis)
    tame = compose_symbols([phi2(2, 1, 3), phi3(3, 1, 2, 2)], basis)
    outside = make_endo(basis, ["x1 [x2,x1,x1]", "x2 [x2,x1,x2]", "x3"])
    message = "not central palindromic: x1: odd at [x2,x1,x1]; x2: odd at [x2,x1,x2]"

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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decompose_central_runs_no_smith_form(monkeypatch, n):
    # from a cleared memo and again warm: the parity route builds the
    # witness echelons and the phi2 rows, and no Smith form
    basis = hall_basis(n, 3)
    monkeypatch.setattr(basis, "memo", {})
    calls = []
    real = intlinalg.smith_normal_form
    monkeypatch.setattr(intlinalg, "smith_normal_form", lambda a: calls.append(1) or real(a))
    central = compose_symbols([phi2(2, 1, n, -1), phi3(2, 1, 2, 1, 3), phi2(2, 1, 1)], basis)
    outside = autos._central_map(basis, [[1] + [0] * (len(block) - 1)
                                         for block in central.top_defects()])
    for _ in range(2):
        dec = decompose_central(central)
        assert dec.residual_trivial and dec.compose(basis) == central
        assert not decompose_central(outside).residual_trivial
    assert calls == []


def test_recompose_catches_a_corrupted_coefficient(monkeypatch):
    # the exponent of one factor moved by one, whichever factor it is:
    # the recomposed map differs from the input, and each decomposition
    # refuses it with the same context
    basis = hall_basis(4, 3)
    e = parse_endo_file((GOLDEN_FIXTURES / "r4_central_mixed.auto").read_text(), basis)
    real = autos._scaled_factors
    for run in (decompose_central, decompose_bglm):
        count = len(run(e).factors)
        for pos in range(count):
            seen = []

            def corrupted(fams, sol, pos=pos, seen=seen):
                out = real(fams, sol)
                j = pos - len(seen)
                seen.extend(out)
                if 0 <= j < len(out):
                    sym = out[j]
                    out[j] = GeneratorSymbol(sym.tag, sym.params, sym.exponent + 1)
                return out

            monkeypatch.setattr(autos, "_scaled_factors", corrupted)
            with pytest.raises(InternalError, match="failed to recompose") as err:
                run(e)
            assert err.value.context == {"n": 4, "k": 3, "factors": count}
        monkeypatch.setattr(autos, "_scaled_factors", real)


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
