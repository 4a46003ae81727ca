"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact integer arithmetic; there are no tolerances to
tune, a criterion either holds on the stated scale or fails.
"""

import random
from itertools import permutations, product

from nilpal.autos import (
    classify,
    compose,
    compose_symbols,
    decompose_bglm,
    decompose_central,
    endo_power,
    identity_endo,
    inner,
    inverse_with_factors,
    make_endo,
    make_generator,
    mu,
    palindromic_witnesses,
    phi2,
    phi3,
    psi,
    quotient_rank_q,
    solve_conjugator,
    verify_tame_factorization,
)
from nilpal.foxring import bglm_condition, bglm_residue
from nilpal.nilpotent import (
    bar,
    collect,
    element_as_word,
    hall_basis,
    multiply,
    power,
)
from nilpal.verify import run_suite
from nilpal.words import parse_word, word_from_ints

from oracles import TruncatedWordRep, heisenberg_matrix, invariant_factors


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def rand_word(rng, n, max_len):
    alphabet = [i for i in range(-n, n + 1) if i]
    return word_from_ints(
        [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))], n
    )


def rand_epa(rng, basis):
    n = basis.n
    e = identity_endo(basis)
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.5 or basis.k < 3:
            i, j = rng.sample(range(1, n + 1), 2)
            e = compose(e, make_generator(mu(i, j, rng.choice([1, -1])), basis))
        elif roll < 0.75:
            a, b = rng.sample(range(1, n + 1), 2)
            e = compose(e, make_generator(phi2(a, b, rng.randint(1, n)), basis))
        else:
            a, b = rng.sample(range(1, n + 1), 2)
            e = compose(e, make_generator(
                phi3(a, b, rng.randint(1, n), rng.randint(1, n)), basis))
    return e


def test_criterion_01_commutator_reversal():
    """All generator tuples, n <= 3, k <= 5: exact reversal sign law."""
    result = run_suite("lemma2.5", rank=3, step=5)
    assert result.ok and result.cases >= 424, result.failures[:3]
    _report("01 commutator reversal law", f"{result.cases} tuples, 0 failures")


def test_criterion_02_central_product_identity():
    """w_2 exhaustive at step 3; w_4 on >= 100 random tuples at step 5."""
    r3 = run_suite("prop2.8", rank=3, step=3, cases=100)
    assert r3.ok, r3.failures[:3]
    r5 = run_suite("prop2.8", rank=3, step=5, cases=100)
    assert r5.ok and r5.cases >= 200, r5.failures[:3]
    _report("02 central product identity",
            f"step3: {r3.cases} cases, step5: {r5.cases} cases")


def test_criterion_03_inverse_round_trip():
    """>= 200 random palindromic automorphisms, n <= 4, k <= 3."""
    rng = random.Random(101)
    total = 0
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            basis = hall_basis(n, k)
            for _ in range(23):
                e = rand_epa(rng, basis)
                assert palindromic_witnesses(e) is not None
                inv, factors = inverse_with_factors(e)
                assert compose(e, inv) == identity_endo(basis)
                assert compose(inv, e) == identity_endo(basis)
                for f in factors:
                    assert palindromic_witnesses(f) is not None
                total += 1
    assert total >= 200
    _report("03 inverse algorithm", f"{total} round trips, all factors palindromic")


def test_criterion_04_parity_and_step2_rigidity():
    rng = random.Random(102)
    # parity criterion on witness-built palindromic maps
    built = 0
    for _ in range(120):
        n, k = rng.randint(2, 4), rng.randint(1, 3)
        basis = hall_basis(n, k)
        images = []
        for i in range(1, n + 1):
            q = collect(rand_word(rng, n, 6), basis)
            images.append(multiply(multiply(bar(q), basis.generator(i)), q))
        e = make_endo(basis, images)
        assert all(
            (e.abel_matrix[r][c] - (1 if r == c else 0)) % 2 == 0
            for r in range(n) for c in range(n)
        )
        built += 1
    # step 2: equal abelianization forces equal automorphism
    r31 = run_suite("prop3.1", rank=4, cases=60)
    assert r31.ok, r31.failures[:3]
    # step 2: no witness yields a nontrivial central defect
    r33 = run_suite("prop3.3", rank=4)
    assert r33.ok, r33.failures[:3]
    _report("04 parity and step-2 rigidity",
            f"{built} witness maps, prop3.1 {r31.cases}, prop3.3 {r33.cases}")


def test_criterion_05_fox_table_and_wild_example():
    for n in (3, 4):
        result = run_suite("foxtable", rank=n)
        assert result.ok, result.failures[:3]
    w1 = parse_word("[x1,x2,x1]", 2)
    one = parse_word("1", 2)
    assert not bglm_condition([w1, one])
    residue = bglm_residue([w1, one])
    assert residue.pair(1, 2) == 1
    assert residue.pair(1, 1) == 0 and residue.pair(2, 2) == 0
    _report("05 derivative table and wild example", "rows exact for n=3,4")


def test_criterion_06_tameness_classification():
    r53 = run_suite("lemma5.3", rank=4)
    assert r53.ok, r53.failures[:3]
    r54 = run_suite("lemma5.4", rank=4)
    assert r54.ok, r54.failures[:3]
    checks = 0
    for n in (3, 4):
        basis = hall_basis(n, 3)
        for idx in permutations(range(1, n + 1), 3):
            assert verify_tame_factorization("phi2", basis, idx)
            assert verify_tame_factorization("phi3", basis, idx)
            checks += 2
    _report("06 tameness classification",
            f"{r53.cases + r54.cases} generators, {checks} factorizations")


def test_criterion_07_central_decomposition():
    rng = random.Random(103)
    total = 0
    for n in (2, 3):
        basis = hall_basis(n, 3)
        for _ in range(100):
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
            total += 1
    for n, q in ((2, 1), (3, 5), (4, 14)):
        assert quotient_rank_q(n) == q
        from nilpal.autos import _central_lattice, _family_row

        basis = hall_basis(n, 3)
        rows = [_family_row(basis, fam, [n - 1]) for fam in _central_lattice(basis, n)[0]]
        factors = invariant_factors(rows)
        assert factors.count(2) == q and set(factors) <= {1, 2}
    assert total >= 200
    _report("07 central decomposition",
            f"{total} round trips, lattice orders 2^1, 2^5, 2^14")


def test_criterion_08_obstruction_free_decomposition():
    basis2 = hall_basis(2, 3)
    gen = compose_symbols([phi3(2, 1, 1, 1), phi3(2, 1, 2, 2)], basis2)
    conj = make_generator(
        inner(power(collect(parse_word("[x1,x2]", 2), basis2), 2)), basis2
    )
    assert gen == conj
    rng = random.Random(104)
    basis3 = hall_basis(3, 3)
    total = 0
    for _ in range(100):
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
        e = compose_symbols(syms, basis3)
        dec = decompose_bglm(e)
        assert dec.residual_trivial
        assert dec.compose(basis3) == e
        total += 1
    assert total >= 100
    _report("08 obstruction-free decomposition",
            f"rank-2 generator is inner, {total} rank-3 round trips")


def test_criterion_09_even_step_rigidity():
    # step 2: brute-force witness search over the full exponent box [-3,3]
    basis = hall_basis(2, 2)
    nontrivial = 0
    for i in (1, 2):
        xi = basis.generator(i)
        for exps in product(range(-3, 4), repeat=3):
            q = basis.from_exponents(exps)
            g = multiply(multiply(bar(q), xi), q)
            defect = multiply(power(xi, -1), g)
            if not defect.is_identity() and defect.abelianization() == (0, 0):
                nontrivial += 1
    assert nontrivial == 0
    # solver agrees with the brute force
    for i in (1, 2):
        for c in range(-3, 4):
            if c:
                target = basis.from_exponents((1 if i == 1 else 0,
                                               1 if i == 2 else 0, c))
                assert solve_conjugator(target, i) is None
    # step 3: doubled central elements are always accepted
    basis3 = hall_basis(2, 3)
    accepted = 0
    for j, c in enumerate(basis3.by_weight[2]):
        for i in (1, 2):
            exps = [0] * len(basis3.elements)
            exps[basis3.weight_offset[2] + j] = 2
            img = multiply(basis3.generator(i), basis3.from_exponents(exps))
            images = [basis3.generator(v) for v in (1, 2)]
            images[i - 1] = img
            flags = classify(make_endo(basis3, images))
            assert flags.is_elementary_palindromic
            accepted += 1
    _report("09 even-step rigidity",
            f"686 witnesses refuted at step 2, {accepted} doubled maps accepted at step 3")


def test_criterion_10_matrix_oracle_agreement():
    rng = random.Random(105)
    total = 0
    for k, count in ((1, 334), (2, 333), (3, 333)):
        basis = hall_basis(2, k)
        rep = TruncatedWordRep(2, k)
        for _ in range(count):
            u = rand_word(rng, 2, 20)
            nf = element_as_word(collect(u, basis))
            assert rep.evaluate(u) == rep.evaluate(nf)
            if k == 2:
                assert heisenberg_matrix(u) == heisenberg_matrix(nf)
            total += 1
    assert total == 1000
    _report("10 matrix oracle agreement", f"{total} words, k <= 3")
