import random

import pytest
from oracles import embed

from nilpal import foxring
from nilpal.foxring import (
    PreconditionError,
    RingElemModR,
    add,
    bglm_condition,
    bglm_residue,
    check_fox_table,
    fox_derivative,
    mul,
    negate,
    render_quadratic,
    render_ring,
    ring_delta,
    ring_one,
    ring_zero,
)
from nilpal.nilpotent import InternalError
from nilpal.words import concat, parse_word, word_from_ints


def rand_word(rng, n, max_len=10):
    alphabet = [i for i in range(-n, n + 1) if i]
    return word_from_ints(
        [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))], n
    )


def test_embed_examples():
    e = embed(parse_word("x1", 2))
    assert e == RingElemModR(2, const=1, lin=(1, 0))
    e = embed(parse_word("x1^-1", 2))
    assert e.const == 1 and e.lin == (-1, 0) and e.pair(1, 1) == 1
    # group commutators embed trivially: the ideal kills their defect
    assert embed(parse_word("[x1,x2]", 2)) == ring_one(2)


def test_embed_multiplicative():
    rng = random.Random(20)
    for _ in range(150):
        n = rng.randint(2, 4)
        u, v = rand_word(rng, n), rand_word(rng, n)
        assert embed(concat(u, v)) == mul(embed(u), embed(v))


def test_mul_examples():
    d1, d2 = ring_delta(1, 2), ring_delta(2, 2)
    one = ring_one(2)
    assert mul(one, d1) == d1
    p = mul(d1, d2)
    assert p.pair(1, 2) == 1 and p.pair(1, 1) == 0
    # degree-3 truncation
    assert mul(p, d1) == ring_zero(2)


def test_ring_is_commutative_and_associative():
    rng = random.Random(21)

    def rand_elem(n):
        return embed(rand_word(rng, n, 6))

    for _ in range(80):
        n = rng.randint(2, 3)
        a, b, c = rand_elem(n), rand_elem(n), rand_elem(n)
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(a, negate(a)) == ring_zero(n)


def test_fox_derivative_examples():
    assert fox_derivative(parse_word("x1", 2), 1) == ring_one(2)
    assert fox_derivative(parse_word("x2", 2), 1) == ring_zero(2)
    d = fox_derivative(parse_word("[x1,x2,x3]", 3), 1)
    assert d == mul(ring_delta(2, 3), ring_delta(3, 3))
    d = fox_derivative(parse_word("[x1,x2,x1]", 2), 1)
    assert d == mul(ring_delta(1, 2), ring_delta(2, 2))


def test_fox_derivative_product_rule():
    rng = random.Random(22)
    for _ in range(120):
        n = rng.randint(2, 4)
        u, v = rand_word(rng, n), rand_word(rng, n)
        for j in range(1, n + 1):
            lhs = fox_derivative(concat(u, v), j)
            rhs = add(fox_derivative(u, j), mul(embed(u), fox_derivative(v, j)))
            assert lhs == rhs


def test_fox_derivative_well_defined_on_group_elements():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(2, 3)
        u = rand_word(rng, n)
        cut = rng.randint(0, len(u.letters))
        g = rng.randint(1, n)
        padded = word_from_ints(
            [l.index * l.sign for l in u.letters[:cut]] + [g, -g]
            + [l.index * l.sign for l in u.letters[cut:]],
            n,
        )
        assert padded == u
        for j in range(1, n + 1):
            assert fox_derivative(u, j) == fox_derivative(padded, j)


def test_commutator_words_have_no_low_terms():
    # derivatives of gamma_k words live in the (k-1)-st power of the
    # augmentation ideal: constants vanish from gamma_2 on, linear parts
    # from gamma_3 on
    rng = random.Random(24)
    for _ in range(60):
        n = rng.randint(2, 3)
        u, v = rand_word(rng, n, 5), rand_word(rng, n, 5)
        w2 = u.inverse() * v.inverse() * u * v
        z = rand_word(rng, n, 4)
        w3 = w2.inverse() * z.inverse() * w2 * z
        for j in range(1, n + 1):
            d2 = fox_derivative(w2, j)
            assert d2.const == 0
            d3 = fox_derivative(w3, j)
            assert d3.const == 0 and not any(d3.lin)


def test_fox_table():
    for n in (2, 3, 4):
        assert all(not failures for _, _, failures in check_fox_table(n))
    row = dict((name, cases) for name, cases, _ in check_fox_table(3))
    assert row["d_i[xa,xb,xc]"] == 0  # needs four distinct indices
    assert row["d_i[xa,xi,xa]"] == 6


def test_bglm_examples():
    w1 = parse_word("[x1,x2,x1]", 2)
    one = parse_word("1", 2)
    assert not bglm_condition([w1, one])
    res = bglm_residue([w1, one])
    assert res.pair(1, 2) == 1
    assert render_quadratic(res) == ["(1,2): 1"]
    assert bglm_condition([one, one])


def test_bglm_precondition():
    with pytest.raises(PreconditionError):
        bglm_condition([parse_word("x1", 2), parse_word("1", 2)])
    with pytest.raises(PreconditionError):
        bglm_condition([parse_word("[x1,x2]", 2), parse_word("1", 2)])


def test_render_ring():
    assert render_ring(ring_zero(2)) == "0"
    assert render_ring(mul(ring_delta(1, 2), ring_delta(2, 2))) == "(1,2): 1"


def test_bglm_residue_refuses_malformed_word_lists():
    with pytest.raises(ValueError, match="got none"):
        bglm_residue([])
    # the first word is outside gamma_3, but the ranks are checked first
    with pytest.raises(ValueError, match="words have mixed ranks"):
        bglm_residue([parse_word("x1", 2), parse_word("1", 3)])


def test_bglm_residue_reports_a_failed_precondition_check(monkeypatch):
    # With the gamma_3 test forced to pass, x1 and x2 reach the sum, whose
    # constant part 1 + 1 must not vanish: an internal error with context.
    monkeypatch.setattr(foxring, "_in_gamma3", lambda w: True)
    with pytest.raises(InternalError, match=r"n=2, const=2, lin=\{\}") as err:
        bglm_residue([parse_word("x1", 2), parse_word("x2", 2)])
    assert err.value.context == {"n": 2, "const": 2, "lin": {}}
