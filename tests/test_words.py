import random
import time

import pytest

from nilpal import words
from nilpal.nilpotent import element_as_word, hall_basis
from nilpal.words import (
    Letter,
    RankError,
    Word,
    WordSyntaxError,
    concat,
    invert_word,
    is_word_palindrome,
    parse_word,
    render_word,
    reverse_word,
    word_from_ints,
)


def w(ints, rank=3):
    return word_from_ints(ints, rank)


def test_parse_basic():
    assert parse_word("x1 x2^-1", 2) == w([1, -2], 2)
    assert parse_word("x1*x2", 2) == w([1, 2], 2)
    assert parse_word("1", 2) == w([], 2)
    assert parse_word("x3^-2", 3) == w([-3, -3])


def test_parse_commutator_left_normed():
    # [g,h] = g^-1 h^-1 g h
    assert parse_word("[x2,x1]", 2) == w([-2, -1, 2, 1], 2)
    assert parse_word("[x1,x2,x3]", 3) == parse_word("[[x1,x2],x3]", 3)


def test_parse_free_reduction():
    assert parse_word("x1 x1^-1", 2) == w([], 2)
    assert parse_word("(x1 x2)^-1", 2) == w([-2, -1], 2)
    assert parse_word("(x1 x2)^0", 2) == w([], 2)


def test_parse_errors_carry_position():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("x1 &", 2)
    assert err.value.position == 3
    with pytest.raises(WordSyntaxError):
        parse_word("[x1]", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("(x1", 2)
    with pytest.raises(RankError):
        parse_word("x5", 2)


@pytest.mark.parametrize("text,position", [
    ("x\uff11 x2", 0),  # fullwidth 1
    ("x\u00b2 x2", 0),  # superscript 2
    ("x1 x\u0662", 3),  # Arabic-Indic 2
    ("x1^\u00b2", 2),
    ("x1^-\uff13 x2", 2),
    ("(x1 x2)^\u0663", 7),
])
def test_indices_and_exponents_are_ascii_digits(text, position):
    # str.isdigit takes these too; int() would misread or refuse them
    with pytest.raises(WordSyntaxError) as err:
        parse_word(text, 2)
    assert err.value.position == position
    assert text[position] in "x^"


def test_reduce_examples():
    assert w([1, 2, -2]) == w([1])
    assert w([]) == Word((), 3)
    assert w([1, 1]).letters == (Letter(1, 1), Letter(1, 1))


def test_reverse_examples():
    assert reverse_word(w([1, 2])) == w([2, 1])
    assert reverse_word(w([1, -2, 1])) == w([1, -2, 1])
    assert reverse_word(w([])) == w([])


def test_palindrome_examples():
    assert is_word_palindrome(w([2, 1, 2]))
    assert not is_word_palindrome(w([1, 2]))
    assert is_word_palindrome(w([]))


def test_group_ops():
    assert invert_word(w([1, 2])) == w([-2, -1])
    assert concat(w([1]), w([-1])) == w([])
    assert concat(w([1]), w([2])) == w([1, 2])
    with pytest.raises(RankError):
        concat(w([1], 2), w([1], 3))


def test_word_properties_random():
    rng = random.Random(0)
    alphabet = [i for i in range(-3, 4) if i]
    for _ in range(300):
        u = w([rng.choice(alphabet) for _ in range(rng.randint(0, 12))])
        v = w([rng.choice(alphabet) for _ in range(rng.randint(0, 12))])
        assert reverse_word(reverse_word(u)) == u
        assert reverse_word(concat(u, v)) == concat(reverse_word(v), reverse_word(u))
        assert invert_word(invert_word(u)) == u
        assert concat(u, invert_word(u)) == w([])
        assert parse_word(render_word(u), 3) == u


def test_reduce_function():
    from nilpal.words import reduce

    letters = [Letter(1, 1), Letter(2, 1), Letter(2, -1)]
    assert reduce(letters, 2) == w([1], 2)
    assert reduce([], 2) == w([], 2)


LONG = 50000


@pytest.mark.parametrize("build", [
    lambda: parse_word(f"x1^{LONG}", 2),
    lambda: parse_word("x1 x2 " * (LONG // 2), 2),
    lambda: parse_word(f"(x1 x2 x1^-1)^{LONG} x1 x2^-1", 2),
    lambda: element_as_word(hall_basis(2, 2).from_exponents((LONG, 0, 0))),
    lambda: element_as_word(hall_basis(2, 2).from_exponents((0, 0, -LONG // 4))),
], ids=["power", "flat", "cancelling-power", "element-power", "element-bracket"])
def test_long_words_are_reduced_in_linear_work(monkeypatch, build):
    # every reduction walks its input once; a word built by appending to
    # a growing word walks it once per factor, quadratic in its length
    walked = [0]
    real = words._reduced

    def counting(letters):
        walked[0] += len(letters)
        assert walked[0] <= 4 * LONG + 100, "word reduced once per factor"
        return real(letters)

    monkeypatch.setattr(words, "_reduced", counting)
    assert len(build()) in (LONG, LONG + 2)


BUDGET = words.MAX_WORD_LETTERS


@pytest.mark.parametrize("text,offender", [
    ("x1^1000000000", "^"),
    ("[" + ", ".join(["x1", "x2"] * 20) + "]", "]"),
    ("[x1, " * 39 + "x2" + "]" * 39, "]"),
    (f"x1^{BUDGET // 2} x2^{BUDGET // 2} x1^-1", "^"),
    (f"(x1^{BUDGET // 2}) x2 (x1^{BUDGET // 2})", ")"),
], ids=["huge-power", "left-normed-40", "nested-40", "sum-of-powers", "sum-of-groups"])
def test_expressions_over_the_letter_budget_are_refused_fast(text, offender):
    start = time.perf_counter()
    with pytest.raises(WordSyntaxError) as err:
        parse_word(text, 2)
    assert time.perf_counter() - start < 1
    assert f"MAX_WORD_LETTERS = {BUDGET}" in str(err.value)
    assert text[err.value.position] == offender


def test_letter_budget_is_inclusive():
    assert len(parse_word(f"x2^{BUDGET}", 2)) == BUDGET
    with pytest.raises(WordSyntaxError):
        parse_word(f"x2^-{BUDGET + 1}", 2)
