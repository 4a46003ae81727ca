"""Reduced words over a free generating set x_1..x_n.

Words are always stored freely reduced.  The module also owns the textual
expression grammar shared by the whole package:

    word     := { atom [ ^<int> ] }*        (juxtaposition by spaces or '*')
    atom     := x<posint> | 1 | ( word ) | [ word, word, ... ]
    [u,v]    := u^-1 v^-1 u v, longer lists fold left-normed

Commutator and grouping syntax is sugar expanded at parse time.  No word
built while parsing may exceed MAX_WORD_LETTERS letters, counted before free
reduction: a power is checked before it is expanded, a commutator before it
is built, and the running word after each factor is appended.
"""

import operator
from itertools import chain
from typing import NamedTuple

MAX_WORD_LETTERS = 10**6
# The largest group, counted as the index entries of its series shape
# (`kernel.shape_entries`), that `nilpotent.HallBasis` builds.  (4,8) has
# 116,505 and builds in about 4 s and 380 MB on a 2-CPU Xeon; (9,9) would
# need 490 million.
MAX_SERIES_ENTRIES = 2 * 10**5
# The largest law derivation, counted as the values that `hallpoly` fits the
# product from (`nilpotent.law_values`), that `nilpotent.HallBasis` admits
# at step <= 3.  (10,3) needs 1.66 million and derives in about 4 s and
# 41 MB; (12,3) would need 4.79 million (7 s, 94 MB), (20,3) 95 million.
MAX_LAW_VALUES = 2 * 10**6


class Letter(NamedTuple):
    index: int
    sign: int

    def inverse(self):
        return Letter(self.index, -self.sign)


class WordSyntaxError(ValueError):
    """Raised on malformed word expressions; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RankError(ValueError):
    pass


def _reduced(letters):
    if len(letters) < 2:
        return letters
    inverse = {let: let.inverse() for let in set(letters)}
    if not any(map(operator.eq, letters[1:], map(inverse.__getitem__, letters))):
        return letters  # no letter is followed by its inverse
    out = []
    for let in letters:
        if out and out[-1] == inverse[let]:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


class Word:
    """A freely reduced word; the constructor reduces its input."""

    __slots__ = ("letters", "rank")

    def __init__(self, letters, rank):
        letters = tuple(letters)
        for let in set(letters):
            if not 1 <= let.index <= rank:
                raise RankError(f"generator index {let.index} exceeds rank {rank}")
            if let.sign not in (1, -1):
                raise ValueError(f"letter sign must be +-1, got {let.sign}")
        self.letters = _reduced(letters)
        self.rank = rank

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (isinstance(other, Word) and self.rank == other.rank
                and self.letters == other.letters)

    def __hash__(self):
        return hash((self.rank, self.letters))

    def __repr__(self):
        return f"Word({render_word(self)!r}, rank={self.rank})"

    def __mul__(self, other):
        return concat(self, other)

    def inverse(self):
        return invert_word(self)


def word_from_ints(ints, rank):
    """Build a word from signed generator indices (3 means x3, -3 its inverse)."""
    return Word((Letter(abs(i), 1 if i > 0 else -1) for i in ints), rank)


def reverse_word(w):
    """Letters in reverse order, signs unchanged.  Involution on reduced words."""
    rev = Word(reversed(w.letters), w.rank)
    assert len(rev) == len(w)  # reversal of a reduced word is reduced
    return rev


def invert_word(w):
    inverse = {let: let.inverse() for let in set(w.letters)}
    return Word(map(inverse.__getitem__, reversed(w.letters)), w.rank)


def concat(u, *rest):
    """The product of reduced words, which cancel only where two meet."""
    letters = list(u.letters)
    for v in rest:
        if v.rank != u.rank:
            raise RankError(f"rank mismatch: {u.rank} vs {v.rank}")
        j = 0
        while letters and j < len(v) and letters[-1] == v.letters[j].inverse():
            letters.pop()
            j += 1
        letters.extend(v.letters[j:])
    return Word(letters, u.rank)


def is_word_palindrome(w):
    """True iff w equals its reverse letter by letter (empty word included)."""
    return w.letters == reverse_word(w).letters


def word_power(w, e):
    if e < 0:
        return word_power(invert_word(w), -e)
    return Word(w.letters * e, w.rank)


def word_commutator(u, v):
    """[u, v] = u^-1 v^-1 u v."""
    return concat(invert_word(u), invert_word(v), u, v)


def left_normed_commutator(parts):
    """[g1, g2, ..., gm] folded as [...[[g1,g2],g3],...,gm]."""
    parts = list(parts)
    if len(parts) < 2:
        raise ValueError("commutator needs at least two arguments")
    acc = word_commutator(parts[0], parts[1])
    for nxt in parts[2:]:
        acc = word_commutator(acc, nxt)
    return acc


def render_word(w):
    """Canonical rendering; parse_word inverts it exactly."""
    if not w.letters:
        return "1"
    chunks = []
    i = 0
    letters = w.letters
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        exp = (j - i) * letters[i].sign
        chunks.append(f"x{letters[i].index}" + (f"^{exp}" if exp != 1 else ""))
        i = j
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# parser

_TOKEN_CHARS = {"(": "LPAR", ")": "RPAR", "[": "LBRACK", "]": "RBRACK", ",": "COMMA"}


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch == "*":
            i += 1
        elif ch in _TOKEN_CHARS:
            tokens.append((_TOKEN_CHARS[ch], None, i))
            i += 1
        elif ch == "x":
            j = i + 1
            # ASCII only: str.isdigit alone also takes other scripts' digits
            while j < n and text[j].isascii() and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise WordSyntaxError("expected generator index after 'x'", i)
            idx = int(text[i + 1:j])
            if idx == 0:
                raise WordSyntaxError("generator indices start at 1", i)
            tokens.append(("GEN", idx, i))
            i = j
        elif ch == "1":
            tokens.append(("ONE", None, i))
            i += 1
        elif ch == "^":
            j = i + 1
            if j < n and text[j] == "-":
                j += 1
            start_digits = j
            while j < n and text[j].isascii() and text[j].isdigit():
                j += 1
            if j == start_digits:
                raise WordSyntaxError("expected integer exponent after '^'", i)
            tokens.append(("EXP", int(text[i + 1:j]), i))
            i = j
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens, rank, length):
        self.tokens = tokens
        self.rank = rank
        self.pos = 0
        self.length = length

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("END", None, self.length)

    def take(self, kind=None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise WordSyntaxError(f"expected {kind}, found {tok[0]}", tok[2])
        self.pos += 1
        return tok

    def parse_word(self, stop_kinds):
        factors, size = [], 0
        while True:
            kind, _, _ = self.peek()
            if kind in stop_kinds or kind == "END":
                return factors[0] if len(factors) == 1 else Word(
                    chain.from_iterable(f.letters for f in factors), self.rank)
            factors.append(self.parse_factor(size))
            size += len(factors[-1])
            # at the factor's last token: its `^`, `]` or `)`
            _check_budget(size, self.tokens[self.pos - 1][2])

    def parse_factor(self, used):
        """The next factor, after `used` letters of the word it extends."""
        atom = self.parse_atom()
        kind, value, pos = self.peek()
        if kind == "EXP":
            self.take()
            _check_budget(used + len(atom) * abs(value), pos)
            return word_power(atom, value)
        return atom

    def parse_atom(self):
        kind, value, pos = self.take()
        if kind == "GEN":
            if value > self.rank:
                raise RankError(f"generator index {value} exceeds rank {self.rank}"
                                f" (at position {pos})")
            return Word((Letter(value, 1),), self.rank)
        if kind == "ONE":
            return Word((), self.rank)
        if kind == "LPAR":
            inner = self.parse_word({"RPAR"})
            self.take("RPAR")
            return inner
        if kind == "LBRACK":
            parts = [self.parse_word({"COMMA", "RBRACK"})]
            while self.peek()[0] == "COMMA":
                self.take()
                parts.append(self.parse_word({"COMMA", "RBRACK"}))
            end = self.take("RBRACK")
            if len(parts) < 2:
                raise WordSyntaxError("commutator needs at least two arguments", end[2])
            acc = parts[0]
            for nxt in parts[1:]:
                # [u, v] = u^-1 v^-1 u v has 2(|u| + |v|) letters before reduction
                _check_budget(2 * (len(acc) + len(nxt)), end[2])
                acc = word_commutator(acc, nxt)
            return acc
        raise WordSyntaxError(f"unexpected token {kind}", pos)


def _check_budget(letters, position):
    if letters > MAX_WORD_LETTERS:
        raise WordSyntaxError(f"expression expands to more than MAX_WORD_LETTERS = "
                              f"{MAX_WORD_LETTERS} letters", position)


def parse_word(text, rank):
    """Parse an expression in the word grammar to a reduced word of the rank."""
    parser = _Parser(_tokenize(text), rank, len(text))
    word = parser.parse_word(set())
    tok = parser.peek()
    if tok[0] != "END":
        raise WordSyntaxError(f"trailing input {tok[0]}", tok[2])
    return word
