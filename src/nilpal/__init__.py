"""Exact arithmetic and palindromic automorphisms of free nilpotent groups.

Modules: `words`, `kernel` (the per-degree series layout, which no other
module reads), `nilpotent` (Hall bases, the series model, the peel, group
arithmetic), `hallpoly` (the exponent law at step <= 3), `intlinalg`,
`foxring`, `autos` (automorphisms), `verify` (named suites) and `cli`.
"""

from nilpal.nilpotent import (
    BasicCommutator,
    HallBasis,
    NilElement,
    bar,
    collect,
    commutator,
    hall_basis,
    invert,
    left_normed,
    multiply,
    power,
    render_element,
    verify_w2k,
    weight,
    witt_count,
)
from nilpal.words import (
    Letter,
    Word,
    concat,
    invert_word,
    is_word_palindrome,
    parse_word,
    render_word,
    reverse_word,
)

__version__ = "0.1.0"

__all__ = [
    "BasicCommutator",
    "HallBasis",
    "Letter",
    "NilElement",
    "Word",
    "bar",
    "collect",
    "commutator",
    "concat",
    "hall_basis",
    "invert",
    "invert_word",
    "is_word_palindrome",
    "left_normed",
    "multiply",
    "parse_word",
    "power",
    "render_element",
    "render_word",
    "reverse_word",
    "verify_w2k",
    "weight",
    "witt_count",
]
