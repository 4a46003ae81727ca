"""Hall bases and exact arithmetic in free nilpotent groups.

The free nilpotent group of rank n and step k is the quotient of the free
group on x_1..x_n killing every iterated commutator of weight > k.  Elements
are kept in Hall normal form: the ordered product of integer powers of basic
commutators, weight-major.

Arithmetic runs in a faithful truncated-series model: x_i maps to 1 + X_i in
integer polynomials over noncommuting X_1..X_n, discarding all terms of
degree > k.  A word is trivial in the group iff its series is 1, so series
equality decides group equality.  `kernel` owns the series layout; this
module only calls its operations.  The series of elements and words come
from one of them: multiplying or dividing a running series on the left by
a factor, the read-only form of c - 1 for a lift c (`kernel.left_divide`).
An element's series is 1 multiplied on the left by its factors c_j^e_j,
the last first (`HallBasis.exponents_poly`), and `collect` builds a word's
series the same way, one binomial block per run of a letter.  Normal-form
exponents are recovered weight by weight (`HallBasis.element_from_poly`,
"the peel"), which doubles as a consistency check on every element built
from a series.  `Lifts` builds and caches the factors of the basis
elements' images and their powers, for the basis (`HallBasis.lifts`) and
for each map (`autos.Endo`).  The `per_basis` decorator keeps the values
derived once per basis (the peel's solvers, and those of `autos`).

At step <= 3 the group operations and `collect` run on exponent vectors
instead, by the Hall polynomials that `hallpoly` derives from the series
model once per basis (`HallBasis.law`).
"""

import operator
from functools import cached_property, lru_cache, reduce, wraps
from itertools import groupby
from math import comb

from nilpal import kernel
from nilpal.intlinalg import PivotSolver
from nilpal.words import (
    MAX_LAW_VALUES,
    MAX_SERIES_ENTRIES,
    Letter,
    Word,
    parse_word,
    word_commutator,
)

# the paper's algorithms all run at step <= 3; higher steps keep the series
LAW_MAX_STEP = 3


class InternalError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input.

    Keyword arguments are kept in `context` and appended to the message,
    so the failure can be read without a rerun.
    """

    def __init__(self, message, **context):
        self.context = context
        if context:
            message += " (" + ", ".join(f"{k}={v}" for k, v in context.items()) + ")"
        super().__init__(message)


class NotAutomorphismError(ValueError):
    """Not an automorphism: a mathematical negative (CLI exit 2), as are the two below."""


class UndecidedError(ValueError):
    """The requested decision procedure is only complete for step <= 3."""


class PreconditionError(ValueError):
    """An operation's mathematical precondition failed on the given input."""


def _mobius(d):
    out = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        p += 1
    if d > 1:
        out = -out
    return out


def witt_count(n, w):
    """Rank of the weight-w layer of the lower central series of F_n."""
    total = sum(_mobius(d) * n ** (w // d) for d in range(1, w + 1) if w % d == 0)
    return total // w


def law_values(n, k):
    """The size of the value table that `hallpoly` fits the product law
    from: its sample points, the exponent vectors over the 2m variables of
    (x, y) of weighted degree <= k, times the m coordinates of each value.
    The points are the coefficients up to t^k of prod_w (1 - t^w)^-v_w,
    v_w = 2 W(n, w) being the variables of weight w."""
    counts = [1] + [0] * k
    for w in range(1, k + 1):
        v = 2 * witt_count(n, w)
        if v:
            counts = [sum(comb(v + j - 1, j) * counts[d - w * j] for j in range(d // w + 1))
                      for d in range(k + 1)]
    return sum(counts) * sum(witt_count(n, w) for w in range(1, k + 1))


class BasicCommutator:
    """A generator, or a bracket [left, right] satisfying the Hall condition."""

    __slots__ = ("gen", "left", "right", "weight", "key", "index")

    def __init__(self, gen=None, left=None, right=None):
        if gen is not None:
            self.gen = gen
            self.left = None
            self.right = None
            self.weight = 1
            self.key = (1, gen)
        else:
            self.gen = None
            self.left = left
            self.right = right
            self.weight = left.weight + right.weight
            self.key = (self.weight, left.key, right.key)
        self.index = None

    def __eq__(self, other):
        return isinstance(other, BasicCommutator) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.render()

    def render(self):
        if self.gen is not None:
            return f"x{self.gen}"
        parts = []
        node = self
        while node.gen is None:
            parts.append(node.right)
            node = node.left
        parts.append(node)
        parts.reverse()
        return "[" + ",".join(p.render() for p in parts) + "]"

    def as_word(self, rank):
        """Expand to a reduced free-group word."""
        if self.gen is not None:
            return Word((Letter(self.gen, 1),), rank)
        return word_commutator(self.left.as_word(rank), self.right.as_word(rank))


def _build_elements(n, k):
    by_weight = [[BasicCommutator(gen=i) for i in range(1, n + 1)]]
    for w in range(2, k + 1):
        level = []
        for wl in range(1, w):
            for left in by_weight[wl - 1]:
                for right in by_weight[w - wl - 1]:
                    if left.key > right.key and (
                        left.gen is not None or left.right.key <= right.key
                    ):
                        level.append(BasicCommutator(left=left, right=right))
        level.sort(key=lambda c: c.key)
        by_weight.append(level)
    return by_weight


class Lifts:
    """The factors c - 1 (`kernel.factor`) of the images c of the basis
    elements under one endomorphism, and of their powers, built on first
    use and then read-only.  `leaf(gen)` is the factor of the image of
    x_gen; `HallBasis.lifts` is the identity map's.  A bracket's image
    comes from its halves' by one left division (`kernel.bracket_factor`).
    The image of a basis element c of weight w has L = c - 1 of lowest
    degree >= w, so L^i vanishes for i > k // w: `factors` keeps one
    factor per basis element, `powers` the k // w powers of L for each
    element raised to a power e >= 2.
    """

    __slots__ = ("basis", "leaf", "factors", "powers")

    def __init__(self, basis, leaf):
        self.basis = basis
        self.leaf = leaf
        self.factors = {}
        self.powers = {}

    def lift(self, idx):
        """The factor c - 1 of the image c of basis element idx."""
        f = self.factors.get(idx)
        if f is None:
            c = self.basis.elements[idx]
            if c.gen is not None:
                f = self.leaf(c.gen)
            else:
                f = kernel.bracket_factor(self.lift(c.left.index), self.lift(c.right.index),
                                          c.weight, self.basis.shape)
            self.factors[idx] = f
        return f

    def power(self, idx, e):
        """The factor c^e - 1, for e >= 1: sum C(e, i) L^i over
        1 <= i <= k // w, with L = c - 1; the lift itself for e = 1."""
        if e == 1:
            return self.lift(idx)
        basis = self.basis
        powers = self.powers.get(idx)
        if powers is None:
            powers = self.powers[idx] = kernel.factor_powers(
                self.lift(idx), basis.k // basis.elements[idx].weight, basis.shape)
        return kernel.factor_sum(((comb(e, i), f) for i, f in enumerate(powers, start=1)),
                                 basis.shape)


UNKNOWN = object()  # a value not yet computed, where None is a value


def per_basis(name):
    """Keep `fn(basis, *args)` in `basis.memo` under `(name, *args)`, None
    included, built on first use; a build that raises keeps nothing."""
    def decorate(fn):
        @wraps(fn)
        def cached(basis, *args):
            key = (name, *args)
            value = basis.memo.get(key, UNKNOWN)
            if value is UNKNOWN:
                value = basis.memo[key] = fn(basis, *args)
            return value
        return cached
    return decorate


class HallBasis:
    """The ordered basic commutators of weight <= k for rank n, plus the
    machinery of the truncated-series model (built lazily, then read-only)."""

    def __init__(self, n, k):
        if n < 1 or k < 1:
            raise ValueError(f"rank and step must be positive, got n={n}, k={k}")
        # refused before anything is built: at rank 1 the shape grows as k^2
        entries = kernel.shape_entries(n, k, MAX_SERIES_ENTRIES)
        if entries > MAX_SERIES_ENTRIES:
            raise ValueError(f"group too large: n={n}, k={k} needs at least {entries} series "
                             f"index entries, over MAX_SERIES_ENTRIES = {MAX_SERIES_ENTRIES}")
        self.n = n
        self.k = k
        self.by_weight = _build_elements(n, k)
        for w, level in enumerate(self.by_weight, start=1):
            expected = witt_count(n, w)
            if len(level) != expected:
                raise InternalError(
                    f"weight-{w} layer has {len(level)} elements, expected {expected}",
                    n=n, k=k, weight=w,
                )
        # refused once the layers have confirmed the Witt counts it reads,
        # before the series shape and the law
        values = law_values(n, k) if k <= LAW_MAX_STEP else 0
        if values > MAX_LAW_VALUES:
            raise ValueError(f"group too large: n={n}, k={k} needs {values} law sample values, "
                             f"over MAX_LAW_VALUES = {MAX_LAW_VALUES}")
        self.elements = [c for level in self.by_weight for c in level]
        for i, c in enumerate(self.elements):
            c.index = i
        self.weight_offset = []
        pos = 0
        for level in self.by_weight:
            self.weight_offset.append(pos)
            pos += len(level)
        # weight_slices[w - 1]: the positions of the weight-w elements in an
        # exponent tuple
        self.weight_slices = tuple(
            slice(start, start + len(level))
            for start, level in zip(self.weight_offset, self.by_weight))
        self.shape = kernel.SeriesShape(n, k)
        self.lifts = Lifts(self, lambda gen: kernel.letter(gen, self.shape))
        # derived values computed once per basis (`per_basis`), keyed by a
        # tuple that starts with their name
        self.memo = {}

    def __repr__(self):
        return f"HallBasis(n={self.n}, k={self.k}, size={len(self.elements)})"

    # -- truncated-series machinery -------------------------------------

    def lie_columns(self, w):
        """Degree-w parts of the weight-w basis series, the lowest-degree
        terms of their lifts: the columns of the Lie-coordinate matrix."""
        return [kernel.lowest_terms(self.lifts.lift(i))
                for i in range(len(self.elements))[self.weight_slices[w - 1]]]

    @per_basis("peel")
    def _peel_solver(self, w):
        """Pivot solver of the degree-w Lie-coordinate matrix, on its
        echelon whose pivot rows are the Lyndon words."""
        try:
            return PivotSolver(self.lie_columns(w))
        except ValueError as err:
            raise InternalError(f"degree-{w} Lie lattice: {err}",
                                n=self.n, k=self.k, weight=w) from err

    def ordered_block_poly(self, w, coeffs, r, lifts=None):
        """r <- B r in place, for B the ordered product of the images of
        the weight-w basis elements raised to `coeffs`, under the map of
        `lifts` (default the identity's, `self.lifts`), and r 1 plus terms
        of degree > w.

        The factors c_j^e, the last first, multiply r on the left by
        P = c_j^|e|, or divide it for e < 0 (`kernel.left_divide`); P - 1
        is `Lifts.power` of c_j and |e|.  For 2w > k any product of two series of
        lowest degree >= w vanishes, and so does their product with r - 1:
        B r is r plus sum_j e_j (c_j - 1)."""
        if lifts is None:
            lifts = self.lifts
        start = self.weight_offset[w - 1]
        if 2 * w > self.k:
            for j, e in enumerate(coeffs):
                if e:
                    kernel.add_scaled(r, lifts.lift(start + j), e)
            return r
        for j in range(len(coeffs) - 1, -1, -1):
            e = coeffs[j]
            if e:
                kernel.left_divide(r, lifts.power(start + j, abs(e)), self.shape, e < 0)
        return r

    def exponents_poly(self, exps, lifts=None):
        """Series of the element with Hall exponents `exps`: 1 multiplied
        on the left by the weight blocks, the last first.

        With the `Lifts` of an endomorphism phi, it is the series of phi
        of that element."""
        r = kernel.one(self.shape)
        for w in range(self.k, 0, -1):
            block = exps[self.weight_slices[w - 1]]
            if any(block):
                self.ordered_block_poly(w, block, r, lifts)
        return r

    def element_from_poly(self, poly):
        """Recover Hall exponents of a group series; verifies exactness.

        The remainder r starts as a copy of `poly`.  Weight by weight, its
        degree-w terms t are a Lie element: the pivot solver reads the
        nonzero Hall coordinates x of E x = t off the pivot entries of t,
        and r is divided on the left by each factor c_j^x_j in ascending j,
        that is by its positive power (`Lifts.power`), or multiplied by it
        for x_j < 0.  That leaves t - E x as r's degree-w terms, so none
        left proves E x == t, and a non-Lie t can never pass.  For 2w > k
        any product of two series of lowest degree >= w vanishes, so the
        block is 1 + sum x_j (c_j - 1), and dividing by it subtracts
        x_j (c_j - 1) from r.
        """
        n, k = self.n, self.k
        if not kernel.is_one(poly, 0):
            raise InternalError("series has constant term != 1",
                                n=n, k=k, weight=0, residual_terms=kernel.term_count(poly))
        exps = [0] * len(self.elements)
        lifts = self.lifts
        r = kernel.copy(poly)
        for w in range(1, k + 1):
            x = self._peel_solver(w).solve(kernel.terms(r, w))
            if x is None:
                raise InternalError(f"degree-{w} coordinates are not integral",
                                    n=n, k=k, weight=w, residual_terms=kernel.term_count(r, w))
            start = self.weight_offset[w - 1]
            for j in sorted(x):
                xj = exps[start + j] = x[j]
                if 2 * w > k:
                    kernel.add_scaled(r, lifts.lift(start + j), -xj)
                else:
                    kernel.left_divide(r, lifts.power(start + j, abs(xj)), self.shape, xj > 0)
            if left := kernel.term_count(r, w):
                raise InternalError(f"degree-{w} component is not a Lie element",
                                    n=n, k=k, weight=w, residual_terms=left)
        if not kernel.is_one(r):
            raise InternalError("series does not collapse to the normal form",
                                n=n, k=k, weight=k, residual_terms=kernel.term_count(r) - 1)
        return NilElement(self, poly, tuple(exps))

    @cached_property
    def law(self):
        """The group law on exponent vectors (`hallpoly.HallLaw`), derived
        on first use and kept on the basis; None above `LAW_MAX_STEP`,
        where `hallpoly` is not imported at all."""
        if self.k > LAW_MAX_STEP:
            return None
        from nilpal import hallpoly  # imported here: hallpoly imports this module

        return hallpoly.derive(self)

    @cached_property
    def _letter_vectors(self):
        """Exponent tuple of each letter x_i^+-1, keyed by its `Letter`."""
        zeros = (0,) * len(self.elements)
        return {Letter(i, s): zeros[:i - 1] + (s,) + zeros[i:]
                for i in range(1, self.n + 1) for s in (1, -1)}

    # -- element builders -------------------------------------------------

    def one(self):
        return NilElement(self, kernel.one(self.shape), (0,) * len(self.elements))

    def generator(self, i):
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        exps = [0] * len(self.elements)
        exps[i - 1] = 1
        return NilElement(self, None, tuple(exps))

    def from_exponents(self, exps):
        # the exponent law would carry a float or a fixed-width integer
        # through its polynomials unchecked
        exps = tuple(map(operator.index, exps))
        if len(exps) != len(self.elements):
            raise ValueError("exponent vector has wrong length")
        return NilElement(self, None, exps)

    def from_text(self, text):
        return collect(parse_word(text, self.n), self)


@lru_cache(maxsize=None)
def hall_basis(n, k):
    return HallBasis(n, k)


class NilElement:
    """Canonical element of a free nilpotent group.

    Two elements are equal iff their Hall exponent vectors are equal.  The
    series is built from the exponents when first asked for, unless the
    element was made from one.
    """

    __slots__ = ("basis", "_poly", "exponents")

    def __init__(self, basis, poly, exponents):
        self.basis = basis
        self._poly = poly
        self.exponents = exponents

    @property
    def poly(self):
        if self._poly is None:
            self._poly = self.basis.exponents_poly(self.exponents)
        return self._poly

    def __eq__(self, other):
        return (
            isinstance(other, NilElement)
            and self.basis is other.basis
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((id(self.basis), self.exponents))

    def __repr__(self):
        return f"<{render_element(self)}>"

    def __mul__(self, other):
        return multiply(self, other)

    def __pow__(self, e):
        return power(self, e)

    def inverse(self):
        return invert(self)

    def is_identity(self):
        return not any(self.exponents)

    def abelianization(self):
        return self.exponents[: self.basis.n]

    def weight_block(self, w):
        return self.exponents[self.basis.weight_slices[w - 1]]


def _same_basis(a, b):
    if a.basis is not b.basis:
        raise ValueError("elements live in different bases")
    return a.basis


def collect(word, basis):
    """Canonical normal form of the image of a free word: its letters
    folded by the exponent law, or else its series built by degree and
    peeled.  The series starts at 1 and takes the runs right to left: a
    run of c letters x_i multiplies it on the left by
    (1 + X_i)^c = sum_d C(c, d) X_i^d (`Lifts.power` of x_i), and a run of
    c letters x_i^-1 divides it by that power."""
    if word.rank != basis.n:
        raise ValueError(f"word rank {word.rank} != basis rank {basis.n}")
    law = basis.law
    if law is not None:
        vectors = map(basis._letter_vectors.__getitem__, word.letters)
        return NilElement(basis, None, reduce(law.mul, vectors, law.one))
    lifts = basis.lifts
    r = kernel.one(basis.shape)
    runs = [(let, sum(1 for _ in run)) for let, run in groupby(word.letters)]
    for let, count in reversed(runs):
        kernel.left_divide(r, lifts.power(let.index - 1, count), basis.shape, let.sign < 0)
    return basis.element_from_poly(r)


def multiply(a, b):
    basis = _same_basis(a, b)
    law = basis.law
    if law is not None:
        return NilElement(basis, None, law.mul(a.exponents, b.exponents))
    return basis.element_from_poly(kernel.poly_mul(a.poly, b.poly, basis.shape))


def invert(a):
    basis = a.basis
    law = basis.law
    if law is not None:
        return NilElement(basis, None, law.inv(a.exponents))
    return basis.element_from_poly(kernel.poly_div(a.poly, kernel.one(basis.shape), basis.shape))


def power(a, e):
    basis = a.basis
    law = basis.law
    if law is not None:
        return NilElement(basis, None, law.pow(a.exponents, e))
    poly = kernel.poly_pow(a.poly, abs(e), basis.shape)
    if e < 0:
        poly = kernel.poly_div(poly, kernel.one(basis.shape), basis.shape)
    return basis.element_from_poly(poly)


def commutator(a, b):
    """[a, b] = a^-1 b^-1 a b = (ba)^-1 ab."""
    basis = _same_basis(a, b)
    law = basis.law
    if law is not None:
        return NilElement(basis, None, law.comm(a.exponents, b.exponents))
    shape = basis.shape
    return basis.element_from_poly(kernel.poly_div(kernel.poly_mul(b.poly, a.poly, shape),
                                                   kernel.poly_mul(a.poly, b.poly, shape), shape))


def left_normed(elements):
    """[g1, g2, ..., gm] folded left-normed."""
    elements = list(elements)
    if len(elements) < 2:
        raise ValueError("need at least two elements")
    acc = commutator(elements[0], elements[1])
    for nxt in elements[2:]:
        acc = commutator(acc, nxt)
    return acc


def bar(g):
    """Element reversal: bar(collect(w)) == collect(reverse_word(w)) for
    any word w.  Above step 3 it reverses the monomials of g's series."""
    basis = g.basis
    law = basis.law
    if law is not None:
        return NilElement(basis, None, law.bar(g.exponents))
    return basis.element_from_poly(kernel.poly_reverse(g.poly, basis.shape))


def weight(g):
    """Largest l with g in the weight-l filtration layer; k+1 for the identity."""
    exps = g.exponents
    for w, block in enumerate(g.basis.weight_slices, 1):
        if any(exps[block]):
            return w
    return g.basis.k + 1


def verify_w2k(ys, k):
    """Check the central-product identity for a tuple of 2k elements.

    The product [y_1,..,y_2k] * bar([y_1,..,y_2k]) is central in step 2k+1;
    it must equal the recursively defined word w_2k with
    w_2 = [y1, y2, y1 y2] and
    w_{2j+2} = [w_2j, y_{2j+1}, y_{2j+2}]
               * [y1,..,y_2j, y_{2j+1}, y_{2j+1} y_{2j+2}, y_{2j+2}].
    """
    ys = list(ys)
    if len(ys) != 2 * k:
        raise ValueError(f"need exactly {2 * k} elements, got {len(ys)}")
    basis = ys[0].basis
    if basis.k != 2 * k + 1:
        raise ValueError(f"basis step must be {2 * k + 1}, got {basis.k}")
    z = left_normed(ys)
    lhs = multiply(z, bar(z))
    w = commutator(commutator(ys[0], ys[1]), multiply(ys[0], ys[1]))
    for j in range(1, k):
        a, b = ys[2 * j], ys[2 * j + 1]
        first = left_normed([w, a, b])
        second = left_normed(ys[: 2 * j] + [a, multiply(a, b), b])
        w = multiply(first, second)
    return lhs == w


def render_element(g):
    """Canonical rendering, factors in basis order; round-trips the grammar."""
    parts = []
    for c, e in zip(g.basis.elements, g.exponents):
        if e:
            parts.append(c.render() + (f"^{e}" if e != 1 else ""))
    return " * ".join(parts) if parts else "1"


def element_as_word(g, reverse=False):
    """Some free word collecting to g (basis expansion of the normal form).

    `reverse` multiplies the factors in reverse basis order; that word is
    another preimage only when the factors commute (g central).
    """
    factors = list(zip(g.basis.elements, g.exponents))
    if reverse:
        factors.reverse()
    letters = []
    for c, e in factors:
        if e:
            w = c.as_word(g.basis.n)
            letters.extend((w if e > 0 else w.inverse()).letters * abs(e))
    return Word(letters, g.basis.n)
