"""Hall bases and exact arithmetic in free nilpotent groups.

The free nilpotent group of rank n and step k is the quotient of the free
group on x_1..x_n killing every iterated commutator of weight > k.  Elements
are kept in Hall normal form: the ordered product of integer powers of basic
commutators, weight-major.

Arithmetic runs in a faithful truncated-series model: x_i maps to 1 + X_i in
integer polynomials over noncommuting X_1..X_n, discarding all terms of
degree > k.  A word is trivial in the group iff its series is 1, so series
equality decides group equality; normal-form exponents are recovered weight
by weight, which doubles as a consistency check on every element built from
a series.

At step <= 3 the group operations and `collect` run on exponent vectors
instead, by the Hall polynomials that `hallpoly` derives from the series
model once per basis (`HallBasis.law`).
"""

import operator
from functools import cached_property, lru_cache, reduce

from nilpal import kernel
from nilpal.intlinalg import PivotSolver
from nilpal.words import Letter, Word, parse_word, word_commutator

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


class HallBasis:
    """The ordered basic commutators of weight <= k for rank n, plus the
    machinery of the truncated-series model (built lazily, then read-only)."""

    def __init__(self, n, k):
        if n < 1 or k < 1:
            raise ValueError(f"rank and step must be positive, got n={n}, k={k}")
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
        self.elements = [c for level in self.by_weight for c in level]
        for i, c in enumerate(self.elements):
            c.index = i
        self.weight_offset = []
        pos = 0
        for level in self.by_weight:
            self.weight_offset.append(pos)
            pos += len(level)
        self.shape = kernel.SeriesShape(n, k)
        self._lifts = {}
        self._peel = {}
        # derived values other modules compute once per basis, keyed by a
        # tuple that starts with the caller's name for them
        self.memo = {}

    def __repr__(self):
        return f"HallBasis(n={self.n}, k={self.k}, size={len(self.elements)})"

    def weight_slice(self, w):
        start = self.weight_offset[w - 1]
        return slice(start, start + len(self.by_weight[w - 1]))

    # -- truncated-series machinery -------------------------------------

    def mul(self, a, b):
        return kernel.poly_mul(a, b, self.shape)

    def pow(self, a, e):
        return kernel.poly_pow(a, e, self.shape)

    def bracket_series(self, idx, inverse, leaf, cache):
        """Series of basis element idx, or of its inverse, from the series
        `leaf(gen, inverse)` of the generators, kept in `cache`: its lift,
        or its image under an endomorphism (`autos.Endo`).  No series
        inverse is taken: [a,b] = a^-1 b^-1 a b and [a,b]^-1 = [b,a]."""
        key = (idx, inverse)
        poly = cache.get(key)
        if poly is None:
            c = self.elements[idx]
            if c.gen is not None:
                poly = leaf(c.gen, inverse)
            else:
                left, right = (c.right, c.left) if inverse else (c.left, c.right)
                a_inv, b_inv, a, b = [self.bracket_series(half.index, inv, leaf, cache)
                                      for inv in (True, False) for half in (left, right)]
                poly = self.mul(self.mul(a_inv, b_inv), self.mul(a, b))
            cache[key] = poly
        return poly

    def _generator_series(self, gen, inverse):
        """1 + X_i, or x_i^-1 = 1 - X_i + X_i^2 - ... up to degree k."""
        top, sign = (self.k, -1) if inverse else (1, 1)
        return {self.shape.index((gen,) * d): sign**d for d in range(top + 1)}

    def _lift(self, idx, inverse):
        """Series of basis element idx, or of its inverse, cached per basis.
        The peel asks for lifts on every call, so a hit skips the recursion."""
        return (self._lifts.get((idx, inverse))
                or self.bracket_series(idx, inverse, self._generator_series, self._lifts))

    def _product(self, factors):
        """Product of the series in `factors`, left to right."""
        out = None
        for f in factors:
            out = f if out is None else self.mul(out, f)
        return {0: 1} if out is None else out

    def _add_linear(self, poly, start, coeffs, lift=None):
        """poly + sum_j coeffs[j] * (lift(start+j, False) - 1)."""
        lift = lift or self._lift
        out = dict(poly)
        for j, e in enumerate(coeffs):
            if e:
                for i, c in lift(start + j, False).items():
                    if i:
                        out[i] = out.get(i, 0) + e * c
        return {i: c for i, c in out.items() if c}

    def lie_columns(self, w):
        """Degree-w parts of the weight-w basis series: the columns of the
        Lie-coordinate matrix, as dicts {monomial index: coefficient}."""
        off, end = self.shape.offset[w], self.shape.offset[w + 1]
        start = self.weight_offset[w - 1]
        return [
            {i: c for i, c in self._lift(start + j, False).items() if off <= i < end}
            for j in range(len(self.by_weight[w - 1]))
        ]

    def _degree_terms(self, poly, w):
        off, end = self.shape.offset[w], self.shape.offset[w + 1]
        return sum(1 for i in poly if off <= i < end)

    def _peel_solver(self, w):
        """Pivot solver of the degree-w Lie-coordinate matrix."""
        solver = self._peel.get(w)
        if solver is None:
            solver = self._peel[w] = PivotSolver(self.lie_columns(w))
        return solver

    def ordered_block_poly(self, w, coeffs, reverse=False, lift=None):
        """Series of the ordered product of the weight-w block with exponents.

        `reverse` multiplies the factors in reverse order; `lift` gives
        their series (`exponents_poly`).  For 2w > k any product of two
        series of lowest degree >= w vanishes, so the block is the sum
        1 + sum_j coeffs[j] * (series_j - 1) in either order.
        """
        lift = lift or self._lift
        start = self.weight_offset[w - 1]
        if 2 * w > self.k:
            return self._add_linear({0: 1}, start, coeffs, lift)
        order = range(len(coeffs) - 1, -1, -1) if reverse else range(len(coeffs))
        factors = []
        for j in order:
            e = coeffs[j]
            if e:
                poly = lift(start + j, e < 0)
                factors.append(poly if abs(e) == 1 else self.pow(poly, abs(e)))
        return self._product(factors)

    def exponents_poly(self, exps, lift=None):
        """Series of the element with Hall exponents `exps`.

        With `lift(idx, inverse)` the series of phi(c_idx)^(+-1) for an
        endomorphism phi, it is the series of phi of that element: phi maps
        gamma_w into gamma_w, so phi(c_j) - 1 has lowest degree >= w for
        c_j of weight w, and for 2w > k the weight-w block of images is the
        same linear sum that the peel subtracts.
        """
        return self._product(
            self.ordered_block_poly(w, exps[self.weight_slice(w)], lift=lift)
            for w in range(1, self.k + 1)
            if any(exps[self.weight_slice(w)])
        )

    def inverse_poly(self, exps):
        """Series of the inverse of the element with Hall exponents `exps`.

        The blocks in reverse order, each with its factors reversed and its
        exponents negated, so no series inverse is taken.
        """
        return self._product(
            self.ordered_block_poly(w, [-e for e in exps[self.weight_slice(w)]], reverse=True)
            for w in range(self.k, 0, -1)
            if any(exps[self.weight_slice(w)])
        )

    def element_from_poly(self, poly):
        """Recover Hall exponents of a group series; verifies exactness.

        Weight by weight, the lowest remaining degree w of the series r is
        a Lie element: its Hall coordinates x solve E x = t, with t the
        degree-w part of r.  The pivot solver reads x off the pivot entries
        of t, and r is divided on the left by the weight-w block.  That
        leaves t - E x as the degree-w part of r, so an empty degree-w part
        proves E x == t, and a non-Lie t can never pass.  For 2w > k any
        product of two series of lowest degree >= w vanishes, so the block
        is 1 + sum x_j (elt_j - 1) and dividing by it is a subtraction.
        """
        n, k = self.n, self.k
        if poly.get(0) != 1:
            raise InternalError("series has constant term != 1",
                                n=n, k=k, weight=0, residual_terms=len(poly))
        exps = [0] * len(self.elements)
        r = poly
        for w in range(1, k + 1):
            x = self._peel_solver(w).solve(r)
            if x is None:
                raise InternalError(f"degree-{w} coordinates are not integral",
                                    n=n, k=k, weight=w, residual_terms=self._degree_terms(r, w))
            start = self.weight_offset[w - 1]
            exps[start:start + len(x)] = x
            if any(x):
                neg = [-xj for xj in x]
                if 2 * w > k:
                    r = self._add_linear(r, start, neg)
                else:
                    r = self.mul(self.ordered_block_poly(w, neg, reverse=True), r)
            residual = self._degree_terms(r, w)
            if residual:
                raise InternalError(f"degree-{w} component is not a Lie element",
                                    n=n, k=k, weight=w, residual_terms=residual)
        if r != {0: 1}:
            raise InternalError("series does not collapse to the normal form",
                                n=n, k=k, weight=k, residual_terms=len(r) - 1)
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
        return NilElement(self, {0: 1}, (0,) * len(self.elements))

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

    def from_word(self, w):
        return collect(w, self)

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
        return self.exponents[self.basis.weight_slice(w)]


def _same_basis(a, b):
    if a.basis is not b.basis:
        raise ValueError("elements live in different bases")
    return a.basis


def collect(word, basis):
    """Canonical normal form of the image of a free word: its letters
    folded by the exponent law, or else by the series product and peeled."""
    if word.rank != basis.n:
        raise ValueError(f"word rank {word.rank} != basis rank {basis.n}")
    law = basis.law
    if law is not None:
        vectors = map(basis._letter_vectors.__getitem__, word.letters)
        return NilElement(basis, None, reduce(law.mul, vectors, law.one))
    lifts = (basis._lift(let.index - 1, let.sign < 0) for let in word.letters)
    return basis.element_from_poly(reduce(basis.mul, lifts, {0: 1}))


def multiply(a, b):
    basis = _same_basis(a, b)
    law = basis.law
    if law is not None:
        return NilElement(basis, None, law.mul(a.exponents, b.exponents))
    return basis.element_from_poly(basis.mul(a.poly, b.poly))


def invert(a):
    basis = a.basis
    law = basis.law
    if law is not None:
        return NilElement(basis, None, law.inv(a.exponents))
    return basis.element_from_poly(basis.inverse_poly(a.exponents))


def power(a, e):
    basis = a.basis
    law = basis.law
    if law is not None:
        return NilElement(basis, None, law.pow(a.exponents, e))
    poly = basis.inverse_poly(a.exponents) if e < 0 else a.poly
    return basis.element_from_poly(basis.pow(poly, abs(e)))


def commutator(a, b):
    """[a, b] = a^-1 b^-1 a b."""
    basis = _same_basis(a, b)
    law = basis.law
    if law is not None:
        return NilElement(basis, None, law.comm(a.exponents, b.exponents))
    return basis.element_from_poly(basis.mul(
        basis.mul(basis.inverse_poly(a.exponents), basis.inverse_poly(b.exponents)),
        basis.mul(a.poly, b.poly)))


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
    basis = g.basis
    for w in range(1, basis.k + 1):
        if any(g.exponents[basis.weight_slice(w)]):
            return w
    return basis.k + 1


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
