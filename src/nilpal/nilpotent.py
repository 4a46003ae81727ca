"""Hall bases and exact arithmetic in free nilpotent groups.

The free nilpotent group of rank n and step k is the quotient of the free
group on x_1..x_n killing every iterated commutator of weight > k.  Elements
are kept in Hall normal form: the ordered product of integer powers of basic
commutators, weight-major.

Arithmetic runs in a faithful truncated-series model: x_i maps to 1 + X_i in
integer polynomials over noncommuting X_1..X_n, discarding all terms of
degree > k.  A word is trivial in the group iff its series is 1, so series
equality decides group equality.  A series is kept as one dict per degree
(`kernel`), and the series of elements, inverses, commutators and words
come from one primitive: multiplying or dividing a running series on the
left by a factor, the read-only form of c - 1 for a lift c
(`kernel.left_divide`).  An element's
series is 1 multiplied on the left by its factors c_j^e_j, the last first
(`HallBasis.exponents_poly`); an inverse is 1 divided on the left by the
element's series, and a commutator [a, b] is ab divided by ba.  A power
c_j^e is the binomial sum of cached powers of c_j - 1.  `collect` builds a
word's series the same way, one binomial block per run of a letter.

Normal-form exponents are recovered weight by weight
(`HallBasis.element_from_poly`, "the peel"), which doubles as a
consistency check on every element built from a series: each layer's
nonzero coordinates are read off the remainder's lowest degree by a sparse
pivot solve, and the remainder is divided on the left by each factor's
positive power (or multiplied by it, for a negative exponent), or for
2w > k has the linear tail x_j (c_j - 1) subtracted in place.

The lift of a bracket c = [a,b] comes from the lifts of its halves alone,
A = a - 1 and B = b - 1: since ab = ba c, X = c - 1 solves
(1 + A + B + BA) X = AB - BA, one left division up the degrees, and
c^-1 = [b,a] solves the same with A and B swapped.  Each lift is stored
once, as a factor, and no inverse lift is kept.

At step <= 3 the group operations and `collect` run on exponent vectors
instead, by the Hall polynomials that `hallpoly` derives from the series
model once per basis (`HallBasis.law`).
"""

import operator
from functools import cached_property, lru_cache, reduce
from itertools import groupby
from math import comb

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
        self.weight_slices = tuple(
            slice(start, start + len(level))
            for start, level in zip(self.weight_offset, self.by_weight))
        self.shape = kernel.SeriesShape(n, k)
        self._blocks = {}
        self._powers = {}
        self._peel = {}
        # derived values other modules compute once per basis, keyed by a
        # tuple that starts with the caller's name for them
        self.memo = {}

    def __repr__(self):
        return f"HallBasis(n={self.n}, k={self.k}, size={len(self.elements)})"

    def weight_slice(self, w):
        """The positions of the weight-w basis elements in an exponent
        tuple: one of the k slices `weight_slices` built with the basis."""
        return self.weight_slices[w - 1]

    # -- truncated-series machinery -------------------------------------

    def mul(self, a, b):
        return kernel.poly_mul(a, b, self.shape)

    def pow(self, a, e):
        return kernel.poly_pow(a, e, self.shape)

    def div(self, a, b):
        return kernel.poly_div(a, b, self.shape)

    def inverse_poly(self, poly):
        """Series of g^-1 from the series of g: 1 divided on the left by it."""
        return self.div(poly, kernel.one(self.shape))

    def bracket_series(self, idx, inverse, leaf, cache):
        """Series of the image of basis element idx, or of its inverse,
        under the endomorphism whose generator images have the series
        `leaf(gen, inverse)` (`autos.Endo`), kept in `cache`.  A bracket's
        image is built from the positive images of its halves
        (`_bracket_series`), so no inverse image of a half is needed."""
        key = (idx, inverse)
        poly = cache.get(key)
        if poly is None:
            c = self.elements[idx]
            if c.gen is not None:
                poly = leaf(c.gen, inverse)
            else:
                a, b = (kernel.factor(self.bracket_series(half.index, False, leaf, cache))
                        for half in (c.left, c.right))
                poly = self._bracket_series(a, b, c.weight, inverse)
            cache[key] = poly
        return poly

    def _bracket_series(self, a, b, w, inverse):
        """The series of [1+a, 1+b], or of [1+b, 1+a] if `inverse`, for
        factors a and b whose bracket has lowest degree >= w.

        From (1+a)(1+b) = (1+b)(1+a) [1+a, 1+b], X = [1+a, 1+b] - 1 solves
        (1 + S) X = D with D = ab - ba and S = a + b + ba, and
        [1+b, 1+a] - 1 solves the same with a and b swapped: one left
        division up the degrees, from the two products of the halves and
        no inverse series.  X has lowest degree >= w, so only the degrees
        <= k - w of S take part."""
        k, shape = self.k, self.shape
        if inverse:
            a, b = b, a
        r = [{} for _ in range(k + 1)]
        kernel.add_product(r, a, b, shape)
        kernel.add_product(r, b, a, shape, -1)
        r = [{i: c for i, c in part.items() if c} for part in r]
        top = k - w
        s = [{} for _ in range(top + 1)]
        for f in (a, b):
            kernel.add_scaled(s, [(d, items) for d, items in f if d <= top], 1)
        kernel.add_product(s, b, a, shape, 1, top)
        s = kernel.factor([{i: c for i, c in part.items() if c} for part in s])
        kernel.left_divide(r, s, shape, True)
        r[0] = {0: 1}
        return r

    def lie_columns(self, w):
        """Degree-w parts of the weight-w basis series: the columns of the
        Lie-coordinate matrix, as fresh dicts {monomial index: coefficient}
        built from the lowest degree block of each lift."""
        start = self.weight_offset[w - 1]
        return [dict(self._lift_blocks(start + j)[0][1])
                for j in range(len(self.by_weight[w - 1]))]

    def _lift_blocks(self, idx):
        """The factor c_idx - 1 (`kernel.factor`), cached per basis
        element; read-only.  The one stored form of each lift; a bracket's
        is built from its halves' (`_bracket_series`)."""
        blocks = self._blocks.get(idx)
        if blocks is None:
            c = self.elements[idx]
            if c.gen is not None:
                blocks = ((1, ((self._letter_powers[c.gen][0], 1),)),)
            else:
                blocks = kernel.factor(self._bracket_series(
                    self._lift_blocks(c.left.index), self._lift_blocks(c.right.index),
                    c.weight, False))
            self._blocks[idx] = blocks
        return blocks

    def _power_blocks(self, idx, e):
        """The factor c_idx^e - 1, for e != 0 and c_idx of weight w with
        2w <= k: the binomial sum of C(e, i) L^i over 1 <= i <= k // w,
        with L = c_idx - 1 of lowest degree w, so that L^i vanishes for
        larger i (for e < 0, C(e, i) is the generalized binomial).  The
        powers L^i are cached per basis element, k // w factors each."""
        powers = self._powers.get(idx)
        if powers is None:
            lift = self._lift_blocks(idx)
            low = kernel.series(lift, self.shape)
            low[0] = {}  # L alone, with no constant term
            powers, power = [lift], low
            for _ in range(1, self.k // self.elements[idx].weight):
                power = self.mul(power, low)
                powers.append(kernel.factor(power))
            powers = self._powers[idx] = tuple(powers)
        out = [{} for _ in range(self.k + 1)]
        for i, f in enumerate(powers, start=1):
            kernel.add_scaled(out, f, comb(e, i) if e >= 0 else (-1) ** i * comb(i - e - 1, i))
        return kernel.factor(out)

    def _peel_solver(self, w):
        """Pivot solver of the degree-w Lie-coordinate matrix."""
        solver = self._peel.get(w)
        if solver is None:
            solver = self._peel[w] = PivotSolver(self.lie_columns(w))
        return solver

    def ordered_block_poly(self, w, coeffs, r, lift=None):
        """r <- B r in place, for B the ordered product of the weight-w
        basis elements raised to `coeffs` and r 1 plus terms of degree > w.

        The factors c_j^e, the last first, multiply r on the left by
        P = c_j^|e|, or divide it for e < 0 (`kernel.left_divide`); P - 1
        is the lift, the binomial sum of its cached powers
        (`_power_blocks`), or for a given `lift(idx)` (`exponents_poly`)
        the kernel's power of it.  For 2w > k any product of two series of
        lowest degree >= w vanishes, and so does their product with r - 1:
        B r is r plus sum_j e_j (c_j - 1)."""
        shape = self.shape
        start = self.weight_offset[w - 1]
        if 2 * w > self.k:
            for j, e in enumerate(coeffs):
                if e:
                    kernel.add_scaled(r, self._lift_blocks(start + j) if lift is None
                                      else kernel.factor(lift(start + j)), e)
            return r
        for j in range(len(coeffs) - 1, -1, -1):
            e = coeffs[j]
            if not e:
                continue
            if lift is not None:
                p = kernel.factor(self.pow(lift(start + j), abs(e)))
            elif e in (1, -1):
                p = self._lift_blocks(start + j)
            else:
                p = self._power_blocks(start + j, abs(e))
            kernel.left_divide(r, p, shape, e < 0)
        return r

    def exponents_poly(self, exps, lift=None):
        """Series of the element with Hall exponents `exps`: 1 multiplied
        on the left by the weight blocks, the last first.

        With `lift(idx)` the series of phi(c_idx) for an endomorphism phi,
        it is the series of phi of that element: phi(c_j) - 1 has lowest
        degree >= w for c_j of weight w, as `ordered_block_poly` needs."""
        r = kernel.one(self.shape)
        for w in range(self.k, 0, -1):
            block = exps[self.weight_slice(w)]
            if any(block):
                self.ordered_block_poly(w, block, r, lift)
        return r

    def element_from_poly(self, poly):
        """Recover Hall exponents of a group series; verifies exactness.

        The remainder r starts as a copy of `poly`, one dict per degree.
        Weight by weight, its lowest remaining degree w is a Lie element:
        its Hall coordinates x solve E x = t, with t = r[w].  The pivot
        solver reads x off the pivot entries of t, and r is divided on the
        left by the weight-w block c_1^x_1 ... c_m^x_m, one factor at a
        time.  That leaves t - E x in r[w], so an empty r[w] proves
        E x == t, and a non-Lie t can never pass.

        Each factor is divided by its positive power P = c_j^|x_j|, whose
        series is 1 plus terms of degree >= w (`_power_blocks`): for
        x_j > 0, r becomes the s with P s = r, degree by degree
        (s_d = r_d - sum_e P_e s_(d-e)); for x_j < 0, r becomes P r.  The
        solver returns the nonzero x_j only, and the factors are taken in
        ascending j.  For 2w > k any product of two series
        of lowest degree >= w vanishes, so the block is
        1 + sum x_j (c_j - 1) and dividing by it subtracts
        x_j (c_j - 1) from r.
        """
        n, k = self.n, self.k
        if poly[0] != {0: 1}:
            raise InternalError("series has constant term != 1",
                                n=n, k=k, weight=0, residual_terms=sum(map(len, poly)))
        exps = [0] * len(self.elements)
        r = [dict(part) for part in poly]
        for w in range(1, k + 1):
            x = self._peel_solver(w).solve(r[w])
            if x is None:
                raise InternalError(f"degree-{w} coordinates are not integral",
                                    n=n, k=k, weight=w, residual_terms=len(r[w]))
            start = self.weight_offset[w - 1]
            for j in sorted(x):
                xj = exps[start + j] = x[j]
                if 2 * w > k:
                    kernel.add_scaled(r, self._lift_blocks(start + j), -xj)
                else:
                    kernel.left_divide(r, self._lift_blocks(start + j) if xj in (1, -1)
                                       else self._power_blocks(start + j, abs(xj)),
                                       self.shape, xj > 0)
            if r[w]:
                raise InternalError(f"degree-{w} component is not a Lie element",
                                    n=n, k=k, weight=w, residual_terms=len(r[w]))
        if r[0] != {0: 1} or any(r[1:]):
            raise InternalError("series does not collapse to the normal form",
                                n=n, k=k, weight=k, residual_terms=sum(map(len, r)) - 1)
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
    def _letter_powers(self):
        """Monomial index of X_i^d for d = 1..k, keyed by generator i."""
        return {i: tuple(self.shape.index((i,) * d) for d in range(1, self.k + 1))
                for i in range(1, self.n + 1)}

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
        return self.exponents[self.basis.weight_slice(w)]


def _same_basis(a, b):
    if a.basis is not b.basis:
        raise ValueError("elements live in different bases")
    return a.basis


def collect(word, basis):
    """Canonical normal form of the image of a free word: its letters
    folded by the exponent law, or else its series built by degree and
    peeled.  The series starts at 1 and takes the runs right to left: a
    run of c letters x_i multiplies it on the left by
    (1 + X_i)^c = sum_d C(c, d) X_i^d, and a run of c letters x_i^-1
    divides it by that power."""
    if word.rank != basis.n:
        raise ValueError(f"word rank {word.rank} != basis rank {basis.n}")
    law = basis.law
    if law is not None:
        vectors = map(basis._letter_vectors.__getitem__, word.letters)
        return NilElement(basis, None, reduce(law.mul, vectors, law.one))
    powers = basis._letter_powers
    r = kernel.one(basis.shape)
    runs = [(let, sum(1 for _ in run)) for let, run in groupby(word.letters)]
    for let, count in reversed(runs):
        blocks = [(d, ((i, comb(count, d)),))
                  for d, i in enumerate(powers[let.index], start=1) if d <= count]
        kernel.left_divide(r, blocks, basis.shape, let.sign < 0)
    return basis.element_from_poly(r)


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
    return basis.element_from_poly(basis.inverse_poly(a.poly))


def power(a, e):
    basis = a.basis
    law = basis.law
    if law is not None:
        return NilElement(basis, None, law.pow(a.exponents, e))
    poly = basis.pow(a.poly, abs(e))
    return basis.element_from_poly(basis.inverse_poly(poly) if e < 0 else poly)


def commutator(a, b):
    """[a, b] = a^-1 b^-1 a b = (ba)^-1 ab."""
    basis = _same_basis(a, b)
    law = basis.law
    if law is not None:
        return NilElement(basis, None, law.comm(a.exponents, b.exponents))
    return basis.element_from_poly(basis.div(basis.mul(b.poly, a.poly),
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
