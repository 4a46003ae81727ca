"""Hall bases and exact arithmetic in free nilpotent groups.

The free nilpotent group of rank n and step k is the quotient of the free
group on x_1..x_n killing every iterated commutator of weight > k.  Elements
are kept in Hall normal form: the ordered product of integer powers of basic
commutators, weight-major.

Arithmetic runs in a faithful truncated-series model: x_i maps to 1 + X_i in
integer polynomials over noncommuting X_1..X_n, discarding all terms of
degree > k.  A word is trivial in the group iff its series is 1, so series
equality decides group equality.  Normal-form exponents are recovered weight
by weight (`HallBasis.element_from_poly`, "the peel"), which doubles as a
consistency check on every element built from a series: the remainder is
kept as one dict per degree, each layer's coordinates are read off its
lowest degree by a sparse pivot solve, and the remainder is divided on the
left by each factor's positive power (a degree-by-degree solve, or a
product for a negative exponent), or for 2w > k has the linear tail
x_j (c_j - 1) subtracted in place.

At step <= 3 the group operations and `collect` run on exponent vectors
instead, by the Hall polynomials that `hallpoly` derives from the series
model once per basis (`HallBasis.law`).
"""

import operator
from functools import cached_property, lru_cache, reduce
from itertools import groupby

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
        self._lift_blocks = {}
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

    def lie_columns(self, w):
        """Degree-w parts of the weight-w basis series: the columns of the
        Lie-coordinate matrix, as dicts {monomial index: coefficient}.
        They are the cached degree blocks of the lifts; read-only."""
        start = self.weight_offset[w - 1]
        return [self._lift_by_degree(start + j)[w] for j in range(len(self.by_weight[w - 1]))]

    def _by_degree(self, poly):
        """poly as k+1 dicts, one per degree, keyed by monomial index."""
        dr = self.shape.dr
        out = [{} for _ in range(self.k + 1)]
        for i, c in poly.items():
            out[dr[i][0]][i] = c
        return out

    def _lift_by_degree(self, idx):
        """The lift of basis element idx split by degree (`_by_degree`),
        cached per basis element; read-only."""
        blocks = self._lift_blocks.get(idx)
        if blocks is None:
            blocks = self._lift_blocks[idx] = self._by_degree(self._lift(idx, False))
        return blocks

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
            out = {0: 1}
            for j, e in enumerate(coeffs):
                if e:
                    for i, c in lift(start + j, False).items():
                        if i:
                            out[i] = out.get(i, 0) + e * c
            return {i: c for i, c in out.items() if c}
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

        The remainder r is kept as k+1 dicts, one per degree.  Weight by
        weight, its lowest remaining degree w is a Lie element: its Hall
        coordinates x solve E x = t, with t = r[w].  The pivot solver reads
        x off the pivot entries of t, and r is divided on the left by the
        weight-w block c_1^x_1 ... c_m^x_m, one factor at a time.  That
        leaves t - E x in r[w], so an empty r[w] proves E x == t, and a
        non-Lie t can never pass.

        Each factor is divided by its positive power P = c_j^|x_j|, whose
        series is 1 plus terms of degree >= w: for x_j > 0, r becomes the
        s with P s = r, degree by degree (s_d = r_d - sum_e P_e s_(d-e));
        for x_j < 0, r becomes P r.  For 2w > k any product of two series
        of lowest degree >= w vanishes, so the block is
        1 + sum x_j (c_j - 1) and dividing by it subtracts
        x_j (c_j - 1) from r.
        """
        n, k = self.n, self.k
        if poly.get(0) != 1:
            raise InternalError("series has constant term != 1",
                                n=n, k=k, weight=0, residual_terms=len(poly))
        exps = [0] * len(self.elements)
        r = self._by_degree(poly)
        for w in range(1, k + 1):
            x = self._peel_solver(w).solve(r[w])
            if x is None:
                raise InternalError(f"degree-{w} coordinates are not integral",
                                    n=n, k=k, weight=w, residual_terms=len(r[w]))
            start = self.weight_offset[w - 1]
            exps[start:start + len(x)] = x
            for j, xj in enumerate(x):
                if not xj:
                    continue
                if 2 * w > k:
                    for d in range(w, k + 1):
                        out = r[d]
                        for i, c in self._lift_by_degree(start + j)[d].items():
                            v = out.get(i, 0) - xj * c
                            if v:
                                out[i] = v
                            else:
                                del out[i]
                else:
                    p = (self._lift_by_degree(start + j) if xj in (1, -1) else
                         self._by_degree(self.pow(self._lift(start + j, False), abs(xj))))
                    self._left_divide(r, p, w, xj > 0)
            if r[w]:
                raise InternalError(f"degree-{w} component is not a Lie element",
                                    n=n, k=k, weight=w, residual_terms=len(r[w]))
        if r[0] != {0: 1} or any(r[1:]):
            raise InternalError("series does not collapse to the normal form",
                                n=n, k=k, weight=k, residual_terms=sum(map(len, r)) - 1)
        return NilElement(self, poly, tuple(exps))

    def _left_divide(self, r, p, w, solve):
        """r <- P^-1 r if `solve`, else P r, in place; r and P are split by
        degree, and P - 1 has lowest degree >= w.  Solving walks the
        degrees up, so that r[d - e] is already s_(d-e); multiplying walks
        them down, so that it is still r_(d-e).  r[0] is the constant 1."""
        k = self.k
        rowbase, offset = self.shape.rowbase, self.shape.offset
        sign = -1 if solve else 1
        blocks = [(e, pe) for e, pe in enumerate(p) if e >= w and pe]
        for d in range(w, k + 1) if solve else range(k, w - 1, -1):
            out = r[d]
            for e, pe in blocks:
                if e > d:
                    break
                db = d - e
                s = r[db]
                if not s:
                    continue
                off = offset[db]
                for ia, ca in pe.items():
                    shift = rowbase[ia][db] - off
                    ca *= sign
                    for ib, cb in s.items():
                        i = shift + ib
                        v = out.get(i, 0) + ca * cb
                        if v:
                            out[i] = v
                        else:
                            del out[i]

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
    folded by the exponent law, or else each run of one letter raised to
    its length as a series (O(log length) products), the runs multiplied
    and peeled."""
    if word.rank != basis.n:
        raise ValueError(f"word rank {word.rank} != basis rank {basis.n}")
    law = basis.law
    if law is not None:
        vectors = map(basis._letter_vectors.__getitem__, word.letters)
        return NilElement(basis, None, reduce(law.mul, vectors, law.one))
    runs = []
    for let, run in groupby(word.letters):
        lift = basis._lift(let.index - 1, let.sign < 0)
        count = sum(1 for _ in run)
        runs.append(lift if count == 1 else basis.pow(lift, count))
    return basis.element_from_poly(basis._product(runs))


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
