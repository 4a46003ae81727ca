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
kept as one dict per degree, each layer's nonzero coordinates are read off
its lowest degree by a sparse pivot solve, and the remainder is divided on
the left by each factor's positive power (a degree-by-degree solve, or a
product for a negative exponent), or for 2w > k has the linear tail
x_j (c_j - 1) subtracted in place.  A power c_j^e is the binomial sum of
cached powers of c_j - 1.  `collect` builds a word's series in the same
per-degree layout, one binomial block per run of a letter, and peels it
without a series product.

The lift of a bracket c = [a,b] comes from the lifts of its halves alone,
A = a - 1 and B = b - 1: since ab = ba c, X = c - 1 solves
(1 + A + B + BA) X = AB - BA, one left division up the degrees, and
c^-1 = [b,a] solves the same with A and B swapped.  Each positive lift
is stored once, by degree, in the layout the peel reads; the flat lifts
and inverse lifts that the series products of `multiply`, `bar` and
`invert` take are built from it on first use, so the peel and `collect`
build neither.

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
        self._lifts = {}
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

    def bracket_series(self, idx, inverse, leaf, cache):
        """Series of the image of basis element idx, or of its inverse,
        under the endomorphism whose generator images have the series
        `leaf(gen, inverse)` (`autos.Endo`), kept in `cache`.  A bracket's
        image is built from the positive images of its halves
        (`_bracket_degrees`), so no inverse image of a half is needed."""
        key = (idx, inverse)
        poly = cache.get(key)
        if poly is None:
            c = self.elements[idx]
            if c.gen is not None:
                poly = leaf(c.gen, inverse)
            else:
                a, b = (self._blocks_of(self.bracket_series(half.index, False, leaf, cache))
                        for half in (c.left, c.right))
                poly = _flat(self._bracket_degrees(a, b, c.weight, inverse))
            cache[key] = poly
        return poly

    def _bracket_degrees(self, a, b, w, inverse):
        """[1+a, 1+b] - 1, or [1+b, 1+a] - 1 if `inverse`, split by degree
        (the constant dict empty), for a and b in the `_blocks_of` layout
        whose bracket has lowest degree >= w.

        From (1+a)(1+b) = (1+b)(1+a) [1+a, 1+b], X = [1+a, 1+b] - 1 solves
        (1 + S) X = D with D = ab - ba and S = a + b + ba, and
        [1+b, 1+a] - 1 solves the same with a and b swapped: one left
        division (`_left_divide`) up the degrees, from the two products of
        the halves and no inverse series.  X has lowest degree >= w, so
        only the degrees <= k - w of S take part."""
        k = self.k
        if inverse:
            a, b = b, a
        r = [{} for _ in range(k + 1)]
        self._add_product(r, a, b, 1, k)
        self._add_product(r, b, a, -1, k)
        r = [{i: c for i, c in part.items() if c} for part in r]
        top = k - w
        s = [{} for _ in range(top + 1)]
        for blocks in (a, b):
            for d, items in blocks:
                if d > top:
                    break
                sd = s[d]
                for i, c in items:
                    sd[i] = sd.get(i, 0) + c
        self._add_product(s, b, a, 1, top)
        s = [(d, [(i, c) for i, c in sd.items() if c]) for d, sd in enumerate(s)]
        s = [(d, items) for d, items in s if items]
        if s:
            self._left_divide(r, s, True)
        return r

    def _add_product(self, out, a, b, sign, top):
        """out += sign * a b up to degree `top`, in place, for a and b in
        the `_blocks_of` layout and out split by degree; zero entries may
        be left in out.  Monomial ia times monomial ib of degree db is
        rowbase[ia][db] + ib - offset[db], one index shift per term of a
        and degree of b."""
        rowbase, offset = self.shape.rowbase, self.shape.offset
        for da, pa in a:
            for db, pb in b:
                d = da + db
                if d > top:
                    break
                out_d = out[d]
                off = offset[db]
                for ia, ca in pa:
                    shift = rowbase[ia][db] - off
                    ca *= sign
                    for ib, cb in pb:
                        i = shift + ib
                        out_d[i] = out_d.get(i, 0) + ca * cb

    def _lift(self, idx, inverse):
        """Flat series of basis element idx, or of its inverse, for the
        series products (`exponents_poly`, `inverse_poly`), cached per
        basis.  The positive lift is a copy of `_lift_blocks`; the peel
        and `collect` read only those, so they build no flat lift."""
        key = (idx, inverse)
        poly = self._lifts.get(key)
        if poly is None:
            c = self.elements[idx]
            if not inverse:
                poly = _flat(items for _, items in self._lift_blocks(idx))
            elif c.gen is not None:
                # x_i^-1 = 1 - X_i + X_i^2 - ... up to degree k
                poly = {0: 1, **{i: (-1) ** d for d, i in
                                 enumerate(self._letter_powers[c.gen], start=1)}}
            else:
                poly = _flat(self._bracket_degrees(
                    self._lift_blocks(c.left.index), self._lift_blocks(c.right.index),
                    c.weight, True))
            self._lifts[key] = poly
        return poly

    def _product(self, factors):
        """Product of the series in `factors`, left to right."""
        out = None
        for f in factors:
            out = f if out is None else self.mul(out, f)
        return {0: 1} if out is None else out

    def lie_columns(self, w):
        """Degree-w parts of the weight-w basis series: the columns of the
        Lie-coordinate matrix, as fresh dicts {monomial index: coefficient}
        built from the lowest degree block of each lift."""
        start = self.weight_offset[w - 1]
        return [dict(self._lift_blocks(start + j)[0][1])
                for j in range(len(self.by_weight[w - 1]))]

    def _by_degree(self, poly):
        """poly as k+1 dicts, one per degree, keyed by monomial index."""
        dr = self.shape.dr
        out = [{} for _ in range(self.k + 1)]
        for i, c in poly.items():
            out[dr[i][0]][i] = c
        return out

    def _blocks_of(self, poly):
        """poly - 1 for a series with constant term 1, as a tuple of
        (degree, items) for its nonzero degrees, ascending, where items
        are (monomial index, coefficient) pairs: the layout that
        `_left_divide` and the linear tail of the peel read."""
        dr = self.shape.dr
        out = {}
        for i, c in poly.items():
            if i and c:
                out.setdefault(dr[i][0], {})[i] = c
        return tuple((d, tuple(out[d].items())) for d in sorted(out))

    def _lift_blocks(self, idx):
        """c_idx - 1 by degree (`_blocks_of`), cached per basis element;
        read-only.  The one stored layout of each positive lift; a
        bracket's is built from its halves' (`_bracket_degrees`)."""
        blocks = self._blocks.get(idx)
        if blocks is None:
            c = self.elements[idx]
            if c.gen is not None:
                blocks = ((1, ((self._letter_powers[c.gen][0], 1),)),)
            else:
                r = self._bracket_degrees(self._lift_blocks(c.left.index),
                                          self._lift_blocks(c.right.index), c.weight, False)
                blocks = tuple((d, tuple(part.items())) for d, part in enumerate(r) if part)
            self._blocks[idx] = blocks
        return blocks

    def _power_blocks(self, idx, e):
        """c_idx^e - 1 by degree (`_blocks_of`), for e != 0 and c_idx of
        weight w with 2w <= k: the binomial sum of C(e, i) L^i over
        1 <= i <= k // w, with L = c_idx - 1 of lowest degree w, so that
        L^i vanishes for larger i (for e < 0, C(e, i) is the generalized
        binomial).  The powers L^i are cached per basis element, k // w
        series each."""
        powers = self._powers.get(idx)
        if powers is None:
            lift = self._lift_blocks(idx)
            flat = {i: c for _, items in lift for i, c in items}
            powers, power = [lift], flat
            for _ in range(1, self.k // self.elements[idx].weight):
                power = self.mul(power, flat)
                powers.append(self._blocks_of(power))
            powers = self._powers[idx] = tuple(powers)
        out = {}
        for i, blocks in enumerate(powers, start=1):
            b = comb(e, i) if e >= 0 else (-1) ** i * comb(i - e - 1, i)
            for d, items in blocks:
                od = out.setdefault(d, {})
                for m, c in items:
                    od[m] = od.get(m, 0) + b * c
        return [(d, [(m, c) for m, c in od.items() if c]) for d, od in sorted(out.items())]

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
        1 + sum_j coeffs[j] * (series_j - 1) in either order.  Otherwise a
        lift raised to |e| >= 2 is the binomial sum of its cached powers
        (`_power_blocks`); a given `lift` is raised by the kernel.
        """
        own = lift is None
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
            if not e:
                continue
            if abs(e) == 1:
                factors.append(lift(start + j, e < 0))
            elif own:
                factors.append(_flat(items for _, items in self._power_blocks(start + j, e)))
            else:
                factors.append(self.pow(lift(start + j, e < 0), abs(e)))
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

    def element_from_poly(self, poly, r=None):
        """Recover Hall exponents of a group series; verifies exactness.

        The remainder r is kept as k+1 dicts, one per degree: `poly` split
        by degree, or the given `r`, which must be that split (`collect`
        builds it degree by degree) and which the peel uses up.  Weight by
        weight, its lowest remaining degree w is a Lie element: its Hall
        coordinates x solve E x = t, with t = r[w].  The pivot solver reads
        x off the pivot entries of t, and r is divided on the left by the
        weight-w block c_1^x_1 ... c_m^x_m, one factor at a time.  That
        leaves t - E x in r[w], so an empty r[w] proves E x == t, and a
        non-Lie t can never pass.

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
        if poly.get(0) != 1:
            raise InternalError("series has constant term != 1",
                                n=n, k=k, weight=0, residual_terms=len(poly))
        exps = [0] * len(self.elements)
        if r is None:
            r = self._by_degree(poly)
        for w in range(1, k + 1):
            x = self._peel_solver(w).solve(r[w])
            if x is None:
                raise InternalError(f"degree-{w} coordinates are not integral",
                                    n=n, k=k, weight=w, residual_terms=len(r[w]))
            start = self.weight_offset[w - 1]
            for j in sorted(x):
                xj = exps[start + j] = x[j]
                if 2 * w > k:
                    for d, items in self._lift_blocks(start + j):
                        out = r[d]
                        for i, c in items:
                            v = out.get(i, 0) - xj * c
                            if v:
                                out[i] = v
                            else:
                                del out[i]
                else:
                    self._left_divide(r, self._lift_blocks(start + j) if xj in (1, -1)
                                      else self._power_blocks(start + j, abs(xj)), xj > 0)
            if r[w]:
                raise InternalError(f"degree-{w} component is not a Lie element",
                                    n=n, k=k, weight=w, residual_terms=len(r[w]))
        if r[0] != {0: 1} or any(r[1:]):
            raise InternalError("series does not collapse to the normal form",
                                n=n, k=k, weight=k, residual_terms=sum(map(len, r)) - 1)
        return NilElement(self, poly, tuple(exps))

    def _left_divide(self, r, blocks, solve):
        """r <- P^-1 r if `solve`, else P r, in place; r is split by degree,
        r[0] is the constant 1 or empty (a series with no constant term),
        and P - 1 is `blocks` (`_blocks_of`), of lowest degree w.  Solving
        walks the degrees up, so that r[d - e] is already s_(d-e);
        multiplying walks them down, so that it is still r_(d-e)."""
        k = self.k
        rowbase, offset = self.shape.rowbase, self.shape.offset
        sign = -1 if solve else 1
        w = blocks[0][0]
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
                for ia, ca in pe:
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


def _flat(parts):
    """The flat series 1 + the terms of `parts`, each a dict or a sequence
    of (monomial index, coefficient) pairs, with no index in two parts:
    a series split by degree, or the items of a `_blocks_of` layout."""
    poly = {0: 1}
    for part in parts:
        poly.update(part)
    return poly


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
    r = [{0: 1}] + [{} for _ in range(basis.k)]
    runs = [(let, sum(1 for _ in run)) for let, run in groupby(word.letters)]
    for let, count in reversed(runs):
        blocks = [(d, ((i, comb(count, d)),))
                  for d, i in enumerate(powers[let.index], start=1) if d <= count]
        basis._left_divide(r, blocks, let.sign < 0)
    return basis.element_from_poly(_flat(r), r)


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
