"""The group law on Hall exponent vectors at step <= 3 (Hall polynomials).

P. Hall (*Nilpotent groups*, 1957) showed that each Hall coordinate of a
product x*y is an integer-valued polynomial in the coordinates of x and y,
of weighted degree at most the coordinate's weight, where the variable of a
basis element weighs that element's weight.  The same holds for the
coordinates of x^-1 and of bar(x).  Deep Thought (Leedham-Green and
Soicher, 1998) computes these polynomials symbolically; here they are
derived from the series model instead.

An integer-valued polynomial has integer coefficients in the binomial basis
prod_v C(x_v, d_v).  If its support lies in the down-closed set of exponent
vectors d of weighted degree <= w, the coefficient of d is the finite
difference sum_{e <= d} (-1)^{|d|-|e|} prod_v C(d_v, e_v) f(e), which reads
only values at points of that same set.  So one series product per lattice
point of weighted degree <= k, each one checked by the peel, fixes every
product polynomial exactly (a point where one factor is the identity needs
no product).  The inverse and `bar` get their own polynomials the same way,
one series inverse or reversal per point.  The commutator [x, y] is a
product of such polynomials, so it is one too; its samples come from the
fitted `mul` and `inv` and need no series at all.  All four are compiled
by one generator.

After the derivation, every polynomial is compared with the series model
at extra points with negative entries (`CHECK_POINTS`), and a mismatch
raises `InternalError` naming the coordinate.  No check point has an entry
in 0..k-1, where some binomial C(x, d) with d <= k vanishes, so a change to
any single coefficient is caught at every check point.

The polynomials are compiled into one Python function per operation, which
turns a group operation into a single evaluation on tuples of integers.
"""

from itertools import product
from math import comb, factorial
from random import Random

from nilpal import kernel
from nilpal.nilpotent import InternalError

CHECK_POINTS = 4


def _points(weights, top):
    """Exponent vectors over variables of the given weights with weighted
    degree <= top, each as a tuple of (variable, count) with count > 0."""
    out = [()]

    def extend(prefix, start, budget):
        for v in range(start, len(weights)):
            for count in range(1, budget // weights[v] + 1):
                point = prefix + ((v, count),)
                out.append(point)
                extend(point, v + 1, budget - count * weights[v])

    extend((), 0, top)
    return out


def _differences(points, values):
    """Binomial-basis coefficients, one vector per point, of the vector
    function with `values` on the down-closed set `points`."""
    at = dict(zip(points, values))
    out = []
    for d in points:
        acc = [0] * len(values[0])
        for sub in product(*(range(c + 1) for _, c in d)):
            value = at[tuple((v, s) for (v, _), s in zip(d, sub) if s)]
            if not any(value):
                continue
            coef = 1
            for (_, c), s in zip(d, sub):
                coef *= (-1) ** (c - s) * comb(c, s)
            acc = [a + coef * f for a, f in zip(acc, value)]
        out.append(acc)
    return out


def _fit(weights, top, sample):
    """Per output coordinate, the terms [(coefficient, point)] of the
    polynomial taking the value sample(point) at each point of weighted
    degree <= top, a point given as a dense exponent tuple."""
    nvars = len(weights)
    points = _points(weights, top)
    values = []
    for point in points:
        dense = [0] * nvars
        for v, c in point:
            dense[v] = c
        values.append(sample(tuple(dense)))
    coeffs = _differences(points, values)
    return [
        [(vec[c], point) for point, vec in zip(points, coeffs) if vec[c]]
        for c in range(len(values[0]))
    ]


# -- compiling polynomials to Python -----------------------------------------

def _factor(name, count):
    """Local holding C(name, count)."""
    return name if count == 1 else f"{name}_{count}"


def _binomial_line(name, count):
    numerator = " * ".join([name] + [f"({name} - {j})" for j in range(1, count)])
    return f"    {name}_{count} = {numerator} // {factorial(count)}"


def _expr(terms, names):
    parts = []
    for coef, point in terms:
        mono = "*".join(_factor(names[v], c) for v, c in point) or "1"
        parts.append(mono if coef == 1 else f"-{mono}" if coef == -1 else f"{coef}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _source(name, args, names, outputs):
    """Source of `def name(args)` returning the tuple of polynomials."""
    m = len(outputs)
    lines = [f"def {name}({', '.join(args)}):"]
    for a in args:
        lines.append(f"    {''.join(f'{a}{i}, ' for i in range(m))}= {a}")
    used = sorted({(v, c) for terms in outputs for _, point in terms for v, c in point if c > 1})
    lines += [_binomial_line(names[v], c) for v, c in used]
    lines.append(f"    return ({''.join(_expr(t, names) + ', ' for t in outputs)})")
    return "\n".join(lines)


class HallLaw:
    """The group law of one basis on exponent tuples.

    `mul`, `inv`, `bar` and `comm` ([x, y] = x^-1 y^-1 x y) are compiled
    polynomials, added one at a time by `add`.
    """

    def __init__(self, basis):
        m = len(basis.elements)
        self._names = {"x": [f"x{i}" for i in range(m)], "y": [f"y{i}" for i in range(m)]}
        self._label = f"<hall law n={basis.n} k={basis.k}>"
        self.one = (0,) * m

    def add(self, name, args, terms):
        """Compile `def name(args)` from one term list per coordinate."""
        names = [v for a in args for v in self._names[a]]
        text = _source(name, args, names, terms)
        namespace = {}
        exec(compile(text, self._label, "exec"), namespace)
        setattr(self, name, namespace[name])

    def pow(self, x, e):
        """x^e by repeated squaring."""
        if e < 0:
            x, e = self.inv(x), -e
        out = None
        while e:
            if e & 1:
                out = x if out is None else self.mul(out, x)
            e >>= 1
            if e:
                x = self.mul(x, x)
        return self.one if out is None else out


def derive(basis):
    """The `HallLaw` of a basis, derived from and then checked against the
    series model.  `HallBasis.law` asks for it only up to step
    `nilpotent.LAW_MAX_STEP`."""
    n, k = basis.n, basis.k
    m = len(basis.elements)
    weights = [c.weight for c in basis.elements]
    shape = basis.shape

    def series(poly):
        return basis.element_from_poly(poly).exponents

    def product_sample(xy):
        # 1 * y = y and x * 1 = x hold in any group: only points with both
        # factors nontrivial need a series product
        x, y = xy[:m], xy[m:]
        if not any(x):
            return y
        if not any(y):
            return x
        return series(kernel.poly_mul(basis.exponents_poly(x), basis.exponents_poly(y), shape))

    def series_inv(x):
        return series(kernel.poly_div(basis.exponents_poly(x), kernel.one(shape), shape))

    def series_bar(x):
        return series(kernel.poly_reverse(basis.exponents_poly(x), shape))

    def commutator_sample(xy):
        # [x, y] = (y x)^-1 (x y), exact since the fitted mul and inv
        # already agree with the series model; [1, y] = [x, 1] = 1
        x, y = xy[:m], xy[m:]
        if not any(x) or not any(y):
            return law.one
        return law.mul(law.inv(law.mul(y, x)), law.mul(x, y))

    law = HallLaw(basis)
    law.add("mul", ("x", "y"), _fit(weights * 2, k, product_sample))
    law.add("inv", ("x",), _fit(weights, k, series_inv))
    law.add("bar", ("x",), _fit(weights, k, series_bar))
    law.add("comm", ("x", "y"), _fit(weights * 2, k, commutator_sample))
    rng = Random(1000 * n + k)
    entries = (-2, -1, k, k + 1)  # no C(v, d) with d <= k vanishes at these
    for _ in range(CHECK_POINTS):
        x = tuple(rng.choice(entries) for _ in range(m))
        y = tuple(rng.choice(entries) for _ in range(m))
        px, py = basis.exponents_poly(x), basis.exponents_poly(y)
        pxy = kernel.poly_mul(px, py, shape)
        checks = (
            ("multiply", law.mul(x, y), series(pxy)),
            ("invert", law.inv(x), series(kernel.poly_div(px, kernel.one(shape), shape))),
            ("bar", law.bar(x), series(kernel.poly_reverse(px, shape))),
            ("commutator", law.comm(x, y),
             series(kernel.poly_div(kernel.poly_mul(py, px, shape), pxy, shape))),
        )
        for op, got, want in checks:
            if got != want:
                c = next(c for c in range(m) if got[c] != want[c])
                raise InternalError(f"derived {op} polynomial disagrees with the series model",
                                    n=n, k=k, coordinate=c)
    return law
