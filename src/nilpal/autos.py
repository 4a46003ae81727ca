"""Endomorphisms and automorphisms of free nilpotent groups.

Covers the standard generator families (generator inversions t_i, adjacent
transpositions, the conjugating family mu_ij, the central families phi/psi),
composition and exact inverses with inspectable factorizations, palindromicity
classification with explicit witnesses, decomposition of central palindromic
automorphisms over the integer lattice their defects span, and the
Fox-derivative obstruction that any automorphism lifting to the free group
must satisfy.

Maps compose left to right: `compose(e1, e2)` applies e1 first.  The cached
abelianization matrix follows the row convention, so the matrix of a
composition is the ordered matrix product.
"""

from functools import reduce
from itertools import combinations, groupby, permutations
from operator import add
from typing import NamedTuple

from nilpal import kernel
from nilpal.foxring import RingElemModR, fox_derivative
from nilpal.intlinalg import RowEchelon, det, inv_unimodular
from nilpal.nilpotent import (
    InternalError,
    Lifts,
    NilElement,
    NotAutomorphismError,
    PreconditionError,
    UndecidedError,
    collect,
    commutator,
    element_as_word,
    hall_basis,
    invert,
    left_normed,
    multiply,
    power,
    render_element,
    weight,
)
from nilpal.words import Letter, RankError, Word, WordSyntaxError, parse_word


def _gamma2_is_abelian(basis):
    """Whether [gamma_2, gamma_2] = 1: it lies in gamma_4, which is trivial
    at step <= 3.  There the Hall coordinates of gamma_2 add, and `Endo`
    maps them linearly.  Decided by the step alone, never by whether the
    basis has an exponent law, which `nilpotent.LAW_MAX_STEP` could grant
    above step 3."""
    return basis.k <= 3


_UNKNOWN = object()


class Endo:
    """Endomorphism given by the images of the generators."""

    __slots__ = ("basis", "images", "_abel", "_basis_images", "_lifts", "_top")

    def __init__(self, basis, images):
        images = tuple(images)
        if len(images) != basis.n:
            raise ValueError(f"need {basis.n} images, got {len(images)}")
        for g in images:
            if g.basis is not basis:
                raise ValueError("image lives in a different basis")
        self.basis = basis
        self.images = images
        self._abel = None
        self._basis_images = {}
        self._lifts = None
        self._top = _UNKNOWN

    @property
    def abel_matrix(self):
        """Row i holds the abelianized image of x_{i+1}."""
        if self._abel is None:
            self._abel = tuple(g.abelianization() for g in self.images)
        return self._abel

    def __eq__(self, other):
        return (isinstance(other, Endo) and self.basis is other.basis
                and self.images == other.images)

    def __hash__(self):
        return hash((id(self.basis), self.images))

    def __repr__(self):
        body = ", ".join(
            f"x{i} -> {render_element(g)}" for i, g in enumerate(self.images, 1)
        )
        return f"Endo({body})"

    def top_defects(self):
        """The weight-k blocks of the defects D_i = x_i^-1 e(x_i), one
        tuple per generator, when every D_i lies in gamma_k (the map is
        top-central); None otherwise.  Cached.

        The normal form of x_i d with d in gamma_k is e_i plus the top
        block of d: the weight-k basis elements come last and are central.
        So D_i lies in gamma_k iff the coordinates of image i below weight
        k are e_i, and then its top block is D_i's: an O(m) test that
        calls no law.  Needs k >= 2: at k = 1 the top block is the whole
        vector and the test says nothing.
        """
        top = self._top
        if top is _UNKNOWN:
            start = self.basis.weight_offset[-1]
            top = None
            if self.basis.k >= 2 and all(
                    g.exponents[i] == 1 and g.exponents[:start].count(0) == start - 1
                    for i, g in enumerate(self.images)):
                top = tuple(g.exponents[start:] for g in self.images)
            self._top = top
        return top

    def _vector_image(self, idx):
        """Exponent tuple of the image of basis element idx, where gamma_2
        is abelian.  A bracket's image is the commutator of the images of
        its halves."""
        img = self._basis_images.get(idx)
        if img is None:
            basis = self.basis
            c = basis.elements[idx]
            img = self._basis_images[idx] = (
                self.images[c.gen - 1].exponents if c.gen is not None
                else basis.law.comm(self._vector_image(c.left.index),
                                    self._vector_image(c.right.index)))
        return img

    @property
    def lifts(self):
        """The factors of the images of the basis elements and of their
        powers (`nilpotent.Lifts`), built from the images' series."""
        if self._lifts is None:
            images = self.images
            self._lifts = Lifts(self.basis, lambda gen: kernel.factor(images[gen - 1].poly))
        return self._lifts

    def apply(self, g):
        """The image of g.

        A top-central map (`top_defects`) adds sum_j g_j D_j to the
        weight-k block of g, at every step: g is w(x) for some word w, and
        e(w) = w(x_1 D_1, ..., x_n D_n) = g * prod_j D_j^g_j, because the
        D_j are central and g_j is the exponent sum of x_j in w; a central
        weight-k factor adds its exponents to the top block of g's normal
        form.  Other maps, where gamma_2 is abelian, send
        g = x_1^g_1 ... x_n^g_n * t with t in gamma_2 to the image of the
        head times the integer sum of g_j * (image of basis element j) over
        j > n.  Elsewhere the image is the series of g with each basis
        element's series replaced by that of its image
        (`HallBasis.exponents_poly` on `lifts`), peeled.  A power c_j^e
        with |e| >= 2 is the binomial sum of the cached powers of
        L = phi(c_j) - 1, which is exact: phi maps gamma_w into gamma_w,
        so L has lowest degree >= w and L^i = 0 for i > k // w.
        """
        if g.basis is not self.basis:
            raise ValueError("element lives in a different basis")
        basis = self.basis
        exps = g.exponents
        top = self.top_defects()
        if top is not None:
            out = _top_central_image(exps, top, basis.weight_offset[-1])
            return g if out is exps else NilElement(basis, None, out)
        if not _gamma2_is_abelian(basis):
            return basis.element_from_poly(basis.exponents_poly(exps, self.lifts))
        law, n = basis.law, basis.n
        out = None
        for e, image in zip(exps, self.images):
            if e:
                f = image.exponents if e == 1 else law.pow(image.exponents, e)
                out = f if out is None else law.mul(out, f)
        tail = None
        for idx in range(n, len(exps)):
            e = exps[idx]
            if e:
                img = self._vector_image(idx)
                if tail is not None:
                    tail = [t + e * v for t, v in zip(tail, img)]
                else:
                    tail = img if e == 1 else [e * v for v in img]
        if tail is not None:
            out = tuple(tail) if out is None else law.mul(out, tail)
        return basis.one() if out is None else NilElement(basis, None, out)

    def __call__(self, g):
        return self.apply(g)


def _top_central_image(exps, top, start):
    """The exponents exps with sum_j exps[j] * top[j] added to the weight-k
    block, which starts at position start: the image of the element with
    exponents exps under the top-central map whose blocks are top
    (`Endo.apply`).  exps itself when nothing is added."""
    out = None
    for e, block in zip(exps, top):
        if e and any(block):
            out = [v + e * d for v, d in zip(exps[start:] if out is None else out, block)]
    return exps if out is None else exps[:start] + tuple(out)


def make_endo(basis, images):
    """Build an endomorphism from images given as elements, words, or text."""
    coerced = []
    for img in images:
        if isinstance(img, NilElement):
            coerced.append(img)
        elif isinstance(img, Word):
            coerced.append(collect(img, basis))
        elif isinstance(img, str):
            coerced.append(collect(parse_word(img, basis.n), basis))
        else:
            raise TypeError(f"cannot interpret image {img!r}")
    return Endo(basis, coerced)


def identity_endo(basis):
    """The identity map of `basis`, one per basis, kept in `basis.memo`."""
    return _memo(basis, ("identity",), lambda: Endo(
        basis, tuple(basis.generator(i) for i in range(1, basis.n + 1))))


def compose(e1, e2):
    """First e1, then e2."""
    if e1.basis is not e2.basis:
        raise ValueError("endomorphisms live in different bases")
    return Endo(e1.basis, tuple(e2.apply(g) for g in e1.images))


def is_automorphism(e):
    return det(e.abel_matrix) in (1, -1)


def endo_power(e, m):
    if m < 0:
        return endo_power(inverse(e), -m)
    if m == 0:
        return identity_endo(e.basis)
    out = None
    sq = e
    while True:
        if m & 1:
            out = sq if out is None else compose(out, sq)
        m >>= 1
        if not m:
            return out
        sq = compose(sq, sq)


# ---------------------------------------------------------------------------
# per-basis derived values

def _memo(basis, key, build):
    """Value kept on the basis under `key`, None included; `build()` makes
    it on first use."""
    value = basis.memo.get(key, _UNKNOWN)
    if value is _UNKNOWN:
        value = basis.memo[key] = build()
    return value


def _comm3(basis, a, b, c):
    """The element [x_a, x_b, x_c], kept on the basis: the generator maps
    `phi2`, `phi3` and `psi` share their triples (at most n^3 entries)."""
    return _memo(basis, ("comm3", a, b, c), lambda: left_normed(
        [basis.generator(a), basis.generator(b), basis.generator(c)]))


def _parity_mask(vec):
    mask = 0
    for j, v in enumerate(vec):
        if v & 1:
            mask |= 1 << j
    return mask


def _reduce_mod2(echelon, mask, combo=0):
    """Reduce a parity mask by a `_mod2_echelon`, adding up the combos of
    the echelon rows it uses."""
    for row, row_combo in echelon:
        if mask ^ row < mask:
            mask, combo = mask ^ row, combo ^ row_combo
    return mask, combo


def _mod2_echelon(rows):
    """GF(2) echelon of integer rows: (mask, combo) pairs, leading bits of
    mask distinct and largest first; mask is the parity of the sum of the
    rows whose indices are the bits of combo."""
    echelon = []
    for j, row in enumerate(rows):
        mask, combo = _reduce_mod2(echelon, _parity_mask(row), 1 << j)
        if mask:
            echelon = sorted(echelon + [(mask, combo)], reverse=True)
    return echelon


def _witness_lattice(basis, i):
    """`_mod2_echelon` of the step-3 witness lattice rows of generator i,
    the images h(z_j) of the weight-2 basis elements z_j as weight-3
    blocks; the rows themselves are checked, then dropped.

    On gamma_2 at step 3, q -> bar(q) x_i q is x_i h(q) with h additive:
    bar(q) x_i q = x_i (bar(q) q) [bar(q), x_i], both factors central and
    additive in q, and gamma_2 is abelian.  Row j is the weight-3 block of
    `_palindromic_image` of z_j on the law, and h(c) = c^2 for each
    weight-3 c.  So for q = z^beta c^delta the top block of bar(q) x_i q is
    sum_j beta_j row_j + 2 delta.  Checked once, on the law: the image of
    every basis element of gamma_2 keeps the head of x_i (its coordinates
    below weight 3 are e_i), and each h(c) is c^2.

    The lattice of the rows and 2Z^m3 is that of the families of
    `_central_lattice(basis, i)`: both contain 2Z^m3 (the phi3 rows are the
    2 e_c), and the row of phi2(a,b,i) is congruent mod 2 to h([x_a,x_b])
    (Lemma 4.2: z x_i bar(z) = x_i D with D its defect, and z x_i bar(z) =
    x_i h(bar(z)) with bar(z) = z^-1 c, c in gamma_3, so D = -h(z) + 2c).
    The phi2 families come in the order of the z_j and the phi3 rows are
    even, so this is their echelon too, mask and combo: bit j of a combo
    names phi2 family j (`decompose_central`)."""
    def build():
        start2, start3 = basis.weight_offset[1], basis.weight_offset[2]
        size = len(basis.elements)
        head = basis._letter_vectors[Letter(i, 1)][:start3]
        rows = []
        for idx in range(start2, size):
            image = _palindromic_image(basis, i, tuple(int(c == idx) for c in range(size)))
            top = list(image[start3:])
            if idx < start3:
                rows.append(top)
            if image[:start3] != head or (
                    idx >= start3 and top != [2 * (c == idx) for c in range(start3, size)]):
                raise InternalError("witness row disagrees with the law",
                                    n=basis.n, k=basis.k, i=i, coordinate=idx)
        return _mod2_echelon(rows)

    return _memo(basis, ("witness_lattice", i), build)


# ---------------------------------------------------------------------------
# palindromic witnesses

def _palindromic_image(basis, i, q):
    """bar(q) x_i q on exponent tuples, by the basis's law (step <= 3)."""
    law = basis.law
    return law.mul(law.mul(law.bar(q), basis._letter_vectors[Letter(i, 1)]), q)


def solve_conjugator(g, i, min_weight=1):
    """Find q with weight(q) >= min_weight and bar(q) * x_i * q == g.

    Complete decision for step <= 3.  The linear layer is forced by parity
    (the abelianization of g must be e_i mod 2); the weight-2 layer of the
    value is independent of the witness, so any mismatch is fatal; at step 3
    the remaining defect must fall in an explicit integer lattice.
    Returns None when no witness exists.  Runs on exponent tuples and
    builds an element only for the answer.  Three rejects read only
    g.exponents, with d = ab(g) - e_i: an odd d; d != 0 at
    min_weight >= 2; d = 0 and a nonzero weight-2 block.  With d = 0 and
    a zero weight-2 block, the value of x^0 is x_i, which agrees with g
    below weight 3 with no law call.
    """
    basis = g.basis
    n, k = basis.n, basis.k
    if k > 3:
        raise UndecidedError("witness search is only supported for step <= 3")
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    if not 1 <= min_weight <= k:
        raise ValueError(f"min_weight must be in 1..{k}")
    exps = g.exponents
    d = list(exps[:n])
    d[i - 1] -= 1
    for v in d:
        if v & 1:
            return None
    if any(d):
        if min_weight >= 2:
            return None
        q = tuple([v >> 1 for v in d]) + (0,) * (len(exps) - n)
        f = _palindromic_image(basis, i, q)
        if k >= 2 and f[basis.weight_slices[1]] != exps[basis.weight_slices[1]]:
            return None
    elif k >= 2 and any(exps[basis.weight_slices[1]]):
        return None
    else:
        q = (0,) * len(exps)
        f = basis._letter_vectors[Letter(i, 1)]  # bar(1) x_i 1
    if k == 3:
        # the echelon at alpha = 0 serves every alpha: with x^alpha in front,
        # row j moves by wt3([x^(2 alpha), z_j]), which is even.  At
        # min_weight 3 the lattice is 2Z^m3 alone: no rows, beta = 0
        start2, start3 = basis.weight_offset[1], basis.weight_offset[2]
        target = exps[start3:]
        residual = [u - v for u, v in zip(target, f[start3:])]
        rest, beta = _reduce_mod2(_witness_lattice(basis, i) if min_weight <= 2 else [],
                                  _parity_mask(residual))
        if rest:
            return None
        if beta:
            q = q[:start2] + tuple([beta >> j & 1 for j in range(start3 - start2)]) + q[start3:]
            f = _palindromic_image(basis, i, q)
            residual = [u - v for u, v in zip(target, f[start3:])]
        # gamma_3 is central and bar(c) = c, so bar(q c^delta) x_i q c^delta
        # is f c^(2 delta): g iff f agrees with g below weight 3 and the
        # residual is 2 delta
        if f[:start3] != exps[:start3] or _parity_mask(residual):
            raise InternalError("witness verification failed",
                                n=n, k=k, i=i, min_weight=min_weight)
        q = q[:start3] + tuple([v >> 1 for v in residual])
    elif f != exps:
        raise InternalError("witness verification failed",
                            n=n, k=k, i=i, min_weight=min_weight)
    q = NilElement(basis, None, q)
    # every element has weight >= 1
    if min_weight > 1 and not q.is_identity() and weight(q) < min_weight:
        raise InternalError("witness violates the weight bound",
                            n=n, k=k, i=i, min_weight=min_weight)
    return q


def palindromic_witnesses(e):
    """Per-generator witnesses q_i with x_i -> bar(q_i) x_i q_i, or None."""
    out = []
    for i, img in enumerate(e.images, start=1):
        q = solve_conjugator(img, i)
        if q is None:
            return None
        out.append(q)
    return tuple(out)


# ---------------------------------------------------------------------------
# inverse

def _epa_linear_lift(basis, minv):
    """Palindromic linear automorphism with abelianization matrix minv:
    x_i -> bar(q) x_i q with q = x_1^b_1 ... x_n^b_n, 2b = row i of minv - e_i.
    A row e_i gives q = 1 and x_i itself, with no law call."""
    tail = (0,) * (len(basis.elements) - basis.n)
    images = list(identity_endo(basis).images)
    for i, row in enumerate(minv, 1):
        b = [(v - (j == i)) >> 1 for j, v in enumerate(row, 1)]
        if any(b):
            images[i - 1] = NilElement(basis, None, _palindromic_image(basis, i, tuple(b) + tail))
    return Endo(basis, images)


def _ordered_linear_lift(basis, minv):
    """x_i -> x_1^c_1 ... x_n^c_n with c = row i of minv."""
    tail = (0,) * (len(basis.elements) - basis.n)
    return Endo(basis, [basis.from_exponents(tuple(row) + tail) for row in minv])


def _central_map(basis, blocks):
    """The top-central map x_i -> x_i D_i whose D_i in gamma_k have the
    weight-k blocks `blocks` (k >= 2), with `Endo.top_defects` set: the
    normal form of x_i D_i is e_i followed by the block of D_i."""
    start = basis.weight_offset[-1]
    blocks = tuple(map(tuple, blocks))
    e = Endo(basis, [NilElement(basis, None, g.exponents[:start] + block) if any(block) else g
                     for g, block in zip(identity_endo(basis).images, blocks)])
    e._top = blocks
    return e


def _top_central_power(e, m):
    """The m-th power of a top-central map e (`Endo.top_defects`).  e sends
    each x_i to x_i D_i with D_i in gamma_k, which is central and fixed by
    e, so e^m sends x_i to x_i D_i^m: its blocks are m times e's."""
    return _central_map(e.basis, [[m * v for v in block] for block in e.top_defects()])


def inverse_with_factors(e):
    """Inverse automorphism together with its layer factors psi_1..psi_k.

    Composing e with the recorded factors left to right gives the identity,
    so their ordered product is the inverse, and the final check that
    e psi_1 ... psi_k is the identity certifies it.  psi_1 lifts the
    inverse abelianization matrix, so phi = e psi_1 is IA, and level l
    strips the defects D_i = x_i^-1 phi(x_i), which lie in gamma_l, by the
    factor x_i -> x_i D_i^-1.  For D in gamma_2, x_i D is in normal form
    (the generators come first in the Hall order): its exponents are e_i
    followed by D's past weight 1.  So level l reads D_i off phi(x_i) with
    no group product, and raises InternalError unless the coordinates of
    phi(x_i) below weight l are e_i's.

    Once phi is top-central (`Endo.top_defects`), its level is the last
    one, and it runs on exponent tuples alone.  The factor is phi^-1
    (`_top_central_power`).  Two top-central maps compose by adding their
    blocks (`Endo.apply`), so phi followed by the factor is the identity
    iff their blocks cancel, and that block sum is the final check.  The
    fold of the factor into the product of the earlier ones adds, to each
    image, its exponent sums times the factor's blocks
    (`_top_central_image`).  The list is padded to k entries with the
    identity, which is neither composed nor folded.  The final check
    names the k layers in its `factors` context.

    At step <= 3, when the abelianization is the identity mod 2, psi_1 is
    the palindromic lift (`_epa_linear_lift`), else the ordered one.
    Elementary palindromic (EPA) maps form a group (arXiv:1506.03195), so
    for an EPA input phi is EPA and IA, hence top-central, and the level-2
    factor phi^-1 is EPA too: every factor is EPA, no witness is solved
    for, and the law runs only for psi_1 and phi.
    """
    basis = e.basis
    n, k = basis.n, basis.k
    matrix = e.abel_matrix
    try:
        minv = inv_unimodular(matrix)
    except ValueError:
        raise NotAutomorphismError("abelianization matrix is not in GL(n, Z)") from None
    if k <= 3 and not _odd_off_identity(matrix):
        if _odd_off_identity(minv):
            raise InternalError("inverse matrix lost the parity structure", n=n, k=k)
        psi = _epa_linear_lift(basis, minv)
    else:
        psi = _ordered_linear_lift(basis, minv)
    identity = identity_endo(basis)
    phi = compose(e, psi)
    factors = [psi]
    top = None
    for level in range(2, k + 1):
        top = phi.top_defects()
        if top is not None:
            break
        start = basis.weight_offset[level - 1]
        images = []
        for i, (x, g) in enumerate(zip(identity.images, phi.images), 1):
            if g.exponents[:start] != x.exponents[:start]:
                raise InternalError(f"residue escaped weight {level}",
                                    n=n, k=k, i=i, level=level)
            d = NilElement(basis, None, (0,) * n + g.exponents[n:])
            images.append(multiply(x, invert(d)))
        factors.append(Endo(basis, images))
        phi = compose(phi, factors[-1])
    inv = reduce(compose, factors)
    if top is not None and any(map(any, top)):
        last = _top_central_power(phi, -1)
        blocks = last.top_defects()
        if blocks is None or any(any(map(add, pb, lb)) for pb, lb in zip(top, blocks)):
            raise InternalError("inverse iteration did not terminate at the identity",
                                n=n, k=k, factors=k)
        start = basis.weight_offset[-1]
        inv = Endo(basis, [NilElement(basis, None, _top_central_image(g.exponents, blocks, start))
                           for g in inv.images])
        factors.append(last)
    elif top is None and phi != identity:
        raise InternalError("inverse iteration did not terminate at the identity",
                            n=n, k=k, factors=k)
    return inv, factors + [identity] * (k - len(factors))


def inverse(e):
    return inverse_with_factors(e)[0]


# ---------------------------------------------------------------------------
# generator symbols

class GeneratorSymbol(NamedTuple):
    """A named automorphism generator with an integer exponent."""

    tag: str
    params: tuple
    exponent: int = 1

    def __str__(self):
        return render_symbol(self)


def mu(i, j, exponent=1):
    return GeneratorSymbol("mu", (i, j), exponent)


def t(i, exponent=1):
    return GeneratorSymbol("t", (i,), exponent)


def alpha(j, exponent=1):
    return GeneratorSymbol("alpha", (j,), exponent)


def sigma(perm, exponent=1):
    return GeneratorSymbol("sigma", tuple(perm), exponent)


def phi2(a, b, i, exponent=1):
    return GeneratorSymbol("phi2", (a, b, i), exponent)


def phi3(a, b, c, i, exponent=1):
    return GeneratorSymbol("phi3", (a, b, c, i), exponent)


def psi(a, i, exponent=1):
    return GeneratorSymbol("psi", (a, i), exponent)


def inner(g, exponent=1):
    return GeneratorSymbol("inner", (g,), exponent)


def render_symbol(sym):
    if sym.tag == "sigma":
        body = f"sigma({' '.join(str(v) for v in sym.params)})"
    elif sym.tag == "inner":
        body = f"inner({render_element(sym.params[0])})"
    elif sym.tag in ("phi2", "phi3"):
        *rest, i = sym.params
        body = f"{sym.tag}({','.join(str(v) for v in rest)};{i})"
    else:
        body = f"{sym.tag}({','.join(str(v) for v in sym.params)})"
    if sym.exponent != 1:
        body += f"^{sym.exponent}"
    return body


def _base_generator(sym, basis):
    n = basis.n
    gens = [basis.generator(i) for i in range(1, n + 1)]

    def check(cond, message):
        if not cond:
            raise ValueError(message)

    def moving(i, image):
        """The map that sends x_i to image and fixes the other generators."""
        return Endo(basis, gens[:i - 1] + [image] + gens[i:])

    tag, p = sym.tag, sym.params
    if tag == "mu":
        i, j = p
        check(1 <= i <= n and 1 <= j <= n and i != j, f"mu needs distinct indices, got {p}")
        return moving(i, multiply(multiply(gens[j - 1], gens[i - 1]), gens[j - 1]))
    if tag == "t":
        (i,) = p
        check(1 <= i <= n, f"t index {i} out of range")
        return moving(i, invert(gens[i - 1]))
    if tag == "alpha":
        (j,) = p
        check(1 <= j <= n - 1, f"alpha index {j} out of range 1..{n - 1}")
        images = list(gens)
        images[j - 1], images[j] = images[j], images[j - 1]
        return Endo(basis, images)
    if tag == "sigma":
        check(sorted(p) == list(range(1, n + 1)), f"{p} is not a permutation of 1..{n}")
        return Endo(basis, [gens[p[i] - 1] for i in range(n)])
    if tag == "phi2":
        a, b, i = p
        check(all(1 <= v <= n for v in p), f"phi2 indices {p} out of range")
        check(a != b, "phi2 needs a != b")
        # the defect [x_a,x_b,x_i] [x_a,x_b,x_b] [x_a,x_b,x_a]
        defect = reduce(multiply, (_comm3(basis, a, b, c) for c in (i, b, a)))
        return moving(i, multiply(gens[i - 1], defect))
    if tag == "phi3":
        a, b, c, i = p
        check(all(1 <= v <= n for v in p), f"phi3 indices {p} out of range")
        check(a != b, "phi3 needs a != b")
        return moving(i, multiply(gens[i - 1], power(_comm3(basis, a, b, c), 2)))
    if tag == "psi":
        a, i = p
        check(all(1 <= v <= n for v in p), f"psi indices {p} out of range")
        check(a != i, "psi needs a != i")
        return moving(i, multiply(gens[i - 1], _comm3(basis, a, i, a)))
    if tag == "inner":
        (g,) = p
        check(isinstance(g, NilElement) and g.basis is basis,
              "inner needs an element of the same basis")
        ginv = invert(g)
        return Endo(basis, [multiply(multiply(ginv, x), g) for x in gens])
    raise ValueError(f"unknown generator tag {tag!r}")


def _forward_generator(sym, basis):
    """The map of `sym` at exponent 1, kept in `basis.memo` per (tag,
    params); `sym` is not `inner`."""
    return _memo(basis, ("generator", sym.tag, sym.params), lambda: _base_generator(sym, basis))


def make_generator(sym, basis):
    """The automorphism of `sym` in `basis`.

    A generator other than `inner`, and its inverse once asked for
    (unless it is top-central, below), are kept in `basis.memo` per
    (tag, params) with their image tables, so
    `inverse` verifies each inverse once and every later `compose` reuses
    the images it already computed.  The set of such symbols is finite,
    and a table holds at most one image per basis element (above step 3,
    `Endo.lifts`, plus k // w powers of each image of weight w raised to
    a power).  A power other than +-1
    is built afresh on every call.  A top-central generator
    (`Endo.top_defects`; phi2, phi3 and psi at step 3) is never inverted:
    its m-th power, m = -1 included, is the map `_central_map` builds
    afresh from m times its blocks (`_top_central_power`), and
    `compose_symbols` builds a run of such symbols from `_central_sum`.
    Every other power is composed by `endo_power`.
    """
    if sym.tag == "inner":
        base, exponent = _base_generator(sym, basis), sym.exponent
    else:
        forward = _forward_generator(sym, basis)
        m = sym.exponent
        if m != 1 and forward.top_defects() is not None:
            return _top_central_power(forward, m)
        base = (forward if m >= 0 else _memo(
            basis, ("generator_inverse", sym.tag, sym.params), lambda: inverse(forward)))
        exponent = abs(m)
    return base if exponent == 1 else endo_power(base, exponent)


def _top_entries(basis, sym):
    """The nonzero entries (position, value) of the top blocks
    (`Endo.top_defects`) of `sym`'s map at exponent 1, laid end to end,
    or None when that map is not top-central; kept in `basis.memo` per
    (tag, params).  `inner` counts as not top-central and is never kept:
    its parameter is an element, so its keys would be unbounded."""
    if sym.tag == "inner":
        return None

    def build():
        top = _forward_generator(sym, basis).top_defects()
        return None if top is None else tuple(
            (pos, v) for pos, v in enumerate(v for block in top for v in block) if v)

    return _memo(basis, ("top_entries", sym.tag, sym.params), build)


def _central_sum(basis, symbols):
    """The top blocks of the composite of top-central symbols: the sum of
    m times the blocks of each symbol's map, m its exponent, as n tuples.
    Exact: a top-central map fixes gamma_k and sends x_i to x_i D_i, so
    composing such maps adds their blocks (`Endo.apply`), and the m-th
    power of one has m times its blocks (`_top_central_power`).  This is
    the only sum of generator blocks; InternalError on a symbol that is
    not top-central."""
    size = len(basis.elements) - basis.weight_offset[-1]
    flat = [0] * (basis.n * size)
    for sym in symbols:
        entries = _top_entries(basis, sym)
        if entries is None:
            raise InternalError("symbol is not top-central", n=basis.n, k=basis.k,
                                symbol=render_symbol(sym))
        m = sym.exponent
        for pos, v in entries:
            flat[pos] += m * v
    return tuple(tuple(flat[j * size:(j + 1) * size]) for j in range(basis.n))


def compose_symbols(symbols, basis):
    """The symbols' maps composed left to right.

    Each run of consecutive top-central symbols (`_top_entries`) is one
    map, built once by `_central_map` from their `_central_sum`.  A run
    whose blocks sum to zero is the identity and is left out; `compose`
    runs only between the other maps.
    """
    maps = []
    for central, run in groupby(symbols, key=lambda s: _top_entries(basis, s) is not None):
        if not central:
            maps.extend(make_generator(sym, basis) for sym in run)
            continue
        blocks = _central_sum(basis, run)
        if any(map(any, blocks)):
            maps.append(_central_map(basis, blocks))
    return reduce(compose, maps) if maps else identity_endo(basis)


# ---------------------------------------------------------------------------
# classification

class AutoFlags(NamedTuple):
    is_ia: bool
    is_central: bool
    is_elementary_palindromic: bool | None
    is_palindromic: bool | None
    pi_level: int | None
    notes: tuple = ()


def _odd_off_identity(matrix):
    """Whether matrix differs from the identity mod 2."""
    for r, row in enumerate(matrix):
        for c, v in enumerate(row):
            if (v - (r == c)) & 1:
                return True
    return False


def _mod2_permutation(matrix):
    """The permutation (1-based images) whose matrix is `matrix` mod 2, or None."""
    odd = [[j for j, v in enumerate(row, 1) if v % 2] for row in matrix]
    perm = tuple(cols[0] for cols in odd if len(cols) == 1)
    return perm if sorted(perm) == list(range(1, len(matrix) + 1)) else None


def _pi_level(witnesses, k):
    """Largest level l such that every generator has a witness of weight
    >= l, read off the canonical witnesses (`palindromic_witnesses`) as
    min_i min(weight(q_i), k); the identity has weight k + 1, so it counts
    as k.

    The canonical witness of x_i has the largest weight that any witness
    of x_i has.  Parity forces alpha (ab(bar(q) x_i q) = e_i + 2 ab(q)), so
    every witness of x_i has the same alpha, and one of weight >= 2 exists
    iff alpha = 0; at k <= 2 the canonical witness is x^alpha.  At k = 3,
    with alpha = 0, `solve_conjugator` takes beta = 0 exactly when the
    weight-3 target is even (an even target reduces by no echelon row of
    `_witness_lattice`; an odd one uses some, and their combos are
    independent), and that is
    exactly when a witness of weight >= 3 exists: at min_weight 3 the
    lattice is 2Z^m3 alone.
    """
    return min(min(weight(q), k) for q in witnesses)


def classify(e):
    """Automorphism flags; palindromicity is decided only for step <= 3.

    The pi-level comes from the witnesses of the elementary palindromic
    test (`_pi_level`), with no further solve."""
    if not is_automorphism(e):
        raise NotAutomorphismError("not an automorphism")
    basis = e.basis
    is_ia = e.abel_matrix == identity_endo(basis).abel_matrix
    # every defect lies in gamma_k; at k = 1 all do
    central = basis.k == 1 or e.top_defects() is not None
    if basis.k > 3:
        return AutoFlags(is_ia, central, None, None, None,
                         ("palindromicity undecided for step > 3",))
    witnesses = palindromic_witnesses(e)
    if witnesses is not None:
        return AutoFlags(is_ia, central, True, True, _pi_level(witnesses, basis.k))
    perm = _mod2_permutation(e.abel_matrix)
    if perm == tuple(range(1, basis.n + 1)):
        return AutoFlags(is_ia, central, False, False, None,
                         ("parity criterion holds but the weight-2/3 defect has no witness",))
    # e is palindromic iff e = eps . omega, eps elementary palindromic and
    # omega a signed permutation of perm.  The signs cannot matter: flipping
    # one post-composes eps with some t_j, which commutes with bar and keeps
    # the elementary form, as bar(q) x_j^-1 q = bar(x_j^-1 q) x_j (x_j^-1 q).
    palin = perm is not None and palindromic_witnesses(
        compose(e, make_generator(sigma(perm, -1), basis))) is not None
    return AutoFlags(is_ia, central, False, palin, None)


# ---------------------------------------------------------------------------
# central decompositions

class Decomposition(NamedTuple):
    factors: tuple
    residual_trivial: bool
    diagnostics: tuple = ()

    def compose(self, basis):
        return compose_symbols(self.factors, basis)


def _require_step3(basis):
    if basis.k != 3:
        raise PreconditionError(f"operation needs step 3, got {basis.k}")


def _weight3_defects(e):
    """Weight-3 blocks of the defects x_i^-1 e(x_i) at step 3, the top
    blocks of the images (`Endo.top_defects`); PreconditionError unless
    every defect is central (weight >= 3, so its lifts lie in gamma_3 of
    the free group)."""
    top = e.top_defects()
    if top is None:
        raise PreconditionError("automorphism is not central")
    return [list(block) for block in top]


def _family_row(basis, family, blocks):
    """The `_central_sum` of a family's symbols, the listed blocks
    concatenated."""
    top = _central_sum(basis, family)
    return [v for j in blocks for v in top[j]]


def _scaled_factors(families, sol):
    """The symbols of each family, their exponents times its coefficient."""
    return [GeneratorSymbol(s.tag, s.params, coeff * s.exponent)
            for coeff, fam in zip(sol, families) if coeff for s in fam]


def _central_lattice(basis, i):
    """(families, phi2 rows, echelon) of the defects reachable at generator
    i: phi2(a,b,i) per weight-2 basis element [x_a,x_b], in their order,
    then phi3(a,b,c,i) per weight-3 basis element [x_a,x_b,x_c].  A row is
    block i of a family's `_central_sum`: the phi2 rows kept as entries
    (position, value), the phi3 rows 2 e_c.  The echelon is the rows' mod
    2, which is `_witness_lattice(basis, i)`."""
    def build():
        fams = [(phi2(z.left.gen, z.right.gen, i),) for z in basis.by_weight[1]]
        rows = [[(j, v) for j, v in enumerate(_central_sum(basis, fam)[i - 1]) if v]
                for fam in fams]
        fams += [(phi3(c.left.left.gen, c.left.right.gen, c.right.gen, i),)
                 for c in basis.by_weight[2]]
        return fams, rows, _witness_lattice(basis, i)

    return _memo(basis, ("central_lattice", i), build)


def _in_central_lattice(basis, i, vec):
    """Whether vec is in the central lattice of generator i.  It is the
    witness lattice, which contains 2Z^m3, so parity decides: vec mod 2
    must reduce to zero by `_witness_lattice(basis, i)`."""
    return not _reduce_mod2(_witness_lattice(basis, i), _parity_mask(vec))[0]


def _odd_diagnostic(basis, i, vec):
    """`x{i}: odd at` the weight-3 basis elements at the set bits of the
    rest of vec's parity mask reduced by `_witness_lattice(basis, i)`.
    The rest is zero at every pivot bit, the one such member of vec's
    coset mod the lattice, so the text depends only on that coset."""
    rest = _reduce_mod2(_witness_lattice(basis, i), _parity_mask(vec))[0]
    return f"x{i}: odd at " + " ".join(
        str(c) for j, c in enumerate(basis.by_weight[2]) if rest >> j & 1)


def decompose_central(e):
    """Write a central palindromic automorphism over the phi2/phi3 families.

    Per generator i with a nonzero defect, its parity mask is reduced by
    the echelon of `_central_lattice(basis, i)`.  A nonzero rest is a
    refusal: residual_trivial=False, with an `_odd_diagnostic` per such
    generator.  Else bit j of the combo names phi2 family j at exponent 1;
    the defect less those rows is even, and its half gives the phi3
    exponents.  The echelon has one row per phi2 family, so this is the
    only factor list whose phi2 exponents are all 0 or 1.

    The factors are certified by their `_central_sum` against e's top
    blocks: the recompose check `Decomposition.compose(basis) == e`
    restated, as every factor and e are top-central (`compose_symbols`,
    `_weight3_defects`), and two such maps are equal iff their blocks
    are, their images being e_i followed by the block.  `decompose_bglm`
    is certified the same way.
    """
    basis = e.basis
    _require_step3(basis)
    defects = _weight3_defects(e)
    factors = []
    diagnostics = []
    for i, defect in enumerate(defects, start=1):
        if not any(defect):
            continue
        fams, rows, echelon = _central_lattice(basis, i)
        rest, combo = _reduce_mod2(echelon, _parity_mask(defect))
        if rest:
            diagnostics.append(_odd_diagnostic(basis, i, defect))
            continue
        sol = [combo >> j & 1 for j in range(len(rows))]
        for j, v in (entry for bit, row in zip(sol, rows) if bit for entry in row):
            defect[j] -= v
        factors.extend(_scaled_factors(fams, sol + [v >> 1 for v in defect]))
    if diagnostics:
        return Decomposition((), False, tuple(diagnostics))
    dec = Decomposition(tuple(factors), True)
    if _central_sum(basis, dec.factors) != e.top_defects():
        raise InternalError("central decomposition failed to recompose",
                            n=basis.n, k=basis.k, factors=len(factors))
    return dec


def quotient_rank_q(n):
    """Index exponent q of the palindromic defect lattice at step 3.

    Computed by the closed formula n(n^2-1)/3 - n(n-1)/2 and cross-checked
    against the lattice itself: it contains 2Z^m3, so its invariant factors
    are m3 - q ones, one per row of its GF(2) echelon (`_witness_lattice`),
    and q twos.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    q = n * (n * n - 1) // 3 - n * (n - 1) // 2
    basis = hall_basis(n, 3)
    m3 = len(basis.by_weight[2])
    ones = len(_witness_lattice(basis, n))
    if ones != m3 - q:
        raise InternalError(f"lattice invariants 1^{ones} 2^{m3 - ones} disagree with q={q}",
                            n=n, k=3)
    return q


# ---------------------------------------------------------------------------
# tameness

def tameness_necessary(e):
    """Fox-derivative obstruction for a central automorphism at step 3.

    True when the derivative sum of the image defects vanishes in the
    truncated group ring; any automorphism induced from the free group
    satisfies this.  The result does not depend on the chosen free lifts.
    """
    return tameness_residue(e).is_zero()


def _fox_table(basis):
    """T[i-1][j]: the i-th Fox derivative of the free word of the weight-3
    basis element c_j, as sparse entries (r, s, v) of its quadratic part.

    Built once per basis and checked then: every derivative of a word in
    gamma_3 has zero constant and linear parts, and on the all-ones defect
    (the product of every c_j) the derivative of the lift in basis order
    and of the lift in reversed order both equal the column sum of T.
    """
    def build():
        n, k = basis.n, basis.k
        cs = basis.by_weight[2]
        table = []
        for i in range(1, n + 1):
            row = []
            for j, c in enumerate(cs):
                d = fox_derivative(c.as_word(n), i)
                if d.const or any(d.lin):
                    raise InternalError("Fox derivative of a weight-3 basis element "
                                        "has a constant or linear part",
                                        n=n, k=k, i=i, coordinate=basis.weight_offset[2] + j)
                row.append(d.quad)
            table.append(row)
        ones = basis.from_exponents((0,) * basis.weight_offset[2] + (1,) * len(cs))
        lifts = (element_as_word(ones), element_as_word(ones, reverse=True))
        for i, row in enumerate(table, start=1):
            total = RingElemModR(n, quad=[[sum(q[r][s] for q in row) for s in range(n)]
                                          for r in range(n)])
            if any(fox_derivative(w, i) != total for w in lifts):
                raise InternalError("obstruction depends on the free lift", n=n, k=k, i=i)
        return [[[(r, s, v) for r, qr in enumerate(q) for s, v in enumerate(qr) if v]
                 for q in row] for row in table]

    return _memo(basis, ("fox_table",), build)


def _residue_of_defects(basis, defects):
    """sum_i sum_j e_ij T[i-1][j] over the weight-3 defects e_i of `_fox_table`."""
    n = basis.n
    quad = [[0] * n for _ in range(n)]
    for row, defect in zip(_fox_table(basis), defects):
        for entries, e in zip(row, defect):
            if e:
                for r, s, v in entries:
                    quad[r][s] += e * v
    return RingElemModR(n, quad=quad)


def tameness_residue(e):
    """The sum over i of the i-th Fox derivatives of free lifts of the
    defects x_i^-1 e(x_i), in the quotient ring of `foxring`.

    Each defect is central, so it is a product of weight-3 basis elements
    c_j^e_ij, and its lift lies in gamma_3 of the free group.  For u, v in
    gamma_3, d(uv) = d(u) + d(v) + (u - 1) d(v) with u - 1 of augmentation
    degree 3, so the last term dies, and d(c^-1) = -d(c): the derivative is
    additive on gamma_3.  The residue is therefore the linear form
    sum_ij e_ij T[i-1][j] of `_fox_table`, whatever lift is chosen.
    """
    basis = e.basis
    _require_step3(basis)
    return _residue_of_defects(basis, _weight3_defects(e))


def verify_tame_factorization(which, basis, indices=None):
    """Check the explicit free-word factorizations of the tame generators.

    which: 'phi2' (distinct-index phi2 generator), 'phi3' (phi3 with c == i),
    or 'identity'.
    """
    if which == "identity":
        return True
    _require_step3(basis)
    if indices is None and basis.n < 3:
        raise ValueError("need rank >= 3 for the default indices")
    a, b, i = (2, 3, 1) if indices is None else indices
    if len({a, b, i}) != 3:
        raise ValueError("indices must be distinct")
    xa, xb, xi = (basis.generator(v) for v in (a, b, i))
    # one chain: phi2 runs it on x_a with a tail, phi3 on x_a^2 with none
    if which == "phi2":
        lhs = make_generator(phi2(a, b, i), basis).images[i - 1]
        tail = commutator(commutator(xa, xb), multiply(xb, xa))
    elif which == "phi3":
        lhs = make_generator(phi3(a, b, i, i), basis).images[i - 1]
        xa, tail = multiply(xa, xa), basis.one()
    else:
        raise ValueError(f"unknown factorization {which!r}")
    c1 = left_normed([xa, invert(xb), invert(xi)])
    step2 = multiply(multiply(xi, c1), tail)
    step3 = multiply(multiply(c1, xi), tail)
    c2 = commutator(xa, invert(xb))
    step4 = multiply(multiply(multiply(invert(c2), xi), c2), tail)
    return lhs == step2 == step3 == step4


# ---------------------------------------------------------------------------
# decomposition over the tameness-compatible families

def _bglm_lattice(basis):
    """(kept families, echelon) of the `RowEchelon` of the rows of
    `_bglm_families(basis)`, in list order.  The rest are integer
    combinations of the kept ones, so only these are checked for both
    preconditions of `decompose_bglm`; InternalError names a family that
    fails one, or meets a pivot that does not divide it."""
    def refusal(fam, why):
        return InternalError(f"BGLM family {why}", n=basis.n, k=basis.k,
                             family=" ".join(map(render_symbol, fam)))

    def build():
        fams, echelon = [], RowEchelon()
        for fam in _bglm_families(basis):
            try:
                if echelon.add(_family_row(basis, fam, range(basis.n))):
                    fams.append(fam)
            except ValueError:
                raise refusal(fam, "meets a pivot that does not divide it") from None
        for fam in fams:
            top = _central_sum(basis, fam)
            if not _residue_of_defects(basis, top).is_zero():
                raise refusal(fam, "has a nonzero tameness residue")
            if not all(_in_central_lattice(basis, i, b) for i, b in enumerate(top, start=1)):
                raise refusal(fam, "is not central palindromic")
        return fams, echelon

    return _memo(basis, ("bglm_lattice",), build)


def _bglm_families(basis):
    """Canonical generator families spanning the obstruction-free central
    palindromic automorphisms: a single inner square family at rank 2."""
    n = basis.n
    idx = range(1, n + 1)
    if n == 2:
        return [(phi3(2, 1, 1, 1), phi3(2, 1, 2, 2))]
    return ([(phi2(a, b, i),) for a, b, i in permutations(idx, 3) if b < a]
            + [(phi3(a, b, c, i),) for a, b, c, i in permutations(idx, 4) if b < a]
            + [(phi3(a, b, i, i),) for a, b, i in permutations(idx, 3) if b < a]
            + [(psi(a, i), psi(a, j, -1)) for a in idx
               for i, j in combinations(idx, 2) if a not in (i, j)]
            + [(phi3(h, u, v, h), phi3(v, u, u, u)) for h, u, v in permutations(idx, 3)]
            + [(phi3(a, b, c, i),) for a, b, i in permutations(idx, 3) if b < a
               for c in (a, b)])


def decompose_bglm(e):
    """Factor an obstruction-free central palindromic automorphism over the
    canonical generator families (a single inner square generator at rank 2).

    The defects are solved for over the cached `_bglm_lattice` first, and
    a solution is certified as in `decompose_central`.  The two
    preconditions are checked only when the solve fails, to word the
    refusal: a nonzero tameness obstruction, then a defect outside the
    palindromic lattice of its generator, then a defect outside the
    lattice the families generate.  A solved input needs neither check:
    the residue is a linear form in the defects (`tameness_residue`), each
    palindromic lattice is a lattice, and `_bglm_lattice` checked once
    that every kept family meets both, so every integer combination does.
    """
    basis = e.basis
    _require_step3(basis)
    if basis.n < 2:
        raise ValueError("need rank >= 2")
    defects = _weight3_defects(e)
    fams, echelon = _bglm_lattice(basis)
    sol = echelon.solve([v for vec in defects for v in vec])
    if sol is None:
        residue = _residue_of_defects(basis, defects)
        if not residue.is_zero():
            diag = [f"square defect (x{i}-1)^2: {residue.pair(i, i)}"
                    for i in range(1, basis.n + 1) if residue.pair(i, i)]
            mixed = [f"mixed defect ({i},{j}): {residue.pair(i, j)}"
                     for i in range(1, basis.n + 1) for j in range(i + 1, basis.n + 1)
                     if residue.pair(i, j)]
            raise PreconditionError(
                "tameness obstruction is nonzero: " + "; ".join(diag + mixed)
            )
        diagnostics = [_odd_diagnostic(basis, i, defect)
                       for i, defect in enumerate(defects, start=1)
                       if not _in_central_lattice(basis, i, defect)]
        if diagnostics:
            raise PreconditionError("not central palindromic: " + "; ".join(diagnostics))
        return Decomposition((), False, ("defect outside the generated lattice",))
    factors = _scaled_factors(fams, sol)
    dec = Decomposition(tuple(factors), True)
    if _central_sum(basis, dec.factors) != e.top_defects():
        raise InternalError("decomposition failed to recompose",
                            n=basis.n, k=basis.k, factors=len(factors))
    return dec


# ---------------------------------------------------------------------------
# automorphism files

def parse_endo_file(text, basis):
    """Parse the one-line-per-generator automorphism format.

    Lines look like `x2 -> x1 x2 x1`; `#` starts a comment; omitted
    generators map to themselves.
    """
    images = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ValueError(f"line {lineno}: expected `x<i> -> <word>`")
        lhs, rhs = line.split("->", 1)
        lhs = lhs.strip()
        if not lhs.startswith("x") or not (lhs[1:].isascii() and lhs[1:].isdigit()):
            raise ValueError(f"line {lineno}: bad generator {lhs!r}")
        i = int(lhs[1:])
        if not 1 <= i <= basis.n:
            raise ValueError(f"line {lineno}: generator index {i} out of range")
        if i in images:
            raise ValueError(f"line {lineno}: duplicate image for x{i}")
        try:
            word = parse_word(rhs.strip(), basis.n)
        except (WordSyntaxError, RankError) as exc:
            exc.args = (f"line {lineno}: {exc}",)
            raise
        images[i] = collect(word, basis)
    return Endo(basis, tuple(
        images.get(i, basis.generator(i)) for i in range(1, basis.n + 1)
    ))


def render_endo(e):
    return "\n".join(
        f"x{i} -> {render_element(g)}" for i, g in enumerate(e.images, start=1)
    )
