"""Fox derivatives in a finite truncation of the free-group ring.

The ring is Z[F_n] modulo the ideal generated by all ring commutators of
augmentation elements and by all products of three augmentation elements.
That quotient is spanned by 1, the elements (x_i - 1), and the unordered
products (x_i - 1)(x_j - 1); group elements act trivially on the quadratic
part, so a finite exact representation suffices:

    constant  +  sum_i lin[i] (x_i - 1)  +  sum_{i<=j} pair (x_i - 1)(x_j - 1)

The diagonal (x_i - 1)^2 terms carry no factor-of-2 convention.  The sum of
i-th derivatives of the image defect of a central automorphism must vanish
here whenever the automorphism lifts to the free group; that is the tameness
obstruction computed by `bglm_condition`.
"""

from nilpal.nilpotent import InternalError, PreconditionError, collect, hall_basis
from nilpal.words import left_normed_commutator, word_from_ints


class RingElemModR:
    __slots__ = ("n", "const", "lin", "quad")

    def __init__(self, n, const=0, lin=None, quad=None):
        self.n = n
        self.const = const
        self.lin = tuple(lin) if lin is not None else (0,) * n
        if quad is None:
            quad = tuple((0,) * n for _ in range(n))
        else:
            quad = tuple(tuple(row) for row in quad)
            for i in range(n):
                for j in range(i):
                    if quad[i][j] != quad[j][i]:
                        raise ValueError("quadratic part must be symmetric")
        self.quad = quad

    def __eq__(self, other):
        return (isinstance(other, RingElemModR) and self.n == other.n
                and self.const == other.const and self.lin == other.lin
                and self.quad == other.quad)

    def __hash__(self):
        return hash((self.n, self.const, self.lin, self.quad))

    def __repr__(self):
        return f"RingElemModR({render_ring(self)})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, negate(other))

    def __neg__(self):
        return negate(self)

    def __mul__(self, other):
        return mul(self, other)

    def is_zero(self):
        return self.const == 0 and not any(self.lin) and not any(map(any, self.quad))

    def pair(self, i, j):
        """Coefficient of the unordered pair {i, j}, 1-based."""
        return self.quad[i - 1][j - 1]


def ring_zero(n):
    return RingElemModR(n)


def ring_one(n):
    return RingElemModR(n, const=1)


def ring_delta(i, n):
    """The augmentation generator x_i - 1."""
    lin = [0] * n
    lin[i - 1] = 1
    return RingElemModR(n, lin=lin)


def _check_dim(a, b):
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")


def add(a, b):
    _check_dim(a, b)
    return RingElemModR(
        a.n,
        a.const + b.const,
        [x + y for x, y in zip(a.lin, b.lin)],
        [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.quad, b.quad)],
    )


def negate(a):
    return RingElemModR(a.n, -a.const, [-x for x in a.lin],
                        [[-x for x in row] for row in a.quad])


def mul(a, b):
    """Product; degree-3 terms die and the quotient is commutative."""
    _check_dim(a, b)
    n = a.n
    quad = [
        [a.const * b.quad[i][j] + b.const * a.quad[i][j] for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        ai = a.lin[i]
        if ai:
            for j in range(n):
                bj = b.lin[j]
                if bj:
                    v = ai * bj
                    quad[i][j] += v
                    if i != j:
                        quad[j][i] += v
    return RingElemModR(
        a.n,
        a.const * b.const,
        [a.const * y + b.const * x for x, y in zip(a.lin, b.lin)],
        quad,
    )


def fox_derivative(w, j):
    """j-th Fox derivative of a word, evaluated in the quotient ring.

    Left-to-right product rule: d(uv) = d(u) + u d(v), with d(x_i) = [i == j]
    and d(x_i^-1) = -x_i^-1 d(x_i).  The prefix (augmentation 1, linear part
    `lin`, quadratic part `quad`) and the running sum are updated in place:
    a letter x_a^s multiplies the prefix by 1 + s (x_a - 1) plus, for
    s = -1, (x_a - 1)^2, and the linear times linear cross term lands in the
    quadratic part.  A letter x_j adds the prefix before that update, a
    letter x_j^-1 subtracts it after.
    """
    n = w.rank
    if not 1 <= j <= n:
        raise ValueError(f"derivative index {j} out of range 1..{n}")
    lin = [0] * n
    quad = [[0] * n for _ in range(n)]
    out_const = 0
    out_lin = [0] * n
    out_quad = [[0] * n for _ in range(n)]

    def accumulate(sign):
        nonlocal out_const
        out_const += sign
        for r in range(n):
            out_lin[r] += sign * lin[r]
            row, out_row = quad[r], out_quad[r]
            for c in range(n):
                out_row[c] += sign * row[c]

    for let in w.letters:
        a, s = let.index - 1, let.sign
        if s > 0 and a == j - 1:
            accumulate(1)
        # prefix * (1 + s (x_a - 1)): the cross term s lin (x_a - 1)
        for r in range(n):
            v = lin[r]
            if v:
                quad[r][a] += s * v
                if r != a:
                    quad[a][r] += s * v
        lin[a] += s
        if s < 0:
            quad[a][a] += 1
            if a == j - 1:
                accumulate(-1)
    return RingElemModR(n, out_const, out_lin, out_quad)


def render_ring(a):
    """Readable rendering; quadratic residues as `(i,j): c` in lex pair order."""
    parts = []
    if a.const:
        parts.append(str(a.const))
    for i, c in enumerate(a.lin, start=1):
        if c:
            parts.append(f"d{i}: {c}")
    parts.extend(render_quadratic(a))
    return "; ".join(parts) if parts else "0"


def render_quadratic(a):
    out = []
    for i in range(1, a.n + 1):
        for j in range(i, a.n + 1):
            c = a.pair(i, j)
            if c:
                out.append(f"({i},{j}): {c}")
    return out


# ---------------------------------------------------------------------------
# the fixed derivative table for weight-3 commutators

def _comm_word(indices, n):
    return left_normed_commutator([word_from_ints([i], n) for i in indices])


_TABLE_ROWS = (
    ("d_i[xa,xb,xc]", ("i", "a", "b", "c"), ("a", "b", "c"), None),
    ("d_i[xa,xb,xi]", ("i", "a", "b"), ("a", "b", "i"), None),
    ("d_i[xi,xa,xb]", ("i", "a", "b"), ("i", "a", "b"), (1, "a", "b")),
    ("d_i[xa,xi,xb]", ("i", "a", "b"), ("a", "i", "b"), (-1, "a", "b")),
    ("d_i[xi,xa,xi]", ("i", "a"), ("i", "a", "i"), (1, "i", "a")),
    ("d_i[xa,xi,xi]", ("i", "a"), ("a", "i", "i"), (-1, "i", "a")),
    ("d_i[xi,xa,xa]", ("i", "a"), ("i", "a", "a"), (1, "a", "a")),
    ("d_i[xa,xi,xa]", ("i", "a"), ("a", "i", "a"), (-1, "a", "a")),
)


def check_fox_table(n):
    """Evaluate every derivative-table row over all distinct-index
    assignments: a (name, cases, failures) row per table row."""
    from itertools import permutations

    rows = []
    for name, letters, pattern, expected in _TABLE_ROWS:
        cases = 0
        failures = []
        for assign in permutations(range(1, n + 1), len(letters)):
            env = dict(zip(letters, assign))
            word = _comm_word([env[s] for s in pattern], n)
            got = fox_derivative(word, env["i"])
            if expected is None:
                want = ring_zero(n)
            else:
                sign, u, v = expected
                want = mul(ring_delta(env[u], n), ring_delta(env[v], n))
                if sign < 0:
                    want = negate(want)
            cases += 1
            if got != want:
                failures.append(f"{name} with {env}: got {render_ring(got)}")
        rows.append((name, cases, failures))
    return rows


# ---------------------------------------------------------------------------
# tameness obstruction

def _in_gamma3(w):
    """Exact membership of a free word in the third lower-central term: its
    image in the step-2 group is trivial."""
    return collect(w, hall_basis(w.rank, 2)).is_identity()


def bglm_residue(ws):
    """The sum of i-th derivatives of the given defect words, mod the ideal.

    Each word must lie in the third lower-central term of the free group;
    the constant and linear parts of the sum then vanish identically and the
    residue is carried entirely by the quadratic part.
    """
    ws = list(ws)
    if not ws:
        raise ValueError("need one defect word per generator, got none")
    n = ws[0].rank
    if len(ws) != n:
        raise ValueError(f"need {n} words, got {len(ws)}")
    if any(w.rank != n for w in ws):
        raise ValueError("words have mixed ranks")
    for i, w in enumerate(ws, start=1):
        if not _in_gamma3(w):
            raise PreconditionError(
                f"word {i} is not in the third lower-central term"
            )
    total = ring_zero(n)
    for i, w in enumerate(ws, start=1):
        total = add(total, fox_derivative(w, i))
    if total.const != 0 or any(total.lin):
        raise InternalError(
            "constant/linear parts of the residue must vanish on words in the"
            " third lower-central term", n=n, const=total.const,
            lin={i: c for i, c in enumerate(total.lin, start=1) if c})
    return total


def bglm_condition(ws):
    """True iff the derivative sum vanishes in the quotient ring."""
    return bglm_residue(ws).is_zero()
