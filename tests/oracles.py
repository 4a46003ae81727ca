"""Independent oracles for cross-checking the collector and the solvers.

The matrix oracles deliberately share no code with the package engine: the
representations are built from scratch with plain integer matrix loops, so
agreement between the two paths is meaningful evidence of correctness.
`product_step3_rows` uses the engine's group operations, but not the
closed-form row table it checks.
"""

from array import array
from itertools import product


def mat_eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n = len(a)
    m = len(b[0])
    inner = len(b)
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(m)]
        for i in range(n)
    ]


def heisenberg_matrix(word):
    """Evaluate a rank-2 word in the integral Heisenberg group (3x3)."""
    x1 = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    x1inv = [[1, -1, 0], [0, 1, 0], [0, 0, 1]]
    x2 = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    x2inv = [[1, 0, 0], [0, 1, -1], [0, 0, 1]]
    table = {(1, 1): x1, (1, -1): x1inv, (2, 1): x2, (2, -1): x2inv}
    out = mat_eye(3)
    for let in word.letters:
        out = mat_mul(out, table[(let.index, let.sign)])
    return out


class TruncatedWordRep:
    """Left-multiplication matrices on monomial words of length <= k.

    The generator x_i acts as 1 + (prepend letter i); words longer than k are
    dropped.  This is a faithful unitriangular integer representation of the
    rank-n step-k free nilpotent group.
    """

    def __init__(self, n, k):
        self.n = n
        self.k = k
        labels = [""]
        frontier = [""]
        for _ in range(k):
            frontier = [str(c) + w for w in frontier for c in range(1, n + 1)]
            labels.extend(sorted(frontier))
        labels = sorted(labels, key=lambda w: (len(w), w))
        self.labels = labels
        self.pos = {w: i for i, w in enumerate(labels)}
        self.dim = len(labels)
        self.gen = {}
        self.geninv = {}
        for c in range(1, n + 1):
            shift = [[0] * self.dim for _ in range(self.dim)]
            for w in labels:
                longer = str(c) + w
                if len(longer) <= k:
                    shift[self.pos[longer]][self.pos[w]] = 1
            mat = [row[:] for row in shift]
            for i in range(self.dim):
                mat[i][i] += 1
            self.gen[c] = mat
            # inverse by the alternating series of the nilpotent shift
            inv = mat_eye(self.dim)
            powm = mat_eye(self.dim)
            sign = 1
            for _ in range(k):
                powm = mat_mul(powm, shift)
                sign = -sign
                for i in range(self.dim):
                    for j in range(self.dim):
                        inv[i][j] += sign * powm[i][j]
            self.geninv[c] = inv

    def evaluate(self, word):
        out = mat_eye(self.dim)
        for let in word.letters:
            mat = self.gen[let.index] if let.sign > 0 else self.geninv[let.index]
            out = mat_mul(out, mat)
        return out


def monomial_table(n, k):
    """Monomials of degree <= k in letters 1..n and their product table.

    Monomials are letter tuples, degree-major and lexicographic within a
    degree (the numbering of the series kernel).  table[i*m + j] is the
    index of monomial i followed by monomial j, or -1 above degree k.
    """
    monos = [()]
    for w in range(1, k + 1):
        monos.extend(product(range(1, n + 1), repeat=w))
    index = {mo: i for i, mo in enumerate(monos)}
    m = len(monos)
    table = array("i", bytes(4 * m * m))
    for i, a in enumerate(monos):
        base = i * m
        for j, b in enumerate(monos):
            table[base + j] = index[a + b] if len(a) + len(b) <= k else -1
    return monos, table


def table_poly_mul(a, b, table, m):
    """Truncated series product by looking every monomial pair up."""
    out = {}
    for ia, ca in a.items():
        base = ia * m
        for ib, cb in b.items():
            idx = table[base + ib]
            if idx >= 0:
                out[idx] = out.get(idx, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def product_step3_rows(basis, i, alpha):
    """Step-3 witness lattice rows by group products, one per weight-2 z_j.

    Row j is wt3(bar(q1 z_j) x_i q1 z_j) - wt3(bar(q1) x_i q1) with
    q1 = x^alpha: the direct construction that `solve_conjugator` used to
    run on every call.
    """
    from nilpal.nilpotent import bar, multiply

    nelem = len(basis.elements)
    xi = basis.generator(i)
    q1 = basis.from_exponents(tuple(alpha) + (0,) * (nelem - basis.n))
    f0_w3 = multiply(multiply(bar(q1), xi), q1).weight_block(3)
    start = basis.weight_offset[1]
    rows = []
    for j in range(len(basis.by_weight[1])):
        exps = [0] * nelem
        exps[start + j] = 1
        q1z = multiply(q1, basis.from_exponents(exps))
        fz_w3 = multiply(multiply(bar(q1z), xi), q1z).weight_block(3)
        rows.append([a - b for a, b in zip(fz_w3, f0_w3)])
    return rows
