"""Independent oracles for cross-checking the collector and the solvers.

The matrix oracles deliberately share no code with the package engine: the
representations are built from scratch with plain integer matrix loops, so
agreement between the two paths is meaningful evidence of correctness.
`product_step3_rows` uses the engine's group operations, but not the
closed-form row table it checks.  `hand_central_lattice` and
`hand_bglm_lattice` write the decomposition lattices' rows out from the
commutators [x_a, x_b, x_c], not from the generator maps whose defects
`autos` reads them off.
The series oracles keep a series as one flat dict {monomial index:
coefficient} and share no product code with `nilpal.kernel`, which keeps
one dict per degree: `flat_poly_mul` is the kernel's old flat product,
`flatten` and `by_degree` convert between the two layouts,
`generator_series` gives the letters and `word_series` their products.
`bracket_by_three_products` builds a bracket's series as a^-1 b^-1 a b
from its halves and their inverses, the reference for the one left
division of `kernel.bracket_factor`; `lift_by_three_products` gives
the lifts that way, and
`exponents_series_by_fold` multiplies them into the series of an exponent
vector one letter-sized factor at a time, the reference for
`HallBasis.exponents_poly`.  `element_series` and `inverse_series` build
an element's series and its inverse's from lift powers, the inverse as
the reversed product of inverse lifts.  `peel_by_block_division` peels a
flat series by dividing it by whole weight blocks, the reference for
`HallBasis.element_from_poly`; it shares only the pivot solvers
(`_peel_solver`) with the engine.  The `series_*` functions are the group
operations of the truncated-series model on these oracles alone: the path
every basis of step > 3 runs, and the oracle for the exponent law of the
lower steps.  `series_collect` folds a word's letters, and `series_bar`
runs it on the reversed free word of its input, so it shares no code with
either `bar` path and never runs on the law.
`table_poly_mul` looks every monomial pair up in the table of
`monomial_table`, the reference for `flat_poly_mul` and the kernel.
`ring_fox_derivative`, with the ring image `embed` of a word, and
`word_tameness_residue` are the ring-product Fox derivative and the
two-lift word path of the tameness residue, the references for
`foxring.fox_derivative` and the per-basis table of `autos`.
`fraction_inv_unimodular` is Gauss-Jordan over Fractions, the reference
for the Bareiss inverse `intlinalg.inv_unimodular`.
`signed_permutation_palindromic` searches all 2^n sign vectors of the
signed permutation in e = eps . omega, the reference for the one
candidate that `autos.classify` tries, and `pi_level_by_search` solves
level by level for the pi-level that `classify` reads off its witnesses.
`epa_inverse_by_witnesses` inverts an elementary palindromic map by
solving for the witnesses of weight >= 2 and conjugating by their
inverses, the reference for the factors that
`autos.inverse_with_factors` gives an EPA input without a solve.
`compose_symbols_by_chain` composes a symbol list one generator map at
a time, the reference for `autos.compose_symbols`.
`bglm_by_preconditions` checks the tameness residue and the
palindromic lattices before it solves over the BGLM lattice, the
reference for `autos.decompose_bglm`, which solves first.
`fraction_combination` solves a lattice system over Fractions, the
reference for `intlinalg.solve_from_smith` and `intlinalg.PivotSolver`.
`dense_smith_solve` and `dense_lattice_diagnostics` read dense Smith
factors by full products, the references for `solve_from_smith` and
`autos._lattice_diagnostics` on the sparse columns of the same factors.
`pivot_solve_by_sweep` substitutes through every step of a
`PivotSolver`'s factors over Fractions, the reference for the sweeps of
`PivotSolver.solve` that visit only the steps holding a value.
`pivot_order_by_sort` runs the same sparse elimination as
`PivotSolver` on dense row scans, with the columns sorted once by entry
count, the reference for the pivots it picks.
`solve_integer` and `invariant_factors` are Smith-form solves and
invariants built on `intlinalg.smith_normal_form`, for the tests only.
"""

from array import array
from itertools import product
from weakref import WeakKeyDictionary


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


def fraction_inv_unimodular(a):
    """Inverse of an integer matrix with determinant +-1 by Gauss-Jordan
    over Fractions; the reference for `intlinalg.inv_unimodular`."""
    from fractions import Fraction

    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    out = []
    for row in work:
        ints = []
        for x in row[n:]:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            ints.append(int(x))
        out.append(ints)
    return out


def fraction_combination(rows, target):
    """(rank, x) for sum_j x_j rows[j] == target, by Gauss-Jordan over
    Fractions: the rank of the rows over Q and, when the rows are linearly
    independent, the unique rational solution x, or None when target is
    outside their rational span.  x is None for dependent rows.  The
    reference for `intlinalg.solve_from_smith`, with which it shares no
    code."""
    from fractions import Fraction

    r = len(rows)
    # one equation per coordinate c: sum_j rows[j][c] x_j == target[c]
    work = [[Fraction(row[c]) for row in rows] + [Fraction(t)] for c, t in enumerate(target)]
    rank = 0
    for col in range(r):
        piv = next((e for e in range(rank, len(work)) if work[e][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for e in range(len(work)):
            if e != rank and work[e][col]:
                f = work[e][col]
                work[e] = [a - f * b for a, b in zip(work[e], work[rank])]
        rank += 1
    if rank < r or any(work[e][r] for e in range(rank, len(work))):
        return rank, None
    return rank, [work[j][r] for j in range(r)]


def pivot_solve_by_sweep(solver, t):
    """The x with (E x)_P == t_P as a dense list of ints, or None if x is
    not integral, from the factors of the `intlinalg.PivotSolver`
    `solver`: forward substitution through every step in order, then back
    substitution through every step in reverse, all over Fractions, with
    one integrality test at the end."""
    from fractions import Fraction

    steps = len(solver.rows)
    v = [Fraction(t.get(i, 0)) for i in solver.rows]
    for s in range(steps):
        for s2, f in solver._lower.get(s, ()):
            v[s2] -= f * v[s]
    x = [Fraction(0)] * steps
    for s in reversed(range(steps)):
        xs = v[s] / solver.pivots[s]
        for s2, u in solver._upper.get(s, ()):
            v[s2] -= u * xs
        x[solver.cols[s]] = xs
    if any(xs.denominator != 1 for xs in x):
        return None
    return [int(xs) for xs in x]


def pivot_order_by_sort(columns):
    """The (rows, cols, pivots) that `PivotSolver(columns)` picks, by its
    elimination with the columns sorted once by (entry count, column):
    each column in turn pivots on its shortest +-1 row, or else its
    shortest row, reading the rows it holds afresh from the matrix left.
    Raises the same ValueError on a rank-deficient system."""
    from fractions import Fraction

    def unit(a):
        return a == 1 or a == -1

    rows = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    picked = [[], [], []]
    for c in sorted(range(len(columns)), key=lambda j: (len(columns[j]), j)):
        holders = [i for i, row in rows.items() if c in row]
        if not holders:
            raise ValueError("matrix does not have full column rank")
        units = [i for i in holders if unit(rows[i][c])]
        p = min(units or holders, key=lambda i: (len(rows[i]), i))
        prow = rows.pop(p)
        a = prow.pop(c)
        for i in holders:
            if i == p:
                continue
            row = rows[i]
            f = Fraction(row.pop(c), a)
            for j, v in prow.items():
                nv = row.get(j, 0) - f * v
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
        for out, value in zip(picked, (p, c, a)):
            out.append(value)
    return picked


def solve_integer(a, b):
    """One integer solution x of a*x == b, or None if none exists."""
    from nilpal.intlinalg import lattice_factors, solve_from_smith, transpose

    if not a:
        return [] if not any(b) else None
    # the columns of a are the rows of its transpose
    return solve_from_smith(lattice_factors(transpose(a)), b)


def invariant_factors(a):
    """Nonzero diagonal of the Smith form of a."""
    from nilpal.intlinalg import smith_normal_form

    _, d, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]


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


def _comm3(basis, a, b, c):
    """The element [x_a, x_b, x_c]."""
    from nilpal.nilpotent import left_normed

    return left_normed([basis.generator(v) for v in (a, b, c)])


def _comm3_block(basis, a, b, c):
    """Weight-3 block of [x_a, x_b, x_c]."""
    return list(_comm3(basis, a, b, c).weight_block(3))


def _phi2_block(basis, a, b, i):
    """Weight-3 block of [x_a,x_b,x_i][x_a,x_b,x_b][x_a,x_b,x_a]."""
    from nilpal.nilpotent import multiply

    defect = multiply(multiply(_comm3(basis, a, b, i), _comm3(basis, a, b, b)),
                      _comm3(basis, a, b, a))
    return list(defect.weight_block(3))


def hand_central_lattice(basis, i):
    """(families, rows) of the central lattice of generator i at step 3,
    written out by hand: phi2(a,b,i), a > b, has the weight-3 block of
    [x_a,x_b,x_i][x_a,x_b,x_b][x_a,x_b,x_a], and the phi3 symbol of the
    j-th weight-3 basis element has 2 e_j.  The reference for the rows
    that `autos._family_row` reads off the generator maps."""
    from nilpal.autos import phi2, phi3

    m3 = len(basis.by_weight[2])
    fams, rows = [], []
    for a in range(1, basis.n + 1):
        for b in range(1, a):
            fams.append((phi2(a, b, i),))
            rows.append(_phi2_block(basis, a, b, i))
    for j, c in enumerate(basis.by_weight[2]):
        fams.append((phi3(c.left.left.gen, c.left.right.gen, c.right.gen, i),))
        rows.append([2 if col == j else 0 for col in range(m3)])
    return fams, rows


def hand_bglm_lattice(basis):
    """(families, rows) of the obstruction-free central lattice at step 3,
    written out by hand: a family's row stacks, per generator, the weight-3
    blocks of the defects its symbols put there.  The reference for the
    rows that `autos._family_row` reads off the generator maps."""
    from itertools import combinations, permutations

    from nilpal.autos import phi2, phi3, psi

    n = basis.n
    m3 = len(basis.by_weight[2])
    idx = range(1, n + 1)
    out = []

    def add(family, contribs):
        row = [0] * (n * m3)
        for i, vec in contribs:
            row[(i - 1) * m3:i * m3] = vec
        out.append((family, row))

    def dbl(a, b, c):
        return [2 * v for v in _comm3_block(basis, a, b, c)]

    if n == 2:
        add((phi3(2, 1, 1, 1), phi3(2, 1, 2, 2)), [(1, dbl(2, 1, 1)), (2, dbl(2, 1, 2))])
    else:
        for a, b, i in permutations(idx, 3):
            if b < a:
                add((phi2(a, b, i),), [(i, _phi2_block(basis, a, b, i))])
        for a, b, c, i in permutations(idx, 4):
            if b < a:
                add((phi3(a, b, c, i),), [(i, dbl(a, b, c))])
        for a, b, i in permutations(idx, 3):
            if b < a:
                add((phi3(a, b, i, i),), [(i, dbl(a, b, i))])
        for a in idx:
            for i, j in combinations(idx, 2):
                if a not in (i, j):
                    add((psi(a, i), psi(a, j, -1)),
                        [(i, _comm3_block(basis, a, i, a)),
                         (j, [-v for v in _comm3_block(basis, a, j, a)])])
        for h, u, v in permutations(idx, 3):
            add((phi3(h, u, v, h), phi3(v, u, u, u)), [(h, dbl(h, u, v)), (u, dbl(v, u, u))])
    return [fam for fam, _ in out], [row for _, row in out]


def bglm_by_preconditions(e):
    """`autos.decompose_bglm` with its preconditions checked first: the
    tameness residue, then membership of each defect in its generator's
    palindromic lattice, and only then the solve over the BGLM lattice.
    The reference for the order that `decompose_bglm` runs, which solves
    first and checks the preconditions only to word a refusal."""
    from nilpal import autos
    from nilpal.intlinalg import solve_from_smith
    from nilpal.nilpotent import InternalError, PreconditionError

    basis = e.basis
    autos._require_step3(basis)
    if basis.n < 2:
        raise ValueError("need rank >= 2")
    defects = autos._weight3_defects(e)
    residue = autos._residue_of_defects(basis, defects)
    if not residue.is_zero():
        n = basis.n
        diag = [f"square defect (x{i}-1)^2: {residue.pair(i, i)}"
                for i in range(1, n + 1) if residue.pair(i, i)]
        mixed = [f"mixed defect ({i},{j}): {residue.pair(i, j)}"
                 for i in range(1, n + 1) for j in range(i + 1, n + 1) if residue.pair(i, j)]
        raise PreconditionError("tameness obstruction is nonzero: " + "; ".join(diag + mixed))
    diagnostics = [
        f"x{i}: " + "; ".join(autos._lattice_diagnostics(autos._central_lattice(basis, i)[1], d))
        for i, d in enumerate(defects, start=1) if not autos._in_central_lattice(basis, i, d)
    ]
    if diagnostics:
        raise PreconditionError("not central palindromic: " + "; ".join(diagnostics))
    fams, smith = autos._bglm_lattice(basis)
    sol = solve_from_smith(smith, [v for vec in defects for v in vec])
    if sol is None:
        return autos.Decomposition((), False, ("defect outside the generated lattice",))
    factors = autos._scaled_factors(fams, sol)
    if autos._central_sum(basis, factors) != e.top_defects():
        raise InternalError("decomposition failed to recompose",
                            n=basis.n, k=basis.k, factors=len(factors))
    return autos.Decomposition(tuple(factors), True)


def compose_symbols_by_chain(symbols, basis):
    """The symbols' maps composed left to right by one `compose` per
    symbol, each map from `make_generator`: the reference for
    `autos.compose_symbols`, which builds each run of top-central symbols
    as one map."""
    from functools import reduce

    from nilpal.autos import compose, identity_endo, make_generator

    return reduce(compose, [make_generator(s, basis) for s in symbols], identity_endo(basis))


def dense_smith_solve(factors, b):
    """One integer solution x of a x == b from dense Smith factors
    (u, d, v) = `smith_normal_form(a)` by full matrix-vector products, or
    None: the reference for `intlinalg.solve_from_smith` on the sparse
    columns of the same factors."""
    u, d, v = factors
    c = mat_mul(u, [[x] for x in b])
    r = min(len(u), len(v))
    rank = sum(1 for i in range(r) if d[i][i])
    if any(c[i][0] for i in range(rank, len(u))):
        return None
    if any(c[i][0] % d[i][i] for i in range(rank)):
        return None
    y = [[c[i][0] // d[i][i]] if i < rank else [0] for i in range(len(v))]
    return [row[0] for row in mat_mul(v, y)]


def dense_lattice_diagnostics(factors, target):
    """`autos._lattice_diagnostics` read from dense Smith factors
    (u, d, v) by a full product u target."""
    u, d, v = factors
    c = [row[0] for row in mat_mul(u, [[x] for x in target])]
    r = min(len(u), len(v))
    out = [f"class {j}: residue {c[j] % d[j][j]} mod {d[j][j]}"
           for j in range(r) if d[j][j] and c[j] % d[j][j]]
    rank = sum(1 for j in range(r) if d[j][j])
    out += [f"coordinate {j}: unreachable value {c[j]}" for j in range(rank, len(u)) if c[j]]
    return tuple(out)


def pi_level_by_search(e):
    """The pi-level of an elementary palindromic map by search, level by
    level from k down: the largest level l such that every generator has a
    witness of weight >= l (`solve_conjugator(image, i, min_weight=l)`),
    and 1 when no level above 1 has them.  The reference for the level
    that `autos.classify` reads off its canonical witnesses."""
    from nilpal.autos import solve_conjugator

    for level in range(e.basis.k, 1, -1):
        if all(solve_conjugator(g, i, min_weight=level) is not None
               for i, g in enumerate(e.images, 1)):
            return level
    return 1


def epa_inverse_by_witnesses(e):
    """(inverse, factors) of an elementary palindromic automorphism e at
    step <= 3 by witness solves, or None when e has no witnesses there.

    The factors are the palindromic lift psi_1 of the inverse
    abelianization matrix (inverted over Fractions), then
    x_i -> bar(q_i^-1) x_i q_i^-1 over the witnesses q_i of weight >= 2 of
    phi = e psi_1 (one `solve_conjugator` each, built by group products),
    then at step 3 what is left of phi, which must be the identity; the
    inverse is the product of the first two.  The reference for the
    factors of an EPA input in `autos.inverse_with_factors`, which solves
    nothing."""
    from functools import reduce

    from nilpal.autos import Endo, _epa_linear_lift, compose, identity_endo, solve_conjugator
    from nilpal.nilpotent import bar, invert, multiply

    basis = e.basis
    n, k = basis.n, basis.k
    if any((v - (r == c)) % 2 for r, row in enumerate(e.abel_matrix) for c, v in enumerate(row)):
        return None
    factors = [_epa_linear_lift(basis, fraction_inv_unimodular([list(r) for r in e.abel_matrix]))]
    phi = compose(e, factors[0])
    if k >= 2:
        images = []
        for i, img in enumerate(phi.images, 1):
            q = solve_conjugator(img, i, min_weight=2)
            if q is None:
                return None
            q = invert(q)
            images.append(multiply(multiply(bar(q), basis.generator(i)), q))
        factors.append(Endo(basis, images))
        phi = compose(phi, factors[1])
    if k == 3:
        factors.append(phi)
    assert phi == identity_endo(basis)
    return reduce(compose, factors[:2]), factors


def signed_permutation_palindromic(e):
    """Whether e = eps . omega with eps elementary palindromic and omega a
    signed permutation, trying every sign vector of omega.  The permutation
    is the one that the abelianization of e is mod 2."""
    from nilpal.autos import Endo, compose, identity_endo, palindromic_witnesses
    from nilpal.nilpotent import invert

    basis = e.basis
    n = basis.n
    odd = [[j for j, v in enumerate(row) if v % 2] for row in e.abel_matrix]
    if any(len(cols) != 1 for cols in odd) or len({cols[0] for cols in odd}) != n:
        return False
    perm = [cols[0] + 1 for cols in odd]
    inv_perm = [perm.index(j) + 1 for j in range(1, n + 1)]

    def signed(p, signs):
        gens = [basis.generator(v) for v in p]
        return Endo(basis, [g if s > 0 else invert(g) for g, s in zip(gens, signs)])

    for signs in product((1, -1), repeat=n):
        omega = signed(perm, signs)
        omega_inv = signed(inv_perm, [signs[v - 1] for v in inv_perm])
        assert compose(omega, omega_inv) == identity_endo(basis)
        if palindromic_witnesses(compose(e, omega_inv)) is not None:
            return True
    return False


def gf2_rank(rows):
    """Rank over GF(2) of integer rows, by Gaussian elimination on lists."""
    rows = [[v % 2 for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def flat_poly_mul(a, b, shape):
    """Product a * b of flat series, dicts {monomial index: coefficient},
    truncated above degree shape.k.

    The constant terms are handled as whole-series copies.  The other
    terms of b are walked in index order, which is degree-major, so the
    walk for a term of a stops at the first term of b that would carry the
    product above degree k.  The series kernel's flat product before it
    kept one dict per degree; it shares no code with `nilpal.kernel`.
    """
    dr = shape.dr
    rowbase = shape.rowbase
    a0 = a.get(0, 0)
    bt = sorted(b.items())
    b0 = 0
    if bt and not bt[0][0]:
        b0 = bt.pop(0)[1]
    if a0 == 1:
        out = b.copy()
    elif a0:
        out = {i: a0 * c for i, c in b.items()}
    else:
        out = {}
    for ia, ca in a.items():
        if ia:
            if b0:
                out[ia] = out.get(ia, 0) + ca * b0
            row = rowbase[ia]
            lim = len(row)
            for ib, cb in bt:
                db, rb = dr[ib]
                if db >= lim:
                    break
                idx = row[db] + rb
                out[idx] = out.get(idx, 0) + ca * cb
    return {i: c for i, c in out.items() if c}


def flat_poly_pow(a, e, shape):
    """a**e for e >= 0 by repeated squaring with `flat_poly_mul`."""
    out = {0: 1}
    while e:
        if e & 1:
            out = flat_poly_mul(out, a, shape)
        e >>= 1
        if e:
            a = flat_poly_mul(a, a, shape)
    return out


def flat_poly_inv(a, shape):
    """Inverse of a flat series with constant term 1, by the geometric
    series sum_i (1 - a)^i with `flat_poly_mul`."""
    r = {i: -c for i, c in a.items() if i}
    out, power = {0: 1}, {0: 1}
    for _ in range(shape.k):
        power = flat_poly_mul(power, r, shape)
        out = {i: out.get(i, 0) + power.get(i, 0) for i in out.keys() | power.keys()}
    return {i: c for i, c in out.items() if c}


def flatten(series):
    """The flat dict of a series kept as one dict per degree."""
    out = {}
    for part in series:
        out.update(part)
    return out


def by_degree(poly, shape):
    """A flat series as k+1 dicts, one per degree."""
    out = [{} for _ in range(shape.k + 1)]
    for i, c in poly.items():
        out[shape.dr[i][0]][i] = c
    return out


def generator_series(basis, gen, inverse):
    """1 + X_i, or x_i^-1 = 1 - X_i + X_i^2 - ... up to degree k, flat."""
    top, sign = (basis.k, -1) if inverse else (1, 1)
    return {basis.shape.index((gen,) * d): sign**d for d in range(top + 1)}


def bracket_by_three_products(basis, idx, inverse, leaf, cache):
    """Flat series of basis element idx, or of its inverse, from the flat
    series `leaf(gen, inverse)` of the generators, kept in `cache`:
    [a,b] = a^-1 b^-1 a b from the series of its halves and their
    inverses, three `flat_poly_mul`, and [a,b]^-1 = [b,a]."""
    key = (idx, inverse)
    poly = cache.get(key)
    if poly is None:
        c = basis.elements[idx]
        if c.gen is not None:
            poly = leaf(c.gen, inverse)
        else:
            left, right = (c.right, c.left) if inverse else (c.left, c.right)
            a_inv, b_inv, a, b = [bracket_by_three_products(basis, half.index, inv, leaf, cache)
                                  for inv in (True, False) for half in (left, right)]
            shape = basis.shape
            poly = flat_poly_mul(flat_poly_mul(a_inv, b_inv, shape),
                                 flat_poly_mul(a, b, shape), shape)
        cache[key] = poly
    return poly


def lift_by_three_products(basis, idx, inverse, cache):
    """The flat lift of basis element idx, or of its inverse, by
    `bracket_by_three_products` from the generator series."""
    return bracket_by_three_products(
        basis, idx, inverse, lambda gen, inv: generator_series(basis, gen, inv), cache)


# the lifts of `lift_by_three_products` and their powers, one cache per
# live basis
_LIFTS = WeakKeyDictionary()


def _lift(basis, idx, inverse, e=1):
    """The e-th power of the lift of basis element idx or of its inverse."""
    cache = _LIFTS.setdefault(basis, {})
    key = (idx, inverse, e)
    if key not in cache:
        cache[key] = flat_poly_pow(lift_by_three_products(basis, idx, inverse, cache), e,
                                   basis.shape)
    return cache[key]


def exponents_series_by_fold(basis, exps):
    """Flat series of the element with Hall exponents `exps`: the lift of
    each factor c_j, or of its inverse, multiplied in |e_j| times, in basis
    order, with the lifts from `lift_by_three_products`."""
    poly = {0: 1}
    for idx, e in enumerate(exps):
        for _ in range(abs(e)):
            poly = flat_poly_mul(poly, _lift(basis, idx, e < 0), basis.shape)
    return poly


def element_series(basis, exps):
    """Flat series of the element with Hall exponents `exps`: the product
    of the lift powers c_j^e_j in basis order, each by repeated squaring
    of the lift of c_j or of its inverse."""
    poly = {0: 1}
    for idx, e in enumerate(exps):
        if e:
            poly = flat_poly_mul(poly, _lift(basis, idx, e < 0, abs(e)), basis.shape)
    return poly


def inverse_series(basis, exps):
    """Flat series of the inverse of the element with Hall exponents
    `exps`: the reversed product of the inverse lift powers c_j^-e_j."""
    poly = {0: 1}
    for idx in reversed(range(len(exps))):
        e = exps[idx]
        if e:
            poly = flat_poly_mul(poly, _lift(basis, idx, e > 0, abs(e)), basis.shape)
    return poly


def peel_by_block_division(basis, poly):
    """Hall exponents of the flat group series `poly`, or the
    `InternalError` of `HallBasis.element_from_poly`, by whole-block
    division: each weight-w layer divides the remainder on the left by the
    whole block, multiplying it by the reversed product of the inverse
    lift powers, or for 2w > k subtracts sum_j x_j (c_j - 1) from a copy.
    It shares the pivot solvers, fed the degree-w part only, with the
    engine, and no product code."""
    from nilpal.nilpotent import InternalError

    n, k = basis.n, basis.k
    shape = basis.shape
    offset = shape.offset

    def degree_part(r, w):
        return {i: c for i, c in r.items() if offset[w] <= i < offset[w + 1]}

    if poly.get(0) != 1:
        raise InternalError("series has constant term != 1",
                            n=n, k=k, weight=0, residual_terms=len(poly))
    exps = [0] * len(basis.elements)
    r = poly
    for w in range(1, k + 1):
        sol = basis._peel_solver(w).solve(degree_part(r, w).items())
        if sol is None:
            raise InternalError(f"degree-{w} coordinates are not integral",
                                n=n, k=k, weight=w, residual_terms=len(degree_part(r, w)))
        x = [sol.get(j, 0) for j in range(len(basis.by_weight[w - 1]))]
        start = basis.weight_offset[w - 1]
        exps[start:start + len(x)] = x
        if any(x):
            if 2 * w > k:
                out = dict(r)
                for j, e in enumerate(x):
                    if e:
                        for i, c in _lift(basis, start + j, False).items():
                            if i:
                                out[i] = out.get(i, 0) - e * c
                r = {i: c for i, c in out.items() if c}
            else:
                block_inverse = {0: 1}
                for j in reversed(range(len(x))):
                    if x[j]:
                        power = _lift(basis, start + j, x[j] > 0, abs(x[j]))
                        block_inverse = flat_poly_mul(block_inverse, power, shape)
                r = flat_poly_mul(block_inverse, r, shape)
        residual = len(degree_part(r, w))
        if residual:
            raise InternalError(f"degree-{w} component is not a Lie element",
                                n=n, k=k, weight=w, residual_terms=residual)
    if r != {0: 1}:
        raise InternalError("series does not collapse to the normal form",
                            n=n, k=k, weight=k, residual_terms=len(r) - 1)
    return tuple(exps)


def _peeled(basis, poly):
    return basis.from_exponents(peel_by_block_division(basis, poly))


def series_multiply(a, b):
    basis = a.basis
    return _peeled(basis, flat_poly_mul(element_series(basis, a.exponents),
                                        element_series(basis, b.exponents), basis.shape))


def series_invert(a):
    return _peeled(a.basis, inverse_series(a.basis, a.exponents))


def word_series(word, basis):
    """Flat series of a word: its letters' series multiplied left to right."""
    poly = {0: 1}
    for let in word.letters:
        poly = flat_poly_mul(poly, generator_series(basis, let.index, let.sign < 0), basis.shape)
    return poly


def series_collect(word, basis):
    """collect on the series path at every step: the letters' series
    multiplied left to right, then peeled."""
    return _peeled(basis, word_series(word, basis))


def series_bar(a):
    """bar by its definition: collect(reverse_word(element_as_word(a))).

    That word is the reversed words of the factors c_j^e_j of a in reverse
    order; the series of each factor is the |e_j|-th power of the series
    of the reversed word of c_j, or of its inverse for e_j < 0, so large
    exponents build no long word.
    """
    from nilpal.words import reverse_word

    basis = a.basis
    poly = {0: 1}
    for c, e in reversed(list(zip(basis.elements, a.exponents))):
        if e:
            rev = reverse_word(c.as_word(basis.n))
            rev = word_series(rev if e > 0 else rev.inverse(), basis)
            poly = flat_poly_mul(poly, flat_poly_pow(rev, abs(e), basis.shape), basis.shape)
    return _peeled(basis, poly)


def series_conjugate(q, i):
    """bar(q) x_i q by the series oracles, which share no code with the law."""
    return series_multiply(series_multiply(series_bar(q), q.basis.generator(i)), q)


def series_power(a, e):
    basis = a.basis
    base = (inverse_series if e < 0 else element_series)(basis, a.exponents)
    return _peeled(basis, flat_poly_pow(base, abs(e), basis.shape))


def series_apply(endo, g):
    """endo(g), substituting the image series into a free word for g."""
    from nilpal.nilpotent import element_as_word

    basis = g.basis
    images = [element_series(basis, img.exponents) for img in endo.images]
    inverses = [inverse_series(basis, img.exponents) for img in endo.images]
    poly = {0: 1}
    for let in element_as_word(g).letters:
        factor = images if let.sign > 0 else inverses
        poly = flat_poly_mul(poly, factor[let.index - 1], basis.shape)
    return _peeled(basis, poly)


def _letter_elem(let, n):
    """Ring image of one letter."""
    from nilpal.foxring import RingElemModR

    lin = [0] * n
    if let.sign > 0:
        lin[let.index - 1] = 1
        return RingElemModR(n, const=1, lin=lin)
    # x^-1 = 1 - (x-1) + (x-1)^2 after truncation
    lin[let.index - 1] = -1
    quad = [[0] * n for _ in range(n)]
    quad[let.index - 1][let.index - 1] = 1
    return RingElemModR(n, const=1, lin=lin, quad=quad)


def embed(w):
    """Ring image of a word; multiplicative, with augmentation 1."""
    from nilpal.foxring import mul, ring_one

    out = ring_one(w.rank)
    for let in w.letters:
        out = mul(out, _letter_elem(let, w.rank))
    return out


def ring_fox_derivative(w, j):
    """j-th Fox derivative by ring products: each letter multiplies the
    prefix and adds prefix * d(letter) through `foxring.mul`/`add`, three
    ring elements per letter."""
    from nilpal.foxring import add, mul, negate, ring_one, ring_zero

    n = w.rank
    if not 1 <= j <= n:
        raise ValueError(f"derivative index {j} out of range 1..{n}")
    out = ring_zero(n)
    prefix = ring_one(n)
    for let in w.letters:
        if let.index == j:
            # d(x) = 1, d(x^-1) = -x^-1
            step = ring_one(n) if let.sign > 0 else negate(_letter_elem(let, n))
            out = add(out, mul(prefix, step))
        prefix = mul(prefix, _letter_elem(let, n))
    return out


def word_tameness_residue(e):
    """The tameness residue of a central automorphism at step 3 on free
    words: the Fox-derivative sum of the defect lifts, evaluated on two
    lifts (basis order and reversed basis order) that must agree."""
    from nilpal.foxring import bglm_residue
    from nilpal.nilpotent import element_as_word, invert, multiply

    basis = e.basis
    defects = [multiply(invert(basis.generator(i)), img)
               for i, img in enumerate(e.images, start=1)]
    r1 = bglm_residue([element_as_word(d) for d in defects])
    r2 = bglm_residue([element_as_word(d, reverse=True) for d in defects])
    assert r1 == r2, "obstruction depends on the free lift"
    return r1
