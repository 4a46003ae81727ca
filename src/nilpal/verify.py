"""Named verification suites over the library's mathematical identities.

Each suite returns a SuiteResult; given the same seed it is deterministic,
case counts included.  The CLI `verify` command and the acceptance tests are
thin wrappers around these functions.
"""

import inspect
import random
from dataclasses import dataclass, field
from itertools import permutations, product

from nilpal.autos import (
    _comm3,
    _palindromic_image,
    compose_symbols,
    decompose_bglm,
    endo_power,
    inner,
    make_generator,
    phi2,
    phi3,
    solve_conjugator,
    tameness_necessary,
)
from nilpal.foxring import check_fox_table
from nilpal.nilpotent import (
    NilElement,
    bar,
    collect,
    commutator,
    hall_basis,
    invert,
    left_normed,
    multiply,
    power,
    render_element,
    verify_w2k,
)
from nilpal.words import word_from_ints


@dataclass
class SuiteResult:
    suite: str
    cases: int
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.failures


def _random_word(rng, n, max_len):
    alphabet = [i for i in range(-n, n + 1) if i]
    return word_from_ints(
        [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))], n
    )


def suite_lemma25(rank=3, step=5):
    """bar of a weight-k commutator of generators is its (-1)^(k+1) power."""
    if step < 2:
        raise ValueError("suite needs step >= 2")
    result = SuiteResult("lemma2.5", 0, info={"rank": rank, "step": step})
    for n in range(1, rank + 1):
        for k in range(2, step + 1):
            basis = hall_basis(n, k)
            gens = [basis.generator(i) for i in range(1, n + 1)]
            for tup in product(range(n), repeat=k):
                c = left_normed([gens[j] for j in tup])
                want = c if (k + 1) % 2 == 0 else invert(c)
                result.cases += 1
                if bar(c) != want:
                    result.failures.append(f"n={n} k={k} tuple={tup}")
    return result


def suite_prop28(rank=3, step=3, seed=0, cases=100):
    """The central product z * bar(z) matches the recursive word."""
    if step % 2 == 0 or step < 3:
        raise ValueError("suite needs an odd step >= 3")
    half = (step - 1) // 2
    rng = random.Random(seed)
    result = SuiteResult("prop2.8", 0, info={"rank": rank, "step": step, "seed": seed})
    for n in range(2, rank + 1):
        basis = hall_basis(n, step)
        gens = [basis.generator(i) for i in range(1, n + 1)]
        tuples = []
        if n ** (2 * half) <= 256:
            tuples.extend(product(range(n), repeat=2 * half))
        while cases is not None and len(tuples) < cases:
            tuples.append(tuple(rng.randrange(n) for _ in range(2 * half)))
        for tup in tuples:
            result.cases += 1
            if not verify_w2k([gens[j] for j in tup], half):
                result.failures.append(f"n={n} tuple={tup}")
    return result


def suite_jacobi(rank=4, step=None):
    """Product of the three cyclic left-normed triples is trivial at step 3."""
    result = SuiteResult("jacobi", 0, info={"rank": rank})
    for n in range(3, rank + 1):
        basis = hall_basis(n, 3)
        for i, j, l in permutations(range(1, n + 1), 3):
            a, b, c = basis.generator(i), basis.generator(j), basis.generator(l)
            prod = multiply(
                multiply(left_normed([a, b, c]), left_normed([b, c, a])),
                left_normed([c, a, b]),
            )
            result.cases += 1
            if not prod.is_identity():
                result.failures.append(f"n={n} triple=({i},{j},{l})")
    return result


def suite_lemma42(rank=3, step=None, seed=0, cases=50):
    """Conjugation-by-reversal formula for weight-2 products at step 3."""
    rng = random.Random(seed)
    result = SuiteResult("lemma4.2", 0, info={"rank": rank, "seed": seed})
    for n in range(2, rank + 1):
        basis = hall_basis(n, 3)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, a)]
        for _ in range(cases):
            ps = {ab: rng.randint(-2, 2) for ab in pairs}
            u = basis.one()
            for (a, b), p in ps.items():
                u = multiply(u, power(commutator(basis.generator(a), basis.generator(b)), p))
            targets = [basis.generator(i) for i in range(1, n + 1)]
            targets.append(collect(_random_word(rng, n, 6), basis))
            for x in targets:
                rhs = x
                for (a, b), p in ps.items():
                    za = left_normed([basis.generator(a), basis.generator(b), x])
                    zb = _comm3(basis, a, b, b)
                    zc = _comm3(basis, a, b, a)
                    rhs = multiply(rhs, power(multiply(multiply(za, zb), zc), p))
                lhs = multiply(multiply(u, x), bar(u))
                result.cases += 1
                if lhs != rhs:
                    result.failures.append(f"n={n} p={sorted(ps.items())}")
    return result


def suite_foxtable(rank=3):
    report = check_fox_table(rank)
    result = SuiteResult("foxtable", 0, info={"rank": rank, "rows": len(report.rows)})
    for name, row_cases, failures in report.rows:
        result.cases += row_cases
        result.failures.extend(f"{name}: {f}" for f in failures)
    return result


def suite_lemma53(rank=4, step=None):
    """tameness_necessary on the phi2 family matches its classification."""
    result = SuiteResult("lemma5.3", 0, info={"rank": rank})
    for n in range(2, rank + 1):
        basis = hall_basis(n, 3)
        for a, b in permutations(range(1, n + 1), 2):
            for i in range(1, n + 1):
                e = make_generator(phi2(a, b, i), basis)
                want = i not in (a, b)
                result.cases += 1
                if tameness_necessary(e) != want:
                    result.failures.append(f"n={n} phi2({a},{b};{i})")
    return result


def suite_lemma54(rank=4, step=None):
    """tameness_necessary on the phi3 family matches its classification."""
    result = SuiteResult("lemma5.4", 0, info={"rank": rank})
    for n in range(2, rank + 1):
        basis = hall_basis(n, 3)
        for a, b in permutations(range(1, n + 1), 2):
            for c in range(1, n + 1):
                for i in range(1, n + 1):
                    e = make_generator(phi3(a, b, c, i), basis)
                    want = i not in (a, b, c) or (c == i and i not in (a, b))
                    result.cases += 1
                    if tameness_necessary(e) != want:
                        result.failures.append(f"n={n} phi3({a},{b},{c};{i})")
    return result


def suite_thm58_n2(rank=None, step=None):
    """Rank-2 case: the single obstruction-free generator is the inner
    conjugation by the doubled commutator, and its powers decompose back."""
    basis = hall_basis(2, 3)
    result = SuiteResult("thm5.8-n2", 0)
    gen = compose_symbols([phi3(2, 1, 1, 1), phi3(2, 1, 2, 2)], basis)
    x1, x2 = basis.generator(1), basis.generator(2)
    conj = make_generator(inner(power(commutator(x1, x2), 2)), basis)
    result.cases += 1
    if gen != conj:
        result.failures.append("generator differs from the inner conjugation")
    for m in range(-3, 4):
        e = endo_power(gen, m)
        dec = decompose_bglm(e)
        result.cases += 1
        if not dec.residual_trivial or dec.compose(basis) != e:
            result.failures.append(f"power {m} failed to decompose")
    return result


def suite_prop31(rank=4, step=None, seed=0, cases=60):
    """At step 2, palindromic maps with equal abelianization are equal."""
    rng = random.Random(seed)
    result = SuiteResult("prop3.1", 0, info={"rank": rank, "seed": seed})
    from nilpal.autos import Endo

    for n in range(2, rank + 1):
        basis = hall_basis(n, 2)
        m2 = len(basis.by_weight[1])
        nelem = len(basis.elements)
        for _ in range(cases):
            qs = [collect(_random_word(rng, n, 5), basis) for _ in range(n)]
            shift = [
                basis.from_exponents(
                    (0,) * n + tuple(rng.randint(-2, 2) for _ in range(m2))
                    + (0,) * (nelem - n - m2)
                )
                for _ in range(n)
            ]
            e1 = Endo(basis, [basis.from_exponents(_palindromic_image(basis, i, q.exponents))
                              for i, q in enumerate(qs, 1)])
            e2 = Endo(basis, [basis.from_exponents(_palindromic_image(
                basis, i, multiply(q, c).exponents)) for i, (q, c) in enumerate(zip(qs, shift), 1)])
            result.cases += 1
            if e1.abel_matrix != e2.abel_matrix or e1 != e2:
                result.failures.append(f"n={n} witnesses {[render_element(q) for q in qs]}")
    return result


def prop33_cases(n, bound=3):
    """(i, c, g) for each case of `suite_prop33` at rank n: g = x_i c for
    every nonzero weight-2 block c with entries in [-bound, bound].

    At step 2 the basis is x_1..x_n and then the weight-2 block, which is
    central and comes last in the Hall order, so x_i c is already in
    normal form: its exponents are e_i followed by c, with no product."""
    basis = hall_basis(n, 2)
    m2 = len(basis.by_weight[1])
    for i in range(1, n + 1):
        head = basis.generator(i).exponents[:n]
        for c in product(range(-bound, bound + 1), repeat=m2):
            if any(c):
                yield i, c, NilElement(basis, None, head + c)


def suite_prop33(rank=4, step=None, bound=3):
    """No step-2 palindromic witness produces a nontrivial central defect."""
    result = SuiteResult("prop3.3", 0, info={"rank": rank, "bound": bound})
    for n in range(2, rank + 1):
        for i, c, g in prop33_cases(n, bound):
            result.cases += 1
            if solve_conjugator(g, i, min_weight=2) is not None:
                result.failures.append(f"n={n} i={i} c={c}")
    return result


SUITES = {
    "lemma2.5": suite_lemma25,
    "prop2.8": suite_prop28,
    "jacobi": suite_jacobi,
    "lemma4.2": suite_lemma42,
    "foxtable": suite_foxtable,
    "lemma5.3": suite_lemma53,
    "lemma5.4": suite_lemma54,
    "thm5.8-n2": suite_thm58_n2,
    "prop3.1": suite_prop31,
    "prop3.3": suite_prop33,
}


# The step a suite runs at whatever its step flag says, and the rank of
# thm5.8-n2.  At another value, or given a flag its function does not take
# (such as the seed and case count of a suite with no random cases), the
# suite runs no case, instead of ignoring the flag and reporting PASS.
FIXED_FLAGS = {
    "jacobi": {"step": 3},
    "lemma4.2": {"step": 3},
    "lemma5.3": {"step": 3},
    "lemma5.4": {"step": 3},
    "thm5.8-n2": {"rank": 2, "step": 3},
    "prop3.1": {"step": 2},
    "prop3.3": {"step": 2},
}


def run_suite(name, rank=None, step=None, seed=None, cases=None):
    """Run suite `name`; a flag left None takes the suite's default."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    suite, fixed = SUITES[name], FIXED_FLAGS.get(name, {})
    takes = inspect.signature(suite).parameters
    given = {"rank": rank, "step": step, "seed": seed, "cases": cases}
    kwargs = {flag: value for flag, value in given.items() if value is not None}
    refused = [(flag, fixed.get(flag)) for flag, value in kwargs.items()
               if flag not in takes or fixed.get(flag, value) != value]
    result = SuiteResult(name, 0) if refused else suite(**kwargs)
    if not result.cases:
        # a suite that checks nothing must not report PASS
        why = "".join(f"; it has no {'case count' if flag == 'cases' else flag}"
                      if want is None else f"; it runs at {flag} {want} only"
                      for flag, want in refused)
        raise ValueError(f"suite {name} ran no cases at rank={rank} step={step} cases={cases}{why}")
    return result
