"""The three benchmark workloads.

Each workload fixes a group (n, k), a warm-up that forces every lazy
per-basis build, and an op generator.  An op is drawn from a seeded
`random.Random` and returned as `(kind, run, check)`:

- `run()` is the only timed call and returns the engine's output;
- `check(out)` runs outside the timed region and returns
  `(ok, rendered)`, where `rendered` is the canonical text of the output
  that goes into the run's digest.

Every input is built before `run` is called, and every engine call goes
through a module attribute (`nilpotent.multiply`, not a bound name), so
the tracer in `tracer.py` sees the calls it patches.  Checks compare
against answers known without the engine where a cheap one exists
(letter exponent sums, Prop. 3.3, Lemma 5.3/5.4 tameness classes,
additivity of central defects), and otherwise against engine identities
(`compose(e, inverse) == id`, recomposition of decompositions).
"""

from itertools import permutations, product

from nilpal import autos, foxring, nilpotent
from nilpal.words import word_from_ints


def _letter_sums(ints, n):
    sums = [0] * n
    for i in ints:
        sums[abs(i) - 1] += 1 if i > 0 else -1
    return tuple(sums)


def _ab_check(want):
    """Check that an element's abelianization is `want`."""
    def check(out):
        return out.abelianization() == want, nilpotent.render_element(out)

    return check


class Workload:
    name = ""
    n = k = 0

    def setup(self):
        """Build the basis and the generators the ops use."""
        self.basis = nilpotent.hall_basis(self.n, self.k)
        self.gens = [self.basis.generator(i) for i in range(1, self.n + 1)]

    def warm_up(self):
        raise NotImplementedError

    def make_op(self, rng, i):
        """Op number i of the list; kinds cycle in a fixed order.

        Called again with a fresh generator for each round, it must draw
        the same input afresh.
        """
        raise NotImplementedError


class Step2Witness(Workload):
    """The case distribution of `verify prop3.3 --rank 4`."""

    name = "step2-witness"
    n, k = 4, 2

    def warm_up(self):
        g = nilpotent.multiply(self.gens[0], self.basis.from_exponents((0,) * 4 + (1,) * 6))
        autos.solve_conjugator(g, 1, min_weight=2)
        nilpotent.bar(self.basis.from_exponents((1,) * 10))

    def make_op(self, rng, _):
        n = self.n
        m2 = len(self.basis.by_weight[1])
        i = rng.randint(1, n)
        c = (0,) * m2
        while not any(c):
            c = tuple(rng.randint(-3, 3) for _ in range(m2))
        exps = (0,) * n + c
        xi = self.gens[i - 1]
        basis = self.basis

        def run():
            g = nilpotent.multiply(xi, basis.from_exponents(exps))
            return autos.solve_conjugator(g, i, min_weight=2)

        def check(out):
            # Prop 3.3: no step-2 witness of weight >= 2 reaches a nontrivial
            # weight-2 defect.
            shown = "None" if out is None else nilpotent.render_element(out)
            return out is None, f"{i} {c} -> {shown}"

        return "solve_conjugator", run, check


class WideSetup(Workload):
    """(4,5): set-up (monomial table, weight-5 solver) dominates."""

    name = "wide-setup"
    n, k = 4, 5

    def warm_up(self):
        word = word_from_ints([1, -2, 3, -4, 1, 2, -3, 4, -1], self.n)
        nilpotent.collect(word, self.basis)

    def setup(self):
        super().setup()
        # Every reduced word of two or three letters with at least one
        # inverted letter and one out of generator order (278 words): the
        # series is sparse, yet the op peels the high layers with the
        # full-size solvers.  Longer or ordered words make op costs vary
        # tenfold.
        letters = [i for i in range(-self.n, self.n + 1) if i]
        self.words = [
            w for length in (2, 3) for w in product(letters, repeat=length)
            if all(a != -b for a, b in zip(w, w[1:]))
            and min(w) < 0 and any(abs(b) < abs(a) for a, b in zip(w, w[1:]))
        ]

    def make_op(self, rng, i):
        # The list runs through the words in an order drawn from the seed.
        if i == 0:
            self._order = rng.sample(self.words, len(self.words))
        ints = list(self._order[i % len(self._order)])
        word = word_from_ints(ints, self.n)
        check = _ab_check(_letter_sums(ints, self.n))
        return "collect", lambda: nilpotent.collect(word, self.basis), check


class AutoStep3(Workload):
    """Automorphism algorithms at (3,3) on small series."""

    name = "auto-step3"
    n, k = 3, 3
    KINDS = ("classify", "inverse_with_factors", "compose_symbols",
             "decompose_central", "decompose_bglm", "tameness_residue")

    def setup(self):
        super().setup()
        self.identity = autos.identity_endo(self.basis)
        # Weight-3 defects of each single central generator, for the
        # additivity check on compose_symbols.
        self._defects = {}

    def warm_up(self):
        n = self.n
        for a, b in permutations(range(1, n + 1), 2):
            for c in range(1, n + 1):
                self._base_defects(autos.phi2(a, b, c))
                self._base_defects(autos.psi(a, b))
                for i in range(1, n + 1):
                    self._base_defects(autos.phi3(a, b, c, i))
        e = autos.compose_symbols([autos.phi2(2, 1, 3), autos.phi3(3, 1, 2, 2)], self.basis)
        autos.decompose_bglm(e)
        autos.classify(autos.make_generator(autos.mu(1, 2), self.basis))
        autos.inverse_with_factors(autos.make_generator(autos.mu(2, 3), self.basis))

    def _base_defects(self, sym):
        key = (sym.tag, sym.params)
        got = self._defects.get(key)
        if got is None:
            e = autos.make_generator(sym, self.basis)
            got = self._defect_blocks(e)
            self._defects[key] = got
        return got

    def _defect_blocks(self, e):
        return tuple(
            nilpotent.multiply(nilpotent.invert(self.gens[i]), e.images[i]).weight_block(3)
            for i in range(self.n)
        )

    def _rand_epa(self, rng):
        """Random elementary palindromic automorphism (as in the acceptance tests)."""
        n, basis = self.n, self.basis
        e = self.identity
        for _ in range(3):
            roll = rng.random()
            if roll < 0.5:
                i, j = rng.sample(range(1, n + 1), 2)
                sym = autos.mu(i, j, rng.choice([1, -1]))
            elif roll < 0.75:
                a, b = rng.sample(range(1, n + 1), 2)
                sym = autos.phi2(a, b, rng.randint(1, n))
            else:
                a, b = rng.sample(range(1, n + 1), 2)
                sym = autos.phi3(a, b, rng.randint(1, n), rng.randint(1, n))
            e = autos.compose(e, autos.make_generator(sym, basis))
        return e

    def _central_syms(self, rng, with_psi):
        """Three central generator symbols with exponents in {-2,-1,1,2}."""
        n = self.n
        syms = []
        for _ in range(3):
            a, b = rng.sample(range(1, n + 1), 2)
            if b > a:
                a, b = b, a
            m = rng.choice([-2, -1, 1, 2])
            roll = rng.random() * (1 if with_psi else 0.8)
            if roll < 0.4:
                syms.append(autos.phi2(a, b, rng.randint(1, n), m))
            elif roll < 0.8:
                syms.append(autos.phi3(a, b, rng.randint(b, n), rng.randint(1, n), m))
            else:
                syms.append(autos.psi(a, b, m))
        return syms

    def _obstruction_free_syms(self, rng, families):
        """A product of the tame families given (0-3), as in the acceptance tests."""
        syms = []
        for fam in families:
            trio = rng.sample(range(1, 4), 3)
            m = rng.choice([-2, -1, 1, 2])
            if fam == 0:
                syms.append(autos.phi2(trio[0], trio[1], trio[2], m))
            elif fam == 1:
                syms.append(autos.phi3(trio[0], trio[1], trio[2], trio[2], m))
            elif fam == 2:
                syms.extend([autos.psi(trio[0], trio[1], m), autos.psi(trio[0], trio[2], -m)])
            else:
                k_, u, v = trio
                syms.extend([autos.phi3(k_, u, v, k_, m), autos.phi3(v, u, u, u, m)])
        return syms

    def _recompose_check(self, e):
        def check(dec):
            ok = dec.residual_trivial and dec.compose(self.basis) == e
            return ok, " ".join(str(f) for f in dec.factors)

        return check

    def make_op(self, rng, i):
        basis = self.basis
        kind = self.KINDS[i % len(self.KINDS)]
        if kind == "classify":
            e = self._rand_epa(rng)

            def check(flags):
                ok = flags.is_elementary_palindromic is True and flags.is_palindromic is True
                return ok, repr(flags)

            return kind, lambda: autos.classify(e), check
        if kind == "inverse_with_factors":
            e = self._rand_epa(rng)

            def check(out):
                inv, factors = out
                ab = e.abel_matrix
                inv_ab = inv.abel_matrix
                n = self.n
                unit = all(
                    sum(ab[r][t] * inv_ab[t][c] for t in range(n)) == (r == c)
                    for r in range(n) for c in range(n)
                )
                ok = unit and autos.compose(e, inv) == self.identity
                return ok, autos.render_endo(inv) + f" | {len(factors)} factors"

            return kind, lambda: autos.inverse_with_factors(e), check
        if kind == "compose_symbols":
            syms = self._central_syms(rng, with_psi=True)
            want = [[0] * len(basis.by_weight[2]) for _ in range(self.n)]
            for sym in syms:
                base = self._base_defects(autos.GeneratorSymbol(sym.tag, sym.params))
                for g in range(self.n):
                    for j, v in enumerate(base[g]):
                        want[g][j] += sym.exponent * v

            def check(e):
                # Central automorphisms at step 3 add their weight-3 defects.
                got = [list(b) for b in self._defect_blocks(e)]
                return got == want, autos.render_endo(e)

            return kind, lambda: autos.compose_symbols(syms, basis), check
        if kind == "decompose_central":
            # The phi2/phi3 lattice is the one decompose_central solves over.
            e = autos.compose_symbols(self._central_syms(rng, with_psi=False), basis)
            return kind, lambda: autos.decompose_central(e), self._recompose_check(e)
        if kind == "decompose_bglm":
            # The 16 ordered pairs of families take turns: their mean costs
            # differ up to fourfold, so every seed gets the same mix.
            pair = divmod(i // len(self.KINDS) % 16, 4)
            e = autos.compose_symbols(self._obstruction_free_syms(rng, pair), basis)
            return kind, lambda: autos.decompose_bglm(e), self._recompose_check(e)
        # tameness_residue: one generator of known class (Lemmas 5.3, 5.4)
        # composed with an obstruction-free product, whose residue is zero.
        a, b = rng.sample(range(1, self.n + 1), 2)
        c, g = rng.randint(1, self.n), rng.randint(1, self.n)
        if rng.random() < 0.5:
            extra = autos.phi2(a, b, g)
            tame = g not in (a, b)
        else:
            extra = autos.phi3(a, b, c, g)
            tame = g not in (a, b, c) or (c == g and g not in (a, b))
        syms = self._obstruction_free_syms(rng, [rng.randrange(4)]) + [extra]
        e = autos.compose_symbols(syms, basis)

        def check(residue):
            return residue.is_zero() == tame, foxring.render_ring(residue)

        return kind, lambda: autos.tameness_residue(e), check


WORKLOADS = {w.name: w for w in (Step2Witness(), AutoStep3(), WideSetup())}
