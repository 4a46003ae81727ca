"""Quick runs of the verification suites at reduced scale."""

import pytest

from nilpal.nilpotent import hall_basis, multiply
from nilpal.verify import SUITES, prop33_cases, run_suite


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("lemma2.5", {"rank": 2, "step": 3}),
        ("prop2.8", {"rank": 2, "step": 3}),
        ("jacobi", {"rank": 3}),
        ("lemma4.2", {"rank": 2, "cases": 5}),
        ("foxtable", {"rank": 3}),
        ("lemma5.3", {"rank": 3}),
        ("lemma5.4", {"rank": 3}),
        ("thm5.8-n2", {}),
        ("prop3.1", {"rank": 2, "cases": 10}),
        ("prop3.3", {"rank": 2}),
    ],
)
def test_suite_passes(name, kwargs):
    result = run_suite(name, **kwargs)
    assert result.ok, result.failures[:3]
    assert result.cases > 0


def test_suites_are_deterministic():
    a = run_suite("lemma4.2", rank=2, seed=42, cases=4)
    b = run_suite("lemma4.2", rank=2, seed=42, cases=4)
    assert (a.cases, a.failures) == (b.cases, b.failures)


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")


@pytest.mark.parametrize(
    "name,kwargs,given",
    [
        ("prop3.3", {"rank": 1}, "rank=1 step=None cases=None"),
        ("jacobi", {"rank": 2}, "rank=2 step=None cases=None"),
        ("lemma5.3", {"rank": 1}, "rank=1 step=None cases=None"),
        ("lemma4.2", {"rank": 1}, "rank=1 step=None cases=None"),
        ("prop3.1", {"cases": 0}, "rank=None step=None cases=0"),
        ("foxtable", {"rank": 0}, "rank=0 step=None cases=None"),
    ],
)
def test_suite_with_no_cases_is_refused(name, kwargs, given):
    with pytest.raises(ValueError, match=f"suite {name} ran no cases at {given}"):
        run_suite(name, **kwargs)


def test_registry_complete():
    assert set(SUITES) == {
        "lemma2.5", "prop2.8", "jacobi", "lemma4.2", "foxtable",
        "lemma5.3", "lemma5.4", "thm5.8-n2", "prop3.1", "prop3.3",
    }


@pytest.mark.parametrize("n", [2, 3])
def test_prop33_cases_are_the_products(n):
    # each case's exponent tuple is built directly, as e_i followed by c
    basis = hall_basis(n, 2)
    count = 0
    for i, c, g in prop33_cases(n):
        assert g == multiply(basis.generator(i), basis.from_exponents((0,) * n + c))
        count += 1
    assert count == n * (7 ** len(basis.by_weight[1]) - 1)
