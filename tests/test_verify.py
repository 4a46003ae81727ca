"""Quick runs of the verification suites at reduced scale."""

import inspect
import tracemalloc

import pytest

from nilpal import verify
from nilpal.nilpotent import hall_basis, multiply
from nilpal.verify import (
    CASE_CAPS,
    SUITES,
    _flags,
    case_cap,
    prop33_cases,
    run_suite,
    suite_prop28,
)


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


def test_case_caps_fall_as_the_rank_and_step_rise():
    # at the defaults the cap is the listed one; each larger rank or step
    # prices a case higher, and a suite with no case count has no cap
    for name, cap in CASE_CAPS.items():
        assert case_cap(name) == cap
    steps = [case_cap("prop2.8", step=k) for k in (3, 5, 7, 9)]
    ranks = {name: [case_cap(name, rank=n) for n in range(2, 7)]
             for name in ("prop2.8", "lemma4.2", "prop3.1")}
    for caps in (steps, *ranks.values()):
        assert caps == sorted(caps, reverse=True) and len(set(caps)) == len(caps)
    assert case_cap("jacobi") is None
    # no rank to run: no price, so no cap; the suite refuses the run itself
    assert case_cap("lemma4.2", rank=1) is None


def test_default_case_count_over_the_cap_is_refused():
    # lemma4.2's default 50 cases at rank 13 would run for minutes
    assert case_cap("lemma4.2", rank=13) < 50
    with pytest.raises(ValueError, match="over the cap of"):
        run_suite("lemma4.2", rank=13)


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
        # a step or rank the suite does not run at
        ("jacobi", {"step": 7}, "rank=None step=7 cases=None; it runs at step 3 only"),
        ("lemma4.2", {"step": 2}, "rank=None step=2 cases=None; it runs at step 3 only"),
        ("lemma5.3", {"step": 4}, "rank=None step=4 cases=None; it runs at step 3 only"),
        ("lemma5.4", {"step": 2}, "rank=None step=2 cases=None; it runs at step 3 only"),
        ("thm5.8-n2", {"step": 4}, "rank=None step=4 cases=None; it runs at step 3 only"),
        ("thm5.8-n2", {"rank": 5}, "rank=5 step=None cases=None; it runs at rank 2 only"),
        ("prop3.1", {"step": 3}, "rank=None step=3 cases=None; it runs at step 2 only"),
        ("prop3.3", {"step": 3, "rank": 2},
         "rank=2 step=3 cases=None; it runs at step 2 only"),
        ("foxtable", {"step": 3}, "rank=None step=3 cases=None; it has no step"),
        # a seed or case count of a suite with no random cases, 0 included
        ("lemma2.5", {"cases": 5}, "rank=None step=None cases=5; it has no case count"),
        ("lemma2.5", {"seed": 2}, "rank=None step=None cases=None; it has no seed"),
        ("jacobi", {"cases": 5}, "rank=None step=None cases=5; it has no case count"),
        ("jacobi", {"seed": 0}, "rank=None step=None cases=None; it has no seed"),
        ("prop3.3", {"rank": 2, "cases": 3},
         "rank=2 step=None cases=3; it has no case count"),
        ("prop3.3", {"rank": 2, "seed": 1}, "rank=2 step=None cases=None; it has no seed"),
        ("foxtable", {"seed": 1, "cases": 2},
         "rank=None step=None cases=2; it has no seed; it has no case count"),
        ("lemma5.3", {"seed": 4}, "rank=None step=None cases=None; it has no seed"),
        ("lemma5.4", {"cases": 0}, "rank=None step=None cases=0; it has no case count"),
        ("thm5.8-n2", {"cases": 1}, "rank=None step=None cases=1; it has no case count"),
        ("thm5.8-n2", {"step": 4, "seed": 1},
         "rank=None step=4 cases=None; it runs at step 3 only; it has no seed"),
        # a case count below 1, which prop2.8's exhaustive cases would ignore
        ("prop2.8", {"cases": 0}, "rank=None step=None cases=0; the case count is below 1"),
        ("prop2.8", {"cases": -1}, "rank=None step=None cases=-1; the case count is below 1"),
    ],
)
def test_suite_with_no_cases_is_refused(name, kwargs, given):
    with pytest.raises(ValueError, match=f"suite {name} ran no cases at {given}"):
        run_suite(name, **kwargs)


@pytest.mark.parametrize("name,kwargs", [
    ("jacobi", {"step": 3}), ("prop3.3", {"rank": 2, "step": 2}), ("thm5.8-n2", {"rank": 2}),
])
def test_suite_at_its_own_fixed_flag_runs(name, kwargs):
    assert run_suite(name, **kwargs).ok


@pytest.mark.parametrize("name,kwargs", [
    ("prop2.8", {"rank": 2, "step": 3, "seed": 5, "cases": 3}),
    ("lemma4.2", {"rank": 2, "seed": 0, "cases": 2}),
    ("prop3.1", {"rank": 2, "seed": 7, "cases": 4}),
])
def test_random_suites_take_a_seed_and_case_count(name, kwargs):
    result = run_suite(name, **kwargs)
    assert result.ok and result.info["seed"] == kwargs["seed"]


def test_registry_complete():
    assert set(SUITES) == {
        "lemma2.5", "prop2.8", "jacobi", "lemma4.2", "foxtable",
        "lemma5.3", "lemma5.4", "thm5.8-n2", "prop3.1", "prop3.3",
    }


def test_suite_flags_are_read_off_the_code_objects():
    # `_flags` holds only for plain positional-or-keyword parameters, each
    # with a default; it must agree with `inspect` on every suite
    for name, suite in SUITES.items():
        params = inspect.signature(suite).parameters
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is not p.empty
                   for p in params.values()), name
        assert _flags(suite) == {flag: p.default for flag, p in params.items()}, name


@pytest.mark.parametrize("n", [2, 3])
def test_prop33_cases_are_the_products(n):
    # each case's exponent tuple is built directly, as e_i followed by c
    basis = hall_basis(n, 2)
    count = 0
    for i, c, g in prop33_cases(n):
        assert g == multiply(basis.generator(i), basis.from_exponents((0,) * n + c))
        count += 1
    assert count == n * (7 ** len(basis.by_weight[1]) - 1)


def test_prop28_draws_its_cases_one_at_a_time(monkeypatch):
    # a case list would take about 6 MB per 100,000 cases before the first check
    monkeypatch.setattr(verify, "verify_w2k", lambda factors, half: True)
    suite_prop28(rank=2, step=3, cases=1)  # builds the basis outside the trace
    tracemalloc.start()
    try:
        result = suite_prop28(rank=2, step=3, cases=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.cases == 200_000 and result.ok
    assert peak < 2 ** 20
