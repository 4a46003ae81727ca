"""Golden CLI outputs: stdout, stderr and exit code of a fixed command set.

The expected outputs in `golden/cli.json` are recorded once and must not
change with a refactor.  To record them again (only when an output is
meant to change), run from the repository root:

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from nilpal.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "cli.json"

AUTO_OPS = ("invert", "classify", "decompose-central", "decompose-bglm", "tame-check")
RANK2 = ("mu12", "witness", "swap", "transvection", "ia_weight2", "phi3", "inner_sq",
         "wild", "odd", "notauto", "bad_index")
RANK3 = ("mu_phi2", "witness", "swap", "transvection", "ia_weight2", "phi2_tame",
         "phi2_wild", "phi3_psi", "odd")
RANK3_DECOMPOSE = ("psi_pair", "phi3_pair", "bglm_mixed", "phi3_repeat")
RANK4_DECOMPOSE = ("central_mixed", "outside")
RANK2_LOW_STEP = ("mu12", "witness", "swap", "transvection", "ia_weight2", "odd", "wild")
RANK3_LOW_STEP = ("mu_phi2", "witness", "swap", "ia_weight2", "odd")


def _cases():
    cases = {}
    for rank, names, fmt in ((2, RANK2, "text"), (3, RANK3, "kv")):
        for name in names:
            for op in AUTO_OPS:
                cases[f"auto-{op}-r{rank}-{name}"] = [
                    "--rank", str(rank), "--step", "3", "--format", fmt,
                    "auto", op, f"fixtures/r{rank}_{name}.auto"]
    # inverses at steps 1 and 2, where the elementary palindromic route
    # has no weight-3 layer
    for rank, names, fmt in ((2, RANK2_LOW_STEP, "text"), (3, RANK3_LOW_STEP, "kv")):
        for name in names:
            for step in (1, 2):
                cases[f"auto-invert-r{rank}-s{step}-{name}"] = [
                    "--rank", str(rank), "--step", str(step), "--format", fmt,
                    "auto", "invert", f"fixtures/r{rank}_{name}.auto"]
    # two-symbol BGLM families, symbols scaled by a negative coefficient,
    # and phi3(2,1,1;3), one of the families with c in {a,b} and i outside
    for name in RANK3_DECOMPOSE:
        for op in ("decompose-bglm", "decompose-central"):
            cases[f"auto-{op}-r3-{name}"] = [
                "--rank", "3", "--step", "3", "--format", "kv",
                "auto", op, f"fixtures/r3_{name}.auto"]
    # rank 4: phi2, phi3 and psi-pair symbols with exponents +-1 and +-2,
    # and a defect outside the lattice whose diagnostic names its odd rest
    for name in RANK4_DECOMPOSE:
        for op in ("decompose-bglm", "decompose-central"):
            cases[f"auto-{op}-r4-{name}"] = [
                "--rank", "4", "--step", "3", "--format", "kv",
                "auto", op, f"fixtures/r4_{name}.auto"]
    # rank 1, where the top blocks are empty: the identity is the only
    # central map and decomposes into no factor
    cases["auto-decompose-central-r1-identity"] = [
        "--rank", "1", "--step", "3", "auto", "decompose-central",
        "fixtures/r1_identity.auto"]
    # inverses whose linear lift is palindromic but whose input is not
    # elementary palindromic: mu(1,2) then a weight-2 defect, and an IA map
    # whose top defect lies outside the witness lattice
    for rank, name in ((3, "mu_weight2"), (4, "mu_weight2"), (4, "outside")):
        cases[f"auto-invert-r{rank}-{name}"] = [
            "--rank", str(rank), "--step", "3", "--format", "kv",
            "auto", "invert", f"fixtures/r{rank}_{name}.auto"]
    cases["auto-classify-step4"] = [
        "--rank", "2", "--step", "4", "auto", "classify", "fixtures/r2_mu12.auto"]
    # eval and compose: words with negative exponents and weight-2 letters,
    # a non-automorphism, and step 4 (series path)
    r2_word = "x1^-2 x2 [x1,x2]^3 x2^-1 [x2,x1,x1]^-2 x1"
    r3_word = "x3^-1 [x1,x2]^-2 x2^2 [x3,x1]^5 [x2,x3,x1] x1^-3 [x2,x3]"
    for name in ("mu12", "witness", "notauto", "wild", "inner_sq"):
        cases[f"auto-eval-r2-{name}"] = [
            "--rank", "2", "--step", "3", "auto", "eval", f"fixtures/r2_{name}.auto", r2_word]
    for name in ("mu_phi2", "witness", "phi2_wild", "phi3_psi", "odd"):
        cases[f"auto-eval-r3-{name}"] = [
            "--rank", "3", "--step", "3", "--format", "kv",
            "auto", "eval", f"fixtures/r3_{name}.auto", r3_word]
    for names in (("mu12", "witness"), ("witness", "notauto", "inner_sq"),
                  ("transvection", "wild", "mu12", "odd")):
        cases[f"auto-compose-r2-{'-'.join(names)}"] = [
            "--rank", "2", "--step", "3", "auto", "compose",
            *(f"fixtures/r2_{name}.auto" for name in names)]
    for names in (("mu_phi2", "phi3_psi"), ("witness", "swap", "phi2_wild"),
                  ("transvection", "odd", "mu_phi2", "ia_weight2")):
        cases[f"auto-compose-r3-{'-'.join(names)}"] = [
            "--rank", "3", "--step", "3", "--format", "kv", "auto", "compose",
            *(f"fixtures/r3_{name}.auto" for name in names)]
    cases["auto-eval-step4"] = [
        "--rank", "2", "--step", "4", "auto", "eval", "fixtures/r2_mu12.auto",
        "x1^-1 [x1,x2,x2]^2 x2^3 [x2,x1]^-1 [x2,x1,x1,x1]"]
    # step 5: images with inverted letters, and a word with negative
    # exponents at weights 1 and 2, so inverse images are built
    cases["auto-eval-step5-inverted"] = [
        "--rank", "2", "--step", "5", "auto", "eval", "fixtures/r2_witness.auto",
        "x1^-2 [x2,x1]^-3 x2^-1 [x2,x1,x1]^-1 x1 [x2,x1,x1,x2]^2"]
    # images raised to powers |e| >= 2 at step 4, where gamma_2 is not abelian
    cases["auto-eval-step4-powers"] = [
        "--rank", "3", "--step", "4", "--format", "kv", "auto", "eval",
        "fixtures/r3_step4_powers.auto", "x1^3 x2^-2 x3 [x2,x1]^2"]
    cases["auto-compose-step4"] = [
        "--rank", "2", "--step", "4", "auto", "compose",
        "fixtures/r2_mu12.auto", "fixtures/r2_witness.auto", "fixtures/r2_wild.auto"]
    cases["auto-eval-usage"] = [
        "--rank", "2", "--step", "3", "auto", "eval", "fixtures/r2_mu12.auto"]
    cases["normalize-r2-s5"] = [
        "--rank", "2", "--step", "5", "normalize",
        "x2 x1^-1 [x2,x1,x1,x2] x2^3 x1 [x1,x2]^-2"]
    # series-path normal forms: inverted letters, letter powers (|x_j| > 1)
    # and a longer word at step 6
    for name, word in (("inverted", "x2 x1^-1 x3"), ("inverted4", "x4 x3^-1 x2 x1^-1"),
                       ("powers", "x3^-2 x1 x2^3"), ("inverted3", "x4^-1 x3^-1 x1^-1")):
        cases[f"normalize-r4-s5-{name}"] = [
            "--rank", "4", "--step", "5", "--format", "kv", "normalize", word]
    cases["normalize-r3-s6-long"] = [
        "--rank", "3", "--step", "6", "normalize",
        "x1 x2^-1 x3 x1^2 [x2,x1]^-1 x3^-1 x2 x1^-3 [x3,x2,x1] x2^2 x3^4 x1^-1 x2"]
    # [x2,x1]^2 as a word: exponents of size 2 at weights 2 and 3 (2w <= k)
    cases["normalize-r3-s6-square"] = [
        "--rank", "3", "--step", "6", "normalize",
        "x2^-1 x1^-1 x2 x1 x2^-1 x1^-1 x2 x1 x3^-1 x1 x3"]
    # inverted three-letter words at the two largest rungs of the ladder
    cases["normalize-r3-s7-inverted"] = [
        "--rank", "3", "--step", "7", "normalize", "x3^-1 x1 x2^-1"]
    cases["normalize-r4-s6-inverted"] = [
        "--rank", "4", "--step", "6", "--format", "kv", "normalize", "x2^-1 x4 x1^-1"]
    # rank 5, off the ladder: an inverted letter squared among four
    cases["normalize-r5-s4-inverted"] = [
        "--rank", "5", "--step", "4", "--format", "kv", "normalize", "x5^-1 x3 x1^-2 x4"]
    # a long inverted run raised as one power
    cases["normalize-r2-s8-long-run"] = [
        "--rank", "2", "--step", "8", "--format", "kv", "normalize", "x1^-20000 x2^3 x1^2"]
    cases["verify-prop3.3-r3"] = ["verify", "prop3.3", "--rank", "3"]
    cases["verify-lemma2.5-r2-s5"] = ["--format", "kv", "verify", "lemma2.5",
                                      "--rank", "2", "--step", "5"]
    cases["verify-lemma4.2"] = ["verify", "lemma4.2"]
    cases["verify-thm5.8-n2"] = ["--format", "kv", "verify", "thm5.8-n2"]
    return cases


CASES = _cases()


def _run(argv):
    argv = [str(GOLDEN / a) if a.startswith("fixtures/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_case_set_is_recorded():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli(name):
    assert _run(CASES[name]) == _expected()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    recorded = {name: _run(argv) for name, argv in sorted(CASES.items())}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} cases in {EXPECTED}")
