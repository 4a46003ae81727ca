import subprocess
import sys

import pytest

from nilpal.cli import main
from nilpal.verify import CASE_CAPS, case_cap

MU12 = "x1 -> x2 x1 x2\nx2 -> x2\n"
WILD = "x1 -> x1 [x1,x2,x1]\nx2 -> x2\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normalize(capsys):
    code, out, _ = run_cli(capsys, "--rank", "2", "--step", "2", "normalize", "x2 x1")
    assert code == 0
    assert "x1 * x2 * [x2,x1]" in out


def test_normalize_identity(capsys):
    code, out, _ = run_cli(capsys, "normalize", "x1 x1^-1")
    assert code == 0
    assert out.strip().endswith("1")


def test_normalize_truncates(capsys):
    code, out, _ = run_cli(capsys, "--rank", "2", "--step", "2",
                           "normalize", "[x2,x1,x1]")
    assert code == 0
    assert out.strip().endswith("1")


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "normalize", "x1 &")
    assert code == 1
    assert "position" in err


def test_word_over_the_letter_budget_exits_1(capsys):
    code, out, err = run_cli(capsys, "--rank", "1", "--step", "2", "normalize", "x1^1000000000")
    assert code == 1 and out == ""
    assert "MAX_WORD_LETTERS = 1000000" in err and "position 2" in err


@pytest.mark.parametrize("rank,step", [("1", "100000"), ("9", "9")])
def test_group_over_the_series_cap_exits_1(capsys, rank, step):
    code, out, err = run_cli(capsys, "normalize", "--rank", rank, "--step", step, "x1")
    assert code == 1 and out == ""
    assert err.startswith(f"nilpal: error: group too large: n={rank}, k={step} needs at least ")
    assert err.endswith(" series index entries, over MAX_SERIES_ENTRIES = 200000\n")


def test_law_derivation_over_the_budget_exits_1(capsys):
    code, out, err = run_cli(capsys, "normalize", "--rank", "20", "--step", "3", "x1 x2")
    assert code == 1 and out == ""
    assert err == ("nilpal: error: group too large: n=20, k=3 needs 95401670 law sample "
                   "values, over MAX_LAW_VALUES = 2000000\n")


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    # level factors that leave the map unchanged leave its weight-3 defect
    # in place
    from nilpal import autos

    monkeypatch.setattr(autos, "_top_central_power", lambda phi, m: autos.identity_endo(phi.basis))
    path = tmp_path / "weight3.auto"
    path.write_text("x1 -> x1 [x2,x1,x1]\n")
    code, out, err = run_cli(capsys, "--rank", "2", "--step", "3", "auto", "invert", str(path))
    assert code == 3 and out == ""
    assert err == ("nilpal: internal error: inverse iteration did not terminate at the "
                   "identity (n=2, k=3, factors=3)\n")


def test_rank_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "--rank", "2", "normalize", "x5")
    assert code == 1


def test_auto_invert_round_trip(tmp_path, capsys):
    path = tmp_path / "mu.auto"
    path.write_text(MU12)
    code, out, _ = run_cli(capsys, "--rank", "2", "--step", "2",
                           "auto", "invert", str(path))
    assert code == 0
    assert "x1 ->" in out and "verified" in out


def test_auto_eval(tmp_path, capsys):
    path = tmp_path / "mu.auto"
    path.write_text(MU12)
    code, out, _ = run_cli(capsys, "--rank", "2", "--step", "2",
                           "auto", "eval", str(path), "x1")
    assert code == 0
    assert "x1 * x2^2 * [x2,x1]" in out


def test_auto_compose(tmp_path, capsys):
    path = tmp_path / "mu.auto"
    path.write_text(MU12)
    code, out, _ = run_cli(capsys, "--rank", "2", "--step", "2",
                           "auto", "compose", str(path), str(path))
    assert code == 0
    assert out.startswith("x1 ->")


def test_auto_classify_identity(tmp_path, capsys):
    path = tmp_path / "id.auto"
    path.write_text("x1 -> x1\nx2 -> x2\n")
    code, out, _ = run_cli(capsys, "--rank", "2", "--step", "2", "--format", "kv",
                           "auto", "classify", str(path))
    assert code == 0
    assert "is_ia=true" in out
    assert "is_central=true" in out
    assert "is_elementary_palindromic=true" in out


def test_tame_check_wild_is_math_failure(tmp_path, capsys):
    path = tmp_path / "wild.auto"
    path.write_text(WILD)
    code, out, _ = run_cli(capsys, "--rank", "2", "--step", "3",
                           "auto", "tame-check", str(path))
    assert code == 2
    assert "FAIL" in out
    assert "(1,2): 1" in out


def test_tame_check_not_central_is_math_failure(tmp_path, capsys):
    path = tmp_path / "mu.auto"
    path.write_text(MU12)
    code, _, err = run_cli(capsys, "--rank", "2", "--step", "3",
                           "auto", "tame-check", str(path))
    assert code == 2


def test_decompose_central_kv(tmp_path, capsys):
    path = tmp_path / "phi.auto"
    path.write_text("x1 -> x1 [x2,x1,x1]^2\nx2 -> x2\n")
    code, out, _ = run_cli(capsys, "--rank", "2", "--step", "3", "--format", "kv",
                           "auto", "decompose-central", str(path))
    assert code == 0
    assert "residual_trivial=true" in out
    assert "factor.0=phi3(2,1,1;1)" in out


def test_decompose_central_residue(tmp_path, capsys):
    path = tmp_path / "odd.auto"
    path.write_text("x1 -> x1 [x2,x1,x1]\nx2 -> x2\n")
    code, out, _ = run_cli(capsys, "--rank", "2", "--step", "3",
                           "auto", "decompose-central", str(path))
    assert code == 2
    assert "residual_trivial" in out


def test_verify_kv_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--rank", "2", "--seed", "9", "--cases", "4",
                             "--format", "kv", "verify", "lemma4.2")
    code2, out2, _ = run_cli(capsys, "--rank", "2", "--seed", "9", "--cases", "4",
                             "--format", "kv", "verify", "lemma4.2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "status=PASS" in out1


def test_verify_flags_after_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "foxtable", "--rank", "3", "--format", "kv")
    assert code == 0
    assert "suite=foxtable" in out and "rank=3" in out


def test_verify_with_no_cases_exits_1(capsys):
    code, out, err = run_cli(capsys, "--format", "kv", "verify", "prop3.3", "--rank", "1")
    assert code == 1
    assert out == ""
    assert "suite prop3.3 ran no cases at rank=1" in err
    code, out, err = run_cli(capsys, "--format", "kv", "verify", "jacobi", "--step", "7")
    assert code == 1
    assert out == ""
    assert "suite jacobi ran no cases at rank=None step=7 cases=None; it runs at step 3 only" in err


def test_verify_unknown_suite_exits_1(capsys):
    # the suite name is checked once, by run_suite, not by the parser
    code, out, err = run_cli(capsys, "verify", "nope")
    assert code == 1 and out == ""
    assert err == ("nilpal: error: unknown suite 'nope'; choose from ['foxtable', 'jacobi', "
                   "'lemma2.5', 'lemma4.2', 'lemma5.3', 'lemma5.4', 'prop2.8', 'prop3.1', "
                   "'prop3.3', 'thm5.8-n2']\n")


def test_verify_prop28_reports_its_case_floor_per_rank(capsys):
    # --cases is a floor per rank: ranks 2 and 3 run their 4 and 9
    # exhaustive tuples, and the report shows the count asked for
    code, out, err = run_cli(capsys, "--format", "kv", "verify", "prop2.8", "--cases", "1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "cases_per_rank=1" in lines and "cases=13" in lines


def test_verify_refuses_a_case_count_below_1(capsys):
    for cases in ("0", "-1"):
        code, out, err = run_cli(capsys, "--format", "kv", "verify", "prop2.8", "--cases", cases)
        assert code == 1 and out == ""
        assert err == (f"nilpal: error: suite prop2.8 ran no cases at rank=None step=None "
                       f"cases={cases}; the case count is below 1\n")


@pytest.mark.parametrize("suite,cap", sorted(CASE_CAPS.items()))
def test_verify_refuses_a_case_count_over_the_cap(capsys, suite, cap):
    # a count past the cap exits 1 before any case runs; the message names
    # the cap
    for cases in (cap + 1, 1_000_000_000):
        code, out, err = run_cli(capsys, "--format", "kv", "verify", suite, "--cases", str(cases))
        assert code == 1 and out == ""
        assert err == (f"nilpal: error: suite {suite} ran no cases at rank=None step=None "
                       f"cases={cases}; the case count is over the cap of {cap} "
                       f"for this suite\n")


@pytest.mark.parametrize("suite,flag,value", [
    ("prop2.8", "step", 7), ("lemma4.2", "rank", 4), ("prop3.1", "rank", 6),
])
def test_verify_prices_the_cap_by_rank_and_step(capsys, suite, flag, value):
    # a case costs more at a larger rank or step, so the cap there is
    # smaller; a count past it exits 1 before any case runs
    cap = case_cap(suite, **{flag: value})
    assert cap < CASE_CAPS[suite]
    cases = cap + 1
    code, out, err = run_cli(capsys, "--format", "kv", "verify", suite, f"--{flag}", str(value),
                             "--cases", str(cases))
    assert code == 1 and out == ""
    given = {"rank": None, "step": None, flag: value}
    assert err == (f"nilpal: error: suite {suite} ran no cases at rank={given['rank']} "
                   f"step={given['step']} cases={cases}; the case count is over the cap "
                   f"of {cap} for this suite\n")


@pytest.mark.parametrize("argv,why", [
    (("verify", "jacobi", "--cases", "5"), "cases=5; it has no case count"),
    (("--seed", "0", "verify", "lemma5.3"), "cases=None; it has no seed"),
    (("verify", "prop3.3", "--rank", "2", "--seed", "3"), "cases=None; it has no seed"),
])
def test_verify_refuses_an_ignored_seed_or_case_count(capsys, argv, why):
    code, out, err = run_cli(capsys, "--format", "kv", *argv)
    assert code == 1 and out == ""
    assert f"suite {argv[argv.index('verify') + 1]} ran no cases at " in err and why in err


@pytest.mark.parametrize("word,message,position", [
    ("x\uff11 x2", "expected generator index after 'x'", 0),  # fullwidth 1
    ("x\u00b2 x2", "expected generator index after 'x'", 0),  # superscript 2
    ("x1^\u00b2", "expected integer exponent after '^'", 2),
    ("x1 x2^-\u0662", "expected integer exponent after '^'", 5),  # Arabic-Indic 2
])
def test_normalize_refuses_non_ascii_digits(capsys, word, message, position):
    code, out, err = run_cli(capsys, "--rank", "2", "--step", "2", "--format", "kv",
                             "normalize", word)
    assert code == 1 and out == ""
    assert f"parse error: {message} (at position {position})" in err


@pytest.mark.parametrize("text,line", [
    ("x\u0662 -> x1 x2 x1\n", 1),  # an Arabic-Indic 2 is not x2
    ("x1 -> x1\nx\uff12 -> x2 x1\n", 2),  # nor is a fullwidth 2
])
def test_auto_file_refuses_non_ascii_generator_digits(tmp_path, capsys, text, line):
    path = tmp_path / "digits.auto"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "--rank", "2", "--step", "2", "auto", "classify", str(path))
    assert code == 1 and out == ""
    assert f"line {line}: bad generator" in err


@pytest.mark.parametrize("text,message", [
    ("x1 -> x1\nx2 -> x1 (x1\n", "line 2: expected RPAR, found END (at position 6)"),
    ("# x1 fixed\nx1 -> x1\n\nx2 -> x3 x1\n",
     "line 4: generator index 3 exceeds rank 2 (at position 0)"),
])
def test_auto_file_names_the_line_of_a_bad_image(tmp_path, capsys, text, message):
    path = tmp_path / "image.auto"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "--rank", "2", "--step", "2", "auto", "classify", str(path))
    assert code == 1 and out == ""
    assert err == f"nilpal: parse error: {message}\n"


def test_missing_file(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "--rank", "2", "auto", "classify", "/does/not/exist")
    assert exc.value.code == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nilpal.cli", "info"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "kernel" in proc.stdout


def test_info_reports_pure_kernel(capsys):
    code, out, _ = run_cli(capsys, "--format", "kv", "info")
    assert code == 0
    assert out == "kernel=pure\n"
    code, out, _ = run_cli(capsys, "info")
    assert code == 0
    assert out == "kernel: pure\n"


# Two values of each global flag; a command that reads the flag prints
# something else for each.  --rank 1 refuses the letter x2.
_FLAG_VALUES = {"rank": ("1", "2"), "step": ("1", "2"), "seed": ("1", "2"),
                "cases": ("1", "2"), "format": ("text", "kv")}
_READ_FLAGS = {"normalize": ("rank", "step", "format"),
               "auto": ("rank", "step", "format"), "info": ("format",)}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command in _READ_FLAGS for flag in _FLAG_VALUES])
def test_commands_refuse_the_flags_they_do_not_read(tmp_path, capsys, command, flag):
    path = tmp_path / "mu.auto"
    path.write_text("x1 -> x1 x2\n")
    args = {"normalize": ("normalize", "x2 x1"),
            "auto": ("auto", "eval", str(path), "x2 x1"), "info": ("info",)}[command]
    fixed = () if flag == "format" else ("--format", "kv")
    runs = [run_cli(capsys, *fixed, f"--{flag}", value, *args)
            for value in _FLAG_VALUES[flag]]
    if flag in _READ_FLAGS[command]:
        assert runs[0] != runs[1]
        assert runs[1][0] == 0
    else:
        for code, out, err in runs:
            assert code == 1 and out == ""
            assert err == f"nilpal: error: {command} does not take --{flag}\n"
