import subprocess
import sys

import pytest

from nilpal.cli import main

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
