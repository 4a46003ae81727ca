"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error, 2 mathematical negative
(verification failure, non-automorphism, failed decomposition), 3 internal
assertion failure.
"""

import argparse
import sys

from nilpal.kernel import BACKEND
from nilpal.nilpotent import (
    InternalError, NotAutomorphismError, PreconditionError, UndecidedError,
    collect, hall_basis, render_element,
)
from nilpal.words import RankError, WordSyntaxError, parse_word

USAGE_EXIT = 1
MATH_EXIT = 2
INTERNAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


class Report:
    """Ordered key/value report with a text and a stable kv rendering."""

    def __init__(self, fmt):
        self.fmt = fmt
        self.pairs = []

    def add(self, key, value):
        self.pairs.append((key, value))

    def emit(self, stream=None):
        stream = stream or sys.stdout
        if self.fmt == "kv":
            for key, value in self.pairs:
                print(f"{key}={value}", file=stream)
        else:
            for key, value in self.pairs:
                print(f"{key}: {value}", file=stream)


def _global_flags(parser):
    # SUPPRESS keeps a subparser from clobbering flags given before the
    # subcommand; real defaults are filled in after parsing.
    sup = argparse.SUPPRESS
    parser.add_argument("--rank", type=int, default=sup, help="number of generators")
    parser.add_argument("--step", type=int, default=sup, help="nilpotency step")
    parser.add_argument("--seed", type=int, default=sup, help="randomized-suite seed")
    parser.add_argument("--cases", type=int, default=sup, help="randomized-suite case count")
    parser.add_argument("--format", dest="fmt", choices=("text", "kv"), default=sup)


_FLAG_DEFAULTS = (("rank", None), ("step", None), ("seed", None), ("cases", None), ("fmt", "text"))
# the flags each command reads; it refuses the others
_COMMAND_FLAGS = {
    "normalize": ("rank", "step", "fmt"),
    "auto": ("rank", "step", "fmt"),
    "verify": ("rank", "step", "seed", "cases", "fmt"),
    "info": ("fmt",),
}


def build_parser():
    shared = _Parser(add_help=False)
    _global_flags(shared)
    parser = _Parser(prog="nilpal", parents=[shared], description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", parents=[shared], help="collect a word to normal form")
    p.add_argument("word")

    p = sub.add_parser("auto", parents=[shared], help="operate on automorphism files")
    p.add_argument(
        "operation",
        choices=("eval", "compose", "invert", "classify",
                 "decompose-central", "decompose-bglm", "tame-check"),
    )
    p.add_argument("args", nargs="*", help="automorphism files (eval: FILE WORD)")

    p = sub.add_parser("verify", parents=[shared], help="run a verification suite")
    p.add_argument("suite")

    p = sub.add_parser("info", parents=[shared], help="show the kernel backend")
    return parser


def _basis(ns, default_rank=2, default_step=2):
    rank = ns.rank if ns.rank is not None else default_rank
    step = ns.step if ns.step is not None else default_step
    return hall_basis(rank, step)


def _load_endo(path, basis):
    from nilpal import autos

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"nilpal: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)
    return autos.parse_endo_file(text, basis)


def cmd_normalize(ns):
    basis = _basis(ns)
    word = parse_word(ns.word, basis.n)
    report = Report(ns.fmt)
    report.add("input", ns.word)
    report.add("normal", render_element(collect(word, basis)))
    report.emit()
    return 0


def cmd_auto(ns):
    # imported here, so that normalize and info never load them
    from nilpal import autos, foxring

    basis = _basis(ns)
    op = ns.operation
    report = Report(ns.fmt)
    if op == "eval":
        if len(ns.args) != 2:
            raise SystemExit(_usage("auto eval needs FILE WORD"))
        endo = _load_endo(ns.args[0], basis)
        word = parse_word(ns.args[1], basis.n)
        report.add("image", render_element(endo.apply(collect(word, basis))))
        report.emit()
        return 0
    if op == "compose":
        if len(ns.args) < 2:
            raise SystemExit(_usage("auto compose needs at least two files"))
        endo = _load_endo(ns.args[0], basis)
        for path in ns.args[1:]:
            endo = autos.compose(endo, _load_endo(path, basis))
        print(autos.render_endo(endo))
        return 0
    if len(ns.args) != 1:
        raise SystemExit(_usage(f"auto {op} needs exactly one file"))
    endo = _load_endo(ns.args[0], basis)
    if op == "invert":
        inv, factors = autos.inverse_with_factors(endo)
        print(autos.render_endo(inv))
        print(f"# verified: composition with the input is the identity "
              f"({len(factors)} layer factors)")
        return 0
    if op == "classify":
        flags = autos.classify(endo)
        report.add("is_automorphism", "true")
        report.add("is_ia", str(flags.is_ia).lower())
        report.add("is_central", str(flags.is_central).lower())
        report.add("is_elementary_palindromic", _tri(flags.is_elementary_palindromic))
        report.add("is_palindromic", _tri(flags.is_palindromic))
        report.add("pi_level", "none" if flags.pi_level is None else flags.pi_level)
        for i, note in enumerate(flags.notes):
            report.add(f"note.{i}", note)
        report.emit()
        return 0
    if op == "tame-check":
        residue = autos.tameness_residue(endo)
        ok = residue.is_zero()
        report.add("status", "PASS" if ok else "FAIL")
        for i, line in enumerate(foxring.render_quadratic(residue)):
            report.add(f"residue.{i}", line)
        report.emit()
        return 0 if ok else MATH_EXIT
    dec = (autos.decompose_central if op == "decompose-central" else autos.decompose_bglm)(endo)
    report.add("residual_trivial", str(dec.residual_trivial).lower())
    for i, sym in enumerate(dec.factors):
        report.add(f"factor.{i}", autos.render_symbol(sym))
    for i, diag in enumerate(dec.diagnostics):
        report.add(f"diagnostic.{i}", diag)
    report.emit()
    return 0 if dec.residual_trivial else MATH_EXIT


def _tri(value):
    return "undecided" if value is None else str(value).lower()


def _usage(message):
    print(f"nilpal: error: {message}", file=sys.stderr)
    return USAGE_EXIT


def cmd_verify(ns):
    from nilpal.verify import run_suite

    result = run_suite(ns.suite, rank=ns.rank, step=ns.step, seed=ns.seed, cases=ns.cases)
    report = Report(ns.fmt)
    report.add("suite", result.suite)
    for key, value in sorted(result.info.items()):
        report.add(key, value)
    report.add("cases", result.cases)
    report.add("failures", len(result.failures))
    report.add("status", "PASS" if result.ok else "FAIL")
    for i, failure in enumerate(result.failures):
        report.add(f"failure.{i}", failure)
    report.emit()
    return 0 if result.ok else MATH_EXIT


def cmd_info(ns):
    report = Report(ns.fmt)
    report.add("kernel", BACKEND)
    report.emit()
    return 0


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    for key, default in _FLAG_DEFAULTS:
        if not hasattr(ns, key):
            setattr(ns, key, default)
        elif key not in _COMMAND_FLAGS[ns.command]:
            return _usage(f"{ns.command} does not take --{key}")
    handlers = {
        "normalize": cmd_normalize,
        "auto": cmd_auto,
        "verify": cmd_verify,
        "info": cmd_info,
    }
    try:
        return handlers[ns.command](ns)
    except (WordSyntaxError, RankError) as exc:
        print(f"nilpal: parse error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (NotAutomorphismError, PreconditionError, UndecidedError) as exc:
        print(f"nilpal: {exc}", file=sys.stderr)
        return MATH_EXIT
    except ValueError as exc:
        print(f"nilpal: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (InternalError, AssertionError) as exc:
        print(f"nilpal: internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
