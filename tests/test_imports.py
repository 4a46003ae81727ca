import os
import subprocess
import sys
from pathlib import Path

# loaded by no nilpal op: dataclasses brings inspect, ast and dis, and
# fractions brings decimal and numbers
UNUSED = {"dataclasses", "inspect", "ast", "dis", "fractions", "decimal", "numbers"}


def test_package_imports_load_no_unused_stdlib_modules():
    # a fresh interpreter, because pytest and hypothesis load these modules
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import nilpal, nilpal.autos, nilpal.foxring, nilpal.hallpoly, nilpal.cli\n"
            "from nilpal.nilpotent import collect, hall_basis\n"
            "from nilpal.words import parse_word\n"
            "collect(parse_word('x2 x1^-1 x3', 4), hall_basis(4, 5))\n"
            "assert hall_basis(3, 3).law is not None\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    added = set(out.stdout.split())
    assert "nilpal.hallpoly" in added
    assert not added & UNUSED, sorted(added & UNUSED)


def test_normalize_and_info_load_no_automorphism_module():
    # the CLI imports autos, foxring and verify inside the commands that run them
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "from nilpal import cli\n"
            "assert cli.main(['normalize', 'x2 x1']) == 0\n"
            "assert cli.main(['info']) == 0\n"
            "print(' '.join(m for m in sys.modules if m.startswith('nilpal.')), file=sys.stderr)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    loaded = set(out.stderr.split())
    assert "nilpal.cli" in loaded
    assert not loaded & {"nilpal.autos", "nilpal.foxring", "nilpal.verify"}, sorted(loaded)
