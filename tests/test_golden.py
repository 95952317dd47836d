"""Golden outputs of the README command lines.

Every command in the README's *Command line* section, and its ``equiv``
command once more through ``--method solver``, runs through ``cli.main`` in
text and, where the subcommand has ``--format``, in JSON.  Four more cases
pin routes the README does not show: a NOT-EQUIVALENT verdict, the file
route of ``normalize`` on a deformation seen through a basis change,
``solve-compatible`` on a family with obstructions, and ``check`` of a
family file against COMM_ASSOC, which fails with a series residual over
Q.  Five more run over
Q(i): two ``family2d --field Qi`` files, the second with an ``i`` in b_h,
``check`` of that file, and ``equiv`` of the two by the family route and
by ``--method solver``.  ``catalog --field Qi`` leaves the third entry's
parameter symbolic, so its report prints the polynomial family over Q(i).
Two more check plain Q(i) algebras: ``check`` of a Q(i) Novikov product
that fails, with a residual whose entries have nonzero real and imaginary
parts, and ``gelfand --dim 4 --field Qi`` piped into ``check --identity s5``.
Two more pin ``solve-compatible`` beyond e2 and Euler dim 3: sl2, which no
product fits (``feasible: no``, exit 1), and ``gelfand --dim 3 --field Qi``
piped into it.  One more fails ``check --identity s5``: a dim-4
antisymmetric bracket over Q(i) that is not Lie, whose residual has
entries with nonzero real and imaginary parts.  The last passes ``check
--identity s5`` on the zero bracket of dim 20, read at its C(20, 4) sorted
heads.
Exit code and stdout must match the recorded file under ``tests/golden/``
byte for byte, so a refactor that changes any printed report fails here.

Re-record (only on a commit whose outputs are trusted) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tpalg.cli import main

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent

# (case name, argv, stdin source): the stdin source names an earlier case
# whose stdout is piped in, as in `tpalg gelfand --dim 4 | tpalg check -`.
# fam.json, fam2.json, fam3.json, famqi.json and famqi2.json are the stdout
# of the family2d cases.
# The golden inputs: bracket.json is [e1, e2] = e2; sheared.json is the
# family at (a, b) = (h, 3h), order 4, seen through f(e1) = (1+h) e1 and
# f(e2) = e2 + 2h e1; circ_qi.json is a product over Q(i) that fails
# left-symmetry; sl2.json is the bracket of sl2 on e, f, h; bracket_qi.json
# is an antisymmetric bracket over Q(i) on e1..e4 that fails Jacobi and S5;
# zero20.json is the zero bracket of dim 20.
COMMANDS = [
    ("family2d_h_0", ["family2d", "--params", "a=h,b=0", "--order", "3"], None),
    ("family2d_h_h2", ["family2d", "--params", "a=h,b=h^2", "--order", "3"], None),
    ("check_nov_leftsym", ["check", "fam.json", "--identity", "nov_leftsym"], None),
    ("check_comm_assoc", ["check", "fam.json", "--identity", "comm_assoc"], None),
    ("limit", ["limit", "fam.json"], None),
    ("equiv", ["equiv", "fam.json", "fam2.json"], None),
    ("equiv_solver", ["equiv", "fam.json", "fam2.json", "--method", "solver"], None),
    ("family2d_2h_h", ["family2d", "--params", "a=2h,b=h", "--order", "3"], None),
    ("equiv_not", ["equiv", "fam.json", "fam3.json"], None),
    ("normalize", ["normalize", "--params", "a=-h,b=3h^2+5h^3", "--order", "6"], None),
    ("normalize_sheared", ["normalize", "sheared.json"], None),
    ("solve_compatible", ["solve-compatible", "bracket.json"], None),
    ("catalog", ["catalog", "--lam", "2"], None),
    ("catalog_qi", ["catalog", "--field", "Qi"], None),
    ("gelfand", ["gelfand", "--dim", "4"], None),
    ("gelfand_check_s5", ["check", "-", "--identity", "s5"], "gelfand"),
    ("gelfand_3", ["gelfand", "--dim", "3"], None),
    ("gelfand_3_solve_compatible", ["solve-compatible", "-"], "gelfand_3"),
    ("operad_dims", ["operad-dims", "5"], None),
    ("family2d_qi_h_0", ["family2d", "--params", "a=h,b=0", "--order", "3", "--field", "Qi"], None),
    (
        "family2d_qi_h_ih2",
        ["family2d", "--params", "a=h,b=i*h^2", "--order", "3", "--field", "Qi"],
        None,
    ),
    ("check_qi_nov_leftsym", ["check", "famqi2.json", "--identity", "nov_leftsym"], None),
    ("equiv_qi", ["equiv", "famqi.json", "famqi2.json"], None),
    ("equiv_qi_solver", ["equiv", "famqi.json", "famqi2.json", "--method", "solver"], None),
    ("check_qi_fail", ["check", "circ_qi.json", "--identity", "nov_leftsym"], None),
    ("gelfand_qi", ["gelfand", "--dim", "4", "--field", "Qi"], None),
    ("gelfand_qi_check_s5", ["check", "-", "--identity", "s5"], "gelfand_qi"),
    ("solve_compatible_sl2", ["solve-compatible", "sl2.json"], None),
    ("gelfand_qi_3", ["gelfand", "--dim", "3", "--field", "Qi"], None),
    ("gelfand_qi_3_solve_compatible", ["solve-compatible", "-"], "gelfand_qi_3"),
    ("check_qi_s5_fail", ["check", "bracket_qi.json", "--identity", "s5"], None),
    ("check_s5_zero20", ["check", "zero20.json", "--identity", "s5"], None),
]
WITH_FORMAT = {
    "check_nov_leftsym",
    "check_comm_assoc",
    "limit",
    "equiv",
    "equiv_solver",
    "equiv_not",
    "normalize",
    "normalize_sheared",
    "solve_compatible",
    "gelfand_3_solve_compatible",
    "catalog",
    "catalog_qi",
    "gelfand_check_s5",
    "operad_dims",
    "check_qi_nov_leftsym",
    "equiv_qi",
    "equiv_qi_solver",
    "check_qi_fail",
    "gelfand_qi_check_s5",
    "solve_compatible_sl2",
    "gelfand_qi_3_solve_compatible",
    "check_qi_s5_fail",
}
FILES = {
    "fam.json": "family2d_h_0",
    "fam2.json": "family2d_h_h2",
    "fam3.json": "family2d_2h_h",
    "famqi.json": "family2d_qi_h_0",
    "famqi2.json": "family2d_qi_h_ih2",
}
INPUTS = (
    "bracket.json", "sheared.json", "circ_qi.json", "sl2.json", "bracket_qi.json", "zero20.json",
)


def run_all(workdir):
    """Run every README command in ``workdir``; {case: (exit code, stdout)}."""
    workdir = Path(workdir)
    for path in INPUTS:
        (workdir / path).write_text(
            (GOLDEN / path).read_text(encoding="utf-8"), encoding="utf-8"
        )
    results = {}
    for name, argv, stdin_from in COMMANDS:
        formats = ("text", "json") if name in WITH_FORMAT else ("text",)
        for fmt in formats:
            case = name if fmt == "text" else f"{name}.json"
            extra = ["--format", "json"] if fmt == "json" else []
            stdin = io.StringIO(results[stdin_from][1] if stdin_from else "")
            stdout = io.StringIO()
            saved = sys.stdin, sys.stdout
            sys.stdin, sys.stdout = stdin, stdout
            try:
                code = main(argv + extra)
            finally:
                sys.stdin, sys.stdout = saved
            results[case] = (code, stdout.getvalue())
        for path, source in FILES.items():
            if source == name:
                (workdir / path).write_text(results[name][1], encoding="utf-8")
    return results


def golden_text(code, out):
    return f"exit {code}\n{out}"


# (golden name, script argv): exit code and stdout of the two scripts, kept
# under golden/scripts/, with the corpus report's timings masked as (N.NNs).
SCRIPTS = [
    ("classify_random_family", ["scripts/classify_random_family.py", "--count", "30", "--seed", "0"]),
    ("corpus_report", ["scripts/corpus_report.py", "--order", "3", "--max-dim", "7"]),
]


def run_script(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )
    out = re.sub(r"\(\d+\.\d\ds\)", "(N.NNs)", proc.stdout)
    return golden_text(proc.returncode, out)


def test_readme_commands_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    results = run_all(tmp_path)
    recorded = sorted(p.stem for p in GOLDEN.glob("*.out"))
    assert sorted(results) == recorded
    for case, (code, out) in results.items():
        expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
        assert golden_text(code, out) == expected, case


@pytest.mark.parametrize("name, argv", SCRIPTS, ids=[name for name, _ in SCRIPTS])
def test_scripts_match_golden(name, argv):
    expected = (GOLDEN / "scripts" / f"{name}.out").read_text(encoding="utf-8")
    assert run_script(argv) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for case, (code, out) in run_all(tmp).items():
            (GOLDEN / f"{case}.out").write_text(golden_text(code, out), encoding="utf-8")
    for name, argv in SCRIPTS:
        (GOLDEN / "scripts" / f"{name}.out").write_text(run_script(argv), encoding="utf-8")
