"""The classifier and case list of ``tools/cli_diff.py``."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("cli_diff", Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py")
cli_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_diff)


def test_float_digits_within_the_tolerance_are_the_only_forgiven_difference():
    assert cli_diff.only_float_digits("A01,0.2512805222132328,15\n", "A01,0.25128052221323294,15\n")
    assert cli_diff.only_float_digits('{"u": -1.5e-17}', '{"u": 0.0}')
    assert not cli_diff.only_float_digits("A01,0.25,15\n", "A01,0.25,14\n")
    assert not cli_diff.only_float_digits("A01,0.25,15\n", "A01,0.26,15\n")
    assert not cli_diff.only_float_digits("got 1.5\n", "got 1.5 \n")


def test_every_command_runs_in_every_format():
    argvs = list(cli_diff.cases().values())
    for command in ("weights", "eval", "benchmarks", "sweep", "corr"):
        formats = {argv[argv.index("--format") + 1] for argv in argvs if argv[0] == command and "--format" in argv}
        assert formats == set(cli_diff.FORMATS), command
