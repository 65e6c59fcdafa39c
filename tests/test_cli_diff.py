"""The classifier and case list of ``tools/cli_diff.py``."""

import csv
import importlib.util
from pathlib import Path

from sspahp.io import _plain_table
from sspahp.sample import DATA_DIR

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


def test_eval_reads_every_matrix_variant_in_every_format_and_each_reader_path_is_taken():
    argvs = list(cli_diff.cases().values())
    for variant in cli_diff.MATRIX_VARIANTS:
        runs = [argv for argv in argvs if f"{{matrix_{variant}}}" in argv]
        assert {argv[0] for argv in runs} == {"eval"}, variant
        assert {argv[argv.index("--format") + 1] for argv in runs} == set(cli_diff.FORMATS), variant
    header, *lines = (DATA_DIR / "sample_matrix.csv").read_text().splitlines()
    texts = cli_diff.matrix_variants(header, [line.split(",") for line in lines])
    assert list(texts) == list(cli_diff.MATRIX_VARIANTS)
    numpy_path = {variant for variant, text in texts.items() if _plain_table(text.removeprefix("\ufeff")) is not None}
    assert numpy_path == {"crlf_bom", "hash_id", "nonascii_id", "m800"}


def test_each_error_input_replaces_one_sample_file_in_one_eval_case():
    cases = cli_diff.cases()
    for name in cli_diff.ERROR_INPUTS:
        argv = cases[f"eval {name}"]
        replaced = name.partition("_")[0]
        assert argv == [f"{{{name}}}" if token == f"{{{replaced}}}" else token for token in cases["eval table"][:-2]], name
        assert f"{{{name}}}" in argv, name
    header, *lines = (DATA_DIR / "sample_matrix.csv").read_text().splitlines()
    files = cli_diff.error_files(header, [line.split(",") for line in lines])
    assert set(files) <= set(cli_diff.ERROR_INPUTS)
    long_id = files["matrix_long_id"].decode()
    assert max(map(len, long_id.split(","))) > csv.field_size_limit()
    assert _plain_table(long_id) is None
    assert files["hierarchy_crlf"] == files["hierarchy_lf"].replace(b"\n", b"\r\n")
    sample_ids = [line.partition(",")[0] for line in lines]
    for name, ids in (("matrix_header_only", []), ("matrix_one_row", ["A01"]), ("matrix_repeated_id", [*sample_ids, "A01"])):
        assert [row.partition(",")[0] for row in files[name].decode().splitlines()[1:]] == ids, name


def test_sweep_runs_one_given_subset_and_a_coarse_default_grid_in_every_format():
    cases = cli_diff.cases()
    for option in (["--groups", "G2,G4"], ["--step", "0.25"]):
        runs = [argv for argv in cases.values() if argv[0] == "sweep" and argv[-4:-2] == option]
        assert {argv[argv.index("--format") + 1] for argv in runs} == set(cli_diff.FORMATS), option
    assert len(cases) == 77
