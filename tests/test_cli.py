import csv
import errno
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import pytest
from click.testing import CliRunner

import sspahp
from sspahp import CriteriaHierarchy, DecisionMatrix, Dimension, PairwiseMatrix, SubDimension, sensitivity, weighting
from sspahp.cli import main
from sspahp.core import CR_THRESHOLD, DEFAULT_STEP
from sspahp.io import (
    load_decision_matrix,
    load_hierarchy,
    load_pairwise,
    load_pairwise_batch,
    load_weights,
    write_hierarchy_json,
    write_matrix_csv,
)
from sspahp.sample import DATA_DIR, sample_hierarchy, sample_matrix
from sspahp.sensitivity import SweepSpec, compare_rankings, default_s_grid, run_sweep, subset_label
from sspahp.weighting import aggregate_pairwise, ahp_weights, critic_weights, distribute_weights, entropy_weights, judgment_weights

from conftest import CONSENSUS_JUDGMENTS, record_based_export, write_long_field_inputs


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def data_files(tmp_path):
    h = sample_hierarchy()
    matrix_path = tmp_path / "matrix.csv"
    hierarchy_path = tmp_path / "hierarchy.json"
    write_matrix_csv(sample_matrix(hierarchy=h), matrix_path)
    write_hierarchy_json(h, hierarchy_path)
    return str(matrix_path), str(hierarchy_path)


@pytest.fixture
def judgments_file(tmp_path):
    path = tmp_path / "judgments.csv"
    rows = ["G1,G2,G3,G4,G5"]
    for row in CONSENSUS_JUDGMENTS:
        rows.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestWeightsCommand:
    def test_ahp_prints_known_weights_and_cr(self, runner, judgments_file):
        result = runner.invoke(main, ["weights", "--method", "ahp", "--pairwise", judgments_file])
        assert result.exit_code == 0
        for fragment in ("0.3689", "0.3546", "0.1292", "0.1191", "0.0282"):
            assert fragment in result.output
        assert "CR = 0.08" in result.output

    def test_ahp_with_hierarchy_distributes_to_criteria(self, runner, judgments_file, data_files):
        _, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["weights", "--method", "ahp", "--pairwise", judgments_file, "--hierarchy", hierarchy_path],
        )
        assert result.exit_code == 0
        assert "C25" in result.output
        assert "0.0615" in result.output

    def test_entropy_requires_matrix(self, runner, data_files):
        _, hierarchy_path = data_files
        result = runner.invoke(
            main, ["weights", "--weights-method", "entropy", "--hierarchy", hierarchy_path]
        )
        assert result.exit_code == 2

    def test_json_format_carries_consistency(self, runner, judgments_file):
        result = runner.invoke(
            main,
            ["weights", "--method", "ahp", "--pairwise", judgments_file, "--format", "json"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["consistency"]["acceptable"] is True
        assert doc["weights"]["G1"] == pytest.approx(0.3689, abs=1e-3)

    def test_strict_cr_rejects_inconsistent_judgments(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,9,1/5\n1/9,1,9\n5,1/9,1\n")
        result = runner.invoke(
            main, ["weights", "--method", "ahp", "--pairwise", str(path), "--strict-cr"]
        )
        assert result.exit_code == 4

    def test_csv_format(self, runner, judgments_file):
        result = runner.invoke(
            main, ["weights", "--method", "ahp", "--pairwise", judgments_file, "--format", "csv"]
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "criterion_id,weight"

    def test_expert_directory_is_aggregated(self, runner, tmp_path):
        d = tmp_path / "experts"
        d.mkdir()
        (d / "e1.csv").write_text("1,2\n0.5,1\n")
        (d / "e2.csv").write_text("1,8\n0.125,1\n")
        result = runner.invoke(main, ["weights", "--method", "ahp", "--pairwise", str(d), "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        # geometric mean of 2 and 8 is 4, a consistent 2x2 with weights 0.8/0.2
        assert doc["weights"]["c1"] == pytest.approx(0.8)

    def test_expert_headers_in_another_order_are_aligned(self, runner, tmp_path, data_files):
        _, hierarchy_path = data_files
        ids = ["G1", "G2", "G3", "G4", "G5"]
        body = ["1,3,5,7,9", "1/3,1,3,5,7", "1/5,1/3,1,3,5", "1/7,1/5,1/3,1,3", "1/9,1/7,1/5,1/3,1"]
        d = tmp_path / "experts"
        d.mkdir()
        for name, labels in (("a.csv", ids), ("b.csv", ids[::-1])):
            (d / name).write_text("\n".join([",".join(labels), *body]) + "\n")
        result = runner.invoke(main, ["weights", "--method", "ahp", "--pairwise", str(d), "--hierarchy", hierarchy_path])
        assert result.exit_code == 0, result.output
        # each judgment meets its reverse, so the consensus is all ones
        dimensions = result.output.split("\n\n")[0].splitlines()[1:]
        assert dimensions == [f"{g}         0.2000" for g in ids]
        assert result.output.endswith("CR = 0.00\n")

    def test_experts_over_different_items_exit_2(self, runner, tmp_path):
        d = tmp_path / "experts"
        d.mkdir()
        (d / "a.csv").write_text("G1,G2\n1,2\n1/2,1\n")
        (d / "b.csv").write_text("1,2\n1/2,1\n")
        result = runner.invoke(main, ["weights", "--method", "ahp", "--pairwise", str(d)])
        assert result.exit_code == 2
        assert result.stderr == (
            f"input error: {d}: pairwise matrices 1 and 2 compare different items: G1, G2 vs unlabelled "
            "(files counted in name order)\n"
        )

    def test_an_unlabelled_matrix_takes_the_dimension_ids(self, runner, tmp_path, data_files):
        _, hierarchy_path = data_files
        path = tmp_path / "unlabelled.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in CONSENSUS_JUDGMENTS.tolist()))
        hierarchy = load_hierarchy(hierarchy_path)
        dims, _ = ahp_weights(PairwiseMatrix(CONSENSUS_JUDGMENTS, labels=hierarchy.dimension_ids()))
        args = ["weights", "--method", "ahp", "--pairwise", str(path), "--hierarchy", hierarchy_path, "--format", "json"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["dimension_weights"] == dims.as_dict()
        assert doc["weights"] == distribute_weights(dims, hierarchy).as_dict()

    def test_an_unlabelled_matrix_takes_the_criterion_ids(self, runner, tmp_path):
        criteria = [[{"id": "C1", "objective": "max"}, {"id": "C2", "objective": "min"}], [{"id": "C3", "objective": "max"}]]
        doc = {"dimensions": [{"id": f"G{i + 1}", "sub_dimensions": [{"name": "sd", "criteria": c}]} for i, c in enumerate(criteria)]}
        hierarchy_path = tmp_path / "hierarchy.json"
        hierarchy_path.write_text(json.dumps(doc))
        path = tmp_path / "unlabelled.csv"
        path.write_text("1,2,4\n1/2,1,2\n1/4,1/2,1\n")
        args = ["weights", "--method", "ahp", "--pairwise", str(path), "--hierarchy", str(hierarchy_path), "--format", "json"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["weights"] == pytest.approx({"C1": 4 / 7, "C2": 2 / 7, "C3": 1 / 7}, abs=1e-12)
        assert "dimension_weights" not in doc

    @pytest.mark.parametrize("method", ["critic", "entropy", "file", "ahp"])
    def test_json_weights_match_the_library(self, runner, data_files, judgments_file, tmp_path, method):
        matrix_path, hierarchy_path = data_files
        hierarchy = load_hierarchy(hierarchy_path)
        weights_path = tmp_path / "w.csv"
        weights_path.write_text(
            "criterion_id,weight\n" + "".join(f"C{j},{j / 325!r}\n" for j in range(1, 26))
        )
        args = ["weights", "--weights-method", method, "--hierarchy", hierarchy_path, "--format", "json"]
        if method == "ahp":
            args += ["--pairwise", judgments_file]
            dims, _ = ahp_weights(load_pairwise(judgments_file))
            expected = distribute_weights(dims, hierarchy)
        elif method == "file":
            args += ["--matrix", matrix_path, "--weights-file", str(weights_path)]
            expected = load_weights(weights_path, hierarchy)
        else:
            args += ["--matrix", matrix_path]
            weigh = critic_weights if method == "critic" else entropy_weights
            expected = weigh(load_decision_matrix(matrix_path, hierarchy))
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["weights"] == expected.as_dict()
        if method == "ahp":
            assert doc["dimension_weights"] == dims.as_dict()
        else:
            assert "dimension_weights" not in doc and "consistency" not in doc

    @pytest.mark.parametrize("method", ["ahp", "file"])
    def test_methods_that_weigh_no_matrix_do_not_read_it(self, runner, data_files, judgments_file, tmp_path, method):
        _, hierarchy_path = data_files
        bad = tmp_path / "bad.csv"
        bad.write_text("alternative,C1\na1,1\na2,2\n")  # misses 24 hierarchy criteria
        wpath = tmp_path / "w.csv"
        wpath.write_text("".join(f"C{j},0.04\n" for j in range(1, 26)))
        source = ["--pairwise", judgments_file] if method == "ahp" else ["--weights-file", str(wpath)]
        args = ["weights", "--method", method, "--hierarchy", hierarchy_path, *source, "--format", "json"]
        without = runner.invoke(main, args)
        with_bad = runner.invoke(main, args + ["--matrix", str(bad)])
        assert without.exit_code == 0 and with_bad.exit_code == 0, with_bad.output
        assert with_bad.stdout == without.stdout
        assert with_bad.stderr == ""
        # critic weighs the matrix, so it still reads and refuses it
        critic = runner.invoke(main, ["weights", "--method", "critic", "--hierarchy", hierarchy_path, "--matrix", str(bad)])
        assert critic.exit_code == 2
        assert "hierarchy criteria missing from the file" in critic.stderr


class TestAhpPipeline:
    """``--weights-method ahp`` is ``judgment_weights``, after ``aggregate_pairwise`` for a directory."""

    @pytest.mark.parametrize("source", ["file", "one-file directory"])
    @pytest.mark.parametrize("with_hierarchy", [False, True])
    def test_json_equals_judgment_weights(self, runner, judgments_file, data_files, tmp_path, source, with_hierarchy):
        _, hierarchy_path = data_files
        path = Path(judgments_file)
        if source == "file":
            judgments = load_pairwise(path)
        else:
            path = tmp_path / "experts"
            path.mkdir()
            (path / "expert1.csv").write_text(Path(judgments_file).read_text())
            judgments = aggregate_pairwise(load_pairwise_batch(path))
        hierarchy = load_hierarchy(hierarchy_path) if with_hierarchy else None
        weights, report, dims = judgment_weights(judgments, hierarchy)
        args = ["weights", "--method", "ahp", "--pairwise", str(path), "--format", "json"]
        result = runner.invoke(main, args + (["--hierarchy", hierarchy_path] if with_hierarchy else []))
        assert result.exit_code == 0, result.output
        expected = {"weights": weights.as_dict(), "consistency": asdict(report)}
        if dims is not None:
            expected["dimension_weights"] = dims.as_dict()
        assert json.loads(result.stdout) == expected
        assert (dims is None) is not with_hierarchy

    @pytest.mark.parametrize("command", ["weights", "eval"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("G1,G2,G3,G4\n1,2,3,4\n1/2,1,2,3\n1/3,1/2,1,2\n1/4,1/3,1/2,1\n", "weight ids do not match: missing G5"),
            ("1,3\n1/3,1\n", "a 2x2 pairwise matrix fits neither the 5 dimensions nor the 25 criteria"),
        ],
        ids=["four-dimensions", "unlabelled-2x2"],
    )
    def test_judgments_that_fit_neither_level_exit_2(self, runner, data_files, tmp_path, command, text, message):
        matrix_path, hierarchy_path = data_files
        path = tmp_path / "judgments.csv"
        path.write_text(text)
        args = [command, "--method", "ahp", "--pairwise", str(path), "--hierarchy", hierarchy_path]
        result = runner.invoke(main, args + (["--matrix", matrix_path] if command == "eval" else []))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"input error: {message}\n"
        # without a hierarchy the same judgments are weighed as they stand
        alone = runner.invoke(main, ["weights", "--method", "ahp", "--pairwise", str(path), "--format", "json"])
        assert alone.exit_code == 0, alone.output
        assert list(json.loads(alone.stdout)["weights"]) == (["G1", "G2", "G3", "G4"] if text[0] == "G" else ["c1", "c2"])


class TestEvalCommand:
    def test_entropy_smoke(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["eval", "--matrix", matrix_path, "--hierarchy", hierarchy_path, "--weights-method", "entropy"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].split() == ["alternative", "utility", "rank"]
        assert len(lines) == 17

    def test_groups_restrict_the_coefficient(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        base = runner.invoke(
            main,
            ["eval", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--s", "0.0", "--format", "json"],
        )
        full = runner.invoke(
            main,
            ["eval", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--s", "0.8", "--groups", "G1,G2", "--format", "json"],
        )
        assert base.exit_code == 0 and full.exit_code == 0
        u_base = json.loads(base.output)["utilities"]
        u_grp = json.loads(full.output)["utilities"]
        assert any(abs(a - b) > 1e-9 for a, b in zip(u_base, u_grp))

    @pytest.mark.parametrize("groups", [None, "G1,G2"])
    @pytest.mark.parametrize("s_value", ["1.5", "-0.1", "nan"])
    def test_s_outside_the_unit_interval_exits_2(self, runner, data_files, s_value, groups):
        matrix_path, hierarchy_path = data_files
        args = ["eval", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
                "--weights-method", "critic", "--s", s_value]
        if groups is not None:
            args += ["--groups", groups]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "must lie in [0, 1]" in result.stderr

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "with_groups, without_groups",
        [
            (["--groups", "G1,G2,G3,G4,G5", "--s", "0.6"], ["--s", "0.6"]),
            (["--groups", "", "--s", "0.6"], ["--s", "0"]),
        ],
        ids=["every-dimension", "empty-subset"],
    )
    def test_groups_equivalences(self, runner, data_files, fmt, with_groups, without_groups):
        matrix_path, hierarchy_path = data_files
        common = ["eval", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
                  "--weights-method", "critic", "--format", fmt]
        grouped = runner.invoke(main, common + with_groups)
        plain = runner.invoke(main, common + without_groups)
        assert grouped.exit_code == 0 and plain.exit_code == 0
        assert grouped.stdout_bytes == plain.stdout_bytes

    def test_unknown_group_exits_2(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["eval", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--s", "0.5", "--groups", "G9"],
        )
        assert result.exit_code == 2
        assert "unknown group" in result.output

    def test_a_repeated_group_exits_2(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["eval", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--s", "1", "--groups", "G1,G1"],
        )
        assert result.exit_code == 2
        assert result.stderr == "input error: group id(s) repeated: G1\n"

    def test_missing_matrix_file_exits_2(self, runner, data_files):
        _, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["eval", "--matrix", "/does/not/exist.csv", "--hierarchy", hierarchy_path,
             "--weights-method", "critic"],
        )
        assert result.exit_code == 2

    def test_degenerate_weights_exit_3(self, runner, tmp_path):
        h_doc = {
            "dimensions": [
                {
                    "id": "G1",
                    "name": "g",
                    "sub_dimensions": [
                        {"name": "sd", "criteria": [
                            {"id": "C1", "objective": "max"},
                            {"id": "C2", "objective": "max"},
                        ]}
                    ],
                }
            ]
        }
        hierarchy_path = tmp_path / "h.json"
        hierarchy_path.write_text(json.dumps(h_doc))
        matrix_path = tmp_path / "m.csv"
        matrix_path.write_text("alternative,C1,C2\na1,3,4\na2,3,4\n")
        result = runner.invoke(
            main,
            ["eval", "--matrix", str(matrix_path), "--hierarchy", str(hierarchy_path),
             "--weights-method", "entropy"],
        )
        assert result.exit_code == 3

    def test_weights_file_method(self, runner, data_files, tmp_path):
        matrix_path, hierarchy_path = data_files
        wpath = tmp_path / "w.csv"
        rows = ["criterion_id,weight"] + [f"C{j},0.04" for j in range(1, 26)]
        wpath.write_text("\n".join(rows) + "\n")
        result = runner.invoke(
            main,
            ["eval", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "file", "--weights-file", str(wpath)],
        )
        assert result.exit_code == 0

    def test_ahp_without_pairwise_exits_2(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["eval", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "ahp"],
        )
        assert result.exit_code == 2
        assert "--pairwise" in result.output


class TestBenchmarksCommand:
    def test_table_lists_all_methods(self, runner, data_files, judgments_file):
        matrix_path, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["benchmarks", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "ahp", "--pairwise", judgments_file],
        )
        assert result.exit_code == 0
        for name in ("sspahp", "topsis", "mabac", "codas", "spotis", "promethee2"):
            assert name in result.output

    def test_csv_long_format(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["benchmarks", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--format", "csv"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "method,alternative,value,rank"
        assert len(lines) == 1 + 6 * 16

    def test_corr_toggle_reports_per_method_agreement(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["benchmarks", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--corr", "--format", "json"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        corr = doc["correlation_with_sspahp"]
        assert set(corr) == {"topsis", "mabac", "codas", "spotis", "promethee2"}
        for entry in corr.values():
            assert -2.0 < entry["r_w"] <= 1.0
            assert -1.0 - 1e-12 <= entry["pearson"] <= 1.0 + 1e-12

    def test_corr_table_matches_the_json_coefficients(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        args = ["benchmarks", "--matrix", matrix_path, "--hierarchy", hierarchy_path, "--weights-method", "critic", "--corr"]
        table = runner.invoke(main, args)
        doc = json.loads(runner.invoke(main, [*args, "--format", "json"]).output)
        assert table.exit_code == 0
        rows = table.output.split("\ncorrelation with sspahp\n")[1].splitlines()
        assert rows[0].split() == ["method", "r_w", "pearson"]
        assert [row.split() for row in rows[1:]] == [
            [name, f"{c['r_w']:.4f}", f"{c['pearson']:.4f}"] for name, c in doc["correlation_with_sspahp"].items()
        ]

    def test_corr_toggle_rejects_csv_format(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["benchmarks", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--corr", "--format", "csv"],
        )
        assert result.exit_code == 2


def k_dimension_hierarchy(k):
    """``k`` dimensions of three criteria in two sub-dimensions; every third criterion is a cost."""
    dims, objectives = [], {}
    for d in range(k):
        ids = [f"C{3 * d + i + 1}" for i in range(3)]
        dims.append(Dimension(f"D{d + 1}", f"Dimension {d + 1}", (SubDimension("a", ids[:2]), SubDimension("b", ids[2:]))))
        objectives.update({c: "min" if int(c[1:]) % 3 == 0 else "max" for c in ids})
    return CriteriaHierarchy(tuple(dims), objectives)


#: traced bytes a streamed ``sweep --format csv|json --out`` may take at k = 6, m = 100
STREAMED_EXPORT_BYTES = 16 * 2**20

def assert_streamed_a_subset_at_a_time(runner, tmp_path, fmt):
    """A k = 6, m = 100 export stays under ``STREAMED_EXPORT_BYTES``, which its records alone exceed."""
    hierarchy = k_dimension_hierarchy(6)
    matrix_path, hierarchy_path, out = tmp_path / "m.csv", tmp_path / "h.json", tmp_path / f"sweep.{fmt}"
    write_matrix_csv(sample_matrix(m=100, seed=5, hierarchy=hierarchy), matrix_path)
    write_hierarchy_json(hierarchy, hierarchy_path)
    args = ["sweep", "--matrix", str(matrix_path), "--hierarchy", str(hierarchy_path),
            "--weights-method", "critic", "--format", fmt, "--out", str(out)]
    tracemalloc.start()
    try:
        result = runner.invoke(main, args)
        streamed_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        matrix = load_decision_matrix(matrix_path, hierarchy)
        sweep = run_sweep(SweepSpec(matrix, hierarchy, critic_weights(matrix)))
        records = sweep.to_records()
        records_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    whole = record_based_export(sweep, fmt, records)
    assert out.read_bytes().decode("utf-8") == whole
    # every record held at once goes over the bound (the record-based text more so); one subset's text stays under it
    assert records_peak > STREAMED_EXPORT_BYTES
    assert streamed_peak < STREAMED_EXPORT_BYTES, f"{streamed_peak:,} traced bytes"
    return whole


@pytest.fixture
def awkward_files(tmp_path):
    """The sample data with alternative ids that need CSV quoting and JSON escaping."""
    h = sample_hierarchy()
    sample = sample_matrix(hierarchy=h)
    ids = ['a,b', 'say "hi"', "\u00e9t\u00e9", "c,\"d\"", *sample.alternative_ids[4:]]
    matrix_path, hierarchy_path = tmp_path / "matrix.csv", tmp_path / "hierarchy.json"
    write_matrix_csv(DecisionMatrix(ids, sample.criterion_ids, sample.values, sample.objectives), matrix_path)
    write_hierarchy_json(h, hierarchy_path)
    return str(matrix_path), str(hierarchy_path)


class TestSweepCommand:
    def test_csv_out_is_streamed_a_subset_at_a_time(self, runner, tmp_path):
        whole = assert_streamed_a_subset_at_a_time(runner, tmp_path, "csv")
        assert whole.count("\n") == 1 + 2**6 * 21 * 100

    def test_json_out_is_streamed_a_subset_at_a_time(self, runner, tmp_path):
        whole = assert_streamed_a_subset_at_a_time(runner, tmp_path, "json")
        assert whole.count('"rank": ') == 2**6 * 21 * 100

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("groups", ["all", "G1,G4"])
    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_exports_equal_the_record_based_text(self, runner, awkward_files, tmp_path, fmt, groups, to_file):
        matrix_path, hierarchy_path = awkward_files
        out = tmp_path / f"sweep.{fmt}"
        args = ["sweep", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
                "--weights-method", "critic", "--groups", groups, "--step", "0.25", "--format", fmt]
        result = runner.invoke(main, args + (["--out", str(out)] if to_file else []))
        assert result.exit_code == 0, result.output
        hierarchy = load_hierarchy(hierarchy_path)
        matrix = load_decision_matrix(matrix_path, hierarchy)
        subsets = None if groups == "all" else (("G1", "G4"),)
        spec = SweepSpec(matrix, hierarchy, critic_weights(matrix), default_s_grid(0.25), subsets)
        expected = record_based_export(run_sweep(spec), fmt)
        assert 'a,b' in matrix.alternative_ids and "\u00e9t\u00e9" in matrix.alternative_ids
        written = out.read_bytes() if to_file else result.stdout_bytes
        assert written.decode("utf-8") == expected
        assert (result.stdout == "") == to_file

    def test_all_groups_row_count(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["sweep", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--groups", "all", "--step", "0.05",
             "--format", "csv"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "subset,s,alternative,utility,rank"
        assert len(lines) == 1 + 32 * 21 * 16

    def test_a_repeated_group_exits_2(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["sweep", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--groups", "G1,G1"],
        )
        assert result.exit_code == 2
        assert result.stderr == "input error: sweep cell (subset=G1+G1, s=0): group id(s) repeated: G1\n"

    def test_json_carries_the_grid_subsets_and_records(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["sweep", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--groups", "G1,G4", "--step", "0.25", "--format", "json"],
        )
        assert result.exit_code == 0
        hierarchy = load_hierarchy(hierarchy_path)
        matrix = load_decision_matrix(matrix_path, hierarchy)
        spec = SweepSpec(matrix, hierarchy, critic_weights(matrix), default_s_grid(0.25), (("G1", "G4"),))
        expected = {"s_grid": [0.0, 0.25, 0.5, 0.75, 1.0], "subsets": [["G1", "G4"]], "records": run_sweep(spec).to_records()}
        assert json.loads(result.output) == expected

    def test_step_past_the_largest_grid_exits_2(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["sweep", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--step", repr(1 / 66_322_430)],
        )
        assert result.exit_code == 2
        assert "step 1.507785525952532e-08 gives 66,322,431 grid points" in result.stderr

    def test_single_subset_table_summary(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        result = runner.invoke(
            main,
            ["sweep", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--groups", "G1,G4", "--format", "table"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("subset")
        assert lines[1].startswith("G1+G4")

    def test_out_writes_file(self, runner, data_files, tmp_path):
        matrix_path, hierarchy_path = data_files
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            ["sweep", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "entropy", "--groups", "G2", "--format", "csv",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        assert out.exists()
        assert out.read_text().splitlines()[0] == "subset,s,alternative,utility,rank"


class TestCorrCommand:
    def test_identical_rankings_give_unit_coefficients(self, runner, data_files, tmp_path):
        matrix_path, hierarchy_path = data_files
        a = tmp_path / "a.csv"
        common = ["eval", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
                  "--weights-method", "critic", "--format", "csv"]
        res = runner.invoke(main, common + ["--out", str(a)])
        assert res.exit_code == 0
        result = runner.invoke(main, ["corr", str(a), str(a)])
        assert result.exit_code == 0
        assert "1.0000" in result.output

    def test_sweep_exports_compare_per_subset(self, runner, data_files, tmp_path):
        matrix_path, hierarchy_path = data_files
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path, method in ((a, "critic"), (b, "entropy")):
            res = runner.invoke(
                main,
                ["sweep", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
                 "--weights-method", method, "--groups", "all", "--step", "0.5",
                 "--format", "csv", "--out", str(path)],
            )
            assert res.exit_code == 0
        result = runner.invoke(main, ["corr", str(a), str(b), "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "subset,r_w,pearson"
        assert len(lines) == 1 + 32

    def test_sweep_exports_match_compare_rankings(self, runner, data_files, tmp_path):
        matrix_path, hierarchy_path = data_files
        paths = {}
        for method in ("critic", "entropy"):
            paths[method] = tmp_path / f"{method}.csv"
            res = runner.invoke(
                main,
                ["sweep", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
                 "--weights-method", method, "--step", "0.5",
                 "--format", "csv", "--out", str(paths[method])],
            )
            assert res.exit_code == 0
        result = runner.invoke(main, ["corr", str(paths["critic"]), str(paths["entropy"]), "--format", "json"])
        assert result.exit_code == 0

        h = load_hierarchy(hierarchy_path)
        matrix = load_decision_matrix(matrix_path, h)
        sweeps = [
            run_sweep(SweepSpec(matrix=matrix, hierarchy=h, weights=weigh(matrix), s_grid=default_s_grid(0.5)))
            for weigh in (critic_weights, entropy_weights)
        ]
        expected = [
            {"subset": subset_label(subset), "r_w": rw, "pearson": pr}
            for subset, (rw, pr) in compare_rankings(*sweeps).items()
        ]
        assert json.loads(result.output) == expected

    def test_constant_ranking_in_a_sweep_export_names_the_subset(self, runner, tmp_path):
        good = tmp_path / "good.csv"
        flat = tmp_path / "flat.csv"
        header = "subset,s,alternative,utility,rank\n"
        good.write_text(header + "G1,1,a,0.5,1\nG1,1,b,0.4,2\nG2,1,a,0.5,1\nG2,1,b,0.4,2\n")
        flat.write_text(header + "G1,1,a,0.5,1\nG1,1,b,0.4,2\nG2,1,a,0.5,1\nG2,1,b,0.5,1\n")
        result = runner.invoke(main, ["corr", str(good), str(flat)])
        assert result.exit_code == 3
        assert "subset G2: correlation undefined for a constant vector" in result.stderr

    @pytest.mark.parametrize(
        "once, repeated, message",
        [
            pytest.param(
                "alternative,rank\na,1\nb,2\n",
                "alternative,rank\na,1\nb,2\na,1\n",
                "repeated.csv: alternative 'a' repeated at rows 1 and 3",
                id="plain",
            ),
            pytest.param(
                "subset,s,alternative,rank\nG1,1,a,1\nG1,1,b,2\n",
                "subset,s,alternative,rank\nG1,1,a,1\nG1,1,b,2\nG1,1,a,2\n",
                "repeated.csv: alternative 'a' repeated in subset G1 at rows 1 and 3",
                id="sweep-export",
            ),
        ],
    )
    def test_repeated_alternative_is_an_input_error(self, runner, tmp_path, once, repeated, message):
        (tmp_path / "once.csv").write_text(once)
        (tmp_path / "repeated.csv").write_text(repeated)
        result = runner.invoke(main, ["corr", str(tmp_path / "repeated.csv"), str(tmp_path / "once.csv")])
        assert result.exit_code == 2
        assert result.stderr.startswith("input error: ")
        assert message in result.stderr

    def test_mixed_file_kinds_are_rejected(self, runner, data_files, tmp_path):
        matrix_path, hierarchy_path = data_files
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        runner.invoke(
            main,
            ["eval", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--format", "csv", "--out", str(a)],
        )
        runner.invoke(
            main,
            ["sweep", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--groups", "G1", "--format", "csv",
             "--out", str(b)],
        )
        result = runner.invoke(main, ["corr", str(a), str(b)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "text_a, text_b, message",
        [
            pytest.param(
                "alternative,rank\na,1\nb,2\n",
                "subset,s,alternative,rank\nG1,1,a,1\nG1,1,b,2\n",
                "cannot mix a plain ranking file with a sweep export",
                id="mixed-kinds",
            ),
            pytest.param(
                "subset,s,alternative,rank\nG1,1,a,1\nG1,1,b,2\n",
                "subset,s,alternative,rank\nG2,1,a,1\nG2,1,b,2\n",
                "subset lists differ between the two sweep exports",
                id="subset-lists",
            ),
            pytest.param(
                "alternative,rank\na,1\nb,2\nc,3\n",
                "alternative,rank\na,1\nd,2\ne,3\n",
                "alternative ids differ; in only one: b, c, d, e",
                id="plain-ids",
            ),
            pytest.param(
                "subset,s,alternative,rank\n,1,a,1\n,1,b,2\n,1,c,3\nG1,1,a,1\nG1,1,b,2\n",
                "subset,s,alternative,rank\n,1,a,1\n,1,b,2\nG1,1,a,1\nG1,1,b,2\n",
                "alternative ids differ in subset (); in only one: c",
                id="empty-subset-ids",
            ),
            pytest.param(
                "subset,s,alternative,rank\n,1,a,1\n,1,b,2\nG1,1,a,1\nG1,1,b,2\n",
                "subset,s,alternative,rank\n,1,a,1\n,1,b,2\nG1,1,a,1\nG1,1,c,2\n",
                "alternative ids differ in subset G1; in only one: b, c",
                id="subset-ids",
            ),
        ],
    )
    def test_mismatched_files_are_named(self, runner, tmp_path, text_a, text_b, message):
        (tmp_path / "a.csv").write_text(text_a)
        (tmp_path / "b.csv").write_text(text_b)
        result = runner.invoke(main, ["corr", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
        assert result.exit_code == 2
        assert result.stderr == f"input error: {message}\n"

    def test_malformed_ranking_file_is_an_input_error(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("subset,s,alternative,rank\nG1,0,a1,1\nG1,1,a2,first\n")
        result = runner.invoke(main, ["corr", str(bad), str(bad)])
        assert result.exit_code == 2
        assert result.stderr.startswith("input error: ")
        assert "bad.csv: non-numeric rank cell 'first' at row 2, column 4" in result.stderr


class TestMalformedInputs:
    """Each loader's bad input ends in exit 2 with an input error naming the file."""

    @staticmethod
    def assert_input_error(result, fragment):
        assert result.exit_code == 2
        assert result.stderr.startswith("input error: ")
        assert fragment in result.stderr

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("matrix.csv", ["eval", "--matrix", "{path}", "--hierarchy", str(DATA_DIR / "sample_hierarchy.json"), "--weights-method", "critic"]),
            ("ranking.csv", ["corr", "{path}", "{path}"]),
            ("pairwise.csv", ["weights", "--method", "ahp", "--pairwise", "{path}"]),
            ("weights.csv", ["weights", "--method", "file", "--weights-file", "{path}"]),
        ],
        ids=["matrix", "ranking", "pairwise", "weights"],
    )
    def test_a_field_past_the_csv_field_size_limit(self, runner, tmp_path, name, argv):
        path, line = write_long_field_inputs(tmp_path)[name]
        result = runner.invoke(main, [arg.format(path=path) for arg in argv])
        self.assert_input_error(result, f"{path}: line {line}: field larger than field limit ({csv.field_size_limit()})\n")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""

    def test_ragged_pairwise_file(self, runner, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n0.5,1\n1/3,1,1\n")
        result = runner.invoke(main, ["weights", "--method", "ahp", "--pairwise", str(path)])
        self.assert_input_error(result, "ragged.csv: row 2 has 2 entries; expected a square 3x3 matrix")

    def test_pairwise_rows_labelled_out_of_header_order(self, runner, tmp_path):
        path = tmp_path / "mislabelled.csv"
        path.write_text(",G1,G2,G3\nG3,1,3,5\nG2,1/3,1,3\nG1,1/5,1/3,1\n")
        result = runner.invoke(main, ["weights", "--method", "ahp", "--pairwise", str(path)])
        self.assert_input_error(
            result, "mislabelled.csv: row 1 is labelled 'G3', but the header's label at its position is 'G1'"
        )

    def test_repeated_pairwise_label_is_refused_before_the_eigen_solve(self, runner, tmp_path, monkeypatch):
        from sspahp import weighting

        def no_solve(*args, **kwargs):
            raise AssertionError("the eigen solve ran")

        monkeypatch.setattr(weighting, "_eigen_solve", no_solve)
        path = tmp_path / "dup.csv"
        path.write_text("G1,G1,G2\n1,1,2\n1,1,2\n1/2,1/2,1\n")
        result = runner.invoke(main, ["weights", "--method", "ahp", "--pairwise", str(path)])
        assert result.stderr == f"input error: {path}: pairwise label 'G1' repeated\n"
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "command, out, code",
        [
            (["eval"], "", errno.EISDIR),  # the directory itself
            (["sweep", "--format", "csv"], "missing/x.csv", errno.ENOENT),  # streamed a subset at a time
        ],
        ids=["eval-directory", "sweep-csv-missing-directory"],
    )
    def test_an_unwritable_out_is_an_input_error(self, runner, data_files, tmp_path, command, out, code):
        matrix_path, hierarchy_path = data_files
        out = str(tmp_path / out)
        args = [*command, "--matrix", matrix_path, "--hierarchy", hierarchy_path, "--weights-method", "critic"]
        result = runner.invoke(main, [*args, "--out", out])
        assert result.stderr == f"input error: cannot write {out}: {os.strerror(code)}\n"
        assert result.exit_code == 2

    def test_non_reciprocal_expert_file(self, runner, tmp_path):
        d = tmp_path / "experts"
        d.mkdir()
        (d / "a.csv").write_text("1,8\n0.125,1\n")
        (d / "b.csv").write_text("1,2\n0.25,1\n")
        result = runner.invoke(main, ["weights", "--method", "ahp", "--pairwise", str(d)])
        self.assert_input_error(result, "b.csv: reciprocity violated at (1, 2)")

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"dimensions": 5}, "h.json: expected an object with a 'dimensions' list"),
            ({"dimensions": [{"id": "G1", "sub_dimensions": [{"name": "sd", "criteria": [{"id": ["C1"], "objective": "max"}]}]}]},
             "h.json: dimensions[0].sub_dimensions[0].criteria[0]: expected an object whose 'id' is a string"),
        ],
    )
    def test_malformed_hierarchy(self, runner, data_files, tmp_path, doc, fragment):
        matrix_path, _ = data_files
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["eval", "--matrix", matrix_path, "--hierarchy", str(path), "--weights-method", "critic"]
        )
        self.assert_input_error(result, fragment)

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(["sweep", "--weights-method", "critic", "--groups", "G6", "--format", "csv"], id="sweep"),
            pytest.param(["eval", "--weights-method", "critic"], id="eval"),
        ],
    )
    def test_hierarchy_with_an_empty_dimension(self, runner, data_files, tmp_path, args):
        matrix_path, hierarchy_path = data_files
        doc = json.loads(Path(hierarchy_path).read_text())
        doc["dimensions"].append({"id": "G6", "name": "empty", "sub_dimensions": []})
        path = tmp_path / "h6.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [*args, "--matrix", matrix_path, "--hierarchy", str(path)])
        self.assert_input_error(result, "h6.json: dimensions[5]: dimension 'G6' has no sub-dimensions")
        assert result.stdout == ""

    def test_repeated_bounds_row(self, runner, data_files, tmp_path):
        matrix_path, hierarchy_path = data_files
        path = tmp_path / "bounds.csv"
        rows = ["criterion_id,min,max"] + [f"C{j},0,100" for j in range(1, 26)] + ["C7,1,2"]
        path.write_text("\n".join(rows) + "\n")
        result = runner.invoke(
            main,
            ["benchmarks", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--bounds", str(path)],
        )
        self.assert_input_error(result, "bounds.csv: duplicate criterion row 'C7'")

    def test_non_finite_bounds_cell(self, runner, data_files, tmp_path):
        matrix_path, hierarchy_path = data_files
        path = tmp_path / "bounds.csv"
        rows = ["criterion_id,min,max"] + [f"C{j},{'nan' if j == 3 else 0},1000" for j in range(1, 26)]
        path.write_text("\n".join(rows) + "\n")
        result = runner.invoke(
            main,
            ["benchmarks", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
             "--weights-method", "critic", "--bounds", str(path)],
        )
        self.assert_input_error(result, "bounds.csv: row 3, column 2: non-finite cell 'nan'\n")

    def test_non_finite_weight(self, runner, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("criterion_id,weight\nC1,nan\nC2,1\n")
        result = runner.invoke(main, ["weights", "--method", "file", "--weights-file", str(path)])
        self.assert_input_error(result, "w.csv: row 1, column 2: non-finite cell 'nan'\n")
        assert result.stdout == ""

    @pytest.mark.parametrize("which", ["--matrix", "--hierarchy"])
    def test_directory_in_place_of_a_file(self, runner, data_files, tmp_path, which):
        paths = dict(zip(("--matrix", "--hierarchy"), data_files))
        paths[which] = str(tmp_path / "adir")
        (tmp_path / "adir").mkdir()
        result = runner.invoke(
            main, ["eval", *(arg for pair in paths.items() for arg in pair), "--weights-method", "critic"]
        )
        self.assert_input_error(result, f"{tmp_path / 'adir'}: is a directory, not a file")

    @pytest.mark.parametrize("which", ["--matrix", "--hierarchy"])
    def test_latin1_input_file(self, runner, data_files, tmp_path, which):
        paths = dict(zip(("--matrix", "--hierarchy"), data_files))
        source = Path(paths[which])
        latin = tmp_path / f"latin1{source.suffix}"
        latin.write_bytes(source.read_text().replace("C1", "Cé1", 1).encode("latin-1"))
        paths[which] = str(latin)
        result = runner.invoke(
            main, ["eval", *(arg for pair in paths.items() for arg in pair), "--weights-method", "critic"]
        )
        self.assert_input_error(result, f"{latin}: not UTF-8 text (cannot decode byte 0xe9)")

    def test_latin1_ranking_file(self, runner, tmp_path):
        path = tmp_path / "ranks.csv"
        path.write_bytes("alternative,rank\nhôpital,1\n".encode("latin-1"))
        result = runner.invoke(main, ["corr", str(path), str(path)])
        self.assert_input_error(result, f"{path}: not UTF-8 text (cannot decode byte 0xf4)")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("alternative,rank\na,1\nb,nan\n", "rank cell 'nan' not finite at row 2, column 2"),
            ("subset,s,alternative,rank\nG1,0,a1,1\nG1,1,a1,inf\n", "rank cell 'inf' not finite at row 2, column 4"),
        ],
        ids=["plain", "sweep-export"],
    )
    def test_a_rank_that_is_not_finite(self, runner, tmp_path, text, message):
        path = tmp_path / "ranks.csv"
        path.write_text(text)
        result = runner.invoke(main, ["corr", str(path), str(path)])
        self.assert_input_error(result, f"ranks.csv: {message}")

    def test_sweep_export_s_outside_the_unit_interval(self, runner, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("subset,s,alternative,rank\nG1,0,a1,1\nG2,-2,a1,1\n")
        result = runner.invoke(main, ["corr", str(path), str(path)])
        self.assert_input_error(result, "sweep.csv: s cell '-2' outside [0, 1] at row 2, column 2")


@pytest.fixture
def constant_column_files(tmp_path):
    """The sample problem with criterion C3 set to one value for every alternative."""
    h = sample_hierarchy()
    sample = sample_matrix(hierarchy=h)
    values = sample.values.copy()
    values[:, sample.criterion_ids.index("C3")] = 4.0
    matrix_path, hierarchy_path = tmp_path / "constant.csv", tmp_path / "hierarchy.json"
    write_matrix_csv(DecisionMatrix(sample.alternative_ids, sample.criterion_ids, values, sample.objectives), matrix_path)
    write_hierarchy_json(h, hierarchy_path)
    # SPOTIS needs bounds for a constant column
    bounds = [f"{c},{lo!r},{hi!r}" for c, lo, hi in zip(sample.criterion_ids, (values.min(axis=0) - 1).tolist(), (values.max(axis=0) + 1).tolist())]
    (tmp_path / "bounds.csv").write_text("\n".join(["criterion_id,min,max", *bounds]) + "\n")
    return ["--matrix", str(matrix_path), "--hierarchy", str(hierarchy_path)]


CONSTANT_C3 = "warning: criterion 'C3' is constant; all cells set to 0.5\n"


class TestConstantColumnWarnings:
    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "--weights-method", "critic"],
            ["eval", "--weights-method", "entropy", "--s", "0.5", "--format", "csv"],
            ["benchmarks", "--weights-method", "critic", "--bounds", "bounds.csv", "--format", "json"],
            ["sweep", "--weights-method", "critic", "--step", "0.5", "--format", "csv"],
            ["sweep", "--weights-method", "entropy", "--step", "0.5"],
            ["weights", "--method", "critic"],
            ["weights", "--method", "entropy", "--format", "csv"],
        ],
        ids=lambda args: "-".join(a.lstrip("-") for a in args),
    )
    def test_each_constant_criterion_is_named_once_on_stderr(self, runner, constant_column_files, tmp_path, args):
        args = [str(tmp_path / a) if a == "bounds.csv" else a for a in args]
        result = runner.invoke(main, args + constant_column_files)
        assert result.exit_code == 0
        assert result.stderr == CONSTANT_C3
        # stdout holds what --out writes, and no warning
        out = tmp_path / "out.txt"
        to_file = runner.invoke(main, args + constant_column_files + ["--out", str(out)])
        assert to_file.exit_code == 0 and to_file.stdout == ""
        assert to_file.stderr == CONSTANT_C3
        assert result.stdout == out.read_text(encoding="utf-8")
        assert "warning" not in result.stdout

    def test_a_matrix_without_constant_columns_prints_no_warning(self, runner, data_files):
        matrix_path, hierarchy_path = data_files
        result = runner.invoke(main, ["eval", "--matrix", matrix_path, "--hierarchy", hierarchy_path, "--weights-method", "critic"])
        assert result.exit_code == 0
        assert result.stderr == ""

    def test_weights_from_judgments_print_no_matrix_warning(self, runner, constant_column_files, judgments_file):
        result = runner.invoke(main, ["weights", "--method", "ahp", "--pairwise", judgments_file] + constant_column_files)
        assert result.exit_code == 0
        assert result.stderr == ""


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeated_eval_runs_are_byte_identical(self, runner, data_files, tmp_path, fmt):
        matrix_path, hierarchy_path = data_files
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / f"{name}.{fmt}"
            res = runner.invoke(
                main,
                ["eval", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
                 "--weights-method", "critic", "--s", "0.35", "--format", fmt,
                 "--out", str(out)],
            )
            assert res.exit_code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_repeated_sweep_runs_are_byte_identical(self, runner, data_files, tmp_path):
        matrix_path, hierarchy_path = data_files
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / f"{name}.csv"
            res = runner.invoke(
                main,
                ["sweep", "--matrix", matrix_path, "--hierarchy", hierarchy_path,
                 "--weights-method", "entropy", "--groups", "all", "--step", "0.25",
                 "--format", "csv", "--out", str(out)],
            )
            assert res.exit_code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestVersion:
    def test_cli_runner_prints_the_package_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0, result.output
        assert result.output == f"main, version {sspahp.__version__}\n"

    def test_module_run_from_the_source_tree_prints_the_package_version(self, tmp_path):
        src = Path(sspahp.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "sspahp", "--version"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"python -m sspahp, version {sspahp.__version__}\n"
        assert done.stderr == ""


#: the input options every weight-taking command declares, in ``--help`` order
INPUT_OPTIONS = [
    "--matrix",
    "--hierarchy",
    "--weights-method, --method",
    "--pairwise",
    "--weights-file",
    "--strict-cr",
    "--format",
    "--out",
]
WEIGHT_COMMANDS = ["weights", "eval", "benchmarks", "sweep"]


def help_options(runner, command):
    """The option names of each option line of ``command --help``, in order."""
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    return [m.group(1) for m in re.finditer(r"^  (--?[\w-]+(?:, --?[\w-]+)*)", result.output, re.MULTILINE)]


class TestSharedInputOptions:
    @pytest.mark.parametrize("command", WEIGHT_COMMANDS)
    def test_help_lists_the_input_options_first_and_in_order(self, runner, command):
        options = help_options(runner, command)
        assert options[: len(INPUT_OPTIONS)] == INPUT_OPTIONS
        if command == "weights":
            assert options == [*INPUT_OPTIONS, "--help"]

    @pytest.mark.parametrize("command", WEIGHT_COMMANDS)
    def test_method_alias_runs_on_the_sample(self, runner, command):
        inputs = ["--matrix", str(DATA_DIR / "sample_matrix.csv"), "--hierarchy", str(DATA_DIR / "sample_hierarchy.json")]
        aliased = runner.invoke(main, [command, *inputs, "--method", "critic", "--format", "csv"])
        spelled = runner.invoke(main, [command, *inputs, "--weights-method", "critic", "--format", "csv"])
        assert aliased.exit_code == 0, aliased.output
        assert aliased.output == spelled.output

    @pytest.mark.parametrize("command", ["eval", "benchmarks", "sweep"])
    def test_matrix_and_hierarchy_are_required_beyond_weights(self, runner, command):
        for given, missing in (([], "--matrix"), (["--matrix", str(DATA_DIR / "sample_matrix.csv")], "--hierarchy")):
            result = runner.invoke(main, [command, *given, "--method", "critic"])
            assert result.exit_code == 2
            assert f"Missing option '{missing}'" in result.output

    def test_step_and_cr_threshold_come_from_the_library(self):
        step = next(p for p in main.commands["sweep"].params if p.name == "step")
        assert step.default is DEFAULT_STEP and step.show_default
        assert sensitivity.DEFAULT_STEP is DEFAULT_STEP and weighting.CR_THRESHOLD is CR_THRESHOLD
        for command in WEIGHT_COMMANDS:
            strict = next(p for p in main.commands[command].params if p.name == "strict_cr")
            assert strict.help == f"Fail (exit 4) when CR exceeds {CR_THRESHOLD}."
