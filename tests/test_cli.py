import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from sspahp import PairwiseMatrix
from sspahp.cli import main
from sspahp.io import (
    load_decision_matrix,
    load_hierarchy,
    load_pairwise,
    load_weights,
    write_hierarchy_json,
    write_matrix_csv,
)
from sspahp.sample import sample_hierarchy, sample_matrix
from sspahp.sensitivity import SweepSpec, compare_rankings, default_s_grid, run_sweep, subset_label
from sspahp.weighting import ahp_weights, critic_weights, distribute_weights, entropy_weights

from conftest import CONSENSUS_JUDGMENTS


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


class TestSweepCommand:
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

    def test_ragged_pairwise_file(self, runner, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n0.5,1\n1/3,1,1\n")
        result = runner.invoke(main, ["weights", "--method", "ahp", "--pairwise", str(path)])
        self.assert_input_error(result, "ragged.csv: row 2 has 2 entries; expected a square 3x3 matrix")

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
        self.assert_input_error(result, "bounds must be finite; offending criteria: C3\n")

    def test_non_finite_weight(self, runner, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("criterion_id,weight\nC1,nan\nC2,1\n")
        result = runner.invoke(main, ["weights", "--method", "file", "--weights-file", str(path)])
        self.assert_input_error(result, "w.csv: non-finite weight nan for criterion 'C1'")
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

    def test_sweep_export_s_outside_the_unit_interval(self, runner, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("subset,s,alternative,rank\nG1,0,a1,1\nG2,-2,a1,1\n")
        result = runner.invoke(main, ["corr", str(path), str(path)])
        self.assert_input_error(result, "sweep.csv: s cell '-2' outside [0, 1] at row 2, column 2")


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
