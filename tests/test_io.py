import json

import numpy as np
import pytest

from sspahp import InputError
from sspahp.io import (
    load_bounds,
    load_decision_matrix,
    load_hierarchy,
    load_pairwise,
    load_pairwise_batch,
    load_weights,
    write_hierarchy_json,
    write_matrix_csv,
)
from sspahp.sample import DATA_DIR, sample_hierarchy, sample_matrix, write_sample

from conftest import CONSENSUS_JUDGMENTS


@pytest.fixture
def hierarchy_file(tmp_path):
    path = tmp_path / "hierarchy.json"
    write_hierarchy_json(sample_hierarchy(), path)
    return path


class TestLoadHierarchy:
    def test_full_structure_round_trips(self, hierarchy_file):
        h = load_hierarchy(hierarchy_file)
        assert h.dimension_ids() == ("G1", "G2", "G3", "G4", "G5")
        assert h.criterion_ids() == tuple(f"C{i}" for i in range(1, 26))
        assert h.objective_for("C8") == "min"
        assert h.objective_for("C1") == "max"

    def test_single_criterion_hierarchy_is_valid(self, tmp_path):
        doc = {
            "dimensions": [
                {
                    "id": "G1",
                    "name": "only",
                    "sub_dimensions": [
                        {"name": "sd", "criteria": [{"id": "C1", "objective": "max"}]}
                    ],
                }
            ]
        }
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        h = load_hierarchy(path)
        assert h.criterion_ids() == ("C1",)

    def test_unknown_objective_token_is_schema_error(self, tmp_path):
        doc = {
            "dimensions": [
                {
                    "id": "G1",
                    "name": "only",
                    "sub_dimensions": [
                        {
                            "name": "sd",
                            "criteria": [{"id": "C1", "objective": "maximize"}],
                        }
                    ],
                }
            ]
        }
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="maximize"):
            load_hierarchy(path)

    def test_duplicate_criterion_is_schema_error(self, tmp_path):
        doc = {
            "dimensions": [
                {
                    "id": "G1",
                    "name": "only",
                    "sub_dimensions": [
                        {
                            "name": "sd",
                            "criteria": [
                                {"id": "C1", "objective": "max"},
                                {"id": "C1", "objective": "min"},
                            ],
                        }
                    ],
                }
            ]
        }
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="duplicate criterion"):
            load_hierarchy(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_hierarchy(tmp_path / "nope.json")


def small_hierarchy_file(tmp_path, n=2):
    doc = {
        "dimensions": [
            {
                "id": "G1",
                "name": "g",
                "sub_dimensions": [
                    {
                        "name": "sd",
                        "criteria": [
                            {"id": f"C{j + 1}", "objective": "max"} for j in range(n)
                        ],
                    }
                ],
            }
        ]
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    return load_hierarchy(path)


class TestLoadDecisionMatrix:
    def test_two_by_two(self, tmp_path):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "m.csv"
        path.write_text("alternative,C1,C2\na1,1.5,2\na2,3,4.25\n")
        m = load_decision_matrix(path, h)
        assert m.m == 2 and m.n == 2
        assert m.alternative_ids == ("a1", "a2")
        assert np.allclose(m.values, [[1.5, 2.0], [3.0, 4.25]])
        assert m.objectives == ("max", "max")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        h = small_hierarchy_file(tmp_path, n=3)
        path = tmp_path / "m.csv"
        path.write_text("alternative,C1,C2,C3\na1,1,2,3\na2,4,5,abc\n")
        with pytest.raises(InputError, match="row 2, column 3"):
            load_decision_matrix(path, h)

    def test_unknown_header_id_is_binding_error(self, tmp_path):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "m.csv"
        path.write_text("alternative,C1,CX\na1,1,2\na2,3,4\n")
        with pytest.raises(InputError, match="CX"):
            load_decision_matrix(path, h)

    def test_duplicate_criterion_column_is_rejected(self, tmp_path):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "m.csv"
        path.write_text("alternative,C1,C2,C1\na1,1,2,7\na2,3,4,8\n")
        with pytest.raises(InputError, match="duplicate criterion column 'C1'"):
            load_decision_matrix(path, h)

    def test_missing_hierarchy_criterion_is_binding_error(self, tmp_path):
        h = small_hierarchy_file(tmp_path, n=3)
        path = tmp_path / "m.csv"
        path.write_text("alternative,C1,C2\na1,1,2\na2,3,4\n")
        with pytest.raises(InputError, match="missing.*C3"):
            load_decision_matrix(path, h)

    def test_columns_reorder_to_canonical_order(self, tmp_path):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "m.csv"
        path.write_text("alternative,C2,C1\na1,10,1\na2,20,2\n")
        m = load_decision_matrix(path, h)
        assert m.criterion_ids == ("C1", "C2")
        assert np.allclose(m.values, [[1, 10], [2, 20]])

    def test_wrong_first_header_is_rejected(self, tmp_path):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "m.csv"
        path.write_text("name,C1,C2\na1,1,2\na2,3,4\n")
        with pytest.raises(InputError, match="alternative"):
            load_decision_matrix(path, h)

    def test_round_trip_preserves_values_and_ids(self, tmp_path):
        h = sample_hierarchy()
        m = sample_matrix(hierarchy=h)
        path = tmp_path / "round.csv"
        write_matrix_csv(m, path)
        back = load_decision_matrix(path, h)
        assert back.alternative_ids == m.alternative_ids
        assert back.criterion_ids == m.criterion_ids
        assert np.max(np.abs(back.values - m.values)) < 1e-12
        assert back.objectives == m.objectives


class TestLoadPairwise:
    def test_headerless_decimals(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,4\n0.25,1\n")
        pm = load_pairwise(path)
        assert pm.labels is None
        assert np.allclose(pm.values, [[1, 4], [0.25, 1]])

    def test_fractions_and_header_labels(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = ["G1,G2,G3,G4,G5"]
        for row in CONSENSUS_JUDGMENTS:
            rows.append(",".join(repr(float(v)) for v in row))
        path.write_text("\n".join(rows) + "\n")
        pm = load_pairwise(path)
        assert pm.labels == ("G1", "G2", "G3", "G4", "G5")
        assert np.max(np.abs(pm.values - CONSENSUS_JUDGMENTS)) < 1e-12

    def test_fraction_tokens(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,1/3\n3,1\n")
        pm = load_pairwise(path)
        assert pm.values[0, 1] == pytest.approx(1 / 3)

    def test_label_column_is_stripped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(",G1,G2\nG1,1,5\nG2,1/5,1\n")
        pm = load_pairwise(path)
        assert pm.labels == ("G1", "G2")
        assert np.allclose(pm.values, [[1, 5], [0.2, 1]])

    def test_non_square_is_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,2,3\n0.5,1,2\n")
        with pytest.raises(InputError, match="square"):
            load_pairwise(path)

    def test_batch_loads_sorted(self, tmp_path):
        d = tmp_path / "experts"
        d.mkdir()
        (d / "b.csv").write_text("1,2\n0.5,1\n")
        (d / "a.csv").write_text("1,8\n0.125,1\n")
        batch = load_pairwise_batch(d)
        assert len(batch) == 2
        assert batch[0].values[0, 1] == 8.0  # a.csv first

    def test_empty_batch_dir_is_rejected(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        with pytest.raises(InputError, match="no .csv"):
            load_pairwise_batch(d)


class TestLoadWeights:
    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("criterion_id,weight\nC1,0.25\nC2,0.75\n")
        wv = load_weights(path)
        assert wv.as_dict() == {"C1": 0.25, "C2": 0.75}

    def test_hierarchy_reorders_by_id(self, tmp_path):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "w.csv"
        path.write_text("C2,0.75\nC1,0.25\n")
        wv = load_weights(path, h)
        assert wv.criterion_ids == ("C1", "C2")
        assert wv.weights.tolist() == [0.25, 0.75]

    def test_repeated_id_names_the_file(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("C1,0.5\nC1,0.3\nC2,0.2\n")
        with pytest.raises(InputError, match=r"w\.csv: duplicate weight id 'C1'"):
            load_weights(path)

    def test_id_mismatch_with_hierarchy_is_rejected(self, tmp_path):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "w.csv"
        path.write_text("C1,0.5\nCX,0.5\n")
        with pytest.raises(InputError, match="do not match"):
            load_weights(path, h)


class TestLoadBounds:
    def test_bounds_align_to_hierarchy(self, tmp_path):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "b.csv"
        path.write_text("criterion_id,min,max\nC2,0,10\nC1,1,5\n")
        bounds = load_bounds(path, h)
        assert bounds.tolist() == [[1.0, 5.0], [0.0, 10.0]]

    def test_missing_bounds_are_rejected(self, tmp_path):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "b.csv"
        path.write_text("C1,1,5\n")
        with pytest.raises(InputError, match="missing.*C2"):
            load_bounds(path, h)


class TestShippedSampleData:
    def test_regenerated_files_match_the_shipped_copies(self, tmp_path):
        matrix_path, hierarchy_path = write_sample(tmp_path)
        assert matrix_path.read_bytes() == (DATA_DIR / "sample_matrix.csv").read_bytes()
        assert (
            hierarchy_path.read_bytes()
            == (DATA_DIR / "sample_hierarchy.json").read_bytes()
        )

    def test_sample_matrix_shape_and_positivity(self):
        m = sample_matrix()
        assert m.m == 16 and m.n == 25
        assert (m.values > 0).all()
