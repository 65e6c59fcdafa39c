import csv
import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sspahp.io as sspahp_io
from sspahp import InputError, SweepSpec, run_sweep
from sspahp.io import (
    _parse_number,
    load_bounds,
    load_decision_matrix,
    load_hierarchy,
    load_pairwise,
    load_pairwise_batch,
    load_ranking_file,
    load_weights,
    records_to_csv,
    write_hierarchy_json,
    write_matrix_csv,
)
from sspahp.sample import DATA_DIR, sample_hierarchy, sample_matrix, write_sample
from sspahp.sensitivity import subset_label
from sspahp.weighting import critic_weights

from conftest import CONSENSUS_JUDGMENTS


def records_to_csv_oracle(records, fieldnames):
    """Straightforward writer: one DictWriter row per record, Python floats as repr.

    Any other cell, a float subclass such as np.float64 included, is left to
    csv.writer, which writes its str().
    """
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow(
            {k: (repr(v) if type(v) is float else v) for k, v in rec.items()}
        )
    return buf.getvalue()


def load_ranking_file_oracle(path):
    """Straightforward reader: find each subset's deepest s, then a second pass.

    An alternative repeated in the ranking kept raises InputError naming the
    first repeat, its first row, and for a sweep export its subset.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    header = [c.strip().lower() for c in rows[0]]
    if {"subset", "s", "alternative", "rank"}.issubset(header):
        si = header.index("subset")
        gi = header.index("s")
        ai = header.index("alternative")
        ri = header.index("rank")
        deepest = {}
        for row in rows[1:]:
            deepest[row[si]] = max(deepest.get(row[si], -1.0), float(row[gi]))
        out, first = {}, {}
        for r, row in enumerate(rows[1:], start=1):
            if float(row[gi]) == deepest[row[si]]:
                if (row[si], row[ai]) in first:
                    raise InputError(
                        f"{path}: alternative '{row[ai]}' repeated in subset {row[si] or '()'} "
                        f"at rows {first[row[si], row[ai]]} and {r}"
                    )
                first[row[si], row[ai]] = r
                out.setdefault(row[si], {})[row[ai]] = float(row[ri])
        return "sweep", out
    ai = header.index("alternative")
    ri = header.index("rank")
    out, first = {}, {}
    for r, row in enumerate(rows[1:], start=1):
        if row[ai] in first:
            raise InputError(f"{path}: alternative '{row[ai]}' repeated at rows {first[row[ai]]} and {r}")
        first[row[ai]] = r
        out[row[ai]] = float(row[ri])
    return "simple", out


def assert_reads_like_the_oracle(path):
    """The reader returns what the oracle returns, or raises the oracle's error."""
    try:
        want = load_ranking_file_oracle(path)
    except InputError as exc:
        with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
            load_ranking_file(path)
    else:
        assert_same_ranking(load_ranking_file(path), want)


def to_records_oracle(result):
    """Long-format rows built with one subset label per row."""
    grid, utilities, ranks = result.s_grid.tolist(), result.utilities.tolist(), result.ranks.tolist()
    return [
        {"subset": subset_label(sub), "s": s, "alternative": alt, "utility": u, "rank": r}
        for sub, u_rows, r_rows in zip(result.subsets, utilities, ranks)
        for s, u_row, r_row in zip(grid, u_rows, r_rows)
        for alt, u, r in zip(result.alternative_ids, u_row, r_row)
    ]


def assert_same_ranking(got, want):
    """Equal results with equal key order, outer and inner."""
    assert got == want
    assert list(got[1]) == list(want[1])
    if got[0] == "sweep":
        assert [list(v) for v in got[1].values()] == [list(v) for v in want[1].values()]


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

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text('{"dimensions": [')
        with pytest.raises(InputError, match=r"^malformed JSON in .*h\.json: "):
            load_hierarchy(path)

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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"dimensions": 5}, r"h\.json: expected an object with a 'dimensions' list$"),
            ([{"id": "G1"}], r"h\.json: expected an object with a 'dimensions' list$"),
            ({"dimensions": {"id": "G1"}}, r"h\.json: expected an object with a 'dimensions' list$"),
            ({"dimensions": ["G1"]}, r"h\.json: dimensions\[0\]: expected an object whose 'id' is a string$"),
            ({"dimensions": [{"id": "G1", "sub_dimensions": 3}]},
             r"h\.json: dimensions\[0\]: expected an object whose 'sub_dimensions' is a list$"),
            ({"dimensions": [{"id": "G1", "sub_dimensions": "sd"}]},
             r"h\.json: dimensions\[0\]: expected an object whose 'sub_dimensions' is a list$"),
            ({"dimensions": [{"id": "G1", "sub_dimensions": [{"name": "sd", "criteria": {"id": "C1"}}]}]},
             r"h\.json: dimensions\[0\]\.sub_dimensions\[0\]: expected an object whose 'criteria' is a list$"),
            ({"dimensions": [{"id": "G1", "sub_dimensions": [{"criteria": []}]}]},
             r"h\.json: dimensions\[0\]\.sub_dimensions\[0\]: expected an object whose 'name' is a string$"),
            ({"dimensions": [{"id": "G1", "sub_dimensions": [{"name": "sd", "criteria": [{"id": ["C1"], "objective": "max"}]}]}]},
             r"h\.json: dimensions\[0\]\.sub_dimensions\[0\]\.criteria\[0\]: expected an object whose 'id' is a string$"),
            ({"dimensions": [{"id": "G1", "sub_dimensions": [{"name": "sd", "criteria": [{"id": "C1"}]}]}]},
             r"h\.json: dimensions\[0\]\.sub_dimensions\[0\]\.criteria\[0\]: expected an object whose 'objective' is a string$"),
            ({"dimensions": [{"id": ["G1"], "sub_dimensions": []}]},
             r"h\.json: dimensions\[0\]: expected an object whose 'id' is a string$"),
            ({"dimensions": [{"id": "G1", "name": None, "sub_dimensions": []}]},
             r"h\.json: dimensions\[0\]: expected an object whose 'name' is a string$"),
            ({"dimensions": [{"id": "G1", "sub_dimensions": []}, {"id": "G1", "sub_dimensions": []}]},
             r"h\.json: dimensions\[1\]: duplicate dimension id 'G1'$"),
            ({"dimensions": [
                {"id": "G1", "sub_dimensions": [{"name": "a", "criteria": [{"id": "C1", "objective": "max"}]}]},
                {"id": "G2", "sub_dimensions": [{"name": "b", "criteria": [{"id": "C1", "objective": "min"}]}]},
            ]},
             r"h\.json: dimensions\[1\]\.sub_dimensions\[0\]\.criteria\[0\]: duplicate criterion 'C1'$"),
        ],
    )
    def test_malformed_entries_name_the_file_and_the_entry(self, tmp_path, doc, message):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=message):
            load_hierarchy(path)

    @pytest.mark.parametrize(
        "dimension, message",
        [
            ({"id": "G2", "sub_dimensions": []}, r"h\.json: dimensions\[1\]: dimension 'G2' has no sub-dimensions$"),
            (
                {"id": "G2", "sub_dimensions": [{"name": "b", "criteria": []}]},
                r"h\.json: dimensions\[1\]\.sub_dimensions\[0\]: sub-dimension 'b' of 'G2' has no criteria$",
            ),
        ],
    )
    def test_empty_entries_name_the_file_and_the_entry(self, tmp_path, dimension, message):
        first = {"id": "G1", "sub_dimensions": [{"name": "a", "criteria": [{"id": "C1", "objective": "max"}]}]}
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"dimensions": [first, dimension]}))
        with pytest.raises(InputError, match=message):
            load_hierarchy(path)


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

    def test_header_only_file_is_rejected(self, tmp_path):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "m.csv"
        path.write_text("alternative,C1,C2\n")
        with pytest.raises(InputError, match="need at least 2 alternatives, got 0"):
            load_decision_matrix(path, h)

    def test_ragged_row_names_the_file_and_row(self, tmp_path):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "m.csv"
        path.write_text("alternative,C1,C2\na1,1,2\na2,3\n")
        with pytest.raises(InputError, match=r"m\.csv: row 2 has 2 cells, expected 3$"):
            load_decision_matrix(path, h)

    @pytest.mark.parametrize("text", ["", "\n , \n\n"])
    def test_empty_file_is_named(self, tmp_path, text):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=r"^empty file: .*m\.csv$"):
            load_decision_matrix(path, h)

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

    def test_two_loads_compare_equal_and_a_changed_cell_does_not(self, tmp_path):
        h = load_hierarchy(DATA_DIR / "sample_hierarchy.json")
        path = DATA_DIR / "sample_matrix.csv"
        first, second = load_decision_matrix(path, h), load_decision_matrix(path, h)
        assert (first == second) is True
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[3].split(",")
        cells[5] = str(float(cells[5]) + 1.0)
        lines[3] = ",".join(cells)
        changed = tmp_path / "changed.csv"
        changed.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert (load_decision_matrix(changed, h) == first) is False


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2,3\n0.5,1\n1/3,1,1\n", r"row 2 has 2 entries; expected a square 3x3 matrix"),
            ("G1,G2,G3\n1,2,3\n0.5,1,2,4\n1/3,1/2,1\n", r"row 2 has 4 entries; expected a square 3x3 matrix"),
            (",G1,G2\nG1,1,5\nG2,1/5\n", r"row 2 has 1 entries; expected a square 2x2 matrix"),
            ("1,2\n0.5,x\n", r"row 2, column 2: non-numeric cell 'x'"),
            ("1,4\n0.5,1\n", r"reciprocity violated at \(1, 2\): 4 \* 0\.5 != 1"),
            ("2,1\n1,1\n", r"pairwise diagonal must be all ones"),
            ("1,0\n0,1\n", r"pairwise entries must be finite and positive"),
            ("G1,G2,G3\n1,2\n0.5,1\n", r"3 labels for a 2x2 matrix"),
        ],
    )
    def test_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "p.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=r"p\.csv: " + message + "$"):
            load_pairwise(path)

    def test_header_without_rows_names_the_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("G1,G2\n")
        with pytest.raises(InputError, match=r"p\.csv: header without data$"):
            load_pairwise(path)

    def test_batch_of_a_file_is_refused(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,2\n0.5,1\n")
        with pytest.raises(InputError, match=r"^not a directory: .*p\.csv$"):
            load_pairwise_batch(path)

    def test_batch_errors_name_the_expert_file(self, tmp_path):
        d = tmp_path / "experts"
        d.mkdir()
        (d / "a.csv").write_text("1,8\n0.125,1\n")
        (d / "b.csv").write_text("1,2\n0.25,1\n")
        with pytest.raises(InputError, match=r"b\.csv: reciprocity violated at \(1, 2\)"):
            load_pairwise_batch(d)

    def test_batch_loads_sorted(self, tmp_path):
        d = tmp_path / "experts"
        d.mkdir()
        (d / "b.csv").write_text("1,2\n0.5,1\n")
        (d / "a.csv").write_text("1,8\n0.125,1\n")
        batch = load_pairwise_batch(d)
        assert len(batch) == 2
        assert batch[0].values[0, 1] == 8.0  # a.csv first

    def test_mixed_size_panel_names_the_first_odd_file(self, tmp_path):
        d = tmp_path / "experts"
        d.mkdir()
        (d / "a.csv").write_text("1,2,3\n0.5,1,1\n1/3,1,1\n")
        (d / "b.csv").write_text("1,3,1\n1/3,1,1\n1,1,1\n")
        (d / "c.csv").write_text("1,2\n0.5,1\n")
        (d / "d.csv").write_text("1\n")
        with pytest.raises(InputError, match=r"c\.csv: a 2x2 matrix, but a\.csv is 3x3$"):
            load_pairwise_batch(d)

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

    @pytest.mark.parametrize("text", ["C1,nan\nC2,1\n", "criterion_id,weight\nC1,nan\nC2,1\n"])
    def test_non_finite_weight_names_the_file_and_criterion(self, tmp_path, text):
        path = tmp_path / "w.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=r"w\.csv: non-finite weight nan for criterion 'C1'$"):
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("criterion_id,min,max\nC1,1,5\nC2,0,10\nC1,2,6\n", r"duplicate criterion row 'C1'"),
            ("C1,1,5\nC2,0,10\nCX,0,1\n", r"criterion id\(s\) not in the hierarchy: CX"),
            ("C1,1,5\nC2,0\n", r"row 2 needs criterion_id, min, max"),
            ("C1,1,5\nC2,0,ten\n", r"row 2, column 3: non-numeric cell 'ten'"),
        ],
    )
    def test_malformed_rows_name_the_file(self, tmp_path, text, message):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "b.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=r"b\.csv: " + message + "$"):
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


SWEEP_FIELDS = ["subset", "s", "alternative", "utility", "rank"]

csv_text = st.one_of(
    st.sampled_from(["", " ", "+", "G1+G2", "a,b", 'say "hi"', "two\nlines", " lead", "trail ", '"', "\r\n"]),
    st.text(alphabet=st.sampled_from(list('ab ,"\n\r+-.0e\t')), max_size=8),
)
csv_number = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**20), max_value=10**20),
)


csv_cell = st.one_of(
    csv_text,
    csv_number,
    # equal values that are distinct objects, written differently
    st.sampled_from([None, True, False, 1, 1.0, 0, 0.0, -0.0]),
    # a float subclass: csv.writer writes its str(), 0.5 and not np.float64(0.5)
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)


@st.composite
def csv_table(draw):
    fieldnames = draw(st.lists(st.text(alphabet="abc_, ", min_size=1, max_size=4), unique=True, max_size=5))
    # a few objects shared by many records, the way to_records shares grid floats
    shared = draw(st.lists(csv_cell, min_size=1, max_size=4))
    cell = st.one_of(csv_cell, st.sampled_from(shared))
    records = []
    for _ in range(draw(st.integers(0, 8))):
        values = [draw(cell) for _ in fieldnames]
        pairs = list(zip(fieldnames, values))
        if draw(st.booleans()):
            pairs.reverse()  # key order of a record must not matter
        records.append(dict(pairs))
    return records, fieldnames


class TestRecordsToCsv:
    @settings(max_examples=400, deadline=None)
    @given(csv_table(), st.sampled_from([1, 2, 3, sspahp_io._BLOCK_ROWS]))
    def test_matches_the_dictwriter_oracle_byte_for_byte(self, table, block_rows):
        records, fieldnames = table
        # blocks of a few rows put block boundaries inside the drawn tables
        with mock.patch.object(sspahp_io, "_BLOCK_ROWS", block_rows):
            assert records_to_csv(records, fieldnames) == records_to_csv_oracle(records, fieldnames)

    def test_a_long_table_of_shared_cells_matches_the_oracle(self):
        shared = [0.0, -0.0, 1, 1.0, True, None, "", "a,b", np.float64(0.5), math.nan]
        fieldnames = ["x", "y", "z"]
        n = 2 * sspahp_io._BLOCK_ROWS + 3
        records = [
            {"x": shared[i % 10], "y": shared[(i // 3) % 10], "z": float(i) / 7}
            for i in range(n)
        ]
        text = records_to_csv(records, fieldnames)
        assert text == records_to_csv_oracle(records, fieldnames)
        assert text.count("\n") == n + 1

    def test_equal_values_of_distinct_objects_keep_their_own_text(self):
        column = [0.0, -0.0, 1, 1.0, True, 0, False, np.float64(0.5), None]
        records = [{"a": v, "b": v} for v in column]
        assert records_to_csv(records, ["a", "b"]) == (
            "a,b\n0.0,0.0\n-0.0,-0.0\n1,1\n1.0,1.0\nTrue,True\n0,0\nFalse,False\n"
            "0.5,0.5\n,\n"
        )

    def test_a_float_subclass_is_written_by_its_str(self):
        class Tagged(float):
            def __str__(self):
                return f"tagged {float(self)!r}"

        records = [{"a": Tagged(0.5), "b": 0.5}, {"a": Tagged(0.25), "b": 0.25}]
        assert records_to_csv(records, ["a", "b"]) == "a,b\ntagged 0.5,0.5\ntagged 0.25,0.25\n"

    @pytest.mark.parametrize(
        "fieldnames, records, expected",
        [
            ([], [{}, {}, {}], "\n\n\n\n"),
            ([], [], "\n"),
            (["a"], [{"a": ""}, {"a": None}, {"a": "x"}, {"a": 0.5}], 'a\n""\n""\nx\n0.5\n'),
            (["a", "b"], [{"a": "", "b": None}], "a,b\n,\n"),
        ],
    )
    def test_zero_and_one_field_tables(self, fieldnames, records, expected):
        assert records_to_csv(records, fieldnames) == expected
        assert records_to_csv_oracle(records, fieldnames) == expected

    def test_sweep_records_match_the_oracle(self):
        result = small_export_sweep()
        records = result.to_records()
        assert records == to_records_oracle(result)
        assert records_to_csv(records, SWEEP_FIELDS) == records_to_csv_oracle(
            to_records_oracle(result), SWEEP_FIELDS
        )

    @pytest.mark.parametrize(
        "records, message",
        [
            ([{"a": 1, "b": 2}, {"a": 3}], r"record 1 has keys \['a'\], expected \['a', 'b'\]: missing \['b'\], extra \[\]"),
            ([{"a": 1, "b": 2, "c": 3}], r"record 0 .*: missing \[\], extra \['c'\]"),
            ([{"a": 1, "b": 2}, {"a": 1, "b": 2}, {"a": 1, "c": 2}], r"record 2 .*: missing \['b'\], extra \['c'\]"),
        ],
    )
    def test_records_must_carry_exactly_the_fieldnames(self, records, message):
        with pytest.raises(ValueError, match=message):
            records_to_csv(records, ["a", "b"])

    def test_single_field_rows(self):
        assert records_to_csv([{"a": 0.5}, {"a": ""}], ["a"]) == 'a\n0.5\n""\n'
        with pytest.raises(ValueError, match=r"record 0 .*missing \['a'\]"):
            records_to_csv([{"b": 1}], ["a"])


def small_export_sweep(m=7, seed=3):
    h = sample_hierarchy()
    matrix = sample_matrix(m=m, seed=seed, hierarchy=h)
    return run_sweep(SweepSpec(matrix=matrix, hierarchy=h, weights=critic_weights(matrix)))


@st.composite
def sweep_file(draw):
    labels = draw(st.lists(st.sampled_from(["", "G1", "G2", "G1+G2", "G3", "x y"]), min_size=1, max_size=4, unique=True))
    alternatives = draw(st.lists(st.sampled_from(["a1", "a2", "a3", " a4", "a,5"]), min_size=1, max_size=4, unique=True))
    s_cells = ["0", "0.5", "1", "1.0", "-0.0", " 0.25 "]
    deepest = draw(st.sampled_from(s_cells))
    # one spelling of the deepest s; shallower ones may repeat, also spelled apart
    shallower = [s for s in s_cells if float(s) < float(deepest)]
    grid = [deepest, *(draw(st.lists(st.sampled_from(shallower), max_size=3)) if shallower else [])]
    if draw(st.integers(0, 3)) == 3:  # about one file in five holds an s outside [0, 1]
        grid.append(draw(st.sampled_from(["-1", "-2", "nan"])))
    rows = [
        [label, s, alt, draw(st.sampled_from(["1", "2.0", " 3 ", "4"]))]
        for label in labels
        for s in grid
        for alt in alternatives
    ]
    shallow = [row for row in rows if row[1] != deepest]
    if shallow:  # repeats below the deepest s, which the reader skips
        rows += draw(st.lists(st.sampled_from(shallow), max_size=6))
    if draw(st.integers(0, 3)) == 3:  # about one in five repeats rows at any s, the deepest too
        rows += draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
    rows = draw(st.permutations(rows))
    order = draw(st.permutations(range(4)))
    header = [["Subset", " s", "alternative", "RANK "][i] for i in order]
    lines = [header] + [[row[i] for i in order] for row in rows]
    return lines, draw(st.lists(st.integers(1, len(lines)), max_size=4))


@st.composite
def plain_rows(draw):
    """(alternative, rank) rows; about one file in five repeats an alternative."""
    rank = st.sampled_from(["1", "2.5", " 3"])
    alternatives = ["a1", "a2", "b", " c ", "d", "a,3", "e e", "f"]
    rows = draw(st.lists(st.tuples(st.sampled_from(alternatives), rank), max_size=8, unique_by=lambda row: row[0]))
    if rows and draw(st.integers(0, 3)) == 3:
        rows.insert(draw(st.integers(0, len(rows))), (draw(st.sampled_from(rows))[0], draw(rank)))
    return rows


def write_lines(path, lines, blank_at=()):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(lines)
    text = buf.getvalue().splitlines(keepends=True)
    for k, at in enumerate(sorted(blank_at, reverse=True)):
        text.insert(at, ["\n", "   \n", " , ,\t,\n", ",,,\n"][k % 4])
    path.write_text("".join(text), encoding="utf-8")


class TestLoadRankingFile:
    @settings(max_examples=200, deadline=None)
    @given(sweep_file())
    def test_sweep_files_read_like_the_two_pass_oracle(self, tmp_path_factory, case):
        lines, blank_at = case
        path = tmp_path_factory.mktemp("ranking") / "sweep.csv"
        write_lines(path, lines, blank_at)
        c = lines[0].index(" s")
        bad = [(r, row[c]) for r, row in enumerate(lines[1:], start=1) if not 0.0 <= float(row[c]) <= 1.0]
        if bad:  # the first s that is NaN or outside [0, 1], in file order
            r, cell = bad[0]
            message = rf"sweep\.csv: s cell '{re.escape(cell)}' outside \[0, 1\] at row {r}, column {c + 1}$"
            with pytest.raises(InputError, match=message):
                load_ranking_file(path)
        else:
            assert_reads_like_the_oracle(path)

    @settings(max_examples=100, deadline=None)
    @given(
        plain_rows(),
        st.lists(st.integers(1, 9), max_size=3),
        st.booleans(),
    )
    def test_plain_files_read_like_the_oracle(self, tmp_path_factory, rows, blank_at, extra_column):
        header = ["rank", "note", "Alternative"] if extra_column else ["alternative", "rank"]
        lines = [header] + [[r, "n", a] if extra_column else [a, r] for a, r in rows]
        path = tmp_path_factory.mktemp("ranking") / "plain.csv"
        write_lines(path, lines, [min(b, len(lines)) for b in blank_at])
        assert_reads_like_the_oracle(path)

    def test_exported_sweep_round_trips(self, tmp_path):
        result = small_export_sweep()
        path = tmp_path / "sweep.csv"
        path.write_text(records_to_csv(result.to_records(), SWEEP_FIELDS), encoding="utf-8")
        kind, final = load_ranking_file(path)
        assert_same_ranking((kind, final), load_ranking_file_oracle(path))
        assert final == {
            subset_label(sub): dict(zip(result.alternative_ids, ranks.astype(float).tolist()))
            for sub, ranks in result.final_rankings().items()
        }

    @pytest.mark.parametrize(
        "text, message",
        [
            ("subset,s,alternative,rank\nG1,0,a1,1\nG1,zero,a2,2\n", r"bad\.csv: non-numeric s cell 'zero' at row 2, column 2"),
            ("subset,s,alternative,rank\nG1,0,a1,1\n\nG1,1,a2,two\n", r"bad\.csv: non-numeric rank cell 'two' at row 2, column 4"),
            ("subset,s,alternative,rank\nG1,0,a1\n", r"bad\.csv: row 1 has 3 cells, no column 4 \(rank\)"),
            ("rank,alternative\n1,a1\nx,a2\n", r"bad\.csv: non-numeric rank cell 'x' at row 2, column 1"),
            ("alternative,rank\na1,1\na2\n", r"bad\.csv: row 2 has 1 cells, no column 2 \(rank\)"),
        ],
    )
    def test_malformed_rows_name_the_row_and_column(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=message):
            load_ranking_file(path)

    @pytest.mark.parametrize(
        "rows, row, cell",
        [
            (["G1,-0.5,a1,1"], 1, "-0.5"),
            (["G1,nan,a1,1"], 1, "nan"),
            (["G1,1.5,a1,1"], 1, "1.5"),
            (["G1,0,a1,1", "G1,1,a2,1", "G1,-1e-300,a3,2"], 3, "-1e-300"),  # below the deepest s
            (["G1,1,a1,1", "G1,NaN,a2,2"], 2, "NaN"),  # a NaN after the deepest s
            (["G1,-2,a1,1", "G2,0,a1,1"], 1, "-2"),  # a subset that used to vanish
        ],
    )
    def test_s_outside_the_unit_interval_names_the_cell(self, tmp_path, rows, row, cell):
        path = tmp_path / "bad.csv"
        path.write_text("subset,s,alternative,rank\n" + "\n".join(rows) + "\n")
        message = rf"bad\.csv: s cell '{re.escape(cell)}' outside \[0, 1\] at row {row}, column 2$"
        with pytest.raises(InputError, match=message):
            load_ranking_file(path)

    def test_a_file_without_rank_columns_is_named(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("alternative,score\na1,0.5\n")
        with pytest.raises(InputError, match=r"scores\.csv: expected \(alternative, rank\) columns or a sweep export$"):
            load_ranking_file(path)

    def test_a_repeat_at_the_deepest_s_is_named_past_shallower_repeats(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("subset,s,alternative,rank\nG1,0,a1,1\nG1,0,a1,2\nG1,1,a1,1\nG1,0,a2,2\nG1,1,a1,2\n")
        with pytest.raises(InputError, match=r"sweep\.csv: alternative 'a1' repeated in subset G1 at rows 3 and 5$"):
            load_ranking_file(path)

    def test_negative_zero_s_is_the_start_of_the_grid(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("subset,s,alternative,rank\nG1,-0.0,a1,1\nG1,-0.0,a2,2\nG2,0,a1,2\nG2,0.0,a2,1\n")
        assert load_ranking_file(path) == ("sweep", {"G1": {"a1": 1.0, "a2": 2.0}, "G2": {"a1": 2.0, "a2": 1.0}})


def load_matrix_cells_oracle(path, hierarchy):
    """Values parsed cell by cell, in the hierarchy's criterion order."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    ids = [c.strip() for c in rows[0][1:]]
    values = np.array([[_parse_number(cell, "") for cell in row[1:]] for row in rows[1:]])
    return values[:, [ids.index(c) for c in hierarchy.criterion_ids()]]


class TestMatrixRowParsing:
    def test_rows_parse_like_cell_by_cell(self, tmp_path):
        h = small_hierarchy_file(tmp_path, n=3)
        path = tmp_path / "m.csv"
        path.write_text("alternative,C3,C1,C2\na1, 1.5 ,2,1/4\na2,1e3,-0.0,3/8\n\na3,7,8,9\n")
        m = load_decision_matrix(path, h)
        assert np.array_equal(m.values, load_matrix_cells_oracle(path, h))
        assert m.values[0, 1] == 0.25

    @pytest.mark.parametrize("cell", ["1/", "/2", "1/0", "0/0", "1/2/3", "1//2", "one", ""])
    def test_malformed_number_names_the_file_row_and_column(self, tmp_path, cell):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "m.csv"
        path.write_text(f"alternative,C1,C2\na1,1,2\na2,3,{cell}\n")
        with pytest.raises(InputError, match=rf"m\.csv: row 2, column 2: non-numeric cell '{re.escape(cell)}'$"):
            load_decision_matrix(path, h)

    def test_sample_matrix_parses_like_cell_by_cell(self):
        h = sample_hierarchy()
        path = DATA_DIR / "sample_matrix.csv"
        assert np.array_equal(load_decision_matrix(path, h).values, load_matrix_cells_oracle(path, h))
