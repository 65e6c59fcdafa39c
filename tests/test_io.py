import csv
import io
import json
import math
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sspahp.io as sspahp_io
from sspahp import CriteriaHierarchy, DecisionMatrix, Dimension, InputError, SubDimension, SweepSpec, run_sweep
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
from sspahp.sensitivity import default_s_grid, subset_label
from sspahp.weighting import critic_weights

from conftest import CONSENSUS_JUDGMENTS, write_long_field_inputs


def records_to_csv_oracle(records, fieldnames):
    """Straightforward writer: one DictWriter row per record, Python floats as repr.

    Any other cell, a float subclass such as np.float64 included, is left to
    csv.writer, which writes its str(). Each row is quoted as csv.writer
    quotes it in rows ended by \\r\\n, so a cell holding \\r is quoted too,
    and is ended by \\n.
    """
    rows = [dict(zip(fieldnames, fieldnames))]
    rows += ({k: (repr(v) if type(v) is float else v) for k, v in rec.items()} for rec in records)
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def write_matrix_csv_oracle(matrix, path):
    """Straightforward writer: one csv.writer row per alternative, each value as repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alternative", *matrix.criterion_ids])
        for i, alt in enumerate(matrix.alternative_ids):
            writer.writerow([alt, *(repr(v) for v in matrix.values[i].tolist())])


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


def traced_peak(read, path) -> int:
    """The peak of the memory traced while ``read(path)`` runs, in bytes."""
    tracemalloc.start()
    try:
        read(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_malformed_json_is_named_at_the_same_spot_whatever_ends_its_lines(self, tmp_path, end):
        text = '{"dimensions": [\n  {"id": "G1",,\n]}\n'
        (tmp_path / "lf.json").write_bytes(text.encode())
        (tmp_path / "other.json").write_bytes(text.replace("\n", end).encode())
        messages = []
        for name in ("lf.json", "other.json"):
            with pytest.raises(InputError) as caught:
                load_hierarchy(tmp_path / name)
            messages.append(str(caught.value).replace(name, "h.json"))
        assert messages[0] == messages[1]
        assert messages[0].endswith("line 2 column 15 (char 31)")

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

    def test_an_unknown_objective_token_names_the_file_and_the_entry(self, tmp_path):
        criteria = [{"id": "C1", "objective": "max"}, {"id": "C2", "objective": "maximize"}]
        doc = {"dimensions": [{"id": "G1", "sub_dimensions": [{"name": "sd", "criteria": criteria}]}]}
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError) as info:
            load_hierarchy(path)
        assert str(info.value) == (
            f"{path}: dimensions[0].sub_dimensions[0].criteria[1]: "
            "unknown objective token 'maximize' for 'C2' (expected 'max' or 'min')"
        )

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

    @pytest.mark.parametrize("cell", ["nan", " inf", "-Infinity", "1e400", "inf/2"])
    def test_non_finite_cell_names_its_file_row_and_column_in_file_order(self, tmp_path, cell):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "m.csv"
        path.write_text(f"alternative,C2,C1\na,2,1\nb,{cell},1\n")
        message = f"{path}: row 2, column 1: non-finite cell '{cell.strip()}'"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
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

    def test_a_ragged_row_is_named_before_a_bad_cell_above_it(self, tmp_path):
        h = small_hierarchy_file(tmp_path)
        path = tmp_path / "m.csv"
        path.write_text("alternative,C1,C2\na1,x,2\na2,3\n")
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

    def test_a_row_label_must_match_the_header_at_its_position(self, tmp_path):
        # the rows in reverse order: read by its labels the diagonal is 5, 1, 5
        path = tmp_path / "p.csv"
        path.write_text(",G1,G2,G3\nG3,1,3,5\nG2,1/3,1,3\nG1,1/5,1/3,1\n")
        message = r"p\.csv: row 1 is labelled 'G3', but the header's label at its position is 'G1'$"
        with pytest.raises(InputError, match=message):
            load_pairwise(path)

    @pytest.mark.parametrize(
        "rows",
        ["G1,1,3\nG2,1/3,1\n", "G1,1,3,5\nG2,1/3,1,3\nG3,1/5,1/3,1\n"],
        ids=["2x2", "3x3"],
    )
    def test_labelled_rows_without_a_header_read_as_under_one(self, tmp_path, rows):
        headerless, headed = tmp_path / "p.csv", tmp_path / "headed.csv"
        headerless.write_text(rows)
        n = rows.count("\n")
        headed.write_text("," + ",".join(f"G{i + 1}" for i in range(n)) + "\n" + rows)
        pm = load_pairwise(headerless)
        assert pm.labels == tuple(f"G{i + 1}" for i in range(n))
        assert pm == load_pairwise(headed)

    def test_a_header_without_a_corner_cell_lists_every_label(self, tmp_path):
        cornerless, corner = tmp_path / "p.csv", tmp_path / "corner.csv"
        rows = "G1,1,3,5\nG2,1/3,1,3\nG3,1/5,1/3,1\n"
        cornerless.write_text("G1,G2,G3\n" + rows)
        corner.write_text(",G1,G2,G3\n" + rows)
        pm = load_pairwise(cornerless)
        assert pm.labels == ("G1", "G2", "G3")
        assert pm == load_pairwise(corner)

    def test_unlabelled_rows_under_a_labelled_header_are_read_in_order(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(",G1,G2\nG1,1,5\n1/5,1\n")
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
            ("1,nan\n1,1\n", r"row 1, column 2: non-finite cell 'nan'"),
            # a labelled row's columns are counted after its label
            (",G1,G2\nG1,1,1\nG2,inf,1\n", r"row 2, column 1: non-finite cell 'inf'"),
            ("G1,G2,G3\n1,2\n0.5,1\n", r"3 labels for a 2x2 matrix"),
            # every row's shape is checked before any cell
            ("1,2,3\n0.5,x,2\n1/3,1/2\n", r"row 3 has 2 entries; expected a square 3x3 matrix"),
            (",G1,G2\nG1,1,x\nG2,1/5\n", r"row 2 has 1 entries; expected a square 2x2 matrix"),
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
        with pytest.raises(InputError, match=r"w\.csv: row 1, column 2: non-finite cell 'nan'$"):
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
            ("C1,1,x\nC2,0\n", r"row 2 needs criterion_id, min, max"),  # shapes before cells
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


class TestByteOrderMark:
    """A file saved with a leading UTF-8 byte-order mark, as Excel's "CSV UTF-8" does, reads like the file without it."""

    READ = {
        "hierarchy.json": load_hierarchy,
        "matrix.csv": lambda path: load_decision_matrix(path, sample_hierarchy()),
        "pairwise.csv": load_pairwise,
        "labelled_pairwise.csv": load_pairwise,
        "cornerless_pairwise.csv": load_pairwise,
        "bounds.csv": lambda path: load_bounds(path, sample_hierarchy()).tolist(),
        "weights.csv": lambda path: load_weights(path, sample_hierarchy()),
        "plain_weights.csv": lambda path: load_weights(path, sample_hierarchy()),
        "ranking.csv": load_ranking_file,
        "sweep.csv": load_ranking_file,
    }

    @staticmethod
    def write_inputs(tmp_path):
        (tmp_path / "hierarchy.json").write_bytes((DATA_DIR / "sample_hierarchy.json").read_bytes())
        (tmp_path / "matrix.csv").write_bytes((DATA_DIR / "sample_matrix.csv").read_bytes())
        judgments = "\n".join(",".join(repr(float(v)) for v in row) for row in CONSENSUS_JUDGMENTS)
        (tmp_path / "pairwise.csv").write_text(judgments + "\n", encoding="utf-8")
        (tmp_path / "labelled_pairwise.csv").write_text("G1,G2,G3,G4,G5\n" + judgments + "\n", encoding="utf-8")
        cornerless = "G1,G2,G3\nG1,1,3,5\nG2,1/3,1,3\nG3,1/5,1/3,1\n"
        (tmp_path / "cornerless_pairwise.csv").write_text(cornerless, encoding="utf-8")
        values = sample_matrix().values
        bounds = [f"{c},{lo!r},{hi!r}" for c, lo, hi in zip(sample_matrix().criterion_ids, values.min(0).tolist(), values.max(0).tolist())]
        (tmp_path / "bounds.csv").write_text("criterion_id,min,max\n" + "\n".join(bounds) + "\n", encoding="utf-8")
        weights = critic_weights(sample_matrix())
        rows = [f"{c},{w!r}" for c, w in zip(weights.criterion_ids, weights.weights.tolist())]
        (tmp_path / "weights.csv").write_text("criterion_id,weight\n" + "\n".join(rows) + "\n", encoding="utf-8")
        (tmp_path / "plain_weights.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        (tmp_path / "ranking.csv").write_text("alternative,rank\na1,2\na2,1\n", encoding="utf-8")
        with (tmp_path / "sweep.csv").open("w", encoding="utf-8") as fh:
            small_export_sweep().write_csv(fh)

    @pytest.mark.parametrize("name", list(READ))
    def test_each_input_reads_like_its_copy_without_the_mark(self, tmp_path, name):
        self.write_inputs(tmp_path)
        path, marked = tmp_path / name, tmp_path / f"bom_{name}"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert self.READ[name](marked) == self.READ[name](path)


class TestCsvModuleErrors:
    READ = {
        "matrix.csv": lambda path: load_decision_matrix(path, sample_hierarchy()),
        "ranking.csv": load_ranking_file,
        "pairwise.csv": load_pairwise,
        "weights.csv": load_weights,
    }

    def test_a_field_past_the_csv_field_size_limit_names_the_file_and_line(self, tmp_path):
        inputs = write_long_field_inputs(tmp_path)
        assert set(inputs) == set(self.READ)
        for name, (path, line) in inputs.items():
            message = f"{path}: line {line}: field larger than field limit ({csv.field_size_limit()})"
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                self.READ[name](path)


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


#: one kind of cell per column: the exact-type columns the writer renders by value, and the rest
csv_column_kinds = st.sampled_from(
    [
        csv_text,  # exact str, quoting and "" included
        st.text(alphabet="abG+_. 12", max_size=4),  # exact str that needs no quoting, "" aside
        st.integers(min_value=-(10**20), max_value=10**20),
        st.booleans(),
        st.one_of(st.sampled_from([-0.0, 0.0, math.nan]), st.floats(allow_nan=True, allow_infinity=True)),
        st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
        st.sampled_from([1, 1.0, True]),
    ]
)


@st.composite
def typed_table(draw):
    kinds = draw(st.lists(csv_column_kinds, min_size=1, max_size=4))
    n = draw(st.integers(0, 9))
    columns = [draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds]
    fieldnames = [f"c{i}" for i in range(len(kinds))]
    return [dict(zip(fieldnames, row)) for row in zip(*columns)], fieldnames


class TestRecordsToCsv:
    @settings(max_examples=400, deadline=None)
    @given(typed_table(), st.sampled_from([1, 2, 3, sspahp_io._BLOCK_ROWS]))
    @example(([{"a": ""}, {"a": "x"}, {"a": ""}], ["a"]), 2)
    @example(([{"a": "", "b": 1}, {"a": 'q"', "b": 2}], ["a", "b"]), 1)
    @example(([{"a": 1}, {"a": 1.0}, {"a": True}, {"a": 1}], ["a"]), 3)
    def test_typed_columns_match_the_dictwriter_oracle(self, table, block_rows):
        records, fieldnames = table
        with mock.patch.object(sspahp_io, "_BLOCK_ROWS", block_rows):
            assert records_to_csv(records, fieldnames) == records_to_csv_oracle(records, fieldnames)

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    @pytest.mark.parametrize(
        "column",
        [
            [0.0, -0.0, 0.0, math.nan, -0.0, math.nan, 0.5, 0.5],
            [-0.0, 0.0, -0.0, float("nan"), float("nan"), 0.0, 2.5, -0.0],
            [0.5, 0.5, -0.0, 0.0, math.nan, math.nan, -0.0, -0.0, 0.0],
        ],
    )
    def test_a_float_column_with_repeats_zeros_of_both_signs_and_nan_matches_the_oracle(self, column, block_rows):
        # equal values share one text, but 0.0 == -0.0 and each keeps its own sign
        tables = [([{"u": u} for u in column], ["u"]), ([{"u": u, "i": i} for i, u in enumerate(column)], ["u", "i"])]
        with mock.patch.object(sspahp_io, "_BLOCK_ROWS", block_rows):
            for records, fieldnames in tables:
                assert records_to_csv(records, fieldnames) == records_to_csv_oracle(records, fieldnames)

    def test_a_bad_record_in_a_later_block_is_named_by_its_index(self):
        records = [{"a": 1, "b": 2}] * 5 + [{"a": 1}]
        with mock.patch.object(sspahp_io, "_BLOCK_ROWS", 2):
            with pytest.raises(ValueError, match=r"^record 5 has keys \['a'\]"):
                records_to_csv(records, ["a", "b"])

    def test_a_wrong_key_in_a_later_block_is_named_by_its_index(self):
        # the right number of keys, so only rendering the later block finds it
        records = [{"a": 1, "b": 2}] * 5 + [{"a": 1, "c": 2}]
        with mock.patch.object(sspahp_io, "_BLOCK_ROWS", 2):
            with pytest.raises(ValueError, match=r"^record 5 .*: missing \['b'\], extra \['c'\]"):
                records_to_csv(records, ["a", "b"])

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

    def test_texts_cached_across_blocks_match_the_oracle(self):
        # a str column that needs quoting only in a later block, an int column
        # that turns str, and more distinct values than a block holds
        label = ["a", "b", "a", "a", "c,d", "a", "c,d", "e", "f", "c,d", "", "g"]
        count = [1, 2, 1, 1, 3, 4, 5, 6, "1", "2", "x", "1"]
        records = [{"label": a, "count": c} for a, c in zip(label, count)]
        for block_rows in (1, 2, 3, 5):
            with mock.patch.object(sspahp_io, "_BLOCK_ROWS", block_rows):
                assert records_to_csv(records, ["label", "count"]) == records_to_csv_oracle(records, ["label", "count"])

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

    def test_records_with_a_carriage_return_in_an_id_read_back(self, tmp_path):
        records = [{"alternative": "x\ry", "rank": 1}, {"alternative": "b", "rank": 2}]
        path = tmp_path / "plain.csv"
        path.write_text(records_to_csv(records, ["alternative", "rank"]), encoding="utf-8", newline="")
        assert load_ranking_file(path) == ("simple", {"x\ry": 1.0, "b": 2.0})

    def test_a_sweep_with_a_carriage_return_in_an_id_reads_back(self, tmp_path):
        h = sample_hierarchy()
        sample = sample_matrix(m=5, seed=2, hierarchy=h)
        ids = ("A\r01", *sample.alternative_ids[1:])
        matrix = DecisionMatrix(ids, sample.criterion_ids, sample.values, sample.objectives)
        result = run_sweep(SweepSpec(matrix=matrix, hierarchy=h, weights=critic_weights(matrix)))
        path = tmp_path / "sweep.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            result.write_csv(fh)
        assert load_ranking_file(path) == ("sweep", {
            subset_label(sub): dict(zip(ids, ranks.astype(float).tolist()))
            for sub, ranks in result.final_rankings().items()
        })

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
        "text, message",
        [
            ("alternative,rank\na,1\nb,nan\n", "rank cell 'nan' not finite at row 2, column 2"),
            ("rank,alternative\n-inf,a\n", "rank cell '-inf' not finite at row 1, column 1"),
            ("subset,s,alternative,rank\nG1,0,a1,1\nG1,1,a1,inf\n", "rank cell 'inf' not finite at row 2, column 4"),
            # first seen on a late row, past blank rows that are not counted
            ("subset,s,alternative,rank\nG1,0,a1,1\n\nG1,1,a1,2\n , \nG2,1,a1, NaN \nG2,1,a2,1\n", "rank cell ' NaN ' not finite at row 3, column 4"),
        ],
        ids=["plain", "plain-first-row", "sweep", "sweep-late-row"],
    )
    def test_a_rank_that_is_not_finite_names_the_row_and_column(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: {re.escape(message)}$"):
            load_ranking_file(path)

    def test_blank_rows_anywhere_are_skipped_and_not_counted(self, tmp_path):
        blanks = ["", "   ", " , ,\t, ", ",,,,,", "\t"]
        lines = ["subset,s,alternative,rank", "G1,0,a1,2", "G1,1,a1,1", "G1,1,a2,2"]
        path = tmp_path / "sweep.csv"
        # before the header, between rows and at the end
        path.write_text("\n".join(blanks + [lines[0], blanks[2], *lines[1:3], blanks[3], lines[3], blanks[4]]) + "\n")
        assert load_ranking_file(path) == ("sweep", {"G1": {"a1": 1.0, "a2": 2.0}})
        path.write_text("\n".join(blanks + [lines[0], blanks[2], *lines[1:3], blanks[3], "G1,x,a2,2"]) + "\n")
        with pytest.raises(InputError, match=r"non-numeric s cell 'x' at row 3, column 2$"):
            load_ranking_file(path)

    def test_peak_memory_does_not_grow_with_the_grid(self, tmp_path):
        """Only each subset's pairs at its deepest s are kept, so a finer grid costs no memory.

        The bound is about twice the peak of a reader that tests every row for
        blankness with a join (114 KB traced at step 0.01, 90 KB at 0.05); a
        reader that keeps every row, like the oracle, holds megabytes.
        """
        h = sample_hierarchy()
        matrix = sample_matrix(m=16, seed=1, hierarchy=h)
        weights = critic_weights(matrix)
        peaks = {}
        for step in (0.05, 0.01):
            result = run_sweep(SweepSpec(matrix=matrix, hierarchy=h, weights=weights, s_grid=default_s_grid(step)))
            path = tmp_path / f"sweep_{step}.csv"
            with path.open("w", encoding="utf-8") as fh:
                result.write_csv(fh)
            assert path.read_text(encoding="utf-8").count("\n") == 1 + 32 * len(result.s_grid) * 16
            peaks[step] = traced_peak(load_ranking_file, path)
            assert traced_peak(load_ranking_file_oracle, path) > 1 << 20
        assert max(peaks.values()) < 256 << 10
        assert peaks[0.01] - peaks[0.05] < 64 << 10

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

    @pytest.mark.parametrize(
        "late, message",
        [
            ("G2,half,a1,1", r"non-numeric s cell 'half' at row 5, column 2"),
            ("G2,1.5,a1,1", r"s cell '1\.5' outside \[0, 1\] at row 5, column 2"),
            ("G2,2,a1,1", r"s cell '2' outside \[0, 1\] at row 5, column 2"),  # '2' is a good rank text above
            ("G2,nan,a1,1", r"s cell 'nan' outside \[0, 1\] at row 5, column 2"),
            ("G2,0,a1,2nd", r"non-numeric rank cell '2nd' at row 5, column 4"),
            ("G2,0,a1", r"row 5 has 3 cells, no column 4 \(rank\)"),
            ("G2,0", r"row 5 has 2 cells, no column 3 \(alternative\)"),
        ],
    )
    def test_a_bad_cell_first_seen_on_a_late_row_is_named(self, tmp_path, late, message):
        path = tmp_path / "bad.csv"
        path.write_text("subset,s,alternative,rank\nG1,0,a1,1\nG1,0,a2,2\nG1,1,a1,2\nG1,1,a2,1\n" + late + "\nG2,1,a2,1\n")
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: {message}$"):
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

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
    @pytest.mark.parametrize(
        "text, message",
        [
            ("alternative,rank\na,1\nb,2\na,1\n", "alternative 'a' repeated at rows 1 and 3"),
            (
                "subset,s,alternative,rank\nG1,0,a1,1\nG1,0,a1,2\nG1,1,a1,1\nG1,0,a2,2\nG1,1,a1,2\n",
                "alternative 'a1' repeated in subset G1 at rows 3 and 5",
            ),
        ],
        ids=["plain", "sweep"],
    )
    def test_a_repeat_read_from_a_pipe_is_named(self, text, message):
        """A pipe can be read once, so the repeat is named from the one pass over it."""
        read, write = os.pipe()
        with os.fdopen(read, "rb"):
            with os.fdopen(write, "wb") as fh:
                fh.write(text.encode())
            path = f"/dev/fd/{read}"
            with pytest.raises(InputError, match=f"^{re.escape(path)}: {re.escape(message)}$"):
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


#: finite number cells in the forms of a float repr and an int
_FINITE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["+1.5E3", ".5", "5.", "-0", "1e-320", "007"]),
)
#: cells that are non-finite, need Python's float() or the fraction parser, or are refused
_ODD_CELLS = st.one_of(
    st.sampled_from(["1e400", "-1e400", "nan", "-NaN", "inf", "-Infinity", "1_0", "1__0", "1/4", "3/8"]),
    st.sampled_from(["1/0", "0x10", "one", "", "1 2", "1e", "--1", "1\x00"]),
    st.sampled_from(["\uff11", "\u0663.5", "\u00b2", "1\u2009000"]),  # float() reads the first two, numpy none
)
_ASCII_SPACE = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f"])
_ANY_SPACE = st.one_of(_ASCII_SPACE, st.sampled_from(["\u00a0", "\u2003", "\u3000", "\u0085"]))
_TWO_CRITERIA = CriteriaHierarchy((Dimension("G1", "g", (SubDimension("sd", ("C1", "C2")),)),), {"C1": "max", "C2": "max"})


@st.composite
def matrix_text(draw):
    """A hierarchy of one to three criteria and the text of a matrix file for it, plain or not.

    A plain draw keeps to what the numpy path reads: no quote, LF or CRLF
    endings and no blank row, with ids that may hold non-ASCII letters and
    cells that may carry Unicode whitespace. Any other draw may add a
    byte-order mark, lone CR endings, blank rows, ragged rows and ids that
    are quoted or hold a comma, a CRLF or a ``#``.
    """
    plain = draw(st.booleans())
    n = draw(st.integers(1, 3))
    criteria = [f"C{j + 1}" for j in range(n)]
    hierarchy = CriteriaHierarchy((Dimension("G1", "g", (SubDimension("sd", tuple(criteria)),)),), dict.fromkeys(criteria, "max"))
    id_alphabet = "ab1 #-_.\u00e9\u010c\u4e2d" + ("" if plain else ',"\r\n')
    header = ["alternative", *draw(st.permutations(criteria))]
    if draw(st.integers(0, 9)) == 0:
        header[draw(st.integers(0, n))] = draw(st.sampled_from(["name", "C9", "C1", ""]))
    rows = [[draw(_ANY_SPACE) + cell + draw(_ANY_SPACE) for cell in header]]
    for _ in range(draw(st.integers(0, 4))):
        alt = draw(st.text(alphabet=id_alphabet, max_size=4))
        cells = [draw(_ANY_SPACE) + draw(_FINITE_CELLS) + draw(_ANY_SPACE) for _ in criteria]
        if draw(st.integers(0, 3)) == 0:
            cells[draw(st.integers(0, n - 1))] = draw(_ODD_CELLS)
        if not plain and draw(st.integers(0, 4)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else [*cells, "1"]
        rows.append([alt, *cells])
    out = io.StringIO()
    quoting = csv.QUOTE_MINIMAL if plain or draw(st.booleans()) else csv.QUOTE_NONNUMERIC
    csv.writer(out, lineterminator="\n", quoting=quoting).writerows(rows)
    lines = out.getvalue().split("\n")[:-1]
    if not plain:
        for at in draw(st.lists(st.integers(0, len(lines)), max_size=2)):
            lines.insert(at, draw(st.sampled_from(["", " ", " , ", "\t,,"])))
    ending = draw(st.sampled_from(["\n", "\r\n"] if plain else ["\n", "\r\n", "\r"]))
    text = ending.join(lines) + (ending if draw(st.booleans()) else "")
    bom = not plain and draw(st.booleans())
    return hierarchy, "\ufeff" * bom + text


def matrix_outcome(path, hierarchy):
    """The ids, criterion ids and value bytes a matrix file loads as, or the error it raises."""
    try:
        m = load_decision_matrix(path, hierarchy)
    except (InputError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    return m.alternative_ids, m.criterion_ids, m.values.tobytes()


class TestPlainMatrixPath:
    @settings(max_examples=600, deadline=None)
    @given(matrix_text())
    @example((_TWO_CRITERIA, "alternative,C1,C2\n#a,1e400,1_0\nb,2,3"))
    @example((_TWO_CRITERIA, "alternative,C1,C2\r\n"))
    @example((_TWO_CRITERIA, "alternative,C1\r,C2\na,1,2\nb,3,4\n"))  # a lone CR ends a csv row, header too
    @example((_TWO_CRITERIA, "alternative,C1,C2\na\x00,1,2\nb,3,4\n"))  # csv before Python 3.11 refuses a NUL
    @example((_TWO_CRITERIA, f"alternative,C1,C2\n{'a' * 131_073},1,2\nb,3,4\n"))  # past csv's field size limit
    @example((_TWO_CRITERIA, '\ufeffalternative,C1,C2\r\n"a,\r\nb",1,2\r\n\r\n\u00e9,\u2003nan,3\r\n'))
    @example((_TWO_CRITERIA, "alternative,C1,C2\n\u010cesko,1,2\n\u00d6sterreich,3,4\n\u00cdsland,5,6\n"))
    @example((_TWO_CRITERIA, "alternative,C1,C2\n\u010cesko,\uff11,2\nb,3,4\n"))  # fullwidth 1: float() reads it, numpy does not
    @example((_TWO_CRITERIA, "alternative,C1,C2\na,1,\u0663\n\u00cdsland,3,4\n"))  # Arabic-Indic 3
    @example((_TWO_CRITERIA, "alternative,C1,C2\na,\u00b2,2\nb,3,4\n"))  # superscript 2: refused by both
    @example((_TWO_CRITERIA, "alternative,C1,C2\na,\u00a01\u00a0,2\n\u00d6sterreich,3,\u30004\u3000\n"))  # NBSP, U+3000
    def test_the_numpy_path_reads_what_the_csv_path_reads(self, tmp_path_factory, case):
        hierarchy, text = case
        path = tmp_path_factory.mktemp("matrix") / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(sspahp_io, "_plain_table", return_value=None):
            want = matrix_outcome(path, hierarchy)
        assert matrix_outcome(path, hierarchy) == want

    def test_a_plain_file_is_read_without_the_csv_reader(self, tmp_path):
        h = small_hierarchy_file(tmp_path, n=3)
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text("alternative,C3,C1,C2\r\n#a1, 1.5 ,2,-0.0\r\na2,1e3,4,5\r\n")
        quoted.write_text('alternative,C3,C1,C2\r\n"#a1", 1.5 ,2,-0.0\r\na2,1e3,4,5\r\n')
        want = load_decision_matrix(quoted, h)
        with mock.patch.object(sspahp_io.csv, "reader", side_effect=AssertionError("csv.reader called")):
            got = load_decision_matrix(plain, h)
            with pytest.raises(AssertionError, match="csv.reader called"):
                load_decision_matrix(quoted, h)
        assert got.alternative_ids == want.alternative_ids == ("#a1", "a2")
        assert got.values.tobytes() == want.values.tobytes()

    def test_a_plain_file_with_non_ascii_ids_is_read_without_the_csv_reader(self, tmp_path):
        h = small_hierarchy_file(tmp_path, n=2)
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text("alternative,C2,C1\n\u010cesko,1.5,2\n\u00d6sterreich,3,-4e2\n \u00cdsland ,0.25,7\n", encoding="utf-8")
        quoted.write_text('alternative,C2,C1\n"\u010cesko",1.5,2\n\u00d6sterreich,3,-4e2\n \u00cdsland ,0.25,7\n', encoding="utf-8")
        want = load_decision_matrix(quoted, h)
        with mock.patch.object(sspahp_io.csv, "reader", side_effect=AssertionError("csv.reader called")):
            got = load_decision_matrix(plain, h)
        assert got.alternative_ids == want.alternative_ids == ("\u010cesko", "\u00d6sterreich", "\u00cdsland")
        assert got.values.tobytes() == want.values.tobytes()


@st.composite
def decision_matrix(draw):
    """A hierarchy of one to four criteria and a matrix bound to it, with finite cells of any magnitude or sign."""
    n = draw(st.integers(1, 4))
    criteria = tuple(f"C{j + 1}" for j in range(n))
    objectives = {c: draw(st.sampled_from(["max", "min"])) for c in criteria}
    hierarchy = CriteriaHierarchy((Dimension("G1", "g", (SubDimension("sd", criteria),)),), objectives)
    alternative = st.text(alphabet='ab ,"1-', min_size=1, max_size=4).filter(lambda a: a == a.strip())
    ids = draw(st.lists(alternative, min_size=2, max_size=6, unique=True))
    cell = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=len(ids), max_size=len(ids)))
    return hierarchy, DecisionMatrix(ids, criteria, np.array(values), [objectives[c] for c in criteria])


@st.composite
def pairwise_file(draw):
    """The rows of a pairwise CSV over a reciprocal matrix of 1..9 judgments, its values and its labels.

    The header is absent, has a corner cell or lists only the labels; a row
    carries its label or not, except that the first row is labelled when the
    header has a corner cell. Without a header, rows that all carry a label
    are labelled by it.
    """
    n = draw(st.integers(1, 5))
    texts, values = [["1"] * n for _ in range(n)], np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            judgment = draw(st.integers(1, 9))
            a, b = (i, j) if draw(st.booleans()) else (j, i)
            texts[a][b], texts[b][a] = str(judgment), f"1/{judgment}"
            values[a, b], values[b, a] = judgment, 1 / judgment
    header = draw(st.sampled_from(["none", "corner", "cornerless"]))
    labels = draw(st.lists(st.sampled_from(["G1", "G2", "Equity", "quality", "a,b", "x y"]), min_size=n, max_size=n, unique=True))
    labelled = [header == "corner" or draw(st.booleans()), *(draw(st.booleans()) for _ in range(n - 1))]
    rows = [[label, *row] if lab else row for label, row, lab in zip(labels, texts, labelled)]
    if header == "none":
        return rows, values, tuple(labels) if all(labelled) else None
    head = [draw(st.sampled_from(["", "item"])), *labels] if header == "corner" else labels
    return [head, *rows], values, tuple(labels)


#: ids that are empty or need quoting, and any finite float, with -0.0 and subnormals drawn often
_AWKWARD_IDS = st.text(alphabet='a ,"\r\n', max_size=3)
_ANY_CELL = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, -1e-310])


@st.composite
def any_matrix(draw):
    """A valid matrix of two to five alternatives and one to three criteria, with awkward distinct ids."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    criteria = draw(st.lists(_AWKWARD_IDS, min_size=n, max_size=n, unique=True))
    ids = draw(st.lists(_AWKWARD_IDS, min_size=m, max_size=m, unique=True))
    values = draw(st.lists(st.lists(_ANY_CELL, min_size=n, max_size=n), min_size=m, max_size=m))
    return DecisionMatrix(ids, criteria, np.array(values, dtype=float).reshape(m, n), ["max"] * n)


class TestWriteMatrixCsv:
    @settings(max_examples=300, deadline=None)
    @given(any_matrix())
    @example(
        DecisionMatrix(
            ["", 'a"b', "c,d", "e\nf", "g\rh"],
            ["", "C,1"],
            [[-0.0, 0.0], [-1e308, 1e308], [-5e-324, 5e-324], [1e-310, 0.1], [1e308, -2.5]],
            ["max"] * 2,
        )
    )
    def test_writes_the_bytes_of_one_csv_writer_row_per_alternative(self, tmp_path_factory, matrix):
        directory = tmp_path_factory.mktemp("written")
        write_matrix_csv(matrix, directory / "fast.csv")
        write_matrix_csv_oracle(matrix, directory / "oracle.csv")
        assert (directory / "fast.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(decision_matrix(), st.booleans(), st.lists(st.integers(0, 8), max_size=3))
    def test_a_written_matrix_reads_back_bit_for_bit(self, tmp_path_factory, case, bom, blank_at):
        hierarchy, matrix = case
        path = tmp_path_factory.mktemp("matrix") / "m.csv"
        write_matrix_csv(matrix, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for k, at in enumerate(sorted(blank_at, reverse=True)):
            lines.insert(min(at, len(lines)), ["\n", "   \r\n", " , ,\t\n"][k % 3])
        path.write_bytes(b"\xef\xbb\xbf" * bom + "".join(lines).encode("utf-8"))
        back = load_decision_matrix(path, hierarchy)
        assert back.alternative_ids == matrix.alternative_ids
        assert back.values.tobytes() == matrix.values.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(pairwise_file())
    def test_a_written_pairwise_file_reads_back_its_values_and_labels(self, tmp_path_factory, case):
        rows, values, labels = case
        path = tmp_path_factory.mktemp("pairwise") / "p.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        pm = load_pairwise(path)
        assert pm.labels == labels
        assert pm.values.tobytes() == values.tobytes()
