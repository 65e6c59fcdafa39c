"""File ingestion and export.

Formats:

* decision matrix: UTF-8 CSV, first header ``alternative``, remaining
  headers are criterion ids, numeric cells with a plain decimal point;
* criteria hierarchy: JSON with dimensions -> sub_dimensions -> criteria,
  objectives restricted to the tokens "max" and "min";
* pairwise judgments: square numeric CSV, header row optional, entries as
  decimals or simple fractions like ``1/3``;
* weights: two-column CSV (criterion_id, weight);
* ranking: CSV with ``alternative`` and ``rank`` columns, or a sweep export
  that adds ``subset`` and ``s``; every ``s`` and ``rank`` cell must be a
  number.

``records_to_csv`` writes a header of ``fieldnames`` and one row per record;
every record must carry exactly those keys, and floats keep full precision
(``repr``).
"""

from __future__ import annotations

import csv
import io as _io
import json
import operator
from pathlib import Path

import numpy as np

from .core import (
    CriteriaHierarchy,
    DecisionMatrix,
    Dimension,
    OBJECTIVE_TOKENS,
    SubDimension,
    WeightVector,
    flatten_hierarchy,
    require_valid,
)
from .errors import InputError
from .weighting import PairwiseMatrix


def _iter_rows(path):
    """Stream the non-blank CSV rows of a file, header first."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = (row for row in csv.reader(fh) if "".join(row).strip())
        header = next(rows, None)
        if header is None:
            raise InputError(f"empty file: {path}")
        yield header
        yield from rows


def _read_rows(path) -> list[list[str]]:
    return list(_iter_rows(path))


def _parse_number(token: str, where: str) -> float:
    token = token.strip()
    try:
        return float(token)
    except ValueError:
        pass
    if "/" in token:
        num, _, den = token.partition("/")
        try:
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"non-numeric cell '{token}' at {where}")


def load_hierarchy(path) -> CriteriaHierarchy:
    """Read a criteria hierarchy with objectives from JSON."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc

    if not isinstance(doc, dict) or "dimensions" not in doc:
        raise InputError(f"{path}: expected an object with a 'dimensions' list")

    dimensions = []
    objectives: dict[str, str] = {}
    for d in doc["dimensions"]:
        try:
            dim_id = d["id"]
            dim_name = d.get("name", dim_id)
            subs_doc = d["sub_dimensions"]
        except (TypeError, KeyError) as exc:
            raise InputError(f"{path}: dimension entry missing {exc}") from exc
        subs = []
        for sd in subs_doc:
            try:
                sub_name = sd["name"]
                crits = sd["criteria"]
            except (TypeError, KeyError) as exc:
                raise InputError(
                    f"{path}: sub-dimension entry of '{dim_id}' missing {exc}"
                ) from exc
            cids = []
            for c in crits:
                try:
                    cid = c["id"]
                    obj = c["objective"]
                except (TypeError, KeyError) as exc:
                    raise InputError(
                        f"{path}: criterion entry under '{sub_name}' missing {exc}"
                    ) from exc
                if obj not in OBJECTIVE_TOKENS:
                    raise InputError(
                        f"{path}: unknown objective token '{obj}' for criterion "
                        f"'{cid}' (expected 'max' or 'min')"
                    )
                if cid in objectives:
                    raise InputError(f"{path}: duplicate criterion '{cid}'")
                objectives[cid] = obj
                cids.append(cid)
            subs.append(SubDimension(name=sub_name, criterion_ids=tuple(cids)))
        dimensions.append(
            Dimension(id=dim_id, name=dim_name, sub_dimensions=tuple(subs))
        )

    h = CriteriaHierarchy(dimensions=tuple(dimensions), objectives=objectives)
    flatten_hierarchy(h)  # surfaces duplicate dimension ids
    return h


def hierarchy_to_dict(h: CriteriaHierarchy) -> dict:
    return {
        "dimensions": [
            {
                "id": dim.id,
                "name": dim.name,
                "sub_dimensions": [
                    {
                        "name": sub.name,
                        "criteria": [
                            {"id": cid, "objective": h.objective_for(cid)}
                            for cid in sub.criterion_ids
                        ],
                    }
                    for sub in dim.sub_dimensions
                ],
            }
            for dim in h.dimensions
        ]
    }


def write_hierarchy_json(h: CriteriaHierarchy, path) -> None:
    Path(path).write_text(
        json.dumps(hierarchy_to_dict(h), indent=2) + "\n", encoding="utf-8"
    )


def load_decision_matrix(path, hierarchy: CriteriaHierarchy) -> DecisionMatrix:
    """Read a decision matrix CSV and bind it to the hierarchy.

    The header must start with ``alternative`` followed by criterion ids.
    Columns are reordered into the hierarchy's canonical criterion order
    (matched by id, not position) and objectives are taken from the
    hierarchy. Ids unknown to the hierarchy, missing criteria, and
    malformed cells are ingestion errors naming the offending spot.
    """
    rows = _read_rows(path)
    header = [cell.strip() for cell in rows[0]]
    if not header or header[0].lower() != "alternative":
        raise InputError(
            f"{path}: first header cell must be 'alternative', got '{header[0] if header else ''}'"
        )
    file_cids = header[1:]
    if not file_cids:
        raise InputError(f"{path}: no criterion columns")
    for c, cid in enumerate(file_cids):
        if cid in file_cids[:c]:
            raise InputError(f"{path}: duplicate criterion column '{cid}'")

    canonical = hierarchy.criterion_ids()
    canonical_set, file_set = set(canonical), set(file_cids)
    unknown = [c for c in file_cids if c not in canonical_set]
    if unknown:
        raise InputError(
            f"{path}: criterion id(s) not in the hierarchy: {', '.join(unknown)}"
        )
    missing = [c for c in canonical if c not in file_set]
    if missing:
        raise InputError(
            f"{path}: hierarchy criteria missing from the file: {', '.join(missing)}"
        )

    alt_ids = []
    data = []
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise InputError(
                f"{path}: row {r} has {len(row)} cells, expected {len(header)}"
            )
        alt_ids.append(row[0].strip())
        try:
            data.append(list(map(float, row[1:])))
        except ValueError:  # fractions, or a cell to report
            data.append(
                [
                    _parse_number(cell, f"row {r}, column {c}")
                    for c, cell in enumerate(row[1:], start=1)
                ]
            )

    values = np.asarray(data, dtype=float)
    order = [file_cids.index(c) for c in canonical]
    matrix = DecisionMatrix(
        alternative_ids=tuple(alt_ids),
        criterion_ids=canonical,
        values=values[:, order],
        objectives=tuple(hierarchy.objective_for(c) for c in canonical),
    )
    require_valid(matrix)
    return matrix


def write_matrix_csv(matrix: DecisionMatrix, path) -> None:
    """Write a matrix back out; values keep full precision for round-trips."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alternative", *matrix.criterion_ids])
        for i, alt in enumerate(matrix.alternative_ids):
            writer.writerow([alt, *(repr(v) for v in matrix.values[i].tolist())])


def load_pairwise(path) -> PairwiseMatrix:
    """Read a square pairwise judgment matrix from CSV.

    A non-numeric first row is treated as labels; a leading label column
    matching the header is stripped. Fractions like ``1/5`` are accepted
    alongside decimals.
    """
    rows = _read_rows(path)

    def is_numeric(cell: str) -> bool:
        try:
            _parse_number(cell, "")
            return True
        except InputError:
            return False

    labels = None
    if not all(is_numeric(c) for c in rows[0]):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise InputError(f"{path}: header without data")
        # header may carry a corner cell for the label column
        labels = tuple(header[1:]) if not is_numeric(rows[0][0]) else tuple(header)

    body = []
    for r, row in enumerate(rows, start=1):
        cells = [c.strip() for c in row]
        if cells and not is_numeric(cells[0]):
            cells = cells[1:]  # leading label column
        body.append(
            [
                _parse_number(cell, f"row {r}, column {c}")
                for c, cell in enumerate(cells, start=1)
            ]
        )

    arr = np.asarray(body, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"{path}: expected a square matrix, got {arr.shape}")
    if labels is not None and len(labels) != arr.shape[0]:
        raise InputError(
            f"{path}: {len(labels)} labels for a {arr.shape[0]}x{arr.shape[0]} matrix"
        )
    return PairwiseMatrix(arr, labels=labels)


def load_pairwise_batch(directory) -> list[PairwiseMatrix]:
    """Read every ``*.csv`` in a directory, sorted by name for determinism."""
    directory = Path(directory)
    if not directory.is_dir():
        raise InputError(f"not a directory: {directory}")
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise InputError(f"no .csv files in {directory}")
    return [load_pairwise(p) for p in paths]


def load_weights(path, hierarchy: CriteriaHierarchy | None = None) -> WeightVector:
    """Read criterion weights from a two-column CSV.

    With a hierarchy, ids are validated against it and reordered into
    canonical order.
    """
    rows = _read_rows(path)
    if [c.strip().lower() for c in rows[0][:2]] == ["criterion_id", "weight"]:
        rows = rows[1:]
    ids = []
    weights = []
    for r, row in enumerate(rows, start=1):
        if len(row) < 2:
            raise InputError(f"{path}: row {r} needs criterion_id and weight")
        ids.append(row[0].strip())
        weights.append(_parse_number(row[1], f"row {r}, column 2"))
    try:
        wv = WeightVector(np.asarray(weights), tuple(ids))
        if hierarchy is not None:
            canonical = hierarchy.criterion_ids()
            wv = WeightVector(wv.aligned(canonical), canonical)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return wv


def load_bounds(path, hierarchy: CriteriaHierarchy) -> np.ndarray:
    """Read per-criterion [min, max] bounds from a CSV (criterion_id,min,max)."""
    rows = _read_rows(path)
    if [c.strip().lower() for c in rows[0][:3]] == ["criterion_id", "min", "max"]:
        rows = rows[1:]
    by_id = {}
    for r, row in enumerate(rows, start=1):
        if len(row) < 3:
            raise InputError(f"{path}: row {r} needs criterion_id, min, max")
        by_id[row[0].strip()] = (
            _parse_number(row[1], f"row {r}, column 2"),
            _parse_number(row[2], f"row {r}, column 3"),
        )
    canonical = hierarchy.criterion_ids()
    missing = [c for c in canonical if c not in by_id]
    if missing:
        raise InputError(f"{path}: bounds missing for: {', '.join(missing)}")
    return np.array([by_id[c] for c in canonical], dtype=float)


_SWEEP_COLUMNS = ("subset", "s", "alternative", "rank")
_PLAIN_COLUMNS = ("alternative", "rank")


def _bad_ranking_row(path, r, row, header, columns) -> InputError:
    """Name the first missing column or non-numeric s/rank cell of a data row."""
    for name in columns:
        c = header.index(name)
        if c >= len(row):
            return InputError(
                f"{path}: row {r} has {len(row)} cells, no column {c + 1} ({name})"
            )
        if name in ("s", "rank"):
            try:
                float(row[c])
            except ValueError:
                return InputError(
                    f"{path}: non-numeric {name} cell '{row[c]}' at row {r}, column {c + 1}"
                )
    raise AssertionError(f"{path}: row {r} has every column and numeric cells")


def load_ranking_file(path):
    """Read a ranking CSV: plain (alternative, rank) or a sweep export.

    Returns ("simple", {alternative: rank}) for plain files and
    ("sweep", {subset_label: {alternative: rank}}) for sweep exports, where
    each subset's ranking is taken at its deepest grid point (its largest
    ``s``; an ``s`` below -1 or NaN never counts) and subsets appear in the
    order of their first row at that point. The file is read in one pass;
    a short row or a non-numeric ``s`` or ``rank`` cell raises InputError
    naming the row (data rows counted from 1, blank lines skipped) and the
    column.
    """
    rows = _iter_rows(path)
    header = [c.strip().lower() for c in next(rows)]
    if set(_SWEEP_COLUMNS).issubset(header):
        columns = _SWEEP_COLUMNS
    elif set(_PLAIN_COLUMNS).issubset(header):
        columns = _PLAIN_COLUMNS
    else:
        raise InputError(f"{path}: expected (alternative, rank) columns or a sweep export")

    ai, ri = header.index("alternative"), header.index("rank")
    r, row = 0, None
    try:
        if columns is _PLAIN_COLUMNS:
            plain = {}
            for r, row in enumerate(rows, start=1):
                plain[row[ai]] = float(row[ri])
            return "simple", plain

        si, gi = header.index("subset"), header.index("s")
        deepest: dict[str, tuple] = {}  # subset -> (deepest s, its first row, {alternative: rank})
        for r, row in enumerate(rows, start=1):
            s, rank = float(row[gi]), float(row[ri])
            entry = deepest.get(row[si])
            if entry is None or s > entry[0]:
                if s >= -1.0:
                    deepest[row[si]] = (s, r, {row[ai]: rank})
            elif s == entry[0]:
                entry[2][row[ai]] = rank
    except UnicodeDecodeError:  # an unreadable file, not a bad cell
        raise
    except (ValueError, IndexError):
        raise _bad_ranking_row(path, r, row, header, columns) from None
    ordered = sorted(deepest.items(), key=lambda item: item[1][1])
    return "sweep", {sub: entry[2] for sub, entry in ordered}


def _key_mismatch(records, fieldnames) -> ValueError:
    expected = set(fieldnames)
    i, keys = next((i, rec.keys()) for i, rec in enumerate(records) if rec.keys() != expected)
    return ValueError(
        f"record {i} has keys {list(keys)}, expected {list(fieldnames)}: "
        f"missing {[k for k in fieldnames if k not in keys]}, "
        f"extra {[k for k in keys if k not in expected]}"
    )


def records_to_csv(records: list[dict], fieldnames: list[str]) -> str:
    """Serialize records to CSV text; floats keep full precision.

    The header is ``fieldnames``; each record becomes one row in that
    column order. Every record must carry exactly the keys in
    ``fieldnames``: a missing or an extra key raises ValueError naming the
    record's index and the keys.
    """
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    if len(fieldnames) > 1:
        row_of = operator.itemgetter(*fieldnames)
    else:  # itemgetter of one key returns the bare value, of none raises
        row_of = lambda rec: [rec[k] for k in fieldnames]  # noqa: E731
    # with every field present, a record of the right size has no extra key
    if set(map(len, records)) - {len(set(fieldnames))}:
        raise _key_mismatch(records, fieldnames)
    try:
        writer.writerows(map(row_of, records))
    except KeyError:
        raise _key_mismatch(records, fieldnames) from None
    return buf.getvalue()


def records_to_json(payload) -> str:
    """Serialize a payload to stable, indented JSON text."""
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
