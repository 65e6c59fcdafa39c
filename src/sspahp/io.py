"""File ingestion and export.

Formats:

* decision matrix: UTF-8 CSV, first header ``alternative``, then one
  column per hierarchy criterion id; numeric cells as decimals or fractions
  like ``1/4``;
* criteria hierarchy: JSON lists of dimensions -> sub_dimensions -> criteria
  with string ids and names, objectives restricted to "max" and "min";
* pairwise judgments: square numeric CSV (each row as wide as the matrix is
  tall), header row optional, entries as decimals or fractions like ``1/3``;
  the first row is the header when a cell after its first is not a number;
  the header's first cell is a label column's corner cell only when the first
  data row is labelled and the header is one cell wider than the matrix;
  without a header, rows that all carry a label are labelled by it;
* weights (criterion_id, weight) and bounds (criterion_id, min, max): CSV,
  header row optional; bounds need exactly one row per hierarchy criterion;
* ranking: CSV with ``alternative`` and ``rank`` columns, or a sweep export
  that adds ``subset`` and ``s``; every ``s`` and ``rank`` cell must be a
  number, every ``s`` must lie in [0, 1] and every ``rank`` must be finite;
  an alternative may not repeat in a plain file, nor within a subset at its
  deepest ``s``.

Every input is read as UTF-8, with a leading byte-order mark skipped. Every
CSV reader skips a blank row (every cell empty or whitespace) wherever it
sits, the header is the first non-blank row, and data rows are counted from
1 without the blank ones. The matrix, pairwise, weights and bounds readers
check every row's shape before any cell, then name a non-numeric, NaN or
infinite cell by its row and column: the number columns after the label in
a matrix or pairwise file, the file's columns otherwise. An error of the csv
module itself, such as a field past ``csv.field_size_limit()``, is an
InputError naming the file and line, so the CLI exits 2 on it.

A plain matrix file (no quote, NUL, blank row, lone ``\\r`` or line past
csv's field size limit; the header's comma count on every line), whatever
letters its ids hold, has its number cells parsed by ``np.loadtxt``; any
other file, and one with a cell numpy refuses (a non-ASCII digit among them)
or reads as NaN or infinite, by the csv reader. Both paths give the same
matrix bit for bit and the same errors.

``records_to_csv`` turns a list of records into one CSV text: a header of
``fieldnames`` and one row per record, where every record must carry
exactly those keys. Python floats are written by ``repr``, so they keep
full precision; every other cell, a float subclass such as ``np.float64``
too, is written exactly as ``csv.writer`` writes it, with the ``""`` of a
lone empty field. The CLI writes sweep exports with
``SweepResult.write_csv`` and ``write_json``, which give the same texts as
``records_to_csv`` and ``records_to_json`` and build no records.

Every CSV writer quotes by one rule, the one ``csv.writer`` follows in rows
ended by ``\\r\\n``: a field holding a comma, a quote, ``\\r`` or ``\\n`` is
quoted, whether its rows end in ``\\r\\n`` (``write_matrix_csv``) or in
``\\n`` (``records_to_csv`` and ``SweepResult.write_csv``).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .core import (
    CriteriaHierarchy,
    DecisionMatrix,
    Dimension,
    SubDimension,
    WeightVector,
)
from .errors import InputError


def _is_blank(row) -> bool:
    """Whether every cell of a CSV row is empty or whitespace."""
    return not "".join(row).strip()


@contextmanager
def _opened(path):
    """A UTF-8 file open as text, line endings kept and a leading byte-order mark skipped; InputError if unreadable."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            yield fh
    except IsADirectoryError:
        raise InputError(f"{path}: is a directory, not a file") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (cannot decode byte 0x{exc.object[exc.start]:02x})") from None


@contextmanager
def _csv_rows(path, text=None):
    """The first non-blank row of a CSV file, or of its ``text`` read already, and a ``csv.reader`` on the rest; a csv error names the file and line."""
    with _opened(path) if text is None else io.StringIO(text, newline="") as fh:
        rows = csv.reader(fh)
        try:
            header = next(itertools.filterfalse(_is_blank, rows), None)
            if header is None:
                raise InputError(f"empty file: {path}")
            yield header, rows
        except csv.Error as exc:
            raise InputError(f"{path}: line {rows.line_num}: {exc}") from None


def _read_rows(path, text=None) -> list[list[str]]:
    """The non-blank CSV rows of a file, or of its ``text`` read already, header first."""
    with _csv_rows(path, text) as (header, rows):
        return [header, *itertools.filterfalse(_is_blank, rows)]


def _parse_number(token: str, where: str) -> float:
    """A decimal or a simple fraction like ``1/3``."""
    token = token.strip()
    num, slash, den = token.partition("/")
    try:
        return float(num) / (float(den) if slash else 1.0)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{where}: non-numeric cell '{token}'") from None


def _is_number(cell: str) -> bool:
    """Whether a cell is a decimal or a simple fraction."""
    try:
        _parse_number(cell, "")
    except InputError:
        return False
    return True


def _numbers(path, rows, width, start=1) -> np.ndarray:
    """A (rows x width) array; a non-numeric or non-finite cell raises InputError naming its file, row (from 1) and column (from ``start``)."""
    try:
        values = list(map(float, itertools.chain.from_iterable(rows)))
    except ValueError:  # fractions, or a cell to report
        values = [
            _parse_number(cell, f"{path}: row {r}, column {c}")
            for r, cells in enumerate(rows, start=1)
            for c, cell in enumerate(cells, start)
        ]
    values = np.array(values, dtype=float).reshape(len(rows), width)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise InputError(f"{path}: row {r + 1}, column {c + start}: non-finite cell '{rows[r][c].strip()}'")
    return values


def _canonical_order(path, ids, canonical, kind) -> list[int]:
    """Positions in ``ids`` of the canonical criteria; a repeated, unknown or missing id raises."""
    position = {}
    for i, cid in enumerate(ids):
        if cid in position:
            raise InputError(f"{path}: duplicate criterion {kind} '{cid}'")
        position[cid] = i
    canonical_set = set(canonical)
    unknown = [c for c in ids if c not in canonical_set]
    if unknown:
        raise InputError(f"{path}: criterion id(s) not in the hierarchy: {', '.join(unknown)}")
    missing = [c for c in canonical if c not in position]
    if missing:
        raise InputError(f"{path}: hierarchy criteria missing from the file: {', '.join(missing)}")
    return [position[c] for c in canonical]


def _read_criterion_table(path, columns) -> tuple[list[str], np.ndarray]:
    """Ids and an (ids x columns) array from a ``criterion_id,<columns>`` CSV, header optional."""
    rows = _read_rows(path)
    width = 1 + len(columns)
    if [c.strip().lower() for c in rows[0][:width]] == ["criterion_id", *columns]:
        rows = rows[1:]
    for r, row in enumerate(rows, start=1):
        if len(row) < width:
            raise InputError(f"{path}: row {r} needs criterion_id, {', '.join(columns)}")
    return [row[0].strip() for row in rows], _numbers(path, [row[1:width] for row in rows], len(columns), start=2)


def _field(entry, key, kind):
    """``entry[key]``, where ``entry`` must be a JSON object and the value a ``kind``."""
    value = entry.get(key) if isinstance(entry, dict) else None
    if not isinstance(value, kind):
        raise InputError(f"expected an object whose '{key}' is a {'list' if kind is list else 'string'}")
    return value


def load_hierarchy(path) -> CriteriaHierarchy:
    """Read a criteria hierarchy with objectives from JSON.

    A malformed entry, a dimension or criterion that repeats, an objective
    other than 'max' or 'min', or a dimension or sub-dimension left empty
    raises InputError naming the file and the entry, e.g. ``dimensions[1]``.
    """
    path = Path(path)
    with _opened(path) as fh:
        text = fh.read()
    try:  # line ends folded as universal newlines fold them, so an error names the same char
        doc = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc

    if not isinstance(doc, dict) or not isinstance(doc.get("dimensions"), list):
        raise InputError(f"{path}: expected an object with a 'dimensions' list")

    dimensions = []
    objectives: dict[str, str] = {}
    try:
        for i, d in enumerate(doc["dimensions"]):
            where = f"dimensions[{i}]"
            dim_id = _field(d, "id", str)
            dim_name = _field(d, "name", str) if "name" in d else dim_id
            subs = []
            for j, sd in enumerate(_field(d, "sub_dimensions", list)):
                where = f"dimensions[{i}].sub_dimensions[{j}]"
                sub_name = _field(sd, "name", str)
                cids = []
                for k, c in enumerate(_field(sd, "criteria", list)):
                    where = f"dimensions[{i}].sub_dimensions[{j}].criteria[{k}]"
                    cid = _field(c, "id", str)
                    objectives[cid] = _field(c, "objective", str)
                    cids.append(cid)
                subs.append(SubDimension(name=sub_name, criterion_ids=tuple(cids)))
            dimensions.append(Dimension(id=dim_id, name=dim_name, sub_dimensions=tuple(subs)))
    except InputError as exc:
        raise InputError(f"{path}: {where}: {exc}") from exc
    try:
        return CriteriaHierarchy(dimensions=tuple(dimensions), objectives=objectives)
    except InputError as exc:  # a repeated or empty entry, named by its path
        raise InputError(f"{path}: {exc}") from exc


def write_hierarchy_json(h: CriteriaHierarchy, path) -> None:
    doc = {
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
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _plain_table(text: str):
    """The header cells, ids and values of a plain matrix text, as the module docstring defines it, or None."""
    text = text.replace("\r\n", "\n")
    lines = text.removesuffix("\n").split("\n")
    commas = lines[0].count(",")
    if not (commas and len(lines) > 1) or any(c in text for c in '"\0\r'):  # csv < 3.11 refuses NUL
        return None
    if {line.count(",") for line in lines} != {commas} or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        values = np.loadtxt(lines[1:], delimiter=",", usecols=range(1, commas + 1), comments=None, ndmin=2)
    except ValueError:
        return None
    return (lines[0].split(","), [line.partition(",")[0] for line in lines[1:]], values) if np.isfinite(values).all() else None


def load_decision_matrix(path, hierarchy: CriteriaHierarchy) -> DecisionMatrix:
    """Read a decision matrix CSV and bind it to the hierarchy.

    The header must start with ``alternative`` followed by criterion ids.
    Columns are reordered into the hierarchy's canonical criterion order
    (matched by id, not position) and objectives are taken from the
    hierarchy. Ids unknown to the hierarchy, missing criteria, and
    malformed cells are ingestion errors naming the offending spot.
    """
    with _opened(path) as fh:
        text = fh.read()
    plain = _plain_table(text)
    header, *rows = _read_rows(path, text) if plain is None else plain[:1]
    header = [cell.strip() for cell in header]
    if header[0].lower() != "alternative":
        raise InputError(f"{path}: first header cell must be 'alternative', got '{header[0]}'")
    canonical = hierarchy.criterion_ids()
    order = _canonical_order(path, header[1:], canonical, "column")

    for r, row in enumerate(rows, start=1):  # none on the numpy path
        if len(row) != len(header):
            raise InputError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
    _, ids, values = plain or (header, [row[0] for row in rows], _numbers(path, [row[1:] for row in rows], len(header) - 1))
    return DecisionMatrix(
        alternative_ids=tuple(alt.strip() for alt in ids),
        criterion_ids=canonical,
        values=values[:, order],
        objectives=tuple(hierarchy.objective_for(c) for c in canonical),
    )


def write_matrix_csv(matrix: DecisionMatrix, path) -> None:
    """Write a matrix back out; values keep full precision for round-trips.

    The text is what ``csv.writer`` writes for a header row of
    ``alternative`` and the criterion ids, then a row per alternative of its
    id and the ``repr`` of each value: ids quoted by the csv module's own
    rule, each value written by ``float.__repr__`` (``-0.0`` included) and
    every row ended by ``\\r\\n``.
    """
    header = _csv_texts(["alternative", *matrix.criterion_ids], lone=False)
    ids = _csv_texts(matrix.alternative_ids, lone=False)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join([alt, *map(float.__repr__, row)]) + "\r\n" for alt, row in zip(ids, matrix.values.tolist()))


def load_pairwise(path) -> PairwiseMatrix:
    """Read a square pairwise judgment matrix from CSV.

    The first row is a header of labels when a cell after its first, or its
    only cell, is not a number; a data row may start with a label. A leading
    label column is stripped, and a row's label must equal the header's
    label at the row's position; the header's first cell is a corner cell
    only when the first data row is labelled and the header is one cell
    wider than the matrix. Without a header, rows that all carry a label
    are labelled by it. Fractions like ``1/5`` are accepted alongside
    decimals. Every row must hold as many entries as there are rows; the
    other checks are ``PairwiseMatrix``'s, reported with the path.
    """
    from .weighting import PairwiseMatrix

    rows = _read_rows(path)
    labels = None
    if not all(map(_is_number, rows[0][1:] or rows[0])):
        header = [c.strip() for c in rows.pop(0)]
        if not rows:
            raise InputError(f"{path}: header without data")
        corner = not _is_number(rows[0][0]) and len(header) == len(rows) + 1
        labels = tuple(header[1:] if corner else header)

    n = len(rows)
    body, row_labels = [], []
    for r, row in enumerate(rows, start=1):
        labelled = not _is_number(row[0])
        cells = row[1:] if labelled else row  # leading label column
        if len(cells) != n:
            raise InputError(f"{path}: row {r} has {len(cells)} entries; expected a square {n}x{n} matrix")
        # a header of another length is PairwiseMatrix's error
        if labelled and labels is not None and len(labels) == n and row[0].strip() != labels[r - 1]:
            raise InputError(
                f"{path}: row {r} is labelled '{row[0].strip()}', but the header's label at its position is '{labels[r - 1]}'"
            )
        if labelled:
            row_labels.append(row[0].strip())
        body.append(cells)
    if labels is None and len(row_labels) == n:
        labels = tuple(row_labels)
    try:
        return PairwiseMatrix(_numbers(path, body, n), labels=labels)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_pairwise_batch(directory) -> list[PairwiseMatrix]:
    """Read every ``*.csv`` in a directory, sorted by name for determinism.

    Every file must hold a matrix of the first file's size; the first one
    that does not raises InputError naming it and both sizes.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise InputError(f"not a directory: {directory}")
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise InputError(f"no .csv files in {directory}")
    matrices = [load_pairwise(p) for p in paths]
    n = matrices[0].n
    for path, pm in zip(paths, matrices):
        if pm.n != n:
            raise InputError(f"{path}: a {pm.n}x{pm.n} matrix, but {paths[0].name} is {n}x{n}")
    return matrices


def load_weights(path, hierarchy: CriteriaHierarchy | None = None) -> WeightVector:
    """Read criterion weights from a two-column CSV.

    With a hierarchy, ids are validated against it and reordered into
    canonical order.
    """
    ids, table = _read_criterion_table(path, ("weight",))
    try:
        wv = WeightVector(table[:, 0], tuple(ids))
        if hierarchy is not None:
            canonical = hierarchy.criterion_ids()
            wv = WeightVector(wv.aligned(canonical), canonical)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return wv


def load_bounds(path, hierarchy: CriteriaHierarchy) -> np.ndarray:
    """Read per-criterion [min, max] bounds from a CSV (criterion_id,min,max).

    Every hierarchy criterion needs exactly one row; the result follows the
    canonical criterion order.
    """
    ids, table = _read_criterion_table(path, ("min", "max"))
    return table[_canonical_order(path, ids, hierarchy.criterion_ids(), "row")]


_SWEEP_COLUMNS = ("subset", "s", "alternative", "rank")
_PLAIN_COLUMNS = ("alternative", "rank")


def _bad_ranking_row(path, r, row, header, columns) -> InputError:
    """Name the first missing column, non-numeric s/rank cell, out-of-range s or non-finite rank of a row."""
    for name in columns:
        c = header.index(name)
        if c >= len(row):
            return InputError(
                f"{path}: row {r} has {len(row)} cells, no column {c + 1} ({name})"
            )
        if name in ("s", "rank"):
            try:
                value = float(row[c])
            except ValueError:
                return InputError(
                    f"{path}: non-numeric {name} cell '{row[c]}' at row {r}, column {c + 1}"
                )
            if name == "s" and not 0.0 <= value <= 1.0:
                return InputError(f"{path}: s cell '{row[c]}' outside [0, 1] at row {r}, column {c + 1}")
            if name == "rank" and not math.isfinite(value):
                return InputError(f"{path}: rank cell '{row[c]}' not finite at row {r}, column {c + 1}")
    raise AssertionError(f"{path}: row {r} has every column and valid cells")


def load_ranking_file(path):
    """Read a ranking CSV: plain (alternative, rank) or a sweep export.

    Returns ("simple", {alternative: rank}) for plain files and
    ("sweep", {subset_label: {alternative: rank}}) for sweep exports, where
    each subset's ranking is taken at its deepest grid point (its largest
    ``s``) and subsets appear in the order of their first row at that
    point; only (alternative, rank) pairs are kept, never whole rows. The
    file is read in one pass, on every path: an error is named from what
    that pass kept, so a pipe reads as a file does. The header is the
    first non-blank row, and a blank row (every cell empty or whitespace)
    is skipped wherever it sits. A short row, a non-numeric ``s`` or
    ``rank`` cell, an ``s`` that is NaN or outside [0, 1], or a ``rank``
    that is NaN or infinite raises InputError naming the row (data rows
    counted from 1, blank rows not counted) and the column. An alternative
    repeated in the ranking kept, the whole of a plain file or a subset's
    rows at its deepest ``s``, raises InputError naming it and both rows,
    and the subset for a sweep export; rows at a shallower ``s`` may
    repeat.
    """
    with _csv_rows(path) as (header, rows):
        header = [c.strip().lower() for c in header]
        if set(_SWEEP_COLUMNS).issubset(header):
            columns, skip = _SWEEP_COLUMNS, 0
        elif set(_PLAIN_COLUMNS).issubset(header):
            # a plain row reads as a row of the one subset "" at s = 1
            columns, skip = _PLAIN_COLUMNS, 2
            header = ["subset", "s", *header]
            rows = (["", "1", *row] for row in rows)
        else:
            raise InputError(f"{path}: expected (alternative, rank) columns or a sweep export")
        si, gi, ai, ri = (header.index(name) for name in _SWEEP_COLUMNS)
        # subset -> (deepest s, [(alternative, rank, n), ...] at that s), n counting blank rows too
        deepest: dict[str, tuple] = {}
        s_of, rank_of = {}, {}  # each distinct text parsed, and range-checked, once
        blanks = []  # the n of each blank row; an error names n less the blank rows before it
        for n, row in enumerate(rows, start=1):
            try:
                s = s_of.get(row[gi])
                if s is None:
                    s = float(row[gi])
                    if not 0.0 <= s <= 1.0:  # NaN fails too
                        raise ValueError(s)
                    s_of[row[gi]] = s
                rank = rank_of.get(row[ri])
                if rank is None:
                    rank = float(row[ri])
                    if not math.isfinite(rank):
                        raise ValueError(rank)
                    rank_of[row[ri]] = rank
                entry = deepest.get(row[si])
                if entry is not None and s == entry[0]:
                    entry[1].append((row[ai], rank, n))
                elif entry is None or s > entry[0]:
                    deepest[row[si]] = (s, [(row[ai], rank, n)])
            except (ValueError, IndexError):  # a blank row fails here too, and only here
                if not _is_blank(row[skip:]):
                    raise _bad_ranking_row(path, n - len(blanks), row[skip:], header[skip:], columns) from None
                blanks.append(n)
    kept = sorted(deepest.items(), key=lambda item: item[1][1][0][2])  # by the row of each subset's first pair
    final = {subset: {alt: rank for alt, rank, _ in pairs} for subset, (_, pairs) in kept}
    repeats = []  # (row, the row it repeats, subset, alternative) of each kept ranking's first repeat
    for subset, (_, pairs) in kept:
        if len(final[subset]) < len(pairs):
            first = {}
            for alt, _, r in pairs:
                if first.setdefault(alt, r) != r:
                    repeats.append((r, first[alt], subset, alt))
                    break
    if repeats:
        r, r0, subset, alt = min(repeats)
        r, r0 = (x - sum(b < x for b in blanks) for x in (r, r0))
        where = f" in subset {subset or '()'}" if not skip else ""
        raise InputError(f"{path}: alternative '{alt}' repeated{where} at rows {r0} and {r}")
    return ("simple", final.get("", {})) if skip else ("sweep", final)


def _key_mismatch(records, fieldnames) -> ValueError:
    """Name the first record with other keys than ``fieldnames``, by its index."""
    expected = set(fieldnames)
    i, keys = next((i, rec.keys()) for i, rec in enumerate(records) if rec.keys() != expected)
    return ValueError(
        f"record {i} has keys {list(keys)}, expected {list(fieldnames)}: "
        f"missing {[k for k in fieldnames if k not in keys]}, "
        f"extra {[k for k in keys if k not in expected]}"
    )


#: records rendered at a time; bounds the columns held at once
_BLOCK_ROWS = 2048


def _csv_texts(values, lone: bool) -> list[str]:
    """Each value's text as ``csv.writer`` writes it in a row of the table.

    Each value is written alone in a one-field row ended by ``\\r\\n``, where
    it is quoted as in any row: the csv module quotes a field holding a
    character of the row terminator, so a field holding ``\\r`` or ``\\n`` is
    quoted whatever ends the rows it is written into. The one exception is
    an empty field: ``""`` when it is the table's only field (``lone``),
    empty otherwise.
    """
    lines = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows([value] for value in values)
    texts = [line[:-2] for line in lines]
    if not lone:
        texts = ["" if text == '""' else text for text in texts]
    return texts


def _render_column(cells: list, lone: bool) -> list[str]:
    """Each cell's text as ``csv.writer`` writes it in a row of the table.

    A column of exact ``str``s, or of exact ``int``s, renders each distinct
    value once, and a ``str`` column that needs no quoting is its own text.
    A column of exact floats that are all distinct goes through
    ``float.__repr__``, the text ``csv.writer`` writes for a float; any other
    exact float column renders each distinct value once, and each zero again
    on its own, as ``0.0 == -0.0``. Any other column renders cell by cell.
    """
    kinds = set(map(type, cells))
    if kinds == {str} or kinds == {int}:
        # equal exact strs, or equal exact ints, always have the same text
        values = list(set(cells))
        texts = _csv_texts(values, lone)
        return cells if texts == values else list(map(dict(zip(values, texts)).__getitem__, cells))
    if kinds != {float}:
        return _csv_texts(cells, lone)
    distinct = set(cells)
    if len(distinct) == len(cells):
        return list(map(float.__repr__, cells))
    text_of = dict(zip(distinct, map(float.__repr__, distinct)))
    return [text_of[cell] if cell else float.__repr__(cell) for cell in cells]


def records_to_csv(records: list[dict], fieldnames: list[str]) -> str:
    """The CSV text of a list of records: a header of ``fieldnames``, then one row per record.

    Each cell is quoted as ``csv.writer`` quotes it in rows ended by
    ``\\r\\n``, so a cell holding ``\\r`` or ``\\n`` is quoted, and each row
    is ended by ``\\n``. A record with a missing or an extra key raises
    ValueError naming its index and keys. The rows are built column by
    column, ``_BLOCK_ROWS`` records at a time, as ``_render_column`` renders
    them; nothing is kept from one block to the next.
    """
    # with every field present, a record of the right size has no extra key
    if set(map(len, records)) - {len(set(fieldnames))}:
        raise _key_mismatch(records, fieldnames)
    lone = len(fieldnames) == 1
    parts = [",".join(_csv_texts(fieldnames, lone)), "\n"]  # the header row, then each block's rows
    getters = [operator.itemgetter(name) for name in fieldnames]
    for start in range(0, len(records), _BLOCK_ROWS):
        block = records[start:start + _BLOCK_ROWS]
        try:
            columns = [_render_column(list(map(get, block)), lone) for get in getters]
        except KeyError:
            raise _key_mismatch(records, fieldnames) from None
        rows = map(",".join, zip(*columns)) if columns else [""] * len(block)
        parts += ("\n".join(rows), "\n")
    return "".join(parts)


def records_to_json(payload) -> str:
    """Serialize a payload to stable, indented JSON text."""
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
