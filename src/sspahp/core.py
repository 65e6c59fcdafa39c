"""Domain types, decision-matrix validation, and direction-aware min-max scaling."""

from __future__ import annotations

import reprlib
from dataclasses import KW_ONLY, InitVar, dataclass, field, fields

import numpy as np

from .errors import InputError

MAX = "max"
MIN = "min"
OBJECTIVE_TOKENS = (MAX, MIN)

#: absolute tolerance for numeric invariant checks
TOL = 1e-9

# defaults of the pipeline kept here, so the CLI can show them without loading it
#: CODAS threshold
DEFAULT_TAU = 0.02
#: coefficient grid step of a sweep
DEFAULT_STEP = 0.05
#: judgments above this consistency ratio are conventionally rejected
CR_THRESHOLD = 0.1


def _real(value, what: str) -> np.ndarray:
    """``value`` as floats; a string, None, a complex number, a ragged list or another non-real value raises InputError naming it, shown in at most 100 characters."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list, such as [[0.5], 0.5]
        arr = np.asarray(None)
    if arr.dtype.kind not in "biuf":
        shown = reprlib.repr(value)  # a few items of a few levels; a table of them can still run long
        raise InputError(f"{what} must be real numbers, got {shown if len(shown) <= 100 else shown[:97] + '...'}")
    return arr.astype(float, copy=False)


def _as_2d(values) -> np.ndarray:
    arr = _real(values, "values")
    if arr.ndim != 2:
        raise InputError(f"expected a 2-D value table, got {arr.ndim} dimension(s)")
    return arr


def _frozen_array(obj, name, values):
    arr = values.copy()
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


def _fields_equal(self, other) -> bool:
    """``==`` for frozen dataclasses holding arrays: same class, every field equal.

    Array fields compare with ``np.array_equal``, so the answer is one bool
    rather than an elementwise array. A class that sets ``__eq__`` to this is
    declared with ``eq=False``: dataclasses then builds neither an ``__eq__``
    the class replaces nor a ``__hash__``, and ``hash()`` of an instance
    raises TypeError.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
            return False
    return True


@dataclass(frozen=True, eq=False)
class _Ranked:
    """Base of the result types: scores for the alternatives and the ranks they induce.

    A subclass's ``_ARRAYS`` maps each array field to its dtype, the score
    field first and the rank field second where ``_from_scores`` builds the
    result. Arrays a caller passes are copied; with ``_owned=True`` they were
    built for this result alone and are frozen in place. Subclasses are
    declared with ``eq=False``, so they keep this ``==``.
    """

    _: KW_ONLY
    _owned: InitVar[bool] = False

    __eq__ = _fields_equal

    def __post_init__(self, _owned):
        object.__setattr__(self, "alternative_ids", tuple(self.alternative_ids))
        for name, dtype in self._ARRAYS.items():
            if not _owned:
                _frozen_array(self, name, np.asarray(getattr(self, name), dtype=dtype))
            getattr(self, name).setflags(write=False)

    @classmethod
    def _from_scores(cls, scores, alternative_ids, **fields):
        """The result owning ``scores`` and the ranks they induce, ties in input order.

        Rank 1 goes to the highest score unless ``higher_better=False`` is
        among the fields. A class with a ``has_ties`` field gets whether any
        two scores are equal, ``-0.0`` and ``0.0`` among them. A NaN or
        infinite score raises InputError.
        """
        # loaded at first use, so the loaders and the sample load no ranking code
        from .correlation import _finite_key, _ordinal_ranks

        ranking, tied = _ordinal_ranks(_finite_key(scores, fields.get("higher_better", True)))
        if "has_ties" in cls.__dataclass_fields__:
            fields["has_ties"] = tied
        arrays = dict(zip(cls._ARRAYS, (scores, ranking)))
        return cls(**arrays, alternative_ids=alternative_ids, **fields, _owned=True)

    def _position(self, alternative_id) -> int:
        """Index of an alternative; an unknown one raises InputError."""
        try:
            return self.alternative_ids.index(alternative_id)
        except ValueError:
            raise InputError(f"alternative '{alternative_id}' not in the result") from None


@dataclass(frozen=True, eq=False)
class DecisionMatrix:
    """Raw m x n performance table with a max/min objective per criterion.

    Construction checks every invariant once: a matrix that breaks any
    raises InputError listing each, as ``_matrix_issues`` names them.
    """

    alternative_ids: tuple[str, ...]
    criterion_ids: tuple[str, ...]
    values: np.ndarray
    objectives: tuple[str, ...]

    __eq__ = _fields_equal

    def __post_init__(self):
        object.__setattr__(self, "alternative_ids", tuple(self.alternative_ids))
        object.__setattr__(self, "criterion_ids", tuple(self.criterion_ids))
        object.__setattr__(self, "objectives", tuple(self.objectives))
        _frozen_array(self, "values", _as_2d(self.values))
        issues = _matrix_issues(self)
        if issues:
            raise InputError("invalid decision matrix: " + "; ".join(issues))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def _counted(clause: str, count: int) -> str:
    """``clause`` about the first of ``count`` like faults, counting the others."""
    return clause if count == 1 else f"{clause} (and {count - 1} more)"


def _matrix_issues(matrix: DecisionMatrix) -> list[str]:
    """Every DecisionMatrix invariant the matrix breaks, one clause each; empty means usable.

    Repeated ids of a kind, and non-finite cells, take one clause that names
    the first and counts the rest, so the list stays short at any size.
    """
    issues: list[str] = []
    m, n = matrix.values.shape

    if m < 2:
        issues.append(f"need at least 2 alternatives, got {m}")
    if n < 1:
        issues.append("need at least 1 criterion")
    if len(matrix.alternative_ids) != m:
        issues.append(f"alternative id arity: {len(matrix.alternative_ids)} ids for {m} rows")
    if len(matrix.criterion_ids) != n:
        issues.append(f"criterion id arity: {len(matrix.criterion_ids)} ids for {n} columns")
    if len(matrix.objectives) != n:
        issues.append(f"objective arity: {len(matrix.objectives)} directions for {n} criteria")
    for label, ids in (("alternative", matrix.alternative_ids), ("criterion", matrix.criterion_ids)):
        seen: set[str] = set()
        repeats = [i for i in ids if i in seen or seen.add(i)]  # add() returns None, so only repeats are kept
        if repeats:
            issues.append(_counted(f"duplicate {label} id '{repeats[0]}'", len(repeats)))
    for tok in matrix.objectives:
        if tok not in OBJECTIVE_TOKENS:
            issues.append(f"unknown objective token '{tok}' (expected 'max' or 'min')")
    bad = np.argwhere(~np.isfinite(matrix.values))
    if len(bad):
        issues.append(_counted(f"non-finite cell at row {bad[0, 0] + 1}, column {bad[0, 1] + 1}", len(bad)))
    return issues


@dataclass(frozen=True, eq=False)
class NormalizedMatrix:
    """Min-max scaled values in [0, 1], ids carried through from the source."""

    values: np.ndarray
    alternative_ids: tuple[str, ...]
    criterion_ids: tuple[str, ...]
    warnings: tuple[str, ...] = ()

    __eq__ = _fields_equal

    def __post_init__(self):
        object.__setattr__(self, "alternative_ids", tuple(self.alternative_ids))
        object.__setattr__(self, "criterion_ids", tuple(self.criterion_ids))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        _frozen_array(self, "values", _as_2d(self.values))


def normalize_minmax(matrix: DecisionMatrix) -> NormalizedMatrix:
    """Scale each column to [0, 1] respecting its objective direction.

    Max-direction columns map through (x - min) / (max - min); min-direction
    columns through (max - x) / (max - min), so 1 is always best. A constant
    column has no spread to scale, so every cell becomes the neutral 0.5 and
    a warning is attached to the result.
    """
    x = matrix.values
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = hi - lo
    flat = span == 0.0
    out = np.where(np.array(matrix.objectives) == MAX, x - lo, hi - x) / np.where(flat, 1.0, span)
    out[:, flat] = 0.5
    return NormalizedMatrix(
        values=out,
        alternative_ids=matrix.alternative_ids,
        criterion_ids=matrix.criterion_ids,
        warnings=tuple(f"criterion '{matrix.criterion_ids[j]}' is constant; all cells set to 0.5" for j in np.flatnonzero(flat)),
    )


def _normalized(matrix: DecisionMatrix) -> NormalizedMatrix:
    """``normalize_minmax(matrix)``, computed once and kept on the frozen matrix.

    The result is recorded outside the fields, warnings included, so every
    later caller shares it.
    """
    norm = getattr(matrix, "_normalized", None)
    if norm is None:
        norm = normalize_minmax(matrix)
        object.__setattr__(matrix, "_normalized", norm)
    return norm


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Finite, non-negative per-criterion weights that sum to 1."""

    weights: np.ndarray
    criterion_ids: tuple[str, ...]

    __eq__ = _fields_equal

    def __post_init__(self):
        object.__setattr__(self, "criterion_ids", tuple(self.criterion_ids))
        arr = _real(self.weights, "weights")
        if arr.ndim != 1:
            raise InputError("weights must be a flat vector")
        if len(self.criterion_ids) != arr.shape[0]:
            raise InputError(
                f"weight arity: {arr.shape[0]} weights for "
                f"{len(self.criterion_ids)} ids"
            )
        if not np.isfinite(arr).all():
            i = int(np.argmin(np.isfinite(arr)))  # the first non-finite weight
            raise InputError(f"non-finite weight {arr[i]} for criterion '{self.criterion_ids[i]}'")
        if arr.min(initial=0.0) < -TOL:
            raise InputError(f"negative weight {arr.min():.3e}")
        if abs(arr.sum() - 1.0) > TOL:
            raise InputError(f"weights sum to {arr.sum():.12f}, expected 1")
        for i, cid in enumerate(self.criterion_ids):
            if cid in self.criterion_ids[:i]:
                raise InputError(f"duplicate weight id '{cid}'")
        _frozen_array(self, "weights", np.clip(arr, 0.0, None))

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.criterion_ids, self.weights.tolist()))

    def aligned(self, criterion_ids) -> np.ndarray:
        """Weights reordered into the given id order, matched by id."""
        by_id = self.as_dict()
        expected = set(criterion_ids)
        mismatch = {
            "unknown": [c for c in self.criterion_ids if c not in expected],
            "missing": [c for c in criterion_ids if c not in by_id],
        }
        if any(mismatch.values()):
            named = "; ".join(f"{kind} {', '.join(ids)}" for kind, ids in mismatch.items() if ids)
            raise InputError(f"weight ids do not match: {named}")
        return np.array([by_id[c] for c in criterion_ids])


@dataclass(frozen=True)
class SubDimension:
    name: str
    criterion_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "criterion_ids", tuple(self.criterion_ids))


@dataclass(frozen=True)
class Dimension:
    id: str
    name: str
    sub_dimensions: tuple[SubDimension, ...]

    def __post_init__(self):
        object.__setattr__(self, "sub_dimensions", tuple(self.sub_dimensions))


@dataclass(frozen=True)
class CriteriaHierarchy:
    """Dimension -> sub-dimension -> criterion tree with objective directions.

    The flattened criterion order (dimension-major, then sub-dimension-major)
    is the canonical order every aligned vector follows. Construction walks
    the tree once: a repeated dimension id, a criterion listed twice, or a
    criterion without a 'max' or 'min' objective raises InputError naming
    the entry, e.g. ``dimensions[1]: duplicate dimension id 'G1'``. Failing
    that, the first dimension with no sub-dimensions or sub-dimension with
    no criteria raises, e.g. ``dimensions[5]: dimension 'G6' has no
    sub-dimensions``, and then objectives for criteria the tree does not
    hold, naming their ids.
    """

    dimensions: tuple[Dimension, ...]
    objectives: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        object.__setattr__(self, "objectives", dict(self.objectives))
        seen_dims: set[str] = set()
        dimension_of: dict[str, str] = {}
        empty = None
        for i, dim in enumerate(self.dimensions):
            if dim.id in seen_dims:
                raise InputError(f"dimensions[{i}]: duplicate dimension id '{dim.id}'")
            seen_dims.add(dim.id)
            if not dim.sub_dimensions:
                empty = empty or f"dimensions[{i}]: dimension '{dim.id}' has no sub-dimensions"
            for j, sub in enumerate(dim.sub_dimensions):
                if not sub.criterion_ids:
                    empty = empty or (
                        f"dimensions[{i}].sub_dimensions[{j}]: sub-dimension '{sub.name}' of '{dim.id}' has no criteria"
                    )
                for k, cid in enumerate(sub.criterion_ids):
                    where = f"dimensions[{i}].sub_dimensions[{j}].criteria[{k}]"
                    if cid in dimension_of:
                        raise InputError(f"{where}: duplicate criterion '{cid}'")
                    if cid not in self.objectives:
                        raise InputError(f"{where}: no objective declared for criterion '{cid}'")
                    if self.objectives[cid] not in OBJECTIVE_TOKENS:
                        raise InputError(
                            f"{where}: unknown objective token '{self.objectives[cid]}' for '{cid}' (expected 'max' or 'min')"
                        )
                    dimension_of[cid] = dim.id
        if empty:
            raise InputError(empty)
        stray = [cid for cid in self.objectives if cid not in dimension_of]
        if stray:
            raise InputError(f"objectives for criteria not in the hierarchy: {', '.join(map(str, stray))}")
        # the canonical order, kept outside the fields: not compared, not in the repr
        object.__setattr__(self, "_dimension_of", dimension_of)

    def dimension_ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.dimensions)

    def criterion_ids(self) -> tuple[str, ...]:
        return tuple(self._dimension_of)

    def objective_for(self, criterion_id: str) -> str:
        try:
            return self.objectives[criterion_id]
        except KeyError:
            raise InputError(f"no objective declared for criterion '{criterion_id}'") from None


def flatten_hierarchy(h: CriteriaHierarchy) -> list[tuple[str, str]]:
    """Return (criterion_id, dimension_id) pairs in canonical order."""
    return list(h._dimension_of.items())


def _subset(value, what) -> tuple[str, ...]:
    """A subset of dimension ids as a tuple; a string, which tuple() would split into characters, or a non-iterable raises InputError."""
    if isinstance(value, str):
        raise InputError(f"{what} {value!r} is a string, not a tuple of dimension ids")
    try:
        items = iter(value)
    except TypeError:
        raise InputError(f"{what} {value!r} is not a tuple of dimension ids") from None
    return tuple(items)


def _membership(hierarchy: CriteriaHierarchy, subsets, criterion_ids) -> np.ndarray:
    """Boolean [subset, criterion] table: whether each criterion's dimension is in each subset.

    Unknown group ids raise InputError first, then ids repeated within a
    subset; each error names them and carries the first such subset as its
    ``subset`` attribute. Criteria absent from the hierarchy raise next.
    """
    column = {d: j for j, d in enumerate(hierarchy.dimension_ids())}
    cols = np.array([column.get(g, -1) for subset in subsets for g in subset], dtype=int)
    lengths = [len(subset) for subset in subsets]
    rows = np.repeat(np.arange(len(subsets)), lengths)
    unknown = rows[cols < 0]
    if unknown.size:
        subset = subsets[unknown[0]]
        error = InputError(f"unknown group id(s): {', '.join(g for g in subset if g not in column)}")
        error.subset = subset
        raise error
    table = np.zeros((len(subsets), len(column)), dtype=bool)
    table[rows, cols] = True
    repeated = np.flatnonzero(table.sum(axis=1) < lengths)
    if repeated.size:
        subset = subsets[repeated[0]]
        twice = dict.fromkeys(g for i, g in enumerate(subset) if g in subset[:i])
        error = InputError(f"group id(s) repeated: {', '.join(twice)}")
        error.subset = subset
        raise error
    dim_of = hierarchy._dimension_of
    missing = [c for c in criterion_ids if c not in dim_of]
    if missing:
        raise InputError(f"criteria not present in the hierarchy: {', '.join(missing)}")
    return table[:, [column[dim_of[c]] for c in criterion_ids]]


def _deviations(matrix: DecisionMatrix, weights: WeightVector):
    """Base utilities r.w and the [criterion, alternative] weighted deviations |mean(r) - r| * w."""
    w = weights.aligned(matrix.criterion_ids)
    r = _normalized(matrix).values
    return r @ w, np.abs(r.mean(axis=0) - r).T * w[:, None]


def _penalties(matrix: DecisionMatrix, weights: WeightVector, mask):
    """Base utilities r.w and [row, alternative] penalties P: the one formula U = r.w - s * P.

    ``mask`` is a boolean [row, criterion] table. P[row] adds that row's
    weighted deviations |mean(r) - r| * w to zeros, one criterion at a time
    in matrix column order, so no row depends on the others. This is the
    builder of ``evaluate``, ``evaluate_with_group_s`` and every sweep but
    a default one over canonical columns, which
    ``sensitivity._penalties_by_parent`` builds to the same bits.
    """
    base, deviation = _deviations(matrix, weights)
    penalty = np.zeros((len(mask), matrix.m))
    for j in range(matrix.n):
        np.add(penalty, deviation[j], out=penalty, where=mask[:, j, None])
    return base, penalty
