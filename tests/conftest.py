import numpy as np
import pytest

from sspahp import CriteriaHierarchy, DecisionMatrix, Dimension, PairwiseMatrix, SubDimension
from sspahp.io import records_to_csv, records_to_json
from sspahp.sample import DATA_DIR, sample_hierarchy, sample_matrix

# Five-dimension consensus judgment matrix with known eigenvector weights
# [0.3689, 0.3546, 0.1292, 0.1191, 0.0282] and consistency ratio 0.08.
CONSENSUS_JUDGMENTS = np.array(
    [
        [1, 1, 5, 3, 9],
        [1, 1, 3, 5, 7],
        [1 / 5, 1 / 3, 1, 1, 9],
        [1 / 3, 1 / 5, 1, 1, 7],
        [1 / 9, 1 / 7, 1 / 9, 1 / 7, 1],
    ]
)

EXPECTED_DIMENSION_WEIGHTS = np.array([0.3689, 0.3546, 0.1292, 0.1191, 0.0282])
EXPECTED_CR = 0.08

DIMENSION_IDS = ("G1", "G2", "G3", "G4", "G5")


#: a cell past ``csv.field_size_limit()``, 131,072 characters by default
LONG_ID = "x" * 140_000


def write_long_field_inputs(folder):
    """A matrix, ranking, pairwise and weights file in ``folder``, each with ``LONG_ID`` on one line: name -> (path, line)."""
    header, first, *rest = (DATA_DIR / "sample_matrix.csv").read_text().splitlines(keepends=True)
    texts = {
        "matrix.csv": (header + LONG_ID + first[first.index(","):] + "".join(rest), 2),
        "ranking.csv": (f"alternative,rank\na1,1\n{LONG_ID},2\n", 3),
        "pairwise.csv": (f"G1,G2\nG1,1,3\n{LONG_ID},1/3,1\n", 3),
        "weights.csv": (f"criterion_id,weight\nC1,0.5\n{LONG_ID},0.5\n", 3),
    }
    inputs = {}
    for name, (text, line) in texts.items():
        (folder / name).write_text(text, encoding="utf-8")
        inputs[name] = (folder / name, line)
    return inputs


SWEEP_FIELDS = ["subset", "s", "alternative", "utility", "rank"]


def record_based_export(result, fmt, records=None):
    """A sweep's ``fmt`` export built from every record at once, by the record writers of ``sspahp.io``."""
    records = result.to_records() if records is None else records
    if fmt == "csv":
        return records_to_csv(records, SWEEP_FIELDS)
    return records_to_json({"s_grid": result.s_grid.tolist(), "subsets": [list(s) for s in result.subsets], "records": records})


@pytest.fixture
def consensus_pairwise():
    return PairwiseMatrix(CONSENSUS_JUDGMENTS, labels=DIMENSION_IDS)


@pytest.fixture
def hierarchy():
    return sample_hierarchy()


@pytest.fixture
def matrix16(hierarchy):
    return sample_matrix(hierarchy=hierarchy)


def make_matrix(values, objectives=None, alt_prefix="a", crit_prefix="c"):
    """DecisionMatrix with generated ids; objectives default to all max."""
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    if objectives is None:
        objectives = ("max",) * n
    return DecisionMatrix(
        alternative_ids=tuple(f"{alt_prefix}{i + 1}" for i in range(m)),
        criterion_ids=tuple(f"{crit_prefix}{j + 1}" for j in range(n)),
        values=values,
        objectives=tuple(objectives),
    )


def random_matrix(rng, m=None, n=None, max_m=20, max_n=25, positive=True):
    """Random continuous matrix with random objective directions."""
    m = m or int(rng.integers(2, max_m + 1))
    n = n or int(rng.integers(1, max_n + 1))
    low = 0.1 if positive else -10.0
    values = rng.uniform(low, 10.0, size=(m, n))
    objectives = tuple(rng.choice(["max", "min"], size=n).tolist())
    return make_matrix(values, objectives)


def random_weights(rng, matrix):
    """Random positive weights summing to 1, aligned to the matrix."""
    from sspahp import WeightVector

    raw = rng.uniform(0.05, 1.0, size=matrix.n)
    return WeightVector(raw / raw.sum(), matrix.criterion_ids)


def two_level_hierarchy():
    """Small three-dimension hierarchy for group-selection tests."""
    dims = (
        Dimension(
            id="G1",
            name="first",
            sub_dimensions=(
                SubDimension(name="sd1", criterion_ids=("C1", "C2")),
            ),
        ),
        Dimension(
            id="G2",
            name="second",
            sub_dimensions=(SubDimension(name="sd1", criterion_ids=("C3",)),),
        ),
        Dimension(
            id="G3",
            name="third",
            sub_dimensions=(
                SubDimension(name="sd1", criterion_ids=("C4",)),
                SubDimension(name="sd2", criterion_ids=("C5", "C6")),
            ),
        ),
    )
    objectives = {c: "max" for c in ("C1", "C2", "C3", "C4", "C5", "C6")}
    return CriteriaHierarchy(dimensions=dims, objectives=objectives)
