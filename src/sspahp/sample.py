"""Bundled synthetic demonstration dataset.

The hierarchy mirrors a five-dimension health-system assessment model
(equity, quality of care, responsiveness, financial coverage, adaptability)
with 25 criteria split across sub-dimensions. It is defined once, by the
shipped ``data/sample_hierarchy.json``. The performance values are
SYNTHETIC: drawn from a seeded generator, useful for demos and tests, and
not measurements of any real country or system. ``write_sample`` writes
both files again, byte for byte the shipped copies.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import CriteriaHierarchy, DecisionMatrix
from .io import load_hierarchy, write_hierarchy_json, write_matrix_csv

SAMPLE_SEED = 42

#: directory holding the pre-generated copies shipped with the package
DATA_DIR = Path(__file__).parent / "data"


def sample_hierarchy() -> CriteriaHierarchy:
    """The five-dimension, 25-criterion hierarchy of the sample data, read from its shipped JSON."""
    return load_hierarchy(DATA_DIR / "sample_hierarchy.json")


def sample_matrix(
    m: int = 16, seed: int = SAMPLE_SEED, hierarchy: CriteriaHierarchy | None = None
) -> DecisionMatrix:
    """Synthetic positive performance table for ``m`` alternatives.

    Each criterion gets its own scale (drawn once from the seeded
    generator) so that columns differ in magnitude the way mixed-unit
    indicators do. Deterministic for a fixed seed.
    """
    h = hierarchy or sample_hierarchy()
    cids = h.criterion_ids()
    rng = np.random.default_rng(seed)
    scale = rng.uniform(1.0, 200.0, size=len(cids))
    base = rng.uniform(0.2, 1.0, size=len(cids))
    values = rng.uniform(base, 1.0, size=(m, len(cids))) * scale
    alt_ids = tuple(f"A{i + 1:02d}" for i in range(m))
    return DecisionMatrix(
        alternative_ids=alt_ids,
        criterion_ids=cids,
        values=values,
        objectives=tuple(h.objective_for(c) for c in cids),
    )


def write_sample(directory) -> tuple[Path, Path]:
    """Write sample_matrix.csv and sample_hierarchy.json into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    matrix_path = directory / "sample_matrix.csv"
    hierarchy_path = directory / "sample_hierarchy.json"
    h = sample_hierarchy()
    write_matrix_csv(sample_matrix(hierarchy=h), matrix_path)
    write_hierarchy_json(h, hierarchy_path)
    return matrix_path, hierarchy_path
