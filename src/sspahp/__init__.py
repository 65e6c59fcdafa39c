"""Multi-criteria decision engine with tunable criteria-compensation reduction.

Evaluation follows a weighted-sum core whose normalized scores can be pushed
toward their column means by per-criterion coefficients in [0, 1], limiting
how far strength on one criterion can offset weakness on another. Criterion
weights come from pairwise judgments (principal eigenvector), entropy, or
CRITIC; five reference MCDA methods, rank-correlation measures, and a
group-subset sensitivity sweep support validation of the results.

Each public name is imported from its submodule on first use (PEP 562), so
``import sspahp`` loads only the exception types, and a command-line run
loads only the submodules its command needs.
"""

import importlib

from .errors import (
    ConvergenceError,
    DegenerateWeightsError,
    InconsistentJudgmentsError,
    InputError,
    NumericalError,
    SspahpError,
)

__version__ = "0.1.0"

#: each public name under the submodule that defines it
_EXPORTS = {
    "benchmarks": ("BenchmarkScore", "codas", "mabac", "promethee2", "run_all", "spotis", "topsis"),
    "core": (
        "CriteriaHierarchy",
        "DecisionMatrix",
        "Dimension",
        "NormalizedMatrix",
        "SubDimension",
        "WeightVector",
        "flatten_hierarchy",
        "normalize_minmax",
    ),
    "correlation": ("pearson", "rank_from_scores", "weighted_spearman"),
    "errors": (
        "ConvergenceError",
        "DegenerateWeightsError",
        "InconsistentJudgmentsError",
        "InputError",
        "NumericalError",
        "SspahpError",
    ),
    "evaluation": ("EvaluationResult", "evaluate", "evaluate_with_group_s"),
    "sensitivity": (
        "SweepResult",
        "SweepSpec",
        "compare_rankings",
        "default_s_grid",
        "enumerate_group_subsets",
        "run_sweep",
        "stability_report",
    ),
    "weighting": (
        "ConsistencyReport",
        "PairwiseMatrix",
        "RANDOM_INDEX",
        "aggregate_pairwise",
        "ahp_weights",
        "consistency",
        "critic_weights",
        "distribute_weights",
        "entropy_weights",
        "judgment_weights",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import a public name's submodule on first use and keep the name here."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
