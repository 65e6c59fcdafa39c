"""Command-line front end.

Subcommands mirror the analysis pipeline: ``weights`` derives criterion
weights, ``eval`` scores and ranks alternatives, ``benchmarks`` runs the
reference methods next to the main evaluation, ``sweep`` traces rankings
across compensation-reduction levels and group subsets, and ``corr``
compares two rankings.

Exit codes: 0 success, 2 input error, 3 numerical error, 4 inconsistent
pairwise judgments under --strict-cr.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import click

# weighting, evaluation, benchmarks and sensitivity are imported inside the
# commands that run them, so each run loads only its own pipeline
from . import __version__
from . import io as sio
from .core import CR_THRESHOLD, DEFAULT_STEP, DEFAULT_TAU, _normalized
from .errors import InconsistentJudgmentsError, InputError, NumericalError

FORMATS = ("table", "csv", "json")


def _handled(fn):
    """Map domain errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InconsistentJudgmentsError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)
        except InputError as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(2)
        except NumericalError as exc:
            click.echo(f"numerical error: {exc}", err=True)
            sys.exit(3)

    return wrapper


#: stdout as a text handle, every write passed to ``click.echo``
_STDOUT = SimpleNamespace(write=functools.partial(click.echo, nl=False))


@contextmanager
def _opened(out: str | None):
    """A text handle on the ``--out`` file, or on stdout without one.

    An ``--out`` that cannot be opened for writing is an input error.
    """
    if out:
        try:
            fh = Path(out).open("w", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc.strerror}") from None
        with fh:
            yield fh
    else:
        yield _STDOUT


def _emit(text: str, out: str | None) -> None:
    with _opened(out) as fh:
        fh.write(text)


def _table(headers, rows) -> str:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    lines = ("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in [headers, *rows])
    return "\n".join(lines) + "\n"


def _f4(v: float) -> str:
    return f"{v:.4f}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


def _parse_groups(text: str):
    return tuple(g.strip() for g in text.split(",") if g.strip())


def _warn_constant_columns(matrix) -> None:
    """Print the matrix's normalization warnings, one constant criterion a line, to stderr."""
    for warning in _normalized(matrix).warnings:
        click.echo(f"warning: {warning}", err=True)


def _load_inputs(matrix_path, hierarchy_path, method, pairwise, weights_file, strict_cr):
    """The matrix, hierarchy and criterion weights that eval, benchmarks and sweep start from."""
    hierarchy = sio.load_hierarchy(hierarchy_path)
    matrix = sio.load_decision_matrix(matrix_path, hierarchy)
    _warn_constant_columns(matrix)
    w, _, _ = _resolve_weights(method, matrix, hierarchy, pairwise, weights_file, strict_cr)
    return matrix, hierarchy, w


def _resolve_weights(method, matrix, hierarchy, pairwise, weights_file, strict_cr):
    """Criterion weights, plus the ahp consistency report and dimension weights or None."""
    if method == "file":
        _require(weights_file is not None, "--weights-method file requires --weights-file")
        return sio.load_weights(weights_file, hierarchy), None, None
    from .weighting import aggregate_pairwise, critic_weights, entropy_weights, judgment_weights

    if method == "ahp":
        _require(pairwise is not None, "--weights-method ahp requires --pairwise")
        path = Path(pairwise)
        if not path.is_dir():
            return judgment_weights(sio.load_pairwise(path), hierarchy, strict_cr)
        matrices = sio.load_pairwise_batch(path)  # aggregated even when one, as exp(log(x)) need not equal x
        try:
            consensus = aggregate_pairwise(matrices)
        except InputError as exc:
            raise InputError(f"{path}: {exc} (files counted in name order)") from exc
        return judgment_weights(consensus, hierarchy, strict_cr)
    _require(matrix is not None, f"--weights-method {method} requires --matrix and --hierarchy")
    weigh = entropy_weights if method == "entropy" else critic_weights
    return weigh(matrix), None, None


@click.group()
@click.version_option(__version__)
def main():
    """Multi-criteria evaluation with tunable criteria-compensation reduction."""


def _with_options(*options):
    """Apply click options so that ``--help`` lists them in the given order."""

    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn

    return deco


_output_options = (
    click.option("--format", "fmt", type=click.Choice(FORMATS), default="table", show_default=True),
    click.option("--out", type=click.Path(), help="Write output to a file instead of stdout."),
)


def _input_options(required):
    """The matrix, hierarchy and weight-source options, then ``--format`` and ``--out``.

    ``required`` says whether ``--matrix`` and ``--hierarchy`` must be given.
    """
    return _with_options(
        click.option("--matrix", "matrix_path", type=click.Path(), required=required, help="Decision matrix CSV."),
        click.option("--hierarchy", "hierarchy_path", type=click.Path(), required=required, help="Criteria hierarchy JSON."),
        click.option(
            "--weights-method",
            "--method",
            "method",
            type=click.Choice(["ahp", "entropy", "critic", "file"]),
            required=True,
            help="How to derive criterion weights.",
        ),
        click.option("--pairwise", type=click.Path(), help="Pairwise CSV or directory (ahp)."),
        click.option("--weights-file", type=click.Path(), help="Weights CSV (file method)."),
        click.option("--strict-cr", is_flag=True, help=f"Fail (exit 4) when CR exceeds {CR_THRESHOLD}."),
        *_output_options,
    )


@main.command("weights")
@_input_options(required=False)
@_handled
def weights_cmd(matrix_path, hierarchy_path, method, pairwise, weights_file, strict_cr, fmt, out):
    """Derive criterion weights and (for ahp) report judgment consistency."""
    hierarchy = sio.load_hierarchy(hierarchy_path) if hierarchy_path else None
    matrix = None
    if method in ("critic", "entropy") and matrix_path and hierarchy:  # only they weigh the matrix
        matrix = sio.load_decision_matrix(matrix_path, hierarchy)
        _warn_constant_columns(matrix)
    w, report, dim_weights = _resolve_weights(method, matrix, hierarchy, pairwise, weights_file, strict_cr)

    if fmt == "json":
        payload: dict = {"weights": w.as_dict()}
        if dim_weights is not None:
            payload["dimension_weights"] = dim_weights.as_dict()
        if report is not None:
            payload["consistency"] = asdict(report)
        text = sio.records_to_json(payload)
    elif fmt == "csv":
        recs = [{"criterion_id": c, "weight": float(v)} for c, v in w.as_dict().items()]
        text = sio.records_to_csv(recs, ["criterion_id", "weight"])
    else:
        sections = [
            _table([level, "weight"], [[c, _f4(v)] for c, v in ws.as_dict().items()])
            for level, ws in (("dimension", dim_weights), ("criterion", w))
            if ws is not None
        ]
        if report is not None:
            sections.append(f"CR = {report.cr:.2f}\n")
        text = "\n".join(sections)
    _emit(text, out)


@main.command("eval")
@_input_options(required=True)
@click.option("--s", "s_value", type=float, default=0.0, show_default=True, help="Compensation-reduction coefficient in [0, 1].")
@click.option("--groups", help="Comma-separated dimension ids the coefficient applies to (default: all criteria).")
@_handled
def eval_cmd(matrix_path, hierarchy_path, method, pairwise, weights_file, strict_cr, fmt, out, s_value, groups):
    """Score and rank the alternatives."""
    from .evaluation import evaluate_with_group_s

    matrix, hierarchy, w = _load_inputs(matrix_path, hierarchy_path, method, pairwise, weights_file, strict_cr)
    # no --groups: every dimension, so every criterion gets s ("" is the empty subset)
    group_ids = hierarchy.dimension_ids() if groups is None else _parse_groups(groups)
    result = evaluate_with_group_s(matrix, w, hierarchy, group_ids, s_value)
    rows = list(zip(result.alternative_ids, result.utilities.tolist(), result.ranking.tolist()))

    if fmt == "json":
        text = sio.records_to_json(
            {
                "alternatives": list(result.alternative_ids),
                "utilities": result.utilities.tolist(),
                "ranking": result.ranking.tolist(),
                "has_ties": result.has_ties,
            }
        )
    elif fmt == "csv":
        recs = [{"alternative": a, "utility": u, "rank": r} for a, u, r in rows]
        text = sio.records_to_csv(recs, ["alternative", "utility", "rank"])
    else:
        text = _table(["alternative", "utility", "rank"], [[a, _f4(u), str(r)] for a, u, r in rows])
    _emit(text, out)


@main.command("benchmarks")
@_input_options(required=True)
@click.option("--tau", type=float, default=DEFAULT_TAU, show_default=True, help="CODAS threshold parameter.")
@click.option("--bounds", "bounds_path", type=click.Path(), help="SPOTIS bounds CSV (criterion_id,min,max); defaults to column extremes.")
@click.option("--corr", "with_corr", is_flag=True, help="Also report each method's rank correlation with the main evaluation (table/json formats).")
@_handled
def benchmarks_cmd(matrix_path, hierarchy_path, method, pairwise, weights_file, strict_cr, fmt, out, tau, bounds_path, with_corr):
    """Run the reference methods next to the plain (s = 0) evaluation."""
    from .benchmarks import run_all
    from .correlation import pearson, weighted_spearman
    from .evaluation import evaluate

    matrix, hierarchy, w = _load_inputs(matrix_path, hierarchy_path, method, pairwise, weights_file, strict_cr)
    bounds = sio.load_bounds(bounds_path, hierarchy) if bounds_path else None
    if with_corr and fmt == "csv":
        raise InputError(
            "--corr is not representable in the long csv; use table or json, "
            "or run the corr subcommand on exported rankings"
        )

    base = evaluate(matrix, w, 0.0)
    scores = run_all(matrix, w, tau=tau, bounds=bounds)
    columns = [("sspahp", base.utilities, base.ranking)]
    columns += [(name, sc.values, sc.ranking) for name, sc in scores.items()]
    correlations = None
    if with_corr:
        correlations = {
            name: (weighted_spearman(base.ranking, ranks), pearson(base.ranking, ranks))
            for name, _, ranks in columns[1:]
        }

    if fmt == "json":
        payload = {
            name: {
                "values": dict(zip(matrix.alternative_ids, vals.tolist())),
                "ranking": dict(zip(matrix.alternative_ids, ranks.tolist())),
            }
            for name, vals, ranks in columns
        }
        if correlations is not None:
            payload["correlation_with_sspahp"] = {
                name: {"r_w": rw, "pearson": pr}
                for name, (rw, pr) in correlations.items()
            }
        text = sio.records_to_json(payload)
    elif fmt == "csv":
        recs = [
            {"method": name, "alternative": a, "value": float(v), "rank": int(r)}
            for name, vals, ranks in columns
            for a, v, r in zip(matrix.alternative_ids, vals, ranks)
        ]
        text = sio.records_to_csv(recs, ["method", "alternative", "value", "rank"])
    else:
        names, values, rankings = zip(*columns)
        blocks = [
            (title, ["alternative", *names], [[a, *map(cell, row)] for a, row in zip(matrix.alternative_ids, zip(*arrays))])
            for title, cell, arrays in (("values", _f4, values), ("rankings", lambda r: str(int(r)), rankings))
        ]
        if correlations is not None:
            corr_rows = [[name, _f4(rw), _f4(pr)] for name, (rw, pr) in correlations.items()]
            blocks.append(("correlation with sspahp", ["method", "r_w", "pearson"], corr_rows))
        text = "\n".join(f"{title}\n{_table(headers, rows)}" for title, headers, rows in blocks)
    _emit(text, out)


@main.command("sweep")
@_input_options(required=True)
@click.option("--groups", default="all", show_default=True, help="'all' for every dimension subset, or a comma list naming one subset.")
@click.option("--step", type=float, default=DEFAULT_STEP, show_default=True, help="Grid step for the coefficient sweep.")
@_handled
def sweep_cmd(matrix_path, hierarchy_path, method, pairwise, weights_file, strict_cr, fmt, out, groups, step):
    """Trace rankings across compensation-reduction levels and group subsets."""
    from .sensitivity import SweepSpec, default_s_grid, run_sweep, subset_label

    matrix, hierarchy, w = _load_inputs(matrix_path, hierarchy_path, method, pairwise, weights_file, strict_cr)

    # None: every dimension subset, enumerated by the spec after its size check
    subsets = None if groups.strip().lower() == "all" else (_parse_groups(groups),)
    spec = SweepSpec(
        matrix=matrix,
        hierarchy=hierarchy,
        weights=w,
        s_grid=default_s_grid(step),
        group_subsets=subsets,
    )
    result = run_sweep(spec)

    if fmt == "table":
        finals = result.ranks[:, -1].tolist()  # each subset's ranks at the deepest s
        rows = [[subset_label(sub) or "(none)", *map(str, ranks)] for sub, ranks in zip(result.subsets, finals)]
        _emit(_table(["subset", *result.alternative_ids], rows), out)
        return
    # one subset's text at a time, so the whole export is never held
    with _opened(out) as fh:
        (result.write_csv if fmt == "csv" else result.write_json)(fh)


@main.command("corr")
@click.argument("file_a", type=click.Path())
@click.argument("file_b", type=click.Path())
@_with_options(*_output_options)
@_handled
def corr_cmd(file_a, file_b, fmt, out):
    """Correlation (weighted Spearman, Pearson) between two ranking files.

    Accepts plain ranking CSVs (alternative, rank) or sweep exports; sweep
    exports are compared subset by subset at the deepest grid point.
    """
    from .sensitivity import compare_rankings, subset_label

    kind_a, data_a = sio.load_ranking_file(file_a)
    kind_b, data_b = sio.load_ranking_file(file_b)
    _require(kind_a == kind_b, "cannot mix a plain ranking file with a sweep export")

    if kind_a == "simple":
        data_a, data_b = {"": data_a}, {"": data_b}
    else:
        _require(list(data_a) == list(data_b), "subset lists differ between the two sweep exports")

    # each subset's ranks in file A's alternative order, keyed by the subset tuple
    rankings_a, rankings_b = {}, {}
    for label, ra in data_a.items():
        rb = data_b[label]
        only = set(ra).symmetric_difference(rb)
        if only:
            where = f" in subset {label or '()'}" if kind_a == "sweep" else ""
            raise InputError(f"alternative ids differ{where}; in only one: {', '.join(sorted(only))}")
        subset = tuple(label.split("+")) if label else ()
        rankings_a[subset] = list(ra.values())
        rankings_b[subset] = [rb[alt] for alt in ra]
    records = [
        {"subset": subset_label(subset), "r_w": rw, "pearson": pr}
        for subset, (rw, pr) in compare_rankings(rankings_a, rankings_b).items()
    ]

    if fmt == "json":
        text = sio.records_to_json(records)
    elif fmt == "csv":
        text = sio.records_to_csv(records, ["subset", "r_w", "pearson"])
    else:
        rows = [
            [r["subset"] or "(none)", _f4(r["r_w"]), _f4(r["pearson"])]
            for r in records
        ]
        text = _table(["subset", "r_w", "pearson"], rows)
    _emit(text, out)
