"""Benchmark for the sspahp library and CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-summary --seed 1 --seconds 15 --trace 0

One run sets up one workload from the seed, builds an oracle for it, then
times studies in a closed loop with a single caller. Times are wall times
scaled to a fixed machine speed by yardsticks run between studies (see
yardstick.py); the raw wall times are kept in the report. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics, taken from
spans recorded around each call into the library, from a call-counting run
under cProfile, and from tracemalloc. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A fuller
report with provenance goes to ``.perfbench/`` in the checkout.

Self-tests: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import os

# one caller, one BLAS thread; set before numpy loads, inherited by children
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402
import yardstick  # noqa: E402
from workloads import METHOD_NAMES, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 15
COUNT_REPEATS = 2
IMPORT_REPEATS = 5

#: (name, unit, better, bound); ``failed_frac`` is reported beside these but
#: is not a bounded metric, because it is 0 on a correct program
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("study_s.p50", "s", "lower", 0.2),
    ("study_s.tail", "s", "lower", 0.2),
    ("work_per_s", "1/s", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

CLI_COMMANDS = ("weights", "eval", "benchmarks", "sweep", "corr")

#: per-layer self time, summed per study over these span names
SPAN_GROUPS = {
    "io.load_s": ("io.load_hierarchy", "io.load_decision_matrix"),
    "io.export_s": ("io.records_to_csv",),
    "io.reread_s": ("io.load_ranking_file",),
    "sensitivity.run_sweep_s": ("sensitivity.run_sweep",),
    "sensitivity.to_records_s": ("sensitivity.to_records",),
    "sensitivity.summary_s": (
        "sensitivity.stability_report",
        "sensitivity.final_rankings",
        "sensitivity.compare_rankings",
    ),
    "evaluation.evaluate_s": ("evaluation.evaluate", "evaluation.evaluate_with_group_s"),
    "correlation.s": (
        "correlation.weighted_spearman",
        "correlation.pearson",
        "correlation.rank_from_scores",
    ),
    "weighting.s": ("weighting.critic_weights", "weighting.entropy_weights"),
    **{f"benchmarks.{m}_s": (f"benchmarks.{m}",) for m in METHOD_NAMES},
    **{f"cli.{c}_s": (f"cli.{c}",) for c in CLI_COMMANDS},
}

#: calls per study of these functions, counted under cProfile
COUNTED_CALLS = {
    "core.validate_matrix.calls": ("sspahp/core.py", "validate_matrix"),
    "core.normalize_minmax.calls": ("sspahp/core.py", "normalize_minmax"),
    "core.flatten_hierarchy.calls": ("sspahp/core.py", "flatten_hierarchy"),
    "evaluation.evaluate.calls": ("sspahp/evaluation.py", "evaluate"),
    "correlation.rank_from_scores.calls": ("sspahp/correlation.py", "rank_from_scores"),
}

PEAK_METHODS = ("codas", "promethee2")

#: (name, unit, better), in report order
PER_LAYER = (
    ("io.load_s", "s", "lower"),
    ("io.export_s", "s", "lower"),
    ("io.export_mb", "MB", "lower"),
    ("io.reread_s", "s", "lower"),
    ("sensitivity.run_sweep_s", "s", "lower"),
    ("sensitivity.cells", "count", "higher"),
    ("sensitivity.cells_per_s", "1/s", "higher"),
    ("sensitivity.to_records_s", "s", "lower"),
    ("sensitivity.summary_s", "s", "lower"),
    *((name, "count", "lower") for name in COUNTED_CALLS),
    ("evaluation.evaluate_s", "s", "lower"),
    ("correlation.s", "s", "lower"),
    ("weighting.s", "s", "lower"),
    *((f"benchmarks.{m}_s", "s", "lower") for m in METHOD_NAMES),
    *((f"benchmarks.{m}.peak_mb", "MB", "lower") for m in PEAK_METHODS),
    ("cli.import_s", "s", "lower"),
    *((f"cli.{c}_s", "s", "lower") for c in CLI_COMMANDS),
    ("trace.overhead_frac", "ratio", "lower"),
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import the package afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "sspahp" or n.startswith("sspahp.")]:
        del sys.modules[name]
    sp = importlib.import_module("sspahp")
    if Path(sp.__file__).resolve().parent != SRC / "sspahp":
        fail(f"imported sspahp from {sp.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        sp=sp, io=importlib.import_module("sspahp.io"), sample=importlib.import_module("sspahp.sample")
    )


def set_up(wl, seed: int, workdir: Path):
    """Import, generate and write the inputs SETUP_REPEATS times; keep the last.

    Returns the setup times scaled by the interpreter yardstick, which is the
    kind of work set-up does in every workload, and the raw wall times.
    """
    times, wall = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        scale = yardstick.factor("interpreter")
        t0 = time.perf_counter()
        lib = import_library()
        inputs = wl.make_inputs(lib, seed, workdir)
        wall.append(time.perf_counter() - t0)
        times.append(wall[-1] * scale)
    return lib, inputs, times, wall


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(wl, inputs, setup_times, timed) -> tuple[dict, dict]:
    times = timed["times"]
    summary = harness.summarize(times)
    summary["wall_p50"] = statistics.median(timed["wall"])
    return {
        "setup_s": statistics.median(setup_times),
        "study_s.p50": summary["p50"],
        "study_s.tail": summary["tail"],
        "work_per_s": wl.work_per_study(inputs) * len(times) / summary["total_s"],
        "peak_rss_mb": wl.peak_rss_mb(),
    }, summary


def cli_import_s() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sspahp.cli"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_peak_mb(lib, inputs, method: str) -> float:
    h = lib.io.load_hierarchy(inputs["paths"]["hierarchy"])
    matrix = lib.io.load_decision_matrix(inputs["paths"]["matrix"], h)
    w = lib.sp.critic_weights(matrix)
    tracemalloc.start()
    try:
        getattr(lib.sp, method)(matrix, w)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def per_layer(wl, lib, inputs, study, check, speed, args) -> tuple[dict, dict, list[str]]:
    # untraced and traced studies alternate, so that drift in machine speed
    # does not show up as tracing overhead
    floor = max(harness.MIN_BEYOND, wl.min_studies // 2)
    base, traced = harness.new_run(), harness.new_run()
    tracer = harness.Tracer()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= harness.MAX_PHASE_S or (elapsed >= args.seconds and len(traced["times"]) >= floor):
            break
        harness.run_one(study, check, harness.NullTracer(), speed, base)
        harness.run_one(study, check, tracer, speed, traced)
    tracer.dump(WORK / f"spans-{wl.name}-{args.seed}.json")

    # span self times get the same yardstick scaling as their study
    metrics = {
        name: statistics.median(v * f for v, f in zip(per, traced["factors"]))
        for name, per in tracer.per_study(SPAN_GROUPS).items()
    }
    export = inputs.get("export")
    metrics["io.export_mb"] = export.stat().st_size / 1e6 if export and export.exists() else 0.0
    metrics["sensitivity.cells"] = float(wl.sweep_cells(inputs))
    sweep_s = metrics["sensitivity.run_sweep_s"]
    metrics["sensitivity.cells_per_s"] = metrics["sensitivity.cells"] / sweep_s if sweep_s > 0 else 0.0

    counting = wl.count_study(lib, inputs)
    counts = [harness.count_calls(counting, COUNTED_CALLS) for _ in range(COUNT_REPEATS)]
    problems = [] if all(c == counts[0] for c in counts) else [f"call counts differ between counting runs: {counts}"]
    metrics.update({k: float(v) for k, v in counts[0].items()})

    for method in PEAK_METHODS:
        runs_it = wl.name == "reference-methods"
        metrics[f"benchmarks.{method}.peak_mb"] = traced_peak_mb(lib, inputs, method) if runs_it else 0.0
    metrics["cli.import_s"] = cli_import_s() if wl.name == "cli-demo" else 0.0

    base_p50 = statistics.median(base["times"])
    traced_p50 = statistics.median(traced["times"])
    metrics["trace.overhead_frac"] = traced_p50 / base_p50 - 1.0
    details = {
        "untraced_p50_s": base_p50,
        "traced_p50_s": traced_p50,
        "untraced_samples": len(base["times"]),
        "traced_samples": len(traced["times"]),
        "spans": len(tracer.spans),
        "call_counts_repeat": not problems,
        "call_counting_runs": COUNT_REPEATS,
    }
    return metrics, {"base": base, "traced": traced, "details": details}, problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "sspahp" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'sspahp'}; run from a full checkout")
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    lib, inputs, setup_times, setup_wall = set_up(wl, args.seed, WORK / f"{wl.name}-{args.seed}")
    want = wl.build_oracle(inputs)

    def study(t):
        return wl.study(lib, inputs, t)

    def check(out):
        return wl.check(out, inputs, want)

    speed = yardstick.Speed(wl.yardstick)
    warm = harness.warm_up(study, check, speed)
    report = {
        "provenance": provenance(args),
        "yardstick": wl.yardstick,
        "setup_times_s": setup_times,
        "setup_wall_s": setup_wall,
        "work_unit": wl.work_unit,
    }

    if args.trace == 0:
        timed = harness.measure(study, check, args.seconds, wl.min_studies, harness.NullTracer(), speed)
        metrics, summary = end_to_end(wl, inputs, setup_times, timed)
        failures = warm["failures"] + timed["failures"]
        attempted = warm["studies"] + len(timed["times"])
        metrics["failed_frac"] = len(failures) / attempted
        report.update(summary=summary, metrics=metrics, study_times_s=timed["times"], study_wall_s=timed["wall"])
        units = {name: unit for name, unit, _, _ in END_TO_END}
        printed = {name: metrics[name] for name in units}
        print(f"{wl.name} seed {args.seed}: {summary['samples']} studies, "
              f"tail = p{summary['tail_percentile']:g} with {summary['tail_beyond']} beyond, "
              f"times scaled by the {wl.yardstick} yardstick (raw wall p50 {summary['wall_p50']:.4g} s)")
        for name, value in metrics.items():
            print(f"  {name:<14} {value:.6g} {units.get(name, 'ratio')}")
    else:
        metrics, runs, problems = per_layer(wl, lib, inputs, study, check, speed, args)
        failures = warm["failures"] + runs["base"]["failures"] + runs["traced"]["failures"] + problems
        attempted = warm["studies"] + len(runs["base"]["times"]) + len(runs["traced"]["times"])
        report.update(trace=runs["details"], metrics=metrics)
        units = {name: unit for name, unit, _ in PER_LAYER}
        printed = {name: metrics[name] for name in units}
        print(f"{wl.name} seed {args.seed}: traced run, {runs['details']}")
        for name, value in printed.items():
            print(f"  {name:<36} {value:.6g} {units[name]}")

    report.update(attempted=attempted, failures=failures)
    (WORK / f"result-{wl.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8"
    )
    for problem in failures[:5]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in printed.items()},
    }))


if __name__ == "__main__":
    main()
