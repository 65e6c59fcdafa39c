"""The four benchmark workloads: inputs, one study, and its output check.

Each workload makes its inputs from the seed, writes them as files, and then
runs a "study": one full pass of its pipeline, starting from those files.
Every call a study makes into the library goes through ``t.call`` with a
span name ``<layer>.<function>``, so a traced run can attribute time to
layers without touching the package.

Sizes are set so that one study takes at most about two seconds on a 2-core
machine. That gives each run at least twenty samples, enough for a tail percentile
with ten samples beyond it, and keeps every run of every workload inside the
benchmark's time budget. Larger sizes (k=8 or 12, sweep exports at m=500,
m=10^4) take seconds per study today and are left for later, once the sweep
and the reference methods are faster.
"""

from __future__ import annotations

import csv
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle

SWEEP_FIELDS = ["subset", "s", "alternative", "utility", "rank"]
METHOD_NAMES = ("topsis", "mabac", "codas", "spotis", "promethee2")
BUNDLED_GROUPS = ("G1", "G4")  # dimensions reduced by the partial evaluations
CHILD_TIMEOUT_S = 60
PEAK_MARK = "perfbench-peak-kb"

#: ``python -m sspahp`` that reports, at exit, its own peak resident memory
#: (VmHWM). The rusage of a child is no use here: it counts the parent's
#: resident memory at fork, before the child execs.
CHILD_MAIN = f"""
import atexit, runpy, sys
def report():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("{PEAK_MARK} " + kb + "\\n")
atexit.register(report)
runpy.run_module("sspahp", run_name="__main__", alter_sys=True)
"""


def synthetic_hierarchy(lib, k: int, per_dim: int, seed: int):
    """k dimensions D1..Dk, each with ``per_dim`` criteria over 2 sub-dimensions.

    Roughly three in ten criteria are cost criteria, chosen from the seed.
    """
    rng = np.random.default_rng(seed)
    dims, objectives, count = [], {}, 0
    for d in range(1, k + 1):
        subs = []
        first = (per_dim + 1) // 2
        for part, size in ((1, first), (2, per_dim - first)):
            ids = tuple(f"C{count + i + 1}" for i in range(size))
            count += size
            subs.append(lib.sp.SubDimension(name=f"D{d}.{part}", criterion_ids=ids))
            for cid in ids:
                objectives[cid] = "min" if rng.random() < 0.3 else "max"
        dims.append(lib.sp.Dimension(id=f"D{d}", name=f"Dimension {d}", sub_dimensions=tuple(subs)))
    return lib.sp.CriteriaHierarchy(dimensions=tuple(dims), objectives=objectives)


def hierarchy_facts(h) -> dict:
    """What the oracle needs from a hierarchy, read off its plain structure."""
    structure = [[list(sub.criterion_ids) for sub in dim.sub_dimensions] for dim in h.dimensions]
    dim_of = [dim.id for dim in h.dimensions for sub in dim.sub_dimensions for _ in sub.criterion_ids]
    return {
        "dimension_ids": [dim.id for dim in h.dimensions],
        "dim_of": dim_of,
        "structure": structure,
    }


def matrix_facts(matrix) -> dict:
    return {
        "x": np.array(matrix.values),
        "profit": np.array([o == "max" for o in matrix.objectives]),
        "alternative_ids": list(matrix.alternative_ids),
    }


def write_pair(lib, directory: Path, h, matrix) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {"hierarchy": directory / "hierarchy.json", "matrix": directory / "matrix.csv"}
    lib.io.write_hierarchy_json(h, paths["hierarchy"])
    lib.io.write_matrix_csv(matrix, paths["matrix"])
    return paths


def load_pair(lib, t, paths):
    h = t.call("io.load_hierarchy", lib.io.load_hierarchy, paths["hierarchy"])
    matrix = t.call("io.load_decision_matrix", lib.io.load_decision_matrix, paths["matrix"], h)
    return h, matrix


def sweep(lib, t, matrix, h, w):
    return t.call("sensitivity.run_sweep", lambda: lib.sp.run_sweep(lib.sp.SweepSpec(matrix, h, w)))


def records_arrays(records, n_subsets: int, n_grid: int):
    u = np.fromiter((rec["utility"] for rec in records), float, len(records))
    r = np.fromiter((rec["rank"] for rec in records), float, len(records))
    return by_cell(np.stack([u, r], axis=1), n_subsets, n_grid)


def by_cell(columns: np.ndarray, n_subsets: int, n_grid: int):
    """(utilities, ranks) from [row, (utility, rank)], shaped [subset, s, alternative]."""
    shape = (n_subsets, n_grid, -1)
    return columns[:, 0].reshape(shape), columns[:, 1].reshape(shape)


def check_sweep(label: str, result, want: dict, problems: list[str]) -> None:
    if [tuple(s) for s in result.subsets] != want["subsets"]:
        problems.append(f"{label}: subset list differs from the oracle")
        return
    oracle.close(f"{label} grid", result.s_grid, want["grid"], oracle.UTIL_TOL, problems)
    u, r = records_arrays(result.to_records(), len(result.subsets), len(result.s_grid))
    oracle.close(f"{label} utilities", u, want["utilities"], oracle.UTIL_TOL, problems)
    oracle.same(f"{label} ranks", r, want["ranks"], problems)


def final_by_label(want: dict, alternative_ids) -> dict[str, dict[str, float]]:
    return {
        "+".join(sub): dict(zip(alternative_ids, want["ranks"][si, -1].astype(float).tolist()))
        for si, sub in enumerate(want["subsets"])
    }


class Workload:
    name = ""
    why = ""
    work_unit = ""
    min_studies = 40
    yardstick = "interpreter"  # a kind in yardstick.KINDS

    def make_inputs(self, lib, seed: int, workdir: Path) -> dict:
        raise NotImplementedError

    def build_oracle(self, inputs: dict) -> dict:
        raise NotImplementedError

    def study(self, lib, inputs: dict, t):
        raise NotImplementedError

    def check(self, out, inputs: dict, want: dict) -> list[str]:
        raise NotImplementedError

    def work_per_study(self, inputs: dict) -> int:
        raise NotImplementedError

    def sweep_cells(self, inputs: dict) -> int:
        """(subset, s) cells evaluated per study, over all of its sweeps."""
        return 0

    def count_study(self, lib, inputs: dict):
        """The study the call-counting run profiles (by default the timed one)."""
        return lambda t: self.study(lib, inputs, t)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that ran the studies."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SweepSummary(Workload):
    name = "sweep-summary"
    why = (
        "two full subset sweeps plus summaries on a synthetic k=5 hierarchy; "
        "per-cell work in sensitivity, evaluation and core dominates"
    )
    work_unit = "utility cells (sweeps x subsets x grid points x alternatives)"
    K, PER_DIM, M = 5, 4, 48

    def make_inputs(self, lib, seed, workdir):
        h = synthetic_hierarchy(lib, self.K, self.PER_DIM, seed)
        matrix = lib.sample.sample_matrix(m=self.M, seed=seed, hierarchy=h)
        return {"paths": write_pair(lib, workdir, h, matrix), "h": hierarchy_facts(h), "x": matrix_facts(matrix)}

    def build_oracle(self, inputs):
        x, profit = inputs["x"]["x"], inputs["x"]["profit"]
        r = oracle.minmax(x, profit)
        h = inputs["h"]
        w = {"critic": oracle.critic_weights(x, profit), "entropy": oracle.entropy_weights(x)}
        sweeps = {k: oracle.sweep(r, v, h["dim_of"], h["dimension_ids"]) for k, v in w.items()}
        alts = inputs["x"]["alternative_ids"]
        return {
            "weights": w,
            "sweeps": sweeps,
            "stability": {k: oracle.stability(v, alts) for k, v in sweeps.items()},
            "compare": oracle.compare(sweeps["critic"], sweeps["entropy"]),
        }

    def study(self, lib, inputs, t):
        h, matrix = load_pair(lib, t, inputs["paths"])
        weights = {
            "critic": t.call("weighting.critic_weights", lib.sp.critic_weights, matrix),
            "entropy": t.call("weighting.entropy_weights", lib.sp.entropy_weights, matrix),
        }
        sweeps = {k: sweep(lib, t, matrix, h, w) for k, w in weights.items()}
        stab = {k: t.call("sensitivity.stability_report", lib.sp.stability_report, v) for k, v in sweeps.items()}
        final = {k: t.call("sensitivity.final_rankings", v.final_rankings) for k, v in sweeps.items()}
        cmp = t.call("sensitivity.compare_rankings", lib.sp.compare_rankings, sweeps["critic"], sweeps["entropy"])
        return {"weights": weights, "sweeps": sweeps, "stability": stab, "final": final, "compare": cmp}

    def check(self, out, inputs, want):
        problems: list[str] = []
        for k, sw in out["sweeps"].items():
            oracle.close(f"{k} weights", out["weights"][k].weights, want["weights"][k], oracle.UTIL_TOL, problems)
            check_sweep(f"{k} sweep", sw, want["sweeps"][k], problems)
            if out["stability"][k] != want["stability"][k]:
                problems.append(f"{k} stability report differs from the oracle")
            final = out["final"][k]
            ranks = np.array([final[sub] for sub in want["sweeps"][k]["subsets"]])
            oracle.same(f"{k} final rankings", ranks, want["sweeps"][k]["ranks"][:, -1], problems)
        if list(out["compare"]) != list(want["compare"]):
            problems.append("compare_rankings subsets differ from the oracle")
        else:
            got = np.array(list(out["compare"].values()))
            oracle.close("compare_rankings", got, np.array(list(want["compare"].values())), oracle.UTIL_TOL, problems)
        return problems

    def sweep_cells(self, inputs):
        return 2 * 2**self.K * oracle.GRID_POINTS

    def work_per_study(self, inputs):
        return self.sweep_cells(inputs) * self.M


class SweepExport(Workload):
    name = "sweep-export"
    why = (
        "one sweep on the bundled hierarchy at m=96 written as long CSV and read back; "
        "the record writer and reader take most of the time"
    )
    work_unit = "utility cells (subsets x grid points x alternatives)"
    min_studies = 20  # about 1 s a study; 20 is the least for a median with 10 beyond
    M = 96

    def make_inputs(self, lib, seed, workdir):
        h = lib.sample.sample_hierarchy()
        matrix = lib.sample.sample_matrix(m=self.M, seed=seed, hierarchy=h)
        return {
            "paths": write_pair(lib, workdir, h, matrix),
            "export": workdir / "sweep.csv",
            "h": hierarchy_facts(h),
            "x": matrix_facts(matrix),
        }

    def build_oracle(self, inputs):
        x, profit = inputs["x"]["x"], inputs["x"]["profit"]
        w = oracle.critic_weights(x, profit)
        sw = oracle.sweep(oracle.minmax(x, profit), w, inputs["h"]["dim_of"], inputs["h"]["dimension_ids"])
        return {"weights": w, "sweep": sw, "final": final_by_label(sw, inputs["x"]["alternative_ids"])}

    def study(self, lib, inputs, t):
        h, matrix = load_pair(lib, t, inputs["paths"])
        w = t.call("weighting.critic_weights", lib.sp.critic_weights, matrix)
        result = sweep(lib, t, matrix, h, w)
        records = t.call("sensitivity.to_records", result.to_records)
        path = inputs["export"]
        size = t.call("io.records_to_csv", lambda: path.write_text(lib.io.records_to_csv(records, SWEEP_FIELDS), encoding="utf-8"))
        reread = t.call("io.load_ranking_file", lib.io.load_ranking_file, path)
        return {"weights": w, "result": result, "bytes": size, "reread": reread}

    def check(self, out, inputs, want):
        problems: list[str] = []
        oracle.close("critic weights", out["weights"].weights, want["weights"], oracle.UTIL_TOL, problems)
        sw = want["sweep"]
        rows = read_sweep_csv(inputs["export"])
        expected_rows = len(sw["subsets"]) * len(sw["grid"]) * self.M
        if len(rows) != expected_rows:
            return [f"export has {len(rows)} rows, expected {expected_rows}"]
        u, r = by_cell(rows, len(sw["subsets"]), len(sw["grid"]))
        oracle.close("exported utilities", u, sw["utilities"], oracle.UTIL_TOL, problems)
        oracle.same("exported ranks", r, sw["ranks"], problems)
        kind, reread = out["reread"]
        if kind != "sweep" or reread != want["final"]:
            problems.append("re-read final ranks differ from the oracle")
        final = out["result"].final_rankings()
        from_result = {"+".join(sub): dict(zip(inputs["x"]["alternative_ids"], v.astype(float).tolist())) for sub, v in final.items()}
        if from_result != reread:
            problems.append("re-read final ranks differ from final_rankings()")
        return problems

    def sweep_cells(self, inputs):
        return 2 ** len(inputs["h"]["dimension_ids"]) * oracle.GRID_POINTS

    def work_per_study(self, inputs):
        return self.sweep_cells(inputs) * self.M


class ReferenceMethods(Workload):
    name = "reference-methods"
    why = (
        "weights, evaluation, the five reference methods and rank correlations "
        "at m=800 with no sweep; PROMETHEE II's m x m x n tensor dominates"
    )
    work_unit = "alternatives x reference methods"
    yardstick = "arrays"
    M = 800

    def make_inputs(self, lib, seed, workdir):
        h = lib.sample.sample_hierarchy()
        matrix = lib.sample.sample_matrix(m=self.M, seed=seed, hierarchy=h)
        return {"paths": write_pair(lib, workdir, h, matrix), "h": hierarchy_facts(h), "x": matrix_facts(matrix)}

    def build_oracle(self, inputs):
        x, profit = inputs["x"]["x"], inputs["x"]["profit"]
        w = oracle.critic_weights(x, profit)
        r = oracle.minmax(x, profit)
        base = oracle.utilities(r, w, np.zeros(len(w)))
        member = np.array([d in BUNDLED_GROUPS for d in inputs["h"]["dim_of"]], dtype=float)
        group = oracle.utilities(r, w, member * 0.5)
        methods = oracle.reference_methods(x, w, profit)
        base_rank = oracle.input_order_ranks(base).astype(float)
        corr = {
            k: (oracle.weighted_spearman(base_rank, v["ranking"].astype(float)), oracle.pearson(base_rank, v["ranking"].astype(float)))
            for k, v in methods.items()
        }
        return {
            "critic": w,
            "entropy": oracle.entropy_weights(x),
            "base": (base, oracle.input_order_ranks(base)),
            "group": (group, oracle.input_order_ranks(group)),
            "methods": methods,
            "corr": corr,
        }

    def study(self, lib, inputs, t):
        sp = lib.sp
        h, matrix = load_pair(lib, t, inputs["paths"])
        wc = t.call("weighting.critic_weights", sp.critic_weights, matrix)
        we = t.call("weighting.entropy_weights", sp.entropy_weights, matrix)
        base = t.call("evaluation.evaluate", sp.evaluate, matrix, wc, 0.0)
        group = t.call("evaluation.evaluate_with_group_s", sp.evaluate_with_group_s, matrix, wc, h, BUNDLED_GROUPS, 0.5)
        # each method is called on its own (run_all is the same five calls) so
        # that its time can be read from outside the package
        scores = {name: t.call(f"benchmarks.{name}", getattr(sp, name), matrix, wc) for name in METHOD_NAMES}
        ref = base.ranking.astype(float)
        corr = {
            name: (
                t.call("correlation.weighted_spearman", sp.weighted_spearman, ref, sc.ranking.astype(float)),
                t.call("correlation.pearson", sp.pearson, ref, sc.ranking.astype(float)),
            )
            for name, sc in scores.items()
        }
        avg = {
            name: t.call("correlation.rank_from_scores", sp.rank_from_scores, sc.values, higher_better=sc.higher_better, ties="average")
            for name, sc in scores.items()
        }
        return {"critic": wc, "entropy": we, "base": base, "group": group, "scores": scores, "corr": corr, "avg": avg}

    def check(self, out, inputs, want):
        problems: list[str] = []
        oracle.close("critic weights", out["critic"].weights, want["critic"], oracle.UTIL_TOL, problems)
        oracle.close("entropy weights", out["entropy"].weights, want["entropy"], oracle.UTIL_TOL, problems)
        for key in ("base", "group"):
            oracle.close(f"{key} utilities", out[key].utilities, want[key][0], oracle.UTIL_TOL, problems)
            oracle.same(f"{key} ranks", out[key].ranking, want[key][1], problems)
        for name, ref in want["methods"].items():
            sc = out["scores"][name]
            oracle.close(f"{name} values", sc.values, ref["values"], ref["tol"], problems)
            oracle.same(f"{name} ranks", sc.ranking, ref["ranking"], problems)
            oracle.close(f"{name} average ranks", out["avg"][name], ref["average"], 1e-12, problems)
            oracle.close(f"{name} correlations", out["corr"][name], want["corr"][name], oracle.UTIL_TOL, problems)
        return problems

    def work_per_study(self, inputs):
        return self.M * len(METHOD_NAMES)


class CliDemo(Workload):
    name = "cli-demo"
    why = (
        "six fresh CLI processes on the 16 x 25 demo shape; interpreter, numpy "
        "and click start-up count, and the only workload that runs the cli layer"
    )
    work_unit = "CLI commands"
    min_studies = 20  # about 2 s a study; 20 is the least for a median with 10 beyond
    yardstick = "process"
    child_peak_kb = 0
    M = 16
    EXPERTS = 3

    def make_inputs(self, lib, seed, workdir):
        h = lib.sample.sample_hierarchy()
        matrix = lib.sample.sample_matrix(m=self.M, seed=seed, hierarchy=h)
        paths = write_pair(lib, workdir, h, matrix)
        experts = workdir / "experts"
        experts.mkdir(exist_ok=True)
        rng = np.random.default_rng(seed)
        judgments = [judgment_matrix(rng, len(h.dimensions)) for _ in range(self.EXPERTS)]
        for i, scale in enumerate(judgments):
            write_judgments(experts / f"expert{i + 1}.csv", scale)
        out = workdir / "out"
        out.mkdir(exist_ok=True)
        return {
            "paths": paths,
            "experts": experts,
            "out": out,
            "judgments": [to_values(j) for j in judgments],
            "h": hierarchy_facts(h),
            "x": matrix_facts(matrix),
            "src": Path(lib.sp.__file__).resolve().parent.parent,
        }

    def commands(self, inputs) -> list[tuple[str, list[str]]]:
        m, h = str(inputs["paths"]["matrix"]), str(inputs["paths"]["hierarchy"])
        out, experts = inputs["out"], str(inputs["experts"])
        data = ["--matrix", m, "--hierarchy", h]
        return [
            ("weights", ["weights", "--method", "ahp", "--pairwise", experts, "--hierarchy", h, "--format", "json", "--out", str(out / "weights.json")]),
            ("eval", ["eval", *data, "--weights-method", "ahp", "--pairwise", experts, "--s", "0.5", "--groups", ",".join(BUNDLED_GROUPS), "--format", "json", "--out", str(out / "eval.json")]),
            ("benchmarks", ["benchmarks", *data, "--weights-method", "critic", "--corr", "--format", "json", "--out", str(out / "benchmarks.json")]),
            ("sweep", ["sweep", *data, "--weights-method", "critic", "--groups", "all", "--format", "csv", "--out", str(out / "sweep_critic.csv")]),
            ("sweep", ["sweep", *data, "--weights-method", "entropy", "--groups", "all", "--format", "csv", "--out", str(out / "sweep_entropy.csv")]),
            ("corr", ["corr", str(out / "sweep_critic.csv"), str(out / "sweep_entropy.csv"), "--format", "json", "--out", str(out / "corr.json")]),
        ]

    def build_oracle(self, inputs):
        x, profit = inputs["x"]["x"], inputs["x"]["profit"]
        facts = inputs["h"]
        r = oracle.minmax(x, profit)
        dims = oracle.ahp_weights(inputs["judgments"])
        ahp = oracle.distribute(dims, facts["structure"])
        member = np.array([d in BUNDLED_GROUPS for d in facts["dim_of"]], dtype=float)
        evaluated = oracle.utilities(r, ahp, member * 0.5)
        critic = oracle.critic_weights(x, profit)
        base = oracle.utilities(r, critic, np.zeros(len(critic)))
        base_rank = oracle.input_order_ranks(base)
        methods = oracle.reference_methods(x, critic, profit)
        sweeps = {
            "critic": oracle.sweep(r, critic, facts["dim_of"], facts["dimension_ids"]),
            "entropy": oracle.sweep(r, oracle.entropy_weights(x), facts["dim_of"], facts["dimension_ids"]),
        }
        return {
            "dimension_weights": dims,
            "ahp": ahp,
            "eval": (evaluated, oracle.input_order_ranks(evaluated)),
            "base": (base, base_rank),
            "methods": methods,
            "corr": {
                k: (oracle.weighted_spearman(base_rank.astype(float), v["ranking"].astype(float)),
                    oracle.pearson(base_rank.astype(float), v["ranking"].astype(float)))
                for k, v in methods.items()
            },
            "sweeps": sweeps,
            "sweep_corr": {"+".join(k): v for k, v in oracle.compare(sweeps["critic"], sweeps["entropy"]).items()},
        }

    def study(self, lib, inputs, t):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(inputs["src"]), os.environ.get("PYTHONPATH")])))

        def child(argv):
            done = subprocess.run(
                [sys.executable, "-c", CHILD_MAIN, *argv],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
            errors = []
            for line in done.stderr.splitlines():
                if line.startswith(PEAK_MARK):
                    self.child_peak_kb = max(self.child_peak_kb, int(line.split()[1]))
                else:
                    errors.append(line)
            if done.returncode:
                raise RuntimeError(f"sspahp {argv[0]} exited {done.returncode}: {' '.join(errors)[-200:]}")

        return self._run(inputs, t, child)

    def count_study(self, lib, inputs):
        cli = importlib.import_module("sspahp.cli")
        return lambda t: self._run(inputs, t, lambda argv: cli.main.main(args=argv, standalone_mode=False))

    def _run(self, inputs, t, runner):
        shutil.rmtree(inputs["out"], ignore_errors=True)
        inputs["out"].mkdir()
        for name, argv in self.commands(inputs):
            t.call(f"cli.{name}", runner, argv)
        return inputs["out"]

    def peak_rss_mb(self):
        """Peak resident memory of the largest CLI child."""
        return self.child_peak_kb / 1024.0

    def check(self, out, inputs, want):
        problems: list[str] = []
        d = out
        alts = inputs["x"]["alternative_ids"]
        weights = json.loads((d / "weights.json").read_text())
        oracle.close("ahp dimension weights", list(weights["dimension_weights"].values()), want["dimension_weights"], oracle.UTIL_TOL, problems)
        oracle.close("ahp criterion weights", list(weights["weights"].values()), want["ahp"], oracle.UTIL_TOL, problems)
        ev = json.loads((d / "eval.json").read_text())
        oracle.close("eval utilities", ev["utilities"], want["eval"][0], oracle.UTIL_TOL, problems)
        oracle.same("eval ranks", ev["ranking"], want["eval"][1], problems)
        bench = json.loads((d / "benchmarks.json").read_text())
        oracle.close("benchmarks base", [bench["sspahp"]["values"][a] for a in alts], want["base"][0], oracle.UTIL_TOL, problems)
        for name, ref in want["methods"].items():
            oracle.close(f"benchmarks {name}", [bench[name]["values"][a] for a in alts], ref["values"], ref["tol"], problems)
            oracle.same(f"benchmarks {name} ranks", [bench[name]["ranking"][a] for a in alts], ref["ranking"], problems)
            got = bench["correlation_with_sspahp"][name]
            oracle.close(f"benchmarks {name} correlation", [got["r_w"], got["pearson"]], want["corr"][name], oracle.UTIL_TOL, problems)
        for key in ("critic", "entropy"):
            sw = want["sweeps"][key]
            rows = read_sweep_csv(d / f"sweep_{key}.csv")
            if len(rows) != len(sw["subsets"]) * len(sw["grid"]) * len(alts):
                problems.append(f"sweep {key}: {len(rows)} rows")
                continue
            u, r = by_cell(rows, len(sw["subsets"]), len(sw["grid"]))
            oracle.close(f"sweep {key} utilities", u, sw["utilities"], oracle.UTIL_TOL, problems)
            oracle.same(f"sweep {key} ranks", r, sw["ranks"], problems)
        corr = {rec["subset"]: (rec["r_w"], rec["pearson"]) for rec in json.loads((d / "corr.json").read_text())}
        if list(corr) != list(want["sweep_corr"]):
            problems.append("corr subsets differ from the oracle")
        else:
            oracle.close("corr", list(corr.values()), list(want["sweep_corr"].values()), oracle.UTIL_TOL, problems)
        return problems

    def work_per_study(self, inputs):
        return len(self.commands(inputs))


def judgment_matrix(rng, n: int) -> np.ndarray:
    """Reciprocal judgments on the 1..9 scale around a random priority vector.

    Entries above the diagonal are stored as signed scale steps: +k means k,
    -k means 1/k, so the file and the oracle read exactly the same numbers.
    """
    priority = rng.uniform(1.0, 9.0, size=n)
    steps = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            ratio = priority[i] / priority[j] * rng.uniform(0.8, 1.25)
            k = int(np.clip(np.rint(ratio if ratio >= 1 else 1 / ratio), 1, 9))
            steps[i, j] = k if ratio >= 1 else -k
            steps[j, i] = -steps[i, j]
    return steps


def _cell(step: int) -> str:
    return str(step) if step > 1 else "1" if step in (0, 1, -1) else f"1/{-step}"


def to_values(steps: np.ndarray) -> np.ndarray:
    values = np.ones(steps.shape)
    for (i, j), step in np.ndenumerate(steps):
        if step > 1:
            values[i, j] = float(step)
        elif step < -1:
            values[i, j] = 1.0 / float(-step)
    return values


def write_judgments(path: Path, steps: np.ndarray) -> None:
    path.write_text("\n".join(",".join(_cell(s) for s in row) for row in steps) + "\n", encoding="utf-8")


def read_sweep_csv(path: Path) -> np.ndarray:
    """The utility and rank columns of a long sweep CSV, one row per record."""
    with path.open(newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
        cols = (header.index("utility"), header.index("rank"))
        return np.loadtxt(fh, delimiter=",", usecols=cols, ndmin=2)


WORKLOADS = {w.name: w for w in (SweepSummary(), SweepExport(), ReferenceMethods(), CliDemo())}
