"""Timing, tracing and call-counting machinery shared by every workload.

Spans are recorded only around the calls this benchmark makes into the
library's public functions; nothing inside the package is patched. A layer is
the first dotted component of a span name (``io.load_hierarchy`` belongs to
``io``), which matches the module names under ``src/sspahp``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import statistics
import time
import traceback
from collections import Counter
from pathlib import Path

#: tail percentiles to choose from, in per-mille so the rank arithmetic is exact
TAIL_LADDER_PERMILLE = (500, 750, 900, 950, 990, 999)

#: samples that must lie beyond a percentile before it may be reported as the tail
MIN_BEYOND = 10

#: untimed, checked studies run at least this long before timing starts
WARM_UP_S = 1.0

#: a measurement phase stops here even when its study floor is not reached,
#: so that a run ends within three minutes even on a slow machine
MAX_PHASE_S = 75.0


def nearest_rank(n: int, permille: int) -> int:
    """1-based rank of the nearest-rank percentile in a sample of ``n``."""
    return max(-(-permille * n // 1000), 1)


def tail_percentile(n: int) -> int | None:
    """Highest ladder percentile (per mille) with MIN_BEYOND samples beyond it.

    None when ``n`` is too small for even the median to qualify.
    """
    best = None
    for pm in TAIL_LADDER_PERMILLE:
        if n - nearest_rank(n, pm) >= MIN_BEYOND:
            best = pm
    return best


def summarize(times: list[float]) -> dict:
    """Median and tail of study times, with the tail's percentile and support."""
    ordered = sorted(times)
    n = len(ordered)
    pm = tail_percentile(n)
    used = pm if pm is not None else TAIL_LADDER_PERMILLE[0]
    rank = nearest_rank(n, used)
    return {
        "samples": n,
        "p50": statistics.median(ordered),
        "tail": ordered[rank - 1],
        "tail_percentile": used / 10.0,
        "tail_beyond": n - rank,
        "tail_supported": pm is not None,
        "total_s": sum(ordered),
    }


class NullTracer:
    """Calls straight through: the end-to-end and call-counting runs record no spans."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def study(self, study_id, fn, *args):
        return fn(*args)


class Tracer(NullTracer):
    """Records one span per wrapped call: name, start, end, parent, study id."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, study id]
        self._stack: list[int] = []
        self._study = None

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self._study]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def study(self, study_id, fn, *args):
        self._study = study_id
        try:
            return self.call("study", fn, *args)
        finally:
            self._study = None

    def self_times(self) -> list[float]:
        """Per span, its duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def per_study(self, groups: dict[str, tuple[str, ...]]) -> dict[str, list[float]]:
        """For each metric, the per-study sum of self time over its span names."""
        owner = {span: metric for metric, names in groups.items() for span in names}
        studies = sorted({s[4] for s in self.spans if s[4] is not None})
        index = {sid: i for i, sid in enumerate(studies)}
        out = {metric: [0.0] * len(studies) for metric in groups}
        for span, own in zip(self.spans, self.self_times()):
            metric = owner.get(span[0])
            if metric is not None and span[4] is not None:
                out[metric][index[span[4]]] += own
        return out

    def dump(self, path: Path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "study": sid}
            for n, s, e, p, sid in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def warm_up(study, check, speed) -> dict:
    """Checked but untimed studies, so that lazy set-up and caches settle first."""
    run = measure(study, check, WARM_UP_S, 1, NullTracer(), speed)
    return {"studies": len(run["times"]), "failures": run["failures"]}


def new_run() -> dict:
    return {"times": [], "wall": [], "factors": [], "failures": []}


def run_one(study, check, tracer, speed, run: dict) -> None:
    """Time and check one study, appending to ``run``.

    ``speed`` (a yardstick.Speed) takes untimed yardsticks around the study;
    ``times`` get the wall time scaled by their factor, ``wall`` the raw
    wall time.
    """
    before = speed.before()
    t0 = time.perf_counter()
    try:
        out = tracer.study(len(run["times"]), study, tracer)
    except Exception:  # a failed study is counted, not fatal
        out = None
        run["failures"].append(traceback.format_exc(limit=3).strip().splitlines()[-1])
    wall = time.perf_counter() - t0
    factor = speed.after(before)
    run["wall"].append(wall)
    run["factors"].append(factor)
    run["times"].append(wall * factor)
    if out is not None:
        problems = check(out)
        if problems:
            run["failures"].append(problems[0])


def measure(study, check, seconds: float, min_studies: int, tracer, speed) -> dict:
    """Closed loop with one caller: run studies until both the time and the
    study floor are reached, timing each and checking its output afterwards.
    """
    run = new_run()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_PHASE_S or (elapsed >= seconds and len(run["times"]) >= min_studies):
            return run
        run_one(study, check, tracer, speed, run)


def count_calls(study, functions: dict[str, tuple[str, str]]) -> dict[str, int]:
    """Calls of each (module file, function) made by one study, via cProfile."""
    profiler = cProfile.Profile()
    profiler.runcall(study, NullTracer())
    stats = pstats.Stats(profiler).stats
    totals: Counter = Counter()
    for (filename, _, funcname), (_, ncalls, _, _, _) in stats.items():
        for metric, (module_file, fn) in functions.items():
            if funcname == fn and Path(filename).as_posix().endswith(module_file):
                totals[metric] += ncalls
    return {metric: totals[metric] for metric in functions}

