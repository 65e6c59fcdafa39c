"""Fixed reference work that tracks how fast the shared machine runs right now.

On a shared 2-core host the speed of the same pure-Python code drifts by up
to 2x over minutes, as other tenants come and go. Raw study times from runs
a minute apart then differ by more than any useful regression bound. A
short yardstick of the same kind of work as the study's dominant cost
therefore runs between consecutive studies, and each study's wall time is
scaled by ``NOMINAL_S[kind] / mean(yardstick before, yardstick after)``. The
result is wall time expressed at a fixed machine speed: the speed at which
the yardstick takes its nominal time. Yardsticks on both sides of a study
follow speed changes that happen during it.

The yardsticks use only numpy and the standard library, never the package
under test, so a change to the package cannot move them.

* ``interpreter``: small-array numpy calls, argsort, dict and float-to-text
  work, like the per-cell evaluation, records and CSV paths.
* ``arrays``: an m x m x n broadcast comparison, like PROMETHEE II and CODAS,
  which are bound by memory traffic rather than by the interpreter.
* ``process``: a fresh interpreter that imports numpy, like the start-up that
  takes most of each CLI command's time.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: typical time of each yardstick on the 2-core host the bounds were set on
NOMINAL_S = {"interpreter": 0.030, "arrays": 0.015, "process": 0.15}


def interpreter() -> None:
    rng = np.random.default_rng(0)
    r = rng.random((48, 20))
    w = rng.random(20)
    w /= w.sum()
    ids = [f"A{i:02d}" for i in range(48)]
    for k in range(300):
        u = (r - np.abs(r.mean(axis=0) - r) * (k / 300)) @ w
        order = np.argsort(-u, kind="stable")
        rows = [{"alternative": ids[i], "utility": repr(float(u[i])), "rank": n} for n, i in enumerate(order)]
        ",".join(row["utility"] for row in rows)


def arrays() -> None:
    x = np.random.default_rng(0).random((300, 25))
    (x[:, None, :] - x[None, :, :] > 0).astype(float).sum()


def process() -> None:
    # no timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
    # which is noise on a process that lives about 150 ms
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


KINDS = {"interpreter": interpreter, "arrays": arrays, "process": process}


def seconds(kind: str) -> float:
    """Wall time of one yardstick of ``kind``."""
    t0 = time.perf_counter()
    KINDS[kind]()
    return time.perf_counter() - t0


def factor(kind: str) -> float:
    """Time one yardstick of ``kind`` and return NOMINAL_S[kind] / measured."""
    return NOMINAL_S[kind] / seconds(kind)


class Speed:
    """Yardsticks of one kind taken between consecutive studies.

    The yardstick after one study is also the one before the next, so a
    closed loop pays one yardstick per study.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.last = None

    def before(self) -> float:
        if self.last is None:
            self.last = seconds(self.kind)
        return self.last

    def after(self, before: float) -> float:
        """Take the next yardstick; return the factor for the study just run."""
        self.last = seconds(self.kind)
        return NOMINAL_S[self.kind] / ((before + self.last) / 2)
