"""Machine-speed calibration for the benchmark's timings.

A shared host's speed changes by up to 2x from one second or one minute
to the next, far more than most code changes move a figure.  So the
benchmark samples the speed during every operation with fixed work of
its own, and reports each operation's time as what it would have taken
at a reference speed: its time multiplied by the reference time of the
fixed work over the fixed work's time while the operation ran.

Two kinds of fixed work, because the two kinds of operation slow down
differently when the host is busy:

* in-process operations: ``calibration_work()``, run every
  CHUNK_EVERY_S by a timer signal in this process, also in the middle
  of an operation.  The time the chunks take is not counted in the
  operation's time;
* fresh-process operations: this file run as a fresh process, which
  starts the interpreter, imports numpy and runs PROC_CHUNKS chunks.
  Interpreter start-up and imports slow down less than interpreter work
  does, and the times of single fresh processes scatter widely, so these
  references run about once a second and an operation takes the median
  of those within PROC_WINDOW_S of it.

Run as a script, this file is that fresh-process reference.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
from time import perf_counter

CAL_A = "Aaaa 99.9  aaa, Aaa 9999 -- aa aaaa"
CAL_B = "Aaaa  99,9 aaa  Aaa 999 - aa  aaa 9"

CHUNK_EVERY_S = 0.02   # timer period of the in-process chunks
CHUNK_WINDOW_S = 0.05  # an operation's speed comes from the chunks this close to it
CHUNK_REF_S = 0.0005   # reference time of one chunk
PROC_EVERY_S = 1.0     # a reference process runs before a fresh-process operation at most this often
PROC_WINDOW_S = 5.0    # a fresh-process operation's speed comes from the references this close to it
PROC_REF_S = 0.2       # reference time of one reference process
PROC_CHUNKS = 120


def calibration_work() -> int:
    """A fixed unit-cost edit distance in plain Python: the kind of
    interpreter work the program does, and nothing of the program."""
    prev = list(range(len(CAL_B) + 1))
    for i, ca in enumerate(CAL_A, 1):
        cur = [i]
        for j, cb in enumerate(CAL_B, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


class Samples:
    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def add(self, t0: float, dt: float):
        self.at.append(t0)
        self.took.append(dt)

    def near(self, t0: float, dt: float, window: float) -> float:
        """Median time of the samples that started within ``window`` of
        the interval [t0, t0 + dt]."""
        lo = bisect.bisect_left(self.at, t0 - window)
        hi = bisect.bisect_right(self.at, t0 + dt + window)
        return statistics.median(self.took[lo:hi] or self.took)

    def summary(self) -> dict:
        return {"n": len(self.took), "median_s": statistics.median(self.took),
                "quartiles_s": statistics.quantiles(self.took, n=4) if len(self.took) > 1 else self.took}


class Speed:
    """Use as a context manager: the timer runs inside the ``with``."""

    def __init__(self, env, cwd):
        self.chunks = Samples()
        self.procs = Samples()
        self.busy = 0.0  # seconds spent in timer chunks so far
        self.argv = [sys.executable, __file__]
        self.env, self.cwd = env, cwd

    def _on_timer(self, signum, frame):
        t0 = perf_counter()
        calibration_work()
        dt = perf_counter() - t0
        self.chunks.add(t0, dt)
        self.busy += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, CHUNK_EVERY_S, CHUNK_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def before(self, fresh: bool):
        """Before an operation: a reference process, if it runs in a
        fresh process and the last reference is PROC_EVERY_S old."""
        if fresh and (not self.procs.at or perf_counter() - self.procs.at[-1] >= PROC_EVERY_S):
            t0, busy = perf_counter(), self.busy
            subprocess.run(self.argv, env=self.env, cwd=self.cwd, check=True,
                           capture_output=True, timeout=60)
            self.procs.add(t0, perf_counter() - t0 - (self.busy - busy))

    def factor(self, t0: float, dt: float, fresh: bool) -> float:
        """Reference speed over the speed around an operation that ran
        from t0 for dt seconds."""
        if fresh:
            return PROC_REF_S / self.procs.near(t0, dt, PROC_WINDOW_S)
        return CHUNK_REF_S / self.chunks.near(t0, dt, CHUNK_WINDOW_S)

    def summary(self) -> dict:
        return {"chunks": self.chunks.summary(),
                "reference_processes": self.procs.summary() if self.procs.took else None}


if __name__ == "__main__":
    import numpy  # noqa: F401  (start-up work like the program's)
    for _ in range(PROC_CHUNKS):
        calibration_work()
