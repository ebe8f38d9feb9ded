"""The host's pace, sampled while a sweep runs, to turn wall time into work.

On a shared virtual machine the same sweep can take 10 s or 14 s minutes
apart, and its speed changes within seconds, while steal time stays near 0:
the host runs every instruction slower, not less often.  A `Pacer` measures
that speed during the sweep itself.  Every `INTERVAL_S` seconds of wall time
(SIGALRM; the handler runs between bytecodes of the main thread) it runs one
fixed slice of work that mixes what the program spends its time on:
bytes-keyed dictionary inserts (the permutation-group index), small LAPACK
calls (the representation layer), passes over a 1 MB array, and random
reads from a 32 MB table (past the L2 cache, so L3 and memory contention
show).  A short untimed pass at the start of each slice brings its small
data back into the caches, so what the program did just before does not
change the slice's time.

For a sweep that took `wall` seconds, ran slices summing to `paced_s`
seconds, and whose slices' timed parts averaged `slice_s`:

    work_s  = wall - paced_s               # the sweep's own time
    pace    = slice_s / REF_SLICE_S        # about 1 on the reference host
    sweep_s = work_s / pace                # seconds at the reference pace

REF_SLICE_S is a constant of the benchmark, near the slice's median time on
the machine where the baseline was taken.  It only scales the figures: two
commits measured with the same benchmark compare alike whatever its value.
The slices take about 7 % of a sweep's wall time.  The slice's data
(`Slice.data_mb`, 35 MB, resident while the sweep runs) is taken out of the
sweep process's peak resident memory.
"""
from __future__ import annotations

import signal
import statistics
import sys
import time

import numpy as np

INTERVAL_S = 0.25
REF_SLICE_S = 0.013


class Slice:
    """One fixed, deterministic unit of work; its inputs are built once."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.keys = [rng.permutation(64).astype(np.uint8).tobytes()
                     for _ in range(8000)]
        a = rng.standard_normal((40, 40))
        self.mat, self.sym = a, a + a.T
        self.vec = rng.standard_normal(1 << 17)          # 1 MB
        self.out = self.vec.copy()
        self.table = rng.integers(0, 1 << 30, 1 << 22)   # 32 MB
        self.where = rng.integers(0, 1 << 22, 1 << 15)
        arrays = (self.mat, self.sym, self.vec, self.out, self.table,
                  self.where)
        self.data_mb = (sum(a.nbytes for a in arrays)
                        + sum(map(sys.getsizeof, self.keys))
                        + sys.getsizeof(self.keys)) / 2**20

    def _dict(self, rounds: int) -> int:
        acc = 0
        for _ in range(rounds):
            index = {key: i for i, key in enumerate(self.keys)}
            acc += sum(index[k] for k in self.keys[::7])
        return acc

    def _lapack(self, rounds: int) -> float:
        acc = 0.0
        for _ in range(rounds):
            acc += float(np.linalg.eigvalsh(self.sym)[0])
            acc += float(np.linalg.qr(self.mat)[0][0, 0])
        return acc

    def _stream(self, rounds: int) -> float:
        for _ in range(rounds):
            np.multiply(self.vec, 1.0000001, out=self.out)
        return float(self.out[0])

    def _gather(self, rounds: int) -> int:
        return sum(int(self.table.take(self.where)[-1])
                   for _ in range(rounds))

    def run(self) -> tuple[float, float]:
        """(timed, total) seconds of one slice."""
        start = time.perf_counter()
        self._dict(1), self._lapack(2), self._stream(4)
        mid = time.perf_counter()
        self.acc = (self._dict(4) + self._lapack(20) + self._stream(40)
                    + self._gather(12))
        end = time.perf_counter()
        return end - mid, end - start


class Pacer:
    """Runs a slice every INTERVAL_S seconds of wall time while entered."""

    def __init__(self):
        self.slice = Slice()
        self.slice.run()                     # loads the LAPACK code
        self.samples: list[float] = []       # timed part of each slice
        self.paced_s = 0.0                   # whole slices, warm-up too

    def _run(self, *_):
        timed, total = self.slice.run()
        self.samples.append(timed)
        self.paced_s += total

    def __enter__(self) -> "Pacer":
        self._old = signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def sample(self, n: int) -> "Pacer":
        """n slices back to back, for a process with no sweep to pace."""
        for _ in range(n):
            self._run()
        return self

    @property
    def pace(self) -> float:
        """Mean timed slice over REF_SLICE_S; above 1 on a slower host."""
        return statistics.fmean(self.samples) / REF_SLICE_S
