"""Timings calibrated against fixed reference kernels.

On a shared host the speed of the machine drifts: it flips between states
up to a third apart that last from a few seconds to a minute, so two runs of
the same code can differ by that much in wall time.  A ``Clock`` runs two
small fixed kernels at marks and divides the wall time of each segment
between two marks by the median time of the matching kernel around that
segment.  Multiplied by the kernel's nominal time, that gives *reference
seconds*: the time the segment would have taken with the machine at the
kernel's nominal speed.  The kernels use numpy and plain Python only, never
tenfact, so a change to tenfact moves reference seconds as it moves wall
time, while a change of host speed moves both the segment and the kernel.
Kernel time is excluded from every segment.

Times are read once the run is over, so that each segment is calibrated by
kernel samples on both sides of it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Nominal time of each kernel, its median on the 2-core Xeon VM the bounds
# were set on.  They only scale reference seconds to about wall seconds.
NOMINAL_S = {"numeric": 0.0050, "text": 0.0030}
# Best of this many kernel repeats, so that a brief preemption does not count.
REPEATS = 2
# A mark closer than this after the previous one runs no kernel, unless the
# last kernel ran a whole window ago.
MIN_SEGMENT_S = 0.02
# A segment is calibrated by the median of the kernel samples taken from this
# long before it starts to this long after it ends: long enough to smooth the
# kernel's own jitter, short against the host's speed states.
WINDOW_S = 2.0


class ReferenceKernels:
    """Two fixed pieces of work, one per kind of segment.

    Between the host's speed states, interpreter-bound work swings two to
    three times as far as numpy-bound work.  tenfact's dense, sparse and
    completion fits track the ``numeric`` kernel (a random gather, a
    streaming copy and a small BLAS product); text ``.coo`` I/O and the
    tri-occurrence build track the ``text`` kernel (a Python loop that
    formats and parses ``.coo`` lines).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((200, 200))
        self.table = rng.standard_normal(1 << 19)
        self.index = rng.integers(0, 1 << 19, 100_000)
        self.src = rng.standard_normal(1 << 20)
        self.dst = np.empty_like(self.src)
        self.entries = rng.integers(0, 2000, (400, 3))
        self.values = rng.random(400)

    def numeric(self):
        self.a @ self.a
        np.bincount(self.index, weights=self.table[self.index], minlength=self.table.size)
        np.copyto(self.dst, self.src)

    def text(self):
        lines = [f"{int(i)} {int(j)} {int(k)} {float(v)!r}" for (i, j, k), v in zip(self.entries, self.values)]
        for line in lines:
            parts = line.split()
            int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
        total = 0
        for i in range(10_000):
            total += i * i

    def __call__(self):
        """Best-of-``REPEATS`` seconds of each kernel, by kind."""
        out = {}
        for kind in NOMINAL_S:
            run = getattr(self, kind)
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                run()
                best = min(best, time.perf_counter() - t0)
            out[kind] = best
        return out


class Clock:
    """Marks on one timeline; ``wall`` and ``reference`` give the seconds between two marks."""

    def __init__(self):
        self.kernels = ReferenceKernels()
        self.kernels()  # warm-up
        self.sample_times = []
        self.sample_s = {kind: [] for kind in NOMINAL_S}  # kernel seconds at sample_times
        self.segments = []  # (start, end, kind) between consecutive marks
        self._end = None

    def mark(self, kind="numeric"):
        """End the segment since the previous mark, whose work was of ``kind``; returns this mark's index."""
        now = time.perf_counter()
        if self._end is not None:
            self.segments.append((self._end, now, kind))
        if not self.sample_times or now - self._end >= MIN_SEGMENT_S or now - self.sample_times[-1] >= WINDOW_S:
            self.sample_times.append(now)
            for name, seconds in self.kernels().items():
                self.sample_s[name].append(seconds)
        self._end = time.perf_counter()
        return len(self.segments)

    def wall(self, first, last):
        return sum(end - start for start, end, _ in self.segments[first:last])

    def reference(self, first, last):
        return sum(
            (end - start) * NOMINAL_S[kind] / self._kernel_near(kind, start, end)
            for start, end, kind in self.segments[first:last]
        )

    def _kernel_near(self, kind, start, end):
        lo = bisect.bisect_left(self.sample_times, start - WINDOW_S)
        hi = bisect.bisect_right(self.sample_times, end + WINDOW_S)
        # A kernel ran within one window before every mark, so the window is never empty.
        return statistics.median(self.sample_s[kind][lo:hi])
