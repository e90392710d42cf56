"""Operation times in units of a reference kernel timed beside them.

On a shared host the same code runs up to 1.7x slower for seconds to
minutes at a time while other tenants load the machine, so a time in
seconds says more about the neighbours than about the program.  A fixed
reference kernel is timed between operations, never inside one, at most
``INTERVAL_S`` seconds apart.  An operation's normalized time is its
duration over the mean of the reference samples just before and just
after it: both slow down together, so the ratio stays put.  The kernel
never calls the package, so only a change to the package moves the ratio.

The kernel mixes a pullback-style contraction and powers, an interpreted
loop, small matrix products and a memory stream.  Without the stream it
slowed down more than the sweeps did; with it the ratio spread least on
both sweeps.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Samples at most 0.25 s apart follow speed spells that last seconds; each
# sample is the median of 3 kernel runs.
INTERVAL_S = 0.25
REPS = 3


class RefClock:
    """Reference samples of the current pass and the normalization."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._rule = rng.random((7, 2))
        self._edges = rng.random((2000, 2, 2))
        self._powers = np.array([2, 1])
        self._mat = rng.random((48, 48))
        # 8 MB streams, beyond the per-core caches
        self._stream = rng.random(1 << 20)
        self._out = np.empty_like(self._stream)
        self.reset()

    def _kernel(self):
        start = time.perf_counter()
        pos = np.einsum("qk,nkd->nqd", self._rule, self._edges).reshape(-1, 2)
        np.prod(pos ** self._powers, axis=1).sum()
        acc = 0.0
        for i in range(1000):
            acc += i * 0.5
        m = self._mat
        for _ in range(3):
            m = np.tanh(self._mat @ m)
        np.multiply(self._stream, 1.0001, out=self._out)
        np.add(self._out, self._stream, out=self._out)
        return time.perf_counter() - start

    def reset(self):
        """Forget the samples of the previous pass; sample once to open
        the new one."""
        self._times = []
        self.refs = []
        self.sample()

    def sample(self):
        """Time the kernel now (the median of ``REPS`` runs).  Not the
        fastest: that would pick the fast moments and read the state low."""
        ref = statistics.median(self._kernel() for _ in range(REPS))
        self._times.append(time.perf_counter())
        self.refs.append(ref)

    def before_op(self):
        """Sample unless a sample was taken within ``INTERVAL_S`` seconds."""
        if not self._times or time.perf_counter() - self._times[-1] > INTERVAL_S:
            self.sample()

    def normalize(self, start, end):
        """(end - start) over the mean reference around [start, end].

        Needs a sample after end: call ``sample`` once more after a pass's
        last operation.
        """
        before = bisect.bisect_right(self._times, start) - 1
        after = bisect.bisect_left(self._times, end)
        if before < 0 or after == len(self._times):
            raise ValueError("operation lies outside the reference samples")
        return (end - start) / (0.5 * (self.refs[before] + self.refs[after]))
