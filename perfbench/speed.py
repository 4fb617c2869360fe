"""Interpreter speed probe: rescales measured times to a fixed speed.

Machines shared with other tenants change speed for seconds at a time: one
fixed operation took 87 ms for twelve seconds, then 55 ms for the next
fourteen. That swamps the changes the benchmark has to detect. So while the
loop runs, a timer signal interrupts it every ``SAMPLE_S`` seconds and times
a short kernel of benchmark-owned code. Each operation's time, less the
kernel runs inside it, is multiplied by the kernel's reference step time
over its mean step time sampled during the operation.

Load does not slow every kind of Python code alike: rescaled by the
``Fraction`` kernel alone, ls-casestudy's times still spread 8-14% across
seeds, against 1-6% with the float kernel. So each workload names the
kernel that does its kind of work. The kernels use no quiverdyn code, so a
change to quiverdyn cannot move them.
"""

import itertools
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

SAMPLE_S = 0.1

_TERMS = [((1, 0, 1), 1.0), ((2, 0, 0), -1.0), ((0, 1, 0), 1.0),
          ((1, 1, 0), 0.5), ((0, 0, 1), 2.0)]
_J = np.array([[2.0, 0.3], [0.1, 1.5]])
_EDGES = [(i, (i + 1) % 6, "r") for i in range(6)] + \
         [(i, i, "s") for i in range(6)]


def _exact(steps):
    acc = Fraction(0)
    store = {}
    for i in range(1, steps + 1):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        store[(i, i % 7)] = acc


def _float(steps):
    point = [0.3, -0.2, 0.01]
    for _ in range(steps):
        vals = []
        for _ in range(4):
            total = 0.0
            for exps, c in _TERMS:
                v = c
                for x, e in zip(point, exps):
                    if e:
                        v = v * x ** e
                total = total + v
            vals.append(total)
        z = np.concatenate([np.array(vals[:2]), np.array(point)])
        np.linalg.solve(_J, z[:2])


def _combinatorial(steps):
    perms = itertools.permutations(range(6))
    best = None
    for _ in range(steps):
        relabel = dict(zip(range(6), next(perms)))
        enc = tuple(sorted((relabel[s], relabel[t], c) for s, t, c in _EDGES))
        if best is None or enc < best:
            best = enc


# kernel -> (function, steps per sample, reference microseconds per step).
# A sample takes about 0.3 ms. The reference step times are medians
# measured on a 2-core Intel Xeon machine at a quiet moment.
KERNELS = {
    "exact": (_exact, 60, 5.3),
    "float": (_float, 20, 18.5),
    "combinatorial": (_combinatorial, 80, 4.1),
}


def step_us(kernel, steps=None):
    fn, default_steps, _ = KERNELS[kernel]
    steps = steps or default_steps
    t0 = time.perf_counter()
    fn(steps)
    return (time.perf_counter() - t0) * 1e6 / steps


def factor(kernel, us):
    """Factor that rescales a time measured at ``us`` per kernel step."""
    return KERNELS[kernel][2] / us


class SpeedProbe:
    """Times a kernel from a SIGALRM handler every SAMPLE_S seconds.

    The handler runs in this thread between bytecodes, so it samples the
    speed of the core the operations run on, during the operations.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.t = []       # sample start times (perf_counter seconds)
        self.us = []      # kernel step time of each sample
        self.cost = []    # seconds each sample took

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.us.append(step_us(self.kernel))
        self.t.append(t0)
        self.cost.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def rescale(self, t0, t1):
        """(seconds in [t0, t1] spent outside the probe, factor to the
        reference speed from the samples within 1.5 intervals of it)."""
        inside = sum(c for t, c in zip(self.t, self.cost) if t0 <= t <= t1)
        near = [u for t, u in zip(self.t, self.us)
                if t0 - 1.5 * SAMPLE_S <= t <= t1 + 1.5 * SAMPLE_S]
        if not near:
            mid = (t0 + t1) / 2
            near = [u for _, u in sorted(zip(self.t, self.us),
                                         key=lambda p: abs(p[0] - mid))[:2]]
        return t1 - t0 - inside, factor(self.kernel, statistics.mean(near))
