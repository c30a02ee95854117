"""A fixed piece of numpy-and-Python work that tells how fast this core runs
right now.

On a shared machine other tenants slow a core by up to 2x, for seconds or
minutes at a time, and nothing in a run can avoid it. While a measured child
runs, a `Sampler` thread in the benchmark times `tick()` every PERIOD_S on
the same core (the benchmark pins itself and its children to one core). A
time measured while the ticks took `y` (median) is reported at the speed of
a core on which a tick takes REF_S: `t * (REF_S / y) ** EXPONENT`.

The tick resembles nclab's hot loops: Jacobi rotations on column pairs and a
Gaussian-CDF activation on a small matrix product. It imports nothing from
nclab, so a change to the program never changes it. Each tick takes a few
percent of the core from the child, the same share on every commit.

A slow spell stretches the tick more than it stretches an nclab pass (tick
times ranged 2-8 ms while pass times ranged 1.5-2x). Over 16 passes of each
of pyramidal, depth_sweep and verify_full on the tuning machine, EXPONENT
0.5 gave the smallest spread of scaled pass times of 0, 0.5, 0.7, 0.85 and
1: it cut the coefficient of variation from 0.10/0.22/0.15 to
0.07/0.14/0.08.
"""

import math
import statistics
import threading
import time

import numpy as np
from scipy.special import ndtr

PERIOD_S = 0.25
REF_S = 0.004      # a tick's time on an undisturbed core of the tuning machine
EXPONENT = 0.5

_RNG = np.random.default_rng(0)
_A = np.array(_RNG.standard_normal((48, 16)), order="F")
_W = _RNG.standard_normal((32, 16)) / 4
_X = _RNG.standard_normal((16, 32))


def tick() -> float:
    """Seconds a fixed few milliseconds of work took."""
    t0 = time.perf_counter()
    b = _A.copy(order="F")
    for i in range(15):
        for j in range(i + 1, 16):
            bi, bj = b[:, i], b[:, j]
            app, aqq, apq = bi @ bi, bj @ bj, bi @ bj
            if apq == 0.0:
                continue
            tau = (aqq - app) / (2.0 * apq)
            t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            bi_new = c * bi - s * bj
            b[:, j] = s * bi + c * bj
            b[:, i] = bi_new
    u = _W @ _X
    for _ in range(60):
        u = 0.3 * u + 0.7 * u * ndtr(4.0 * u)
    return time.perf_counter() - t0


class Sampler:
    """Ticks every PERIOD_S while switched on; `factor` turns the ticks taken
    during one measurement into its scale factor."""

    def __init__(self):
        self.samples: list = []
        self._on = threading.Event()
        self._quit = False
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while self._on.wait() and not self._quit:
            time.sleep(PERIOD_S)
            if self._on.is_set() and not self._quit:
                self.samples.append(tick())

    def on(self):
        self._on.set()

    def off(self):
        self._on.clear()

    def close(self):
        self._quit = True
        self._on.set()
        self._thread.join()

    def factor(self, start: int) -> float:
        """Scale factor from the ticks since sample index `start`; a
        measurement shorter than PERIOD_S uses the latest tick."""
        ticks = self.samples[start:] or self.samples[-1:] or [tick()]
        return (REF_S / statistics.median(ticks)) ** EXPONENT
