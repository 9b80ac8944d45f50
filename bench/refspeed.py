"""Host-speed reference: a fixed stdlib workload timed next to every op.

The shared machines this benchmark runs on change speed by up to 2x over
stretches of seconds to minutes, and every op slows with them.  A run times
this kernel (the square of a fixed sparse polynomial with Fraction
coefficients, the kind of work the package does, but none of its code)
right before and after each op, and scales the op's wall time by
`REFERENCE_MS` over the mean of the two: the op's time at the speed where
the kernel takes `REFERENCE_MS`.  The kernel lives here and never changes
with the package, so a faster package still reads faster.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

# The kernel's median time on the 2-vCPU shared host (Python 3.11) the
# benchmark was written on, in its usual, busy state; it only sets the scale.
REFERENCE_MS = 6.0


class Kernel:
    def __init__(self):
        rng = random.Random(5)
        self.poly = {  # 40 draws, 33 distinct monomials; the fixed seed keeps the kernel the same in every run
            (rng.randrange(6), rng.randrange(6), rng.randrange(4)):
                Fraction(rng.randrange(-99, 99), rng.randrange(1, 50))
            for _ in range(40)
        }
        for _ in range(5):  # warm the interpreter's caches before the first sample
            self.seconds()

    def _square(self) -> dict:
        out: dict = {}
        for (a1, b1, c1), u in self.poly.items():
            for (a2, b2, c2), v in self.poly.items():
                e = (a1 + a2, b1 + b2, c1 + c2)
                out[e] = out.get(e, 0) + u * v
        return out

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        started = time.perf_counter()
        self._square()
        return time.perf_counter() - started


def scale(before: float, after: float) -> float:
    """Factor that takes a wall time measured between two kernel samples to reference speed."""
    return REFERENCE_MS / 1000.0 / ((before + after) / 2.0)
