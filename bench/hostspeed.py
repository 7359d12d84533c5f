"""How fast the host ran while the benchmark ran.

On a shared VM the speed of the same code drifts by up to 2x within
minutes and wavers from one second to the next, because other tenants
share the host.  `Sampler` measures that speed during the timed work
itself: a SIGALRM timer interrupts the process every INTERVAL_S, and the
handler runs `kernel()`, a fixed piece of pure-Python work of the
package's kind (tuples, sets, dicts, a sort), and records how long it
took.  The time spent in the handler is taken out of the wall time of
the stretch it fell into.

`Stretch.ref_s` scales a stretch's wall time to a host on which
`kernel()` takes NOMINAL_S: wall time × NOMINAL_S ÷ the mean kernel time
of the stretch.  The mean, not the median, because the timed work
suffers every stall of the host in proportion, as the kernel does.
The kernel runs with the cyclic GC off, so the program's live objects
cannot slow it, and it does not call the package, so no change to the
package moves it.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL_S = 0.05
NOMINAL_S = 0.002
KERNEL_PAIRS = 1500


def kernel() -> int:
    rng = random.Random(12345)
    pairs = [(rng.randrange(200), rng.randrange(200)) for _ in range(KERNEL_PAIRS)]
    seen = set()
    adj: dict[int, list[int]] = {}
    for u, v in pairs:
        e = (u, v) if u < v else (v, u)
        if e in seen:
            continue
        seen.add(e)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return len(seen) + sorted((len(nbrs), k) for k, nbrs in adj.items())[-1][0]


@dataclass
class Stretch:
    """A stretch of wall time with the kernel samples taken during it."""

    wall_s: float  # without the time spent in the handler
    kernel_s: list[float]

    @property
    def ref_s(self) -> float:
        return self.wall_s * NOMINAL_S / statistics.fmean(self.kernel_s)


class Sampler:
    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self.handler_s = 0.0

    def _tick(self, signum, frame) -> None:
        enter = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            self.kernel_s.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
            self.handler_s += time.perf_counter() - enter

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, int, float]:
        return time.perf_counter(), len(self.kernel_s), self.handler_s

    def since(self, mark: tuple[float, int, float]) -> Stretch:
        """The stretch from `mark` to now.

        A stretch too short to hold a sample takes one now, so that every
        stretch has a speed.
        """
        start, first, handler_s = mark
        wall_s = time.perf_counter() - start - (self.handler_s - handler_s)
        if len(self.kernel_s) == first:
            self._tick(signal.SIGALRM, None)
        return Stretch(wall_s, self.kernel_s[first:])
