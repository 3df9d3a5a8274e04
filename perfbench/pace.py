"""Host pace: how fast this host runs a fixed reference chunk, sampled during a run.

The benchmark shares a few cores of a host with other tenants, whose load
makes every instruction of a run slower, by up to twice, in phases that
last from milliseconds to minutes.  Process CPU time inflates as much as
wall time, so neither the fastest nor the median verdict of a run escapes
a slow phase that covers the run.

``PaceSampler`` measures that slowdown while the run goes on.  Every
``PERIOD_S`` of wall time a timer signal interrupts the run between two
bytecodes and times one reference chunk: a fixed exact product of two
small Fraction matrices, work of the kind the verifier does, which no
change to the verifier can alter.
The run's own time is its measured time minus the chunks; dividing it by
the chunks' mean time and multiplying by ``CHUNK_NOMINAL_S`` expresses it
in seconds on a host where the chunk takes its nominal time.  A faster
verifier lowers the result, a slower host does not.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

PERIOD_S = 0.01
# the chunk's fastest time (1st percentile of a tight loop) on a 2-core
# x86-64 host under CPython 3.11
CHUNK_NOMINAL_S = 330e-6

# Two fixed Fraction matrices, 5x5 and 5x4, with entries of up to 30 bits.
_LEFT = tuple(
    tuple(Fraction((7 * i + 3 * j) ** 5 + 1, (5 * i + j) ** 4 + 7) for j in range(5))
    for i in range(5)
)
_RIGHT = tuple(
    tuple(Fraction((2 * i + 9 * j) ** 4 + 3, (i + 4 * j) ** 5 + 11) for j in range(4))
    for i in range(5)
)


def reference_chunk() -> dict[tuple[int, int], Fraction]:
    """An exact rational matrix product, the verifier's staple, into a dict."""
    return {
        (i, j): sum(_LEFT[i][k] * _RIGHT[k][j] for k in range(5))
        for i in range(5)
        for j in range(4)
    }


@dataclass(frozen=True)
class Paced:
    """A span of work measured with its host pace."""

    wall_own_s: float  # measured wall time minus the reference chunks
    cpu_own_s: float  # measured CPU time minus the reference chunks
    chunks: int
    chunk_total_s: float  # wall time of the chunks inside the measured interval
    chunk_wall_s: float  # mean wall time of one chunk
    chunk_cpu_s: float  # mean CPU time of one chunk

    @property
    def wall_s(self) -> float:
        """Own wall time in seconds at the nominal pace."""
        return self.wall_own_s * CHUNK_NOMINAL_S / self.chunk_wall_s

    @property
    def cpu_s(self) -> float:
        """Own CPU time in seconds at the nominal pace."""
        return self.cpu_own_s * CHUNK_NOMINAL_S / self.chunk_cpu_s


class PaceSampler:
    """Times reference chunks on a SIGALRM timer between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self._wall0 = self._cpu0 = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference_chunk()
        self.cpus.append(time.process_time() - cpu0)
        self.walls.append(time.perf_counter() - wall0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> Paced:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall, cpu = time.perf_counter() - self._wall0, time.process_time() - self._cpu0
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        inside_wall, inside_cpu = sum(self.walls), sum(self.cpus)
        if not self.walls:  # shorter than one period: time one chunk after it
            self._tick()
        return Paced(
            wall_own_s=wall - inside_wall,
            cpu_own_s=cpu - inside_cpu,
            chunks=len(self.walls),
            chunk_total_s=inside_wall,
            chunk_wall_s=statistics.fmean(self.walls),
            chunk_cpu_s=statistics.fmean(self.cpus),
        )
