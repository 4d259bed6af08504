"""How fast the host runs interpreter code right now, and reference seconds.

The benchmark's host is a share of a machine that other tenants use too;
for minutes at a time the same code can run 10-25% slower on it.  A
timing taken in such a spell says more about the neighbours than about
the simulator.  So the benchmark also times a fixed pure-Python probe next
to the work it measures, and converts host seconds into *reference
seconds*: host seconds times the probe's median rate during the work over
``REFERENCE_RATE``, the probe's rate on the reference host (a 2-vCPU AMD
EPYC KVM guest, Python 3.11) when it was quiet.  On that host, unloaded,
the two clocks agree.  The probe imports nothing from ``repro``, so no
change to the simulator can move it.
"""

from __future__ import annotations

import statistics
import time

#: probe units per second on the reference host, unloaded
REFERENCE_RATE = 525.0


class _Node:
    __slots__ = ("mul", "add")

    def __init__(self, mul: int, add: int) -> None:
        self.mul = mul
        self.add = add

    def step(self, x: int) -> int:
        return (self.mul * x + self.add) & 0xFFFFF


class HostProbe:
    """A fixed unit of the work the simulator's inner loops do: slotted
    attribute reads, small method calls, dict updates and reads scattered
    over a working set of a few MiB (larger than a core's private cache,
    so a neighbour's cache pressure slows it as it slows the simulator)."""

    WORDS = 1 << 16         # distinct int objects read at random
    STEPS = 10000           # iterations per unit, ~2 ms on the reference host
    #: the first units of a process run up to 20% slow
    WARM_UP_S = 0.3

    def __init__(self) -> None:
        self.words = [(i * 2654435761) & 0xFFFFFFFF | (1 << 40)
                      for i in range(self.WORDS)]
        self.nodes = [_Node(2 * i + 1, i * 7919) for i in range(64)]
        self.rate(self.WARM_UP_S)

    def unit(self) -> int:
        words, nodes, mask = self.words, self.nodes, self.WORDS - 1
        table: dict[int, int] = {}
        acc = 1
        for i in range(self.STEPS):
            acc = nodes[acc & 63].step(acc ^ i)
            word = words[(acc * 40503) & mask]
            key = (word ^ acc) & 4095
            table[key] = table.get(key, 0) + 1
            if acc & 1:
                acc = (acc >> 1) ^ 0xB400
        return acc + len(table)

    def rate(self, seconds: float) -> float:
        """Units per second: the median of back-to-back units timed for
        about ``seconds`` (at least three)."""
        times = []
        end = time.perf_counter() + seconds
        while len(times) < 3 or time.perf_counter() < end:
            started = time.perf_counter()
            self.unit()
            times.append(time.perf_counter() - started)
        return 1.0 / statistics.median(times)


class ReferenceClock:
    """Host time of a piece of work, and the same in reference seconds.

    ``start`` and ``stop`` bracket the work and probe the host; ``tick``
    may be called between its steps and probes again once ``every_s`` host
    seconds have passed since the last probe.  The work's host time, the
    probes' own time left out, converts at the median probe rate: a spell
    that lasts through most of the work moves the median, a hiccup of a
    few milliseconds in one probe does not.  Without a ``probe`` the clock
    only keeps host time.
    """

    def __init__(self, probe: HostProbe | None, probe_s: float = 0.0,
                 every_s: float = float("inf")) -> None:
        self.probe = probe
        self.probe_s = probe_s
        self.every_s = every_s
        self.host_s = 0.0
        self.rates: list[float] = []
        self._since = 0.0

    def start(self) -> None:
        self._probe()
        self._since = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._since >= self.every_s:
            self.stop()
            self._since = time.perf_counter()

    def stop(self) -> None:
        self.host_s += time.perf_counter() - self._since
        self._probe()

    def _probe(self) -> None:
        if self.probe is not None:
            self.rates.append(self.probe.rate(self.probe_s))

    @property
    def speed(self) -> float:
        """The host's speed over the reference host's."""
        return statistics.median(self.rates) / REFERENCE_RATE

    @property
    def ref_s(self) -> float:
        return self.host_s * self.speed
