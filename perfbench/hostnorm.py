"""Host-normalised timing: a fixed reference kernel between timed steps.

On a shared two-vCPU virtual machine the same Python work runs up to
twice as slow during episodes that last several seconds.  A raw
wall-clock median therefore mostly measures which episode a run landed
in.  Every timed phase here repeats one step and runs
:func:`reference_kernel` after each step.  The kernel is pure-Python
dict/set/int churn that imports nothing from the program under test, so
it slows in the same episodes as the step but never changes with the
program.  A step's time ``t`` is scaled by ``(NOMINAL_KERNEL_S / k) ** α``,
where ``k`` is its adjacent kernel time (the mean of the samples just
before and just after it); the unit stays seconds.  α = 1 divides by the
kernel outright.  The host's slow episodes do not slow all code alike,
though: the kernel slows about 1.8×, a snapshot load about 1.3×.  So
each phase has its own α, the slope of its raw time against the
kernel's across runs (see ``common.SENSITIVITY``).  A phase reports the
median of its per-step figures: a garbage-collection pause or a
preemption inflates one step, not the phase.  The raw wall-clock median
of every phase is kept next to it.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

#: The kernel's nominal duration; normalised figures are in these seconds.
NOMINAL_KERNEL_S = 0.012

#: Rounds of churn in one kernel call (about 12 ms on a 2-vCPU x86 VM).
_KERNEL_ROUNDS = 12


def _churn(rounds: int) -> int:
    acc = 0
    for r in range(rounds):
        table: dict = {}
        members = set()
        key = r + 1
        for i in range(2048):
            key = (key * 1103515245 + 12345) & 0x7FFFFFFF
            slot = key & 4095
            table[slot] = table.get(slot, 0) + (key >> 16)
            members.add((slot, i & 7))
        for slot in list(table)[::2]:
            acc += table.pop(slot)
        acc ^= len(members)
    return acc


def reference_kernel() -> float:
    """Run the fixed churn once with GC paused; return its wall seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _churn(_KERNEL_ROUNDS)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def wait_for_threads(baseline: int, timeout: float = 5.0) -> None:
    """Block until at most ``baseline`` threads are alive (handlers done)."""
    deadline = time.perf_counter() + timeout
    while threading.active_count() > baseline:
        if time.perf_counter() > deadline:
            raise RuntimeError("server handler threads did not finish")
        time.sleep(0.0005)


class Phase:
    """Timed work and the adjacent kernel time of each step.

    ``alpha`` is the phase's host sensitivity (see the module docstring).
    """

    def __init__(self, name: str, alpha: float = 1.0) -> None:
        self.name = name
        self.alpha = alpha
        self.work: List[float] = []
        self.kernel: List[float] = []
        self.units: List[float] = []
        self.samples: List[Tuple[float, float]] = []  # (seconds, kernel)

    def __len__(self) -> int:
        return len(self.work)

    def add(
        self,
        work: float,
        kernel: float,
        units: float = 1,
        samples: Sequence[float] = (),
    ) -> None:
        self.work.append(work)
        self.kernel.append(kernel)
        self.units.append(units)
        self.samples.extend((sample, kernel) for sample in samples)

    def scale(self, kernel: float) -> float:
        """Factor that takes a time measured beside ``kernel`` to the nominal host."""
        return (NOMINAL_KERNEL_S / kernel) ** self.alpha

    def norm(self) -> float:
        """Median over steps of the host-normalised seconds per unit."""
        return statistics.median(
            work / units * self.scale(kernel)
            for work, kernel, units in zip(self.work, self.kernel, self.units)
        )

    def wall(self) -> float:
        """Median over steps of the raw wall seconds per unit."""
        return statistics.median(
            work / units for work, units in zip(self.work, self.units)
        )

    def sample_quantile(self, q: float, normalised: bool = True) -> float:
        """Nearest-rank quantile of the per-operation samples."""
        values = sorted(
            seconds * self.scale(kernel) if normalised else seconds
            for seconds, kernel in self.samples
        )
        rank = max(0, min(len(values) - 1, round(q * (len(values) - 1))))
        return values[rank]


class Meter:
    """Takes the reference-kernel samples between timed steps.

    ``quiesce`` runs before every kernel sample; the serve workload uses
    it to wait until no server handler thread is alive.
    """

    def __init__(self, quiesce: Optional[Callable[[], None]] = None) -> None:
        self.quiesce = quiesce
        self.kernels: List[float] = []
        for _ in range(3):  # warm the kernel's code paths; not recorded
            reference_kernel()
        self._previous = reference_kernel()

    def sample(self) -> float:
        """Kernel time adjacent to the step just ended (before and after it)."""
        if self.quiesce is not None:
            self.quiesce()
        seconds = reference_kernel()
        self.kernels.append(seconds)
        adjacent = (self._previous + seconds) / 2
        self._previous = seconds
        return adjacent

    def kernel_ms(self) -> float:
        return statistics.median(self.kernels) * 1e3
