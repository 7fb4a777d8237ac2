"""Host-speed reference: rescales host time to a fixed nominal speed.

On a shared host the speed one process gets drifts by tens of percent
over a minute, so raw host seconds of the same work do not repeat from
run to run.  A :class:`HostClock` splits a measured phase into laps at
the points where the workload hands control back (between
``rig.run`` chunks), times a fixed pure-Python *reference sample*
after each lap, and charges every lap at the speed the reference ran
just before and just after it:

    normalised = sum(lap_s * NOMINAL_S / mean(ref_before, ref_after))

``NOMINAL_S`` is a constant, so a normalised time reads as seconds on
a host where one reference sample takes ``NOMINAL_S``.  The reference
does interpreter work of the kind the simulator does (calls, generator
resumptions, a heap, dicts, attribute access, small byte strings); it
calls nothing in the program, so a change to the program cannot move
it.  Reference time is not part of any lap.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter

#: Seconds one reference sample is taken to last at nominal speed.
NOMINAL_S = 0.005
#: Timed reference calls per sample; the sample is their median.
CALLS = 3


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _worker(table: dict):
    total = 0
    while True:
        item = yield total
        total += table.get(item.key & 255, 0) + item.value


def reference(rounds: int = 2500) -> int:
    """Fixed interpreter work; returns a checksum so none is skipped."""
    heap: list = []
    table: dict = {}
    worker = _worker(table)
    next(worker)
    parts = []
    acc = 0
    for i in range(rounds):
        item = _Item((i * 7919) & 1023, i & 15)
        table[item.key & 255] = item.value
        heapq.heappush(heap, (item.key, i, item))
        acc = worker.send(item)
        if len(heap) > 64:
            _key, _i, old = heapq.heappop(heap)
            parts.append(old.value.to_bytes(2, "big"))
    return acc + len(b"".join(parts))


def sample(calls: int = CALLS) -> float:
    """Seconds one reference call takes now (median of *calls*).

    The collector is off meanwhile: a collection would walk the
    program's heap, and the program's size must not move the sample.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(calls):
            start = perf_counter()
            reference()
            times.append(perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


class HostClock:
    """Raw and normalised host time of one measured phase.

    Create it right before the phase and call :meth:`lap` at each point
    the workload returns control, and once when the phase ends.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.norm_s = 0.0
        self.laps = 0
        self.refs = [sample()]
        self._mark = perf_counter()

    def lap(self) -> None:
        lap_s = perf_counter() - self._mark
        ref = sample()
        self.raw_s += lap_s
        self.norm_s += lap_s * NOMINAL_S / ((self.refs[-1] + ref) / 2.0)
        self.refs.append(ref)
        self.laps += 1
        self._mark = perf_counter()
