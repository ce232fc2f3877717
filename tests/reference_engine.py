"""Reference event engine: the plain binary-heap agenda.

An independent implementation of the engine's scheduling contract, kept
as the test oracle for :class:`repro.sim.Engine` and as the baseline
side of the ``engine.*`` microbenchmarks. Every triggered event becomes
one ``(time, priority, sequence, event)`` tuple on a binary heap, and
:meth:`run` is the textbook peek/step loop over it — no calendar
buckets, lanes, pools or inlined dispatch.

Only the agenda methods are overridden, so processes, ``at``,
``every`` and the conditions are the production code running on top of
this agenda. Delivery honours the ``Event._waiter`` slot: a parked
process is resumed before the listed callbacks (the slot is only taken
while the callback list is empty, so this is subscription order).
"""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple

from repro.sim.engine import Engine, Infinity
from repro.sim.errors import SimulationError, UnhandledEventFailure
from repro.sim.events import NORMAL, Event, Timeout


class ReferenceEngine(Engine):
    """:class:`Engine` with its agenda replaced by one tuple heap."""

    __slots__ = ("_agenda", "_sequence")

    def __init__(self, initial_time: float = 0.0) -> None:
        super().__init__(initial_time)
        self._agenda: List[Tuple[float, int, int, Event]] = []
        self._sequence = 0

    def peek(self) -> float:
        return self._agenda[0][0] if self._agenda else Infinity

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def rekey(self, timer: Timeout, delay: float) -> Timeout:
        """A fresh timeout takes over ``timer``'s value and callbacks;
        the old one leaves the heap and never fires."""
        if timer.callbacks is None or timer._waiter is not None:
            raise SimulationError(
                "rekey needs a pending timer that no process waits on")
        fresh = self.timeout(delay, timer._value)
        fresh.callbacks, timer.callbacks = timer.callbacks, fresh.callbacks
        self._agenda = [entry for entry in self._agenda
                        if entry[3] is not timer]
        heapq.heapify(self._agenda)
        return fresh

    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        self._sequence += 1
        heapq.heappush(self._agenda,
                       (self.now + delay, priority, self._sequence, event))

    def step(self) -> None:
        if not self._agenda:
            raise SimulationError("attempt to step an empty agenda")
        when, _priority, _sequence, event = heapq.heappop(self._agenda)
        if when < self.now:
            raise SimulationError("agenda time went backwards")
        self.now = when
        callbacks, event.callbacks = event.callbacks, None
        waiter, event._waiter = event._waiter, None
        if waiter is not None:
            waiter._resume(event)
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise UnhandledEventFailure(
                f"event failed and nobody handled it: {event._value!r}"
            ) from event._value

    def _drain(self, horizon: float) -> None:
        while self._agenda and self.peek() <= horizon:
            self.step()
