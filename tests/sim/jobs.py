"""A minimal queued op for driving a :class:`Resource` directly in tests.

The simulator's only queued op is the op pipeline; these tests exercise
the resource's scheduling on its own, so they submit a bare job that
implements the same protocol.
"""

from __future__ import annotations

from repro.sim.resources import IoPriority, Resource


class Job:
    """One stage of work whose completion calls ``on_done(start, end)``."""

    __slots__ = ("klass", "duration", "enqueued_us", "snapshot", "on_done")

    def __init__(self, klass: IoPriority, duration: float, on_done) -> None:
        self.klass = klass
        self.duration = duration
        self.enqueued_us = 0.0
        self.snapshot = None
        self.on_done = on_done

    def resource_done(self, start_us: float, end_us: float) -> None:
        self.on_done(start_us, end_us)


def submit(
    resource: Resource,
    klass: IoPriority,
    duration: float,
    on_done,
    queue: IoPriority | None = None,
) -> None:
    """Submit a :class:`Job` through :meth:`Resource.submit`."""
    resource.submit(Job(klass, duration, on_done), queue)
