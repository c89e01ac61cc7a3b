"""Workload drivers: how a host request stream is fed to the simulator.

Two driving disciplines, mirroring the paper's evaluation:

* **open loop** (:func:`run_open_loop`) — replay requests at their trace
  arrival times (Figs. 8, 9, 11: response-time artifacts);
* **closed loop** (:func:`run_closed_loop`) — ignore arrival times and
  keep a fixed number of requests outstanding (Fig. 10: device-bound
  throughput; an open-loop replay's throughput is pinned to the trace's
  arrival rate and cannot show a device improvement).

Both drivers own the run choreography around the simulator: admitting
request dispatches (open loop: one sorted stream through
:meth:`SimEngine.add_stream`), applying untimed background-update
batches through :meth:`Ftl.apply_untimed_batch`, ticking
the refresh daemon, bracketing the run for the tracer / interval
collector, and folding counters when the queues drain.  The simulator
itself only knows how to dispatch *one* request — everything stream-
shaped lives here, so new disciplines (bursty arrivals, rate-limited
replay, multi-tenant interleaving) are additive modules rather than
simulator surgery.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .metrics import SimMetrics
from .scheduler import HostRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ssd import SsdSimulator

__all__ = ["run_open_loop", "run_closed_loop"]


class _RefreshDaemon:
    """Scans for refresh work on the FTL's cadence.

    It reschedules its own bound :meth:`tick` without storing it, so the
    daemon is freed by reference counting after its last tick fires.
    """

    __slots__ = ("sim", "interval_us", "until_us", "stopped")

    def __init__(self, sim: "SsdSimulator", until_us: float = float("inf")) -> None:
        self.sim = sim
        self.interval_us = sim.ftl.scan_interval_us
        #: Last time a tick may fire (the open loop's trace end).
        self.until_us = until_us
        #: Set by the closed loop once every request has completed.
        self.stopped = False

    def tick(self) -> None:
        sim = self.sim
        sim.issue_internal_sequence(sim.ftl.check_refresh(sim.engine.now))
        if not self.stopped and sim.engine.now + self.interval_us <= self.until_us:
            sim.engine.after(self.interval_us, self.tick)


class _ClosedLoop:
    """Keeps a fixed number of requests outstanding until the stream ends.

    The loop is reachable only through the bound methods it hands out
    (pending engine events, in-flight requests' completion callbacks), so
    it is freed by reference counting once the run drains.
    """

    __slots__ = ("sim", "pending", "total", "completed", "daemon")

    def __init__(self, sim: "SsdSimulator", requests: list[HostRequest]) -> None:
        self.sim = sim
        self.pending = deque(requests)
        self.total = len(requests)
        self.completed = 0
        self.daemon: _RefreshDaemon | None = None

    def issue_next(self) -> None:
        if not self.pending:
            return
        request = self.pending.popleft()
        sim = self.sim
        rebased = HostRequest(
            request_id=request.request_id,
            arrival_us=sim.engine.now,
            is_read=request.is_read,
            lpns=request.lpns,
            size_bytes=request.size_bytes,
        )
        if rebased.is_read:
            sim.dispatch_read(rebased, on_request_done=self.on_done)
        else:
            sim.dispatch_write(rebased, on_request_done=self.on_done)

    def on_done(self) -> None:
        self.completed += 1
        if self.completed >= self.total:
            self.daemon.stopped = True
            return
        self.issue_next()


def _begin_run(sim: "SsdSimulator", mode: str, n_requests: int) -> None:
    if sim.collector is not None:
        sim.collector.start()
    if sim.profiler is not None:
        sim.profiler.start_run(sim.engine.now)
    if sim.tracer.enabled:
        sim.tracer.emit(
            sim.engine.now,
            "run_start",
            mode=mode,
            requests=n_requests,
            policy=sim.policy.name,
            dies=len(sim.dies),
            channels=len(sim.channels),
        )


def _schedule_background(
    sim: "SsdSimulator",
    background_updates: list[tuple[float, list[int]]] | None,
) -> None:
    """Schedule untimed background-update batches at their times."""
    for time_us, lpns in background_updates or []:
        lpn_list = list(lpns)

        def apply(lpn_list=lpn_list) -> None:
            sim.ftl.apply_untimed_batch(lpn_list, sim.engine.now)

        sim.engine.at(time_us, apply)


def _end_run(sim: "SsdSimulator") -> None:
    if sim.collector is not None:
        sim.collector.finish()
    if sim.profiler is not None:
        sim.profiler.finish_run(sim.engine.now, sim.metrics.elapsed_us)
    if sim.tracer.enabled:
        sim.tracer.emit(
            sim.engine.now,
            "run_end",
            elapsed_us=sim.metrics.elapsed_us,
            reads=sim.metrics.read_response.count,
            writes=sim.metrics.write_response.count,
            utilisation=sim.utilisation_report(),
            events_processed=sim.engine.processed,
            peak_pending_events=sim.engine.peak_pending,
        )


def run_open_loop(
    sim: "SsdSimulator",
    requests: list[HostRequest],
    background_updates: list[tuple[float, list[int]]] | None = None,
) -> SimMetrics:
    """Replay a timed host request stream to completion and drain.

    Args:
        sim: The simulator under test.
        requests: The timed host requests.
        background_updates: Optional ``(time_us, lpns)`` batches of
            *untimed* update writes applied at the given simulation
            times.  This is the trace-sampling device the experiment
            runner uses: only a subset of a long trace's requests is
            replayed with timing, but the full update rate is applied
            logically so page-invalidation state evolves as in the
            original trace (see DESIGN.md).

    Returns the populated metrics object (also at ``sim.metrics``).
    """
    if not requests:
        raise ValueError("empty request stream")
    ordered = sorted(requests, key=lambda r: r.arrival_us)

    def make_dispatch(request: HostRequest):
        def dispatch() -> None:
            if request.is_read:
                sim.dispatch_read(request)
            else:
                sim.dispatch_write(request)

        return dispatch

    sim.engine.add_stream(
        (request.arrival_us, make_dispatch(request)) for request in ordered
    )
    _schedule_background(sim, background_updates)

    # Refresh daemon: scan on the FTL's cadence until the trace ends.
    trace_end = ordered[-1].arrival_us
    daemon = _RefreshDaemon(sim, until_us=trace_end)
    if daemon.interval_us <= trace_end:
        sim.engine.after(daemon.interval_us, daemon.tick)

    _begin_run(sim, "open_loop", len(ordered))
    sim.engine.run()
    sim.metrics.start_us = ordered[0].arrival_us
    sim.metrics.end_us = sim.engine.now
    sim.fold_counters()
    _end_run(sim)
    return sim.metrics


def run_closed_loop(
    sim: "SsdSimulator",
    requests: list[HostRequest],
    queue_depth: int = 32,
    background_updates: list[tuple[float, list[int]]] | None = None,
) -> SimMetrics:
    """Run the request stream closed-loop at a fixed queue depth.

    Arrival times are ignored: the host keeps ``queue_depth`` requests
    outstanding, issuing the next one whenever one completes.
    """
    if not requests:
        raise ValueError("empty request stream")
    if queue_depth < 1:
        raise ValueError("queue_depth must be >= 1")
    loop = _ClosedLoop(sim, requests)
    for _ in range(min(queue_depth, loop.total)):
        sim.engine.after(0.0, loop.issue_next)
    _schedule_background(sim, background_updates)

    # No refresh daemon deadline in closed-loop mode: scan on a fixed
    # cadence until the stream completes, then let the queues drain.
    loop.daemon = daemon = _RefreshDaemon(sim)
    sim.engine.after(daemon.interval_us, daemon.tick)
    _begin_run(sim, "closed_loop", loop.total)
    sim.engine.run()
    sim.metrics.start_us = 0.0
    sim.metrics.end_us = sim.engine.now
    sim.fold_counters()
    _end_run(sim)
    return sim.metrics
