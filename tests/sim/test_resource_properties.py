"""Property-based tests for resource scheduling invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimEngine
from repro.sim.resources import IoPriority, Resource

from .jobs import submit


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(list(IoPriority)),
            st.floats(min_value=0.1, max_value=100.0),
            st.floats(min_value=0.0, max_value=500.0),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_service_intervals_never_overlap(ops):
    """No two operations are ever in service simultaneously."""
    engine = SimEngine()
    resource = Resource(engine, "r")
    spans: list[tuple[float, float]] = []
    for priority, duration, submit_at in ops:
        engine.at(
            submit_at,
            lambda p=priority, d=duration: submit(
                resource, p, d, lambda s, e: spans.append((s, e))
            ),
        )
    engine.run()
    assert len(spans) == len(ops)
    ordered = sorted(spans)
    for (s1, e1), (s2, e2) in zip(ordered, ordered[1:]):
        assert e1 <= s2 + 1e-9, "overlapping service intervals"


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(list(IoPriority)),
            st.floats(min_value=0.1, max_value=50.0),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_work_is_conserved(ops):
    """Total busy time equals the sum of all durations (no lost ops)."""
    engine = SimEngine()
    resource = Resource(engine, "r")
    done = []
    for priority, duration in ops:
        submit(resource, priority, duration, lambda s, e: done.append(e - s))
    engine.run()
    assert len(done) == len(ops)
    assert abs(sum(done) - sum(d for _, d in ops)) < 1e-6
    assert abs(resource.busy_us - sum(d for _, d in ops)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(
    n_reads=st.integers(min_value=1, max_value=10),
    n_internal=st.integers(min_value=1, max_value=10),
)
def test_reads_never_wait_behind_queued_internal_ops(n_reads, n_internal):
    """With everything queued at once, all reads finish before any queued
    internal op starts (only the op already in service can block them)."""
    engine = SimEngine()
    resource = Resource(engine, "r")
    order: list[str] = []
    submit(resource, IoPriority.INTERNAL, 5.0, lambda s, e: order.append("head"))
    for _ in range(n_internal):
        submit(resource, IoPriority.INTERNAL, 5.0, lambda s, e: order.append("i"))
    for _ in range(n_reads):
        submit(resource, IoPriority.HOST_READ, 5.0, lambda s, e: order.append("r"))
    engine.run()
    assert order[0] == "head"
    reads_done = order[1 : 1 + n_reads]
    assert reads_done == ["r"] * n_reads
