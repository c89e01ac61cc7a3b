"""Bulk untimed writes against the scalar oracle.

:meth:`Ftl.apply_untimed_batch` is the simulator's only untimed write
path (preload, aging, background batches).  It must leave exactly the
state a scalar :meth:`Ftl.write_untimed` loop leaves: same device
columns, forward map, plane pools, allocator cursor and counters.  The
property test drives two fresh FTLs with the same drawn batches — LPN
streams with duplicates, scalar and per-write times, topologies small
enough to cross the GC watermark and open blocks mid-batch — and
compares them after every batch.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import conventional_tlc
from repro.flash.geometry import Geometry
from repro.ftl.ftl import Ftl
from repro.ftl.gc import GcPolicy
from repro.ftl.refresh import RefreshMode, RefreshPolicy


def _build(planes_per_die: int, blocks_per_plane: int, wordlines: int) -> Ftl:
    geometry = Geometry(
        channels=1,
        chips_per_channel=1,
        dies_per_chip=2,
        planes_per_die=planes_per_die,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=3 * wordlines,
    )
    return Ftl(
        geometry,
        conventional_tlc(),
        RefreshPolicy(mode=RefreshMode.BASELINE, period_us=1000.0),
        gc_policy=GcPolicy(low_watermark=2, target_free=3),
        rng=np.random.default_rng(5),
    )


def _state(ftl: Ftl) -> dict:
    """Everything an untimed write may touch, in comparable form."""
    return {
        "columns": ftl.table.state.snapshot().columns,
        "forward": dict(ftl.map.items()),
        "owners": {ppn: ftl.map.owner(ppn) for _, ppn in ftl.map.items()},
        "pools": [
            (list(pool.free), pool.active, sorted(pool.used), sorted(pool.retired))
            for pool in ftl.table.planes
        ],
        "cursor": ftl.allocator._cursor,
        "order": list(ftl.allocator.order),
        "counters": dataclasses.asdict(ftl.counters),
        "rng": ftl.rng.bit_generator.state,
    }


def _scalar(ftl: Ftl, lpns: list[int], times) -> None:
    if np.ndim(times) == 0:
        for lpn in lpns:
            ftl.write_untimed(lpn, float(times))
    else:
        for lpn, time_us in zip(lpns, times):
            ftl.write_untimed(lpn, float(time_us))


@st.composite
def _scenarios(draw):
    planes_per_die = draw(st.sampled_from([1, 2]))
    blocks_per_plane = draw(st.integers(min_value=6, max_value=9))
    wordlines = draw(st.sampled_from([4, 8, 16]))
    planes = 2 * planes_per_die
    capacity = planes * blocks_per_plane * 3 * wordlines
    # Keep a third of the device as over-provisioning so GC always has
    # invalid pages to reclaim.
    lpn_space = draw(st.integers(min_value=1, max_value=capacity // 3))
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        length = draw(st.integers(min_value=0, max_value=2 * capacity))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if draw(st.booleans()):
            # Sequential fill (wrapping): long duplicate-free runs.
            offset = draw(st.integers(0, lpn_space - 1))
            lpns = (offset + np.arange(length)) % lpn_space
        else:
            lpns = rng.integers(0, lpn_space, size=length)
        if draw(st.booleans()):
            times = draw(st.floats(min_value=-3000.0, max_value=0.0))
        else:
            times = np.sort(rng.uniform(-3000.0, 0.0, size=length))
        batches.append(([int(x) for x in lpns], times))
    return (planes_per_die, blocks_per_plane, wordlines), batches


@settings(max_examples=60, deadline=None)
@given(_scenarios())
def test_bulk_path_matches_scalar_loop(scenario):
    topology, batches = scenario
    bulk, scalar = _build(*topology), _build(*topology)
    for lpns, times in batches:
        bulk.apply_untimed_batch(lpns, times)
        _scalar(scalar, lpns, times)
        assert _state(bulk) == _state(scalar)


def test_long_stream_takes_the_segment_path_and_crosses_gc(monkeypatch):
    """A deterministic case the property cannot miss: a fill plus heavy
    churn runs array segments *and* GC, and still matches the oracle."""
    segments = []
    original = Ftl._apply_untimed_segment

    def counted(self, lpns, times):
        segments.append(len(lpns))
        return original(self, lpns, times)

    monkeypatch.setattr(Ftl, "_apply_untimed_segment", counted)
    bulk, scalar = _build(2, 8, 16), _build(2, 8, 16)
    rng = np.random.default_rng(9)
    fill = list(range(500))
    churn = [int(x) for x in rng.integers(0, 500, size=3000)]
    fill_times = -2000.0 + np.arange(len(fill), dtype=np.float64)
    for lpns, times in ((fill, fill_times), (churn, -100.0)):
        bulk.apply_untimed_batch(lpns, times)
        _scalar(scalar, lpns, times)
    assert segments and max(segments) >= Ftl._MIN_BULK_SEGMENT
    assert bulk.counters.gc_invocations > 0
    assert _state(bulk) == _state(scalar)
