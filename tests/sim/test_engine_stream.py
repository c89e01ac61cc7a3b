"""Stream admission of the event engine.

``add_stream`` is how open-loop request schedules enter the engine: a
time-sorted run of events that bypasses the heap but reserves the exact
sequence numbers per-event ``at()`` calls would have consumed, so the
merged firing order is byte-identical.  ``peak_pending`` counts heap
plus unfired stream events, so it matches per-event admission too.
These tests pin both equivalences and the error contract.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import SimEngine


def _record(log: list, tag: str):
    def callback() -> None:
        log.append(tag)

    return callback


class TestStreamOrdering:
    def test_stream_alone_fires_in_time_order(self):
        engine = SimEngine()
        log: list[str] = []
        n = engine.add_stream(
            [(1.0, _record(log, "a")), (2.0, _record(log, "b")), (2.0, _record(log, "c"))]
        )
        assert n == 3
        engine.run()
        assert log == ["a", "b", "c"]
        assert engine.now == 2.0
        assert engine.processed == 3

    def test_stream_merges_against_heap_by_time_then_seq(self):
        """Heap events scheduled BEFORE the stream hold earlier sequence
        numbers, so at equal times they fire first; events scheduled
        after (from callbacks) hold later ones and fire after."""
        engine = SimEngine()
        log: list[str] = []
        engine.at(2.0, _record(log, "heap-before"))
        engine.add_stream([(1.0, _record(log, "s1")), (2.0, _record(log, "s2"))])
        engine.at(2.0, _record(log, "heap-after"))
        engine.run()
        assert log == ["s1", "heap-before", "s2", "heap-after"]

    def test_stream_matches_at_admission_byte_for_byte(self):
        """Same callbacks, same times → identical firing order and
        identical ``peak_pending`` under either admission."""
        times = [0.0, 0.5, 0.5, 1.5, 1.5, 1.5, 3.0]

        def run(use_stream: bool) -> tuple[list[int], int]:
            engine = SimEngine()
            log: list[int] = []
            # A callback that schedules follow-up work, like dispatches do.
            def make(i: int):
                def callback() -> None:
                    log.append(i)
                    if i % 2 == 0:
                        engine.after(0.25, _record(log, -i))

                return callback

            events = [(t, make(i)) for i, t in enumerate(times)]
            if use_stream:
                engine.add_stream(events)
            else:
                for t, cb in events:
                    engine.at(t, cb)
            engine.run()
            return log, engine.peak_pending

        assert run(use_stream=True) == run(use_stream=False)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_schedules_match_at_admission_with_follow_ups(self, seed):
        """Random sorted schedules whose callbacks push follow-up chains
        (and heap events admitted before the stream) fire in the same
        order and reach the same ``peak_pending`` either way."""
        rng = random.Random(seed)
        arrivals = sorted(
            round(rng.uniform(0.0, 50.0), 1) for _ in range(rng.randint(1, 60))
        )
        follow_ups = [
            [round(rng.uniform(0.0, 20.0), 1) for _ in range(rng.randint(0, 4))]
            for _ in arrivals
        ]
        early = [round(rng.uniform(0.0, 50.0), 1) for _ in range(rng.randint(0, 5))]

        def run(use_stream: bool) -> tuple[list, int, int]:
            engine = SimEngine()
            log: list = []

            def make(i: int):
                def callback() -> None:
                    log.append((engine.now, i))
                    for k, delay in enumerate(follow_ups[i]):
                        engine.after(delay, _record(log, (i, k)))

                return callback

            for j, t in enumerate(early):
                engine.at(t, _record(log, ("early", j)))
            events = [(t, make(i)) for i, t in enumerate(arrivals)]
            if use_stream:
                engine.add_stream(events)
            else:
                for t, cb in events:
                    engine.at(t, cb)
            engine.run()
            return log, engine.peak_pending, engine.processed

        assert run(use_stream=True) == run(use_stream=False)

    def test_callbacks_may_schedule_past_the_stream_tail(self):
        engine = SimEngine()
        log: list[str] = []

        def chain() -> None:
            log.append("head")
            engine.after(10.0, _record(log, "tail"))

        engine.add_stream([(1.0, chain)])
        engine.run()
        assert log == ["head", "tail"]
        assert engine.now == 11.0


class TestStreamErrors:
    def test_unsorted_stream_rejected(self):
        engine = SimEngine()
        with pytest.raises(ValueError, match="sorted"):
            engine.add_stream([(2.0, lambda: None), (1.0, lambda: None)])

    def test_past_time_rejected(self):
        engine = SimEngine()
        engine.at(5.0, lambda: None)
        engine.run()
        assert engine.now == 5.0
        with pytest.raises(ValueError, match="cannot schedule"):
            engine.add_stream([(1.0, lambda: None)])

    def test_second_stream_before_drain_rejected(self):
        engine = SimEngine()
        engine.add_stream([(1.0, lambda: None)])
        with pytest.raises(RuntimeError, match="not drained"):
            engine.add_stream([(2.0, lambda: None)])

    def test_new_stream_allowed_after_drain(self):
        engine = SimEngine()
        log: list[str] = []
        engine.add_stream([(1.0, _record(log, "first"))])
        engine.run()
        engine.add_stream([(2.0, _record(log, "second"))])
        engine.run()
        assert log == ["first", "second"]


class TestPeakPending:
    def test_stream_events_count_toward_peak(self):
        engine = SimEngine()
        engine.at(0.5, lambda: None)
        engine.add_stream([(float(i), lambda: None) for i in range(10)])
        assert engine.pending == 11
        assert engine.peak_pending == 11
        engine.run()
        assert engine.peak_pending == 11
        assert engine.processed == 11

    def test_pushes_mid_stream_see_the_unfired_remainder(self):
        engine = SimEngine()

        def burst() -> None:
            # 2 stream events are still unfired when these land.
            for _ in range(3):
                engine.after(100.0, lambda: None)

        engine.add_stream(
            [(0.0, lambda: None), (1.0, burst), (2.0, lambda: None),
             (3.0, lambda: None)]
        )
        engine.run()
        assert engine.peak_pending == 5
