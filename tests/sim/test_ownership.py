"""Ownership of the event machinery: no reference cycles, one submit path.

Two properties the stage hop's design rests on (docs/architecture.md,
"Op pipeline" and "Resources"):

* A finished simulator is freed by reference counting alone.  Nothing
  in a run — pipelines, internal chains, the refresh daemon, the
  closed-loop driver — holds a reference back to something that holds
  it, so the cyclic collector never has simulator state to find and a
  sweep's memory does not depend on when it runs.
* Every die/channel stage enters its resource through
  :meth:`Resource.submit`, exactly once.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.experiments.runner as runner
from repro.experiments.config import RunScale
from repro.experiments.parallel import RunUnit, execute_units
from repro.experiments.runner import run_workload, run_workload_closed_loop
from repro.experiments.systems import baseline, ida
from repro.faults import FaultPlan
from repro.obs.tracer import MemorySink, Tracer
from repro.sim.resources import Resource
from repro.workloads import workload


def _capture_builds(monkeypatch, keep) -> list:
    """Record ``keep(sim)`` for every simulator the runner builds."""
    built: list = []
    original = runner.build_simulator

    def capture(*args, **kwargs):
        sim = original(*args, **kwargs)
        built.append(keep(sim))
        return sim

    monkeypatch.setattr(runner, "build_simulator", capture)
    return built


@pytest.fixture
def built(monkeypatch):
    """Weak references to every simulator the runner builds."""
    return _capture_builds(monkeypatch, weakref.ref)


@pytest.fixture
def kept(monkeypatch):
    """Every simulator the runner builds, kept alive."""
    return _capture_builds(monkeypatch, lambda sim: sim)


@pytest.fixture
def no_cyclic_gc():
    """Cyclic GC off for the test; ``gc.garbage`` clean on either side."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        gc.collect()


def _repro_garbage() -> list[str]:
    """Names of ``repro`` objects the cyclic collector finds unreachable."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    names = []
    for obj in gc.garbage:
        module = getattr(obj, "__module__", None)
        if not isinstance(module, str):
            module = type(obj).__module__
        if module.startswith("repro"):
            names.append(f"{module}.{getattr(obj, '__qualname__', type(obj).__qualname__)}")
    return names


def test_simulators_are_freed_by_refcount(built, no_cyclic_gc):
    scale = RunScale.tiny()
    open_result = run_workload(ida(0.2), workload("usr_1"), scale, seed=3)
    closed_result = run_workload_closed_loop(
        ida(0.2), workload("hm_1"), scale, queue_depth=8, seed=3
    )
    assert len(built) == 2
    assert [ref() for ref in built] == [None, None]

    units = [
        RunUnit(system, name, scale, seed=5, mode=mode)
        for system in (baseline(), ida(0.2))
        for name in ("usr_1", "src1_0")
        for mode in ("open", "closed")
    ]
    payloads = execute_units(units, jobs=1, snapshots=True)
    assert len(payloads) == len(units)
    assert len(built) == 2 + len(units)
    assert all(ref() is None for ref in built)

    # The results themselves stay usable; nothing else was left behind.
    assert open_result.metrics.read_response.count > 0
    assert closed_result.metrics.read_response.count > 0
    assert _repro_garbage() == []


def test_observed_and_faulted_runs_are_freed_by_refcount(built, no_cyclic_gc):
    """Observers and the fault injector refer back to the simulator
    weakly, and a profiled op lets go of its request on completion."""
    scale = RunScale.tiny()
    plan = FaultPlan.generate(
        seed=3,
        duration_us=50_000.0,
        total_blocks=scale.blocks_per_plane * 4,
        program_fails=2,
        grown_bad=1,
        uncorrectable_reads=3,
        adjust_interrupts=1,
        max_program_ordinal=scale.num_requests // 2,
        max_read_ordinal=scale.num_requests,
        read_reclaim_threshold=12,
    )
    run_workload(
        ida(0.2), workload("usr_1"), scale, seed=3, faults=plan,
        tracer=Tracer(MemorySink()),
    )
    units = [
        RunUnit(ida(0.2), "usr_1", scale, seed=5, profile=True),
        RunUnit(ida(0.2), "usr_1", scale, seed=5, health=True),
    ]
    execute_units(units, jobs=1)
    assert len(built) == 3
    assert all(ref() is None for ref in built)
    assert _repro_garbage() == []


class _SubmitCounter:
    def __init__(self) -> None:
        self.calls = 0


@pytest.fixture
def submits(monkeypatch):
    """Counts every :meth:`Resource.submit` call."""
    counter = _SubmitCounter()
    original = Resource.submit

    def counting(self, *args, **kwargs):
        counter.calls += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Resource, "submit", counting)
    return counter


def _served(sim) -> int:
    report = sim.queue_wait_report()
    return sum(
        stats["ops"] for kind in ("die", "channel") for stats in report[kind].values()
    )


@pytest.mark.parametrize("mode", ["open", "closed"])
def test_every_stage_submits_exactly_once(kept, submits, mode):
    scale = RunScale.tiny()
    if mode == "open":
        run_workload(ida(0.2), workload("usr_1"), scale, seed=11)
    else:
        run_workload_closed_loop(
            ida(0.2), workload("src1_0"), scale, queue_depth=16, seed=11
        )
    (sim,) = kept
    assert submits.calls == _served(sim) > sim.ops_dispatched
