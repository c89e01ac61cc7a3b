"""Determinism: same seed + config => bit-identical runs.

The whole experimental method rests on this property — paired
baseline/IDA comparisons, golden-parity pins, and regression bisection
all assume a run is a pure function of (config, seed).  Two full runs
must agree on every metric *and* on the complete trace event stream
(ordering included), traced or not.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

import repro.experiments.runner as runner
from repro.experiments.config import RunScale
from repro.experiments.reporting import metrics_summary
from repro.experiments.runner import run_workload, run_workload_closed_loop
from repro.experiments.systems import baseline, ida
from repro.faults import FaultPlan
from repro.obs.tracer import MemorySink, Tracer
from repro.workloads import TABLE3_WORKLOADS, workload


def _run(system, traced: bool):
    sink = MemorySink() if traced else None
    tracer = Tracer(sink) if traced else None
    result = run_workload(
        system,
        TABLE3_WORKLOADS["usr_1"],
        scale=RunScale.tiny(),
        seed=11,
        tracer=tracer,
    )
    events = sink.events if sink is not None else []
    return metrics_summary(result.metrics), events


@pytest.mark.parametrize("system", [baseline(), ida(0.2)], ids=lambda s: s.name)
def test_identical_metrics_and_trace_across_runs(system):
    first_metrics, first_events = _run(system, traced=True)
    second_metrics, second_events = _run(system, traced=True)
    assert first_metrics == second_metrics
    assert first_events == second_events


def test_tracing_does_not_perturb_the_simulation():
    # Observability must be passive: the traced run's metrics match the
    # untraced run's exactly.
    traced, _ = _run(ida(0.2), traced=True)
    untraced, _ = _run(ida(0.2), traced=False)
    assert traced == untraced


def test_policies_are_deterministic_too():
    for policy in ("fcfs", "throttled"):
        system = ida(0.2).with_policy(policy)
        first, _ = _run(system, traced=False)
        second, _ = _run(system, traced=False)
        assert first == second


# ----------------------------------------------------------------------
# Seeded property cells: policies x fault plans, open and closed loop
# ----------------------------------------------------------------------

POLICIES = ("read-first", "fcfs", "throttled")
TRACES = ("hm_1", "usr_1", "stg_1", "src1_0")


def _tiny_fault_plan(seed: int) -> FaultPlan:
    scale = RunScale.tiny()
    return FaultPlan.generate(
        seed=seed,
        duration_us=50_000.0,
        total_blocks=scale.blocks_per_plane * 4,
        program_fails=2,
        grown_bad=1,
        uncorrectable_reads=3,
        adjust_interrupts=1,
        max_program_ordinal=scale.num_requests // 2,
        max_read_ordinal=scale.num_requests,
        read_reclaim_threshold=12,
        name=f"determinism-{seed}",
    )


def _fingerprint(result) -> str:
    """Canonical byte string of everything a run reports."""
    return json.dumps(
        {
            "metrics": metrics_summary(result.metrics),
            "in_use_blocks": result.in_use_blocks,
            "ida_blocks": result.ida_blocks,
            "refresh": [
                dataclasses.asdict(report) for report in result.refresh_reports
            ],
            "faults": result.faults,
        },
        sort_keys=True,
    )


def _drawn_cells(seed: int, count: int) -> list[tuple]:
    """Seeded draw of (trace, policy, faulted, seed) property cells."""
    rng = random.Random(seed)
    return [
        (
            rng.choice(TRACES),
            rng.choice(POLICIES),
            rng.random() < 0.5,
            rng.randrange(1, 1000),
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("cell", _drawn_cells(seed=2018, count=5))
def test_drawn_cells_repeat_byte_identically_traced_or_not(cell):
    trace, policy, faulted, seed = cell
    system = ida(0.2).with_policy(policy)
    faults = _tiny_fault_plan(seed) if faulted else None
    results = [
        run_workload(
            system,
            workload(trace),
            RunScale.tiny(),
            seed=seed,
            faults=faults,
            tracer=tracer,
        )
        for tracer in (Tracer(MemorySink()), None)
    ]
    assert _fingerprint(results[0]) == _fingerprint(results[1]), cell


@pytest.mark.parametrize("policy", POLICIES)
def test_closed_loop_policies_repeat_byte_identically(policy):
    results = [
        run_workload_closed_loop(
            ida(0.2).with_policy(policy),
            workload("hm_1"),
            RunScale.tiny(),
            queue_depth=16,
            seed=7,
        )
        for _ in range(2)
    ]
    assert _fingerprint(results[0]) == _fingerprint(results[1])


def test_traced_peak_pending_matches_the_untraced_engine(monkeypatch):
    """The trace's ``run_end.peak_pending_events`` is the same statistic
    an untraced run's engine reports: tracing never changes admission."""
    built = []
    original = runner.build_simulator

    def capture(*args, **kwargs):
        sim = original(*args, **kwargs)
        built.append(sim)
        return sim

    monkeypatch.setattr(runner, "build_simulator", capture)
    sink = MemorySink()
    run_workload(
        ida(0.2), workload("hm_1"), RunScale.tiny(), seed=11, tracer=Tracer(sink)
    )
    run_workload(ida(0.2), workload("hm_1"), RunScale.tiny(), seed=11)
    (run_end,) = [e for e in sink.events if e["kind"] == "run_end"]
    assert run_end["peak_pending_events"] == built[1].engine.peak_pending
    assert run_end["events_processed"] == built[1].engine.processed
    assert built[1].engine.peak_pending > RunScale.tiny().num_requests
