"""Run one workload of the simulator benchmark and print its metrics.

Usage (from the repository root)::

    python3 simbench/run.py --workload closed_read --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` next to this directory.  The run
repeats the workload for ``--seconds`` wall seconds in this one process,
inline, and discards the first repetition, which pays lazy set-up costs.
A calibration kernel (see ``calib.py``) is timed immediately before and
after every repetition, and every host time is reported in calibrated
seconds: wall seconds x nominal kernel time / mean of the two kernel
timings.  With ``--trace 1`` one extra repetition runs with spans on and
the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable
summary goes to standard error.  The exit code is 0 when the outputs
were correct, 1 when they were not, and 2 when the program's sources
are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from calib import NOMINAL_KERNEL_S, calibrate, steal_ticks
from probes import Probe, layer_census

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Kept (untraced) repetitions a run makes however short ``--seconds`` is.
MIN_KEPT_REPS = 3
MAX_REPS = 60
#: On a host too slow for MIN_KEPT_REPS, no repetition starts that is
#: expected to end after this much wall time (one kept repetition always
#: runs).
HARD_LIMIT_S = 120.0
#: Traced repetitions cost about this many untraced ones (span wrappers
#: on every op), reserved out of ``--seconds`` when tracing.
TRACE_COST_REPS = 2.0


@dataclass
class Rep:
    """One timed repetition: its wall time, set-up time and calibration."""

    wall_s: float
    setup_s: float
    kernel_s: float  # mean of the bracketing kernel timings
    outcome: object
    probe: Probe


def _run_rep(cell, trace: bool, kernel_before: float, keep_sim: bool = False):
    """Run and time one repetition; returns ``(rep, kernel time after)``.

    Unless ``keep_sim``, the repetition's garbage -- simulators and warm
    states, which hold reference cycles -- is collected before the
    closing kernel, so every repetition starts from the same heap and
    the peak RSS is one repetition's peak.
    """
    probe = Probe(trace)
    start = time.perf_counter()
    with probe:
        outcome = cell.run()
    wall = time.perf_counter() - start
    if not keep_sim:
        probe.release_sim()
        gc.collect()
    kernel_after = calibrate()
    if cell.mode == "sweep":
        setup = probe.cold_warm_s
    else:
        setup = (
            probe.total_s["workloads.generate"]
            + probe.total_s["experiments.build"]
            + probe.cold_warm_s
        )
    kernel = (kernel_before + kernel_after) / 2
    return Rep(wall, setup, kernel, outcome, probe), kernel_after


def _fingerprint(rep: Rep) -> dict:
    """Everything about a repetition that must repeat exactly."""
    return {
        "digest": rep.outcome.digest,
        "sim": rep.outcome.sim,
        "counts": rep.outcome.counts,
        "events": rep.probe.events,
        "peak_pending": rep.probe.peak_pending,
    }


def measure(cell, seconds: float, trace: bool):
    """Repeat ``cell`` for ``seconds``.

    Returns ``(reps, traced rep or None, problems, raised)``; ``raised``
    says a repetition ended in an exception, which stops the run.
    """
    from repro.faults import check_coding_invariants

    problems: list[str] = []
    raised = False
    reps: list[Rep] = []
    traced = None
    calibrate()  # the kernel's own first call pays its lazy costs
    kernel = calibrate()
    started = time.perf_counter()
    try:
        while True:
            first = not reps
            rep, kernel = _run_rep(cell, False, kernel, keep_sim=first)
            if first and rep.probe.sim is not None:
                # Outside timing: the device state after one repetition.
                problems += [
                    f"coding invariant: {violation}"
                    for violation in check_coding_invariants(rep.probe.sim.ftl)
                ]
                rep.probe.release_sim()
                gc.collect()
                kernel = calibrate()
            reps.append(rep)
            elapsed = time.perf_counter() - started
            per_rep = elapsed / len(reps)
            reserve = TRACE_COST_REPS * per_rep if trace else 0.0
            budget = seconds if len(reps) - 1 >= MIN_KEPT_REPS else HARD_LIMIT_S
            if len(reps) >= 2 and (
                elapsed + per_rep + reserve > budget or len(reps) >= MAX_REPS
            ):
                break
        if trace:
            traced, kernel = _run_rep(cell, True, kernel)
    except Exception:  # noqa: BLE001 - a failed repetition is a result
        traceback.print_exc(file=sys.stderr)
        problems.append(f"repetition {len(reps) + 1} raised")
        raised = True
    return reps, traced, problems, raised


def check(cell, reps, traced, problems, raised) -> tuple[bool, int, int]:
    """Correctness gate; returns ``(correct, attempted, failed)``."""
    from cells import job_problems

    done = reps + ([traced] if traced is not None else [])
    attempted = sum(r.outcome.submitted for r in done)
    failed = sum(r.outcome.submitted - r.outcome.completed for r in done)
    if raised:
        # The repetition that raised submitted its requests and finished none.
        attempted += cell.requests
        failed += cell.requests
    for index, rep in enumerate(done, 1):
        if rep.outcome.completed != rep.outcome.submitted:
            problems.append(
                f"repetition {index}: {rep.outcome.completed} of "
                f"{rep.outcome.submitted} requests completed"
            )
    if done:
        reference = _fingerprint(done[0])
        for index, rep in enumerate(done[1:], 2):
            if _fingerprint(rep) != reference:
                problems.append(f"repetition {index}: simulated outputs differ")
        problems += job_problems(cell, done[0].outcome)
    if traced is not None:
        # Cross-check span call counts with the simulator's own census,
        # for the wrap points that still exist.
        counts, probe = traced.outcome.counts, traced.probe
        expected = {
            "ftl.host_read": counts["host_page_reads"],
            "resources.submit": counts["die_ops"] + counts["channel_ops"],
        }
        for span, count in expected.items():
            if span in probe.installed and probe.calls[span] != count:
                problems.append(f"traced {span} calls {probe.calls[span]} != census {count}")
    return not problems, max(attempted, 1), failed


def _calibrated(rep: Rep, seconds: float) -> float:
    """``seconds`` of ``rep`` in calibrated seconds."""
    return seconds * NOMINAL_KERNEL_S / rep.kernel_s


def end_to_end(cell, kept: list[Rep]) -> dict:
    """The user-visible metrics: medians over the kept repetitions."""

    def measured(rep: Rep) -> float:
        wall = rep.wall_s if cell.mode == "sweep" else rep.wall_s - rep.setup_s
        return _calibrated(rep, wall)

    return {
        "req_per_s": (
            statistics.median(r.outcome.completed / measured(r) for r in kept), "1/s"
        ),
        "setup_s": (statistics.median(_calibrated(r, r.setup_s) for r in kept), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(cell, kept: list[Rep], traced: Rep, census: dict, steal: int) -> dict:
    """Layer metrics: spans from the traced repetition, counts from the rest."""
    probe, first = traced.probe, kept[0]
    counts, snap, sim = first.outcome.counts, first.outcome.snapshot, first.outcome.sim
    requests = first.outcome.completed
    own = {span: _calibrated(traced, s) for span, s in probe.self_s.items()}
    wall = _calibrated(traced, traced.wall_s)
    executor_overhead = 0.0
    if cell.mode == "sweep":
        executor_overhead = wall - _calibrated(traced, probe.total_s["parallel.unit"])
    lookups = snap.get("hits", 0) + snap.get("misses", 0)
    host_programs = counts["host_page_programs"]
    moved = counts["gc_page_moves"] + counts["refresh_page_moves"] + counts["fault_page_moves"]
    untraced_wall = statistics.median(_calibrated(r, r.wall_s) for r in kept)
    return {
        "workloads.generate_s": (own.get("workloads.generate", 0.0), "s"),
        "experiments.build_s": (own.get("experiments.build", 0.0), "s"),
        "experiments.warm_s": (own.get("experiments.warm", 0.0), "s"),
        "parallel.unit_self_s": (own.get("parallel.unit", 0.0), "s"),
        "parallel.overhead_s": (executor_overhead, "s"),
        "snapshot.restore_s": (own.get("snapshot.restore", 0.0), "s"),
        "snapshot.capture_s": (own.get("snapshot.capture", 0.0), "s"),
        "snapshot.hit_ratio": (snap.get("hits", 0) / lookups if lookups else 0.0, "ratio"),
        "snapshot.fallbacks": (snap.get("fallbacks", 0), "count"),
        "ftl.untimed_s": (own.get("ftl.untimed", 0.0), "s"),
        "ftl.host_read_s": (own.get("ftl.host_read", 0.0), "s"),
        "ftl.host_read_calls": (counts["host_page_reads"], "count"),
        "ftl.host_write_s": (own.get("ftl.host_write", 0.0), "s"),
        "ftl.check_refresh_s": (own.get("ftl.check_refresh", 0.0), "s"),
        "ftl.refresh_page_moves": (counts["refresh_page_moves"], "count"),
        "ftl.adjusted_wordlines": (counts["adjusted_wordlines"], "count"),
        "ftl.gc_page_moves": (counts["gc_page_moves"], "count"),
        "ftl.block_erases": (counts["block_erases"], "count"),
        "ftl.write_amp": ((host_programs + moved) / host_programs if host_programs else 0.0,
                          "ratio"),
        "ssd.dispatch_s": (own.get("ssd.dispatch", 0.0), "s"),
        "ssd.internal_issue_s": (own.get("ssd.internal_issue", 0.0), "s"),
        "ssd.phys_ops_per_req": (counts["phys_ops"] / requests, "ops/req"),
        "ssd.internal_op_share": (counts["internal_ops"] / counts["die_ops"], "ratio"),
        "pipeline.start_s": (own.get("pipeline.start", 0.0), "s"),
        "resources.submit_s": (own.get("resources.submit", 0.0), "s"),
        "resources.submits": (counts["die_ops"] + counts["channel_ops"], "count"),
        "resources.die_util": (counts["die_util"], "ratio"),
        "resources.channel_util": (counts["channel_util"], "ratio"),
        "resources.host_read_wait_us": (
            counts["host_read_wait_us"] / counts["host_page_reads"], "us"),
        "engine.events_per_req": (first.probe.events / requests, "events/req"),
        "engine.peak_pending": (first.probe.peak_pending, "count"),
        "engine.self_s": (own.get("engine.run", 0.0), "s"),
        "core.ida_read_share": (counts["ida_fast_reads"] / counts["host_page_reads"], "ratio"),
        "sim.read_mean_us": (sim["read_mean_us"], "us"),
        "sim.read_p50_us": (sim["read_p50_us"], "us"),
        "sim.read_p99_us": (sim["read_p99_us"], "us"),
        "sim.write_mean_us": (sim["write_mean_us"], "us"),
        "sim.throughput_mb_s": (sim["throughput_mb_s"], "MB/s"),
        "other_s": (wall - sum(own.values()), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (wall / untraced_wall, "ratio"),
        "host.calib_s": (statistics.median(r.kernel_s for r in kept), "s"),
        "host.raw_req_per_s": (
            statistics.median(r.outcome.completed / r.wall_s for r in kept), "1/s"),
        "host.steal_ticks": (steal, "count"),
        "host.reps": (len(kept), "count"),
        "layers.unmapped_modules": (len(census["unmapped"]), "count"),
        "layers.absent_modules": (len(census["absent"]), "count"),
        "layers.absent_wrap_points": (len(probe.absent), "count"),
    }


def _report(cell, kept, traced, census, metrics) -> None:
    """Readable summary on standard error."""
    out = sys.stderr
    print(f"simbench {cell.name} seed={cell.seed}: {len(kept)} kept repetitions "
          f"(first discarded)", file=out)
    raw = [r.outcome.completed / r.wall_s for r in kept]
    cal = [r.outcome.completed / _calibrated(r, r.wall_s) for r in kept]
    print("  raw req/s        " + " ".join(f"{v:8.1f}" for v in raw), file=out)
    print("  calibrated req/s " + " ".join(f"{v:8.1f}" for v in cal), file=out)
    print("  kernel s         " + " ".join(f"{r.kernel_s:8.4f}" for r in kept), file=out)
    for name in ("unmapped", "absent"):
        if census[name]:
            print(f"  layer map: {name} modules: {', '.join(census[name])}", file=out)
    if traced is not None:
        if traced.probe.absent:
            print(f"  absent wrap points: {', '.join(traced.probe.absent)}", file=out)
        wall = traced.wall_s
        shares = sorted(traced.probe.layer_self_s.items(), key=lambda kv: -kv[1])
        print("  traced self time by layer: " + ", ".join(
            f"{layer} {100 * s / wall:.1f}%" for layer, s in shares), file=out)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}", file=out)


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simbench: the program's sources ({SRC / 'repro'}) are missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from cells import CELLS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CELLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    cell = CELLS[args.workload].seeded(args.seed)
    census = layer_census(SRC)
    steal_before = steal_ticks()
    reps, traced, problems, raised = measure(cell, args.seconds, bool(args.trace))
    steal = steal_ticks() - steal_before
    correct, attempted, failed = check(cell, reps, traced, problems, raised)
    kept = reps[1:]
    metrics = {}
    if correct and kept:
        if traced is None:
            metrics = end_to_end(cell, kept)
        else:
            metrics = per_layer(cell, kept, traced, census, steal)
        _report(cell, kept, traced, census, metrics)
    for problem in problems:
        print(f"simbench: INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
