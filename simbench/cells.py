"""The benchmark's four workloads and what one repetition of each yields.

Each workload drives the simulator through a public entry point called
with default arguments -- ``run_workload``, ``run_workload_closed_loop``
or ``execute_units`` -- and turns the result into an :class:`Outcome`:
the simulated metrics, the deterministic work counts, and a digest that
must repeat exactly on every repetition.  The benchmark's seed reaches
the program only as a seeded :class:`~repro.workloads.WorkloadSpec`
(``dataclasses.replace(workload(name), seed=...)``) and, for the sweep,
as ``RunUnit(seed=...)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.experiments import RunScale, RunUnit, baseline, execute_units, ida
from repro.experiments.reporting import counters_dict
from repro.experiments.runner import run_workload, run_workload_closed_loop
from repro.obs.histogram import Histogram
from repro.workloads.msr import workload

__all__ = ["CELLS", "Cell", "Outcome", "job_problems"]


@dataclass
class Outcome:
    """What one repetition produced.

    Attributes:
        submitted / completed: Host requests handed to the simulator and
            host requests that completed.
        digest: sha256 over the read/write response summaries and the
            counters of every run, in order.
        sim: The simulated metrics: read/write response times and throughput.
        counts: Deterministic work counts (see :func:`_counts`).
        snapshot: The sweep's hit/miss/fallback accounting (empty for
            single runs).
    """

    submitted: int
    completed: int
    digest: str
    sim: dict[str, float]
    counts: dict[str, float]
    snapshot: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Cell:
    """One workload: a name, why it exists, and how to run it.

    ``mode`` is ``"open"`` (``run_workload``), ``"closed"``
    (``run_workload_closed_loop``) or ``"sweep"`` (``execute_units``).
    """

    name: str
    why: str
    mode: str
    workloads: tuple[str, ...]
    scale: RunScale
    seed: int = 0

    def seeded(self, seed: int) -> "Cell":
        return dataclasses.replace(self, seed=seed)

    def spec(self, name: str):
        return dataclasses.replace(workload(name), seed=self.seed)

    @property
    def requests(self) -> int:
        """Host requests one repetition submits."""
        runs = len(self.units()) if self.mode == "sweep" else 1
        return self.scale.num_requests * runs

    def units(self) -> list[RunUnit]:
        """The sweep's units: each workload x 12 systems, workload-major."""
        return [
            RunUnit(system, self.spec(name), self.scale, seed=self.seed)
            for name in self.workloads
            for system in _sweep_systems()
        ]

    def run(self) -> Outcome:
        """Run one repetition."""
        if self.mode == "sweep":
            return self._run_sweep()
        (name,) = self.workloads
        entry = run_workload if self.mode == "open" else run_workload_closed_loop
        result = entry(ida(0.2), self.spec(name), self.scale)
        metrics = result.metrics
        read, write = metrics.read_response.summary(), metrics.write_response.summary()
        counters = counters_dict(metrics)
        return Outcome(
            submitted=result.workload.num_requests,
            completed=read["count"] + write["count"],
            digest=_digest([(read, write, counters)]),
            sim={
                "read_mean_us": read["mean_us"],
                "read_p50_us": read["p50_us"],
                "read_p99_us": read["p99_us"],
                "write_mean_us": write["mean_us"],
                "throughput_mb_s": metrics.throughput_mb_s(),
            },
            counts=_counts(
                [(counters, metrics.read_mix, result.utilisation, result.queue_wait)]
            ),
        )

    def _run_sweep(self) -> Outcome:
        stats: dict[str, int] = {}
        # With default arguments a failed unit raises SweepError out of
        # the call instead of leaving an error in its result slot.
        payloads = execute_units(self.units(), jobs=1, snapshots=True, snapshot_stats=stats)
        read_hist, write_hist = Histogram(), Histogram()
        bytes_moved = elapsed_us = 0.0
        for payload in payloads:
            read_hist.merge(payload.read_hist)
            write_hist.merge(payload.write_hist)
            bytes_moved += payload.bytes_read + payload.bytes_written
            elapsed_us += payload.elapsed_us
        reads = sum(p.read_response["count"] for p in payloads)
        writes = sum(p.write_response["count"] for p in payloads)
        return Outcome(
            submitted=self.requests,
            completed=reads + writes,
            digest=_digest(
                [(p.read_response, p.write_response, p.counters) for p in payloads]
            ),
            sim={
                "read_mean_us": _pooled_mean(payloads, "read_response"),
                "read_p50_us": read_hist.percentile(50),
                "read_p99_us": read_hist.percentile(99),
                "write_mean_us": _pooled_mean(payloads, "write_response"),
                "throughput_mb_s": bytes_moved / elapsed_us if elapsed_us else 0.0,
            },
            counts=_counts(
                [(p.counters, p.read_mix, p.utilisation, p.queue_wait) for p in payloads]
            ),
            snapshot=dict(stats),
        )


def _sweep_systems() -> list:
    """dtR 20/40/60 x {baseline, IDA-E0, IDA-E20, IDA-E20 with FCFS}.

    The warm-up observes none of these fields, so all twelve share one
    warm state per workload: one snapshot miss and eleven hits.
    """
    systems = []
    for dtr in (20.0, 40.0, 60.0):
        systems += [
            baseline().with_dtr(dtr),
            ida(0.0).with_dtr(dtr),
            ida(0.2).with_dtr(dtr),
            ida(0.2).with_dtr(dtr).with_policy("fcfs"),
        ]
    return systems


def _digest(runs) -> str:
    canonical = json.dumps(runs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _pooled_mean(payloads, key: str) -> float:
    summaries = [getattr(p, key) for p in payloads]
    count = sum(s["count"] for s in summaries)
    return sum(s["count"] * s["mean_us"] for s in summaries) / count if count else 0.0


def _counts(runs) -> dict[str, float]:
    """Deterministic work counts summed over runs.

    Each run is ``(counters, read_mix, utilisation, queue_wait)``.  Every
    physical op occupies exactly one die, so the die queue census is the
    op census by dispatch class; channel ops are the reads' and host
    writes' transfers.
    """
    counts = {
        "phys_ops": 0, "refresh_page_moves": 0, "adjusted_wordlines": 0,
        "gc_page_moves": 0, "block_erases": 0, "fault_page_moves": 0,
        "host_page_reads": 0, "ida_fast_reads": 0, "host_page_programs": 0,
        "internal_ops": 0, "die_ops": 0, "channel_ops": 0,
        "host_read_wait_us": 0.0, "die_util": 0.0, "channel_util": 0.0,
    }
    for counters, read_mix, utilisation, queue_wait in runs:
        counts["phys_ops"] += counters["phys_ops_dispatched"]
        counts["refresh_page_moves"] += counters["refresh_page_moves"]
        counts["adjusted_wordlines"] += counters["refresh_adjusted_wordlines"]
        counts["gc_page_moves"] += counters["gc_page_moves"]
        counts["block_erases"] += counters["block_erases"]
        counts["fault_page_moves"] += counters["fault_page_moves"]
        counts["host_page_reads"] += read_mix.total
        counts["ida_fast_reads"] += read_mix.ida_fast_reads
        die, channel = queue_wait["die"], queue_wait["channel"]
        counts["host_page_programs"] += die["host_write"]["ops"]
        counts["internal_ops"] += die["internal"]["ops"]
        counts["die_ops"] += sum(c["ops"] for c in die.values())
        counts["channel_ops"] += sum(c["ops"] for c in channel.values())
        counts["host_read_wait_us"] += (
            die["host_read"]["total_wait_us"] + channel["host_read"]["total_wait_us"]
        )
        # Utilisation is a per-run mean; the sweep reports the unit mean.
        counts["die_util"] += utilisation["die"] / len(runs)
        counts["channel_util"] += utilisation["channel"] / len(runs)
    return counts


def _bench_scale(**changes) -> RunScale:
    return dataclasses.replace(RunScale.bench(), **changes)


#: The workloads, by name.  Every scale here is a ``RunScale`` preset with
#: a few fields replaced; the reasons are in ``simbench/README.md``.
CELLS: dict[str, Cell] = {
    cell.name: cell
    for cell in (
        Cell(
            name="replay_refresh",
            why=(
                "open-loop usr_1 replay under IDA-E20 at bench topology; refresh "
                "and ADJUST chains through the event machine do most of the work"
            ),
            mode="open",
            workloads=("usr_1",),
            scale=_bench_scale(
                num_requests=4000,
                footprint_pages=24_000,
                blocks_per_plane=12,
                refresh_cycles=0.85,
            ),
        ),
        Cell(
            name="closed_read",
            why=(
                "closed loop at queue depth 32 on read-heavy usr_1; the host read "
                "path and die/channel contention dominate"
            ),
            mode="closed",
            workloads=("usr_1",),
            scale=_bench_scale(num_requests=6000),
        ),
        Cell(
            name="closed_gc",
            why=(
                "closed loop on write-heavy src1_0 with 8 blocks per plane; the "
                "only cell where GC, erase and the write path do real work"
            ),
            mode="closed",
            workloads=("src1_0",),
            scale=_bench_scale(num_requests=8000, blocks_per_plane=8, gc_target_free=3),
        ),
        Cell(
            name="sweep_snapshot",
            why=(
                "inline 36-unit sweep sharing warm state per workload; measures the "
                "sweep executor, snapshot restore and cold warm-up"
            ),
            mode="sweep",
            workloads=("usr_1", "proj_3", "hm_1"),
            scale=dataclasses.replace(
                RunScale.quick(),
                num_requests=110,
                footprint_pages=48_000,
                blocks_per_plane=96,
                refresh_cycles=0.02,
            ),
        ),
    )
}


def job_problems(cell: Cell, outcome: Outcome) -> list[str]:
    """Ways a repetition failed to do the work its workload exists for.

    These hold on every seed, not only the ones the scales were tuned
    on; a seed that breaks one makes the run incorrect.
    """
    counts = outcome.counts
    problems = []

    def need(condition: bool, what: str) -> None:
        if not condition:
            problems.append(f"{cell.name}: expected {what}")

    if cell.name == "closed_gc":
        need(counts["gc_page_moves"] > 0, "GC page moves")
        need(counts["block_erases"] > 0, "block erases")
    else:
        need(counts["gc_page_moves"] == 0, "no GC")
    if cell.name == "replay_refresh":
        need(counts["refresh_page_moves"] > 0, "refresh page moves")
        need(counts["adjusted_wordlines"] > 0, "ADJUST-reprogrammed wordlines")
        need(counts["internal_ops"] * 2 > counts["die_ops"], "internal ops to dominate")
    if cell.name == "closed_read":
        need(counts["host_page_reads"] > 4 * counts["host_page_programs"], "a read-dominated mix")
    if cell.mode == "sweep":
        runs = len(cell.units())
        misses = len(cell.workloads)
        need(outcome.snapshot.get("misses") == misses, f"{misses} snapshot misses")
        need(outcome.snapshot.get("hits") == runs - misses, f"{runs - misses} snapshot hits")
        need(outcome.snapshot.get("fallbacks") == 0, "no snapshot fallbacks")
    return problems
