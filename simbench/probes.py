"""Spans around the simulator's public functions, and the layer map.

A repetition runs inside a :class:`Probe`.  The probe replaces a fixed
list of wrap points -- functions and methods of ``repro``, named by
import path -- with thin wrappers for the duration of a ``with`` block
and puts the originals back on exit; nothing under ``src/`` is edited.

Every repetition wraps the three set-up points (workload generation,
simulator construction, warm-up): their wall time is the ``setup_s``
metric, and the simulator ``build_simulator`` returns is captured for
the engine's event counts.  A traced repetition wraps every point and
aggregates self time per span name: a span's duration minus the part
its child spans cover.

A wrap point that no longer exists is recorded as absent, never as an
error, so a later refactor that deletes or renames a function keeps the
benchmark running and shows up in ``layers.absent_wrap_points``.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["LAYERS", "WRAP_POINTS", "Probe", "layer_of", "layer_census"]

#: Every module of ``src/repro``, by the layer its time is charged to.
#: ``other`` holds modules no benchmarked path spends measurable time in
#: of its own.  A module missing here shows as unmapped, a listed module
#: missing on disk as absent (see :func:`layer_census`).
LAYERS: dict[str, tuple[str, ...]] = {
    "repro.workloads": (
        "repro.workloads",
        "repro.workloads.msr",
        "repro.workloads.request",
        "repro.workloads.synthetic",
        "repro.workloads.trace",
    ),
    "repro.experiments.runner": ("repro.experiments.runner",),
    "repro.experiments.parallel": ("repro.experiments.parallel",),
    "repro.sim.snapshot": ("repro.sim.snapshot",),
    "repro.ftl": (
        "repro.ftl",
        "repro.ftl.allocation",
        "repro.ftl.blockstatus",
        "repro.ftl.ftl",
        "repro.ftl.gc",
        "repro.ftl.mapping",
        "repro.ftl.ops",
        "repro.ftl.recovery",
        "repro.ftl.refresh",
        "repro.ftl.wear",
    ),
    "repro.sim.ssd": (
        "repro.sim.ssd",
        "repro.sim.drivers",
        "repro.sim.policy",
        "repro.sim.scheduler",
    ),
    "repro.sim.pipeline": ("repro.sim.pipeline",),
    "repro.sim.resources": ("repro.sim.resources",),
    "repro.sim.engine": ("repro.sim.engine",),
    "repro.core": (
        "repro.core",
        "repro.core.cases",
        "repro.core.coding",
        "repro.core.ida",
        "repro.core.mlc",
        "repro.core.qlc",
        "repro.core.readpath",
        "repro.core.tlc",
    ),
    "other": (
        "repro",
        "repro.cli",
        "repro.ecc",
        "repro.ecc.bch",
        "repro.ecc.engine",
        "repro.ecc.gf",
        "repro.ecc.hamming",
        "repro.ecc.ldpc",
        "repro.experiments",
        "repro.experiments.ablations",
        "repro.experiments.capacity_analysis",
        "repro.experiments.config",
        "repro.experiments.faults_artifact",
        "repro.experiments.fig10_throughput",
        "repro.experiments.fig11_read_retry",
        "repro.experiments.fig4_motivation",
        "repro.experiments.fig8_response_time",
        "repro.experiments.fig9_dtr_sensitivity",
        "repro.experiments.fig_breakdown",
        "repro.experiments.health_artifact",
        "repro.experiments.qlc_extension",
        "repro.experiments.recovery_artifact",
        "repro.experiments.reporting",
        "repro.experiments.systems",
        "repro.experiments.table3_workloads",
        "repro.experiments.table4_refresh_overhead",
        "repro.experiments.table5_mlc",
        "repro.faults",
        "repro.faults.injector",
        "repro.faults.invariants",
        "repro.faults.plan",
        "repro.flash",
        "repro.flash.block",
        "repro.flash.cell",
        "repro.flash.chip",
        "repro.flash.errors",
        "repro.flash.geometry",
        "repro.flash.ispp",
        "repro.flash.plane",
        "repro.flash.state",
        "repro.flash.timing",
        "repro.flash.voltage",
        "repro.obs",
        "repro.obs.health",
        "repro.obs.histogram",
        "repro.obs.inspect",
        "repro.obs.interval",
        "repro.obs.metrics",
        "repro.obs.profiler",
        "repro.obs.slo",
        "repro.obs.tracer",
        "repro.sim",
        "repro.sim.accel",
        "repro.sim.backends",
        "repro.sim.kernels",
        "repro.sim.metrics",
    ),
}

_LAYER_OF = {module: layer for layer, modules in LAYERS.items() for module in modules}

#: (module the name is looked up in, attribute path, span name).  Module
#: functions are wrapped where their caller looks them up: ``runner``
#: imports ``generate_workload`` by name, so that binding is the one
#: ``run_workload`` calls.
WRAP_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.experiments.runner", "generate_workload", "workloads.generate"),
    ("repro.experiments.runner", "build_simulator", "experiments.build"),
    ("repro.experiments.runner", "warm_device", "experiments.warm"),
    ("repro.experiments.runner", "restore_warm_state", "snapshot.restore"),
    ("repro.experiments.runner", "capture_warm_state", "snapshot.capture"),
    ("repro.experiments.parallel", "execute_unit", "parallel.unit"),
    ("repro.ftl.ftl", "Ftl.write_untimed", "ftl.untimed"),
    ("repro.ftl.ftl", "Ftl.apply_untimed_batch", "ftl.untimed"),
    ("repro.ftl.ftl", "Ftl.host_read", "ftl.host_read"),
    ("repro.ftl.ftl", "Ftl.host_write", "ftl.host_write"),
    ("repro.ftl.ftl", "Ftl.check_refresh", "ftl.check_refresh"),
    ("repro.sim.ssd", "SsdSimulator.dispatch_read", "ssd.dispatch"),
    ("repro.sim.ssd", "SsdSimulator.dispatch_write", "ssd.dispatch"),
    ("repro.sim.ssd", "SsdSimulator.issue_internal_sequence", "ssd.internal_issue"),
    ("repro.sim.pipeline", "OpPipeline.start", "pipeline.start"),
    ("repro.sim.resources", "Resource.submit", "resources.submit"),
    ("repro.sim.engine", "SimEngine.run", "engine.run"),
    ("repro.sim.engine", "SimEngine.run_until_idle", "engine.run"),
)

#: Wrapped on every repetition, traced or not: they make up ``setup_s``.
SETUP_SPANS = ("workloads.generate", "experiments.build", "experiments.warm")


def layer_of(module: str) -> str:
    """The layer a module's time is charged to, or ``"unmapped"``."""
    return _LAYER_OF.get(module, "unmapped")


def layer_census(src: Path) -> dict[str, list[str]]:
    """Compare :data:`LAYERS` with the modules present under ``src/repro``.

    Returns ``{"unmapped": [...], "absent": [...]}``: modules on disk the
    map does not name, and mapped modules no longer on disk.
    """
    present = set()
    for path in (src / "repro").rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        present.add(".".join(parts))
    return {
        "unmapped": sorted(present - _LAYER_OF.keys()),
        "absent": sorted(_LAYER_OF.keys() - present),
    }


def _resolve(module_name: str, path: str):
    """``(owner, attribute, current value)`` of a wrap point, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # Read the owner's own namespace: a method inherited from a base
    # class is not one defined (and restorable) here.
    namespace = vars(owner)
    if attribute not in namespace or not callable(namespace[attribute]):
        return None
    return owner, attribute, namespace[attribute]


class Probe:
    """Installs span wrappers for one repetition (a context manager).

    Attributes:
        self_s / total_s / calls: Per span name, wall seconds net of
            child spans, wall seconds, and call count.
        cold_warm_s: Wall seconds of warm-ups that ran the cold preload
            (every warm-up without a snapshot handle, and snapshot misses).
        sim: The last simulator ``build_simulator`` returned.
        events / peak_pending: Engine events fired and the highest
            pending-queue mark over every captured simulator.
        absent: Wrap points that could not be resolved.
        installed: Span names with at least one wrap point in place.
        layer_self_s: Self seconds per layer of the wrapped functions'
            defining modules (see :data:`LAYERS`).
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.cold_warm_s = 0.0
        self.sim = None
        self._uncounted = None
        self.events = 0
        self.peak_pending = 0
        self.absent: list[str] = []
        self.installed: set[str] = set()
        self._stack: list[list[float]] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Probe":
        for module_name, path, span in WRAP_POINTS:
            if not self.trace and span not in SETUP_SPANS:
                continue
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}:{path}")
                continue
            owner, attribute, original = found
            defined_in = getattr(original, "__module__", "") or ""
            wrapper = self._wrap(original, span, layer_of(defined_in))
            setattr(owner, attribute, wrapper)
            self._originals.append((owner, attribute, original))
            self.installed.add(span)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()
        self._harvest()

    def release_sim(self) -> None:
        """Drop the captured simulator so its memory can be freed."""
        self.sim = None

    def _harvest(self) -> None:
        """Fold the last captured simulator's engine counts into the totals."""
        sim, self._uncounted = self._uncounted, None
        if sim is not None:
            self.events += sim.engine.processed
            self.peak_pending = max(self.peak_pending, sim.engine.peak_pending)

    def _after(self, span: str, args, kwargs, result, elapsed: float) -> None:
        if span == "experiments.build":
            self._harvest()
            self.sim = self._uncounted = result
        elif span == "experiments.warm":
            warm = args[2] if len(args) > 2 else kwargs.get("warm")
            if warm is None or warm.outcome != "hit":
                self.cold_warm_s += elapsed

    def _wrap(self, fn, span: str, layer: str):
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        layer_self_s = self.layer_self_s
        clock = time.perf_counter
        after = self._after if span in SETUP_SPANS else None

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - children[0]
                self_s[span] += own
                layer_self_s[layer] += own
                total_s[span] += elapsed
                calls[span] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(span, args, kwargs, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper
