"""Golden pin of complete traced event streams, tie order included.

``tests/golden/trace_streams_tiny.json`` holds, per (trace, system), the
sha256 of the full structured event stream of a traced
``RunScale.tiny()`` run at seed 11, plus a few readable fields of its
``run_end`` event.  The stream carries every span's stage timings in
emission order, so the digest pins which of two same-timestamp events
fires first, and ``run_end`` pins the engine's ``events_processed`` and
``peak_pending_events``: a change to the event machinery that adds,
drops or reorders an engine event fails here even when every summary
metric happens to survive.

If a deliberate behaviour change invalidates the digests, regenerate the
file with ``python -m tests.sim.test_trace_stream_golden`` and say so in
the commit message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.config import RunScale
from repro.experiments.runner import run_workload
from repro.experiments.systems import ida
from repro.obs.tracer import MemorySink, Tracer
from repro.workloads import TABLE3_WORKLOADS

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "trace_streams_tiny.json"
TRACES = ("usr_1", "src1_0", "hm_1")
SYSTEM = "ida-e20"
SEED = 11


def _stream(trace: str) -> dict:
    sink = MemorySink()
    run_workload(
        ida(0.2),
        TABLE3_WORKLOADS[trace],
        scale=RunScale.tiny(),
        seed=SEED,
        tracer=Tracer(sink),
    )
    events = list(sink.events)
    blob = json.dumps(events, sort_keys=True, separators=(",", ":"))
    (run_end,) = [e for e in events if e["kind"] == "run_end"]
    return {
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "events": len(events),
        "events_processed": run_end["events_processed"],
        "peak_pending_events": run_end["peak_pending_events"],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", TRACES)
def test_trace_stream_matches_golden(golden: dict, trace: str) -> None:
    assert _stream(trace) == golden[trace][SYSTEM]


def _regenerate() -> None:
    payload = {trace: {SYSTEM: _stream(trace)} for trace in TRACES}
    with GOLDEN_PATH.open("w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
