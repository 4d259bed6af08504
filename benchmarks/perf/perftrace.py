"""Layer-attributed tracing of one benchmark workload, from outside repro.

The tracer patches public functions and methods of ``repro`` *where they are
looked up*: ``repro.core.campaign`` binds ``hang_detected``, ``classify``,
``checkpoint_matches`` and ``mask_provably_dead`` as module globals, and
``repro.core.matrix`` binds ``golden_run`` and ``run_one_fault`` the same
way, so those names are patched in the importing module as well as (or
instead of) their home module.

Two kinds of wrapper:

* a **span** per call (name, start, end, parent, self time), for calls made
  a bounded number of times per fault — golden runs, fault runs, restores,
  classification.  Spans nest workload -> phase -> cell -> fault -> layer,
  and every span inside one fault carries that fault's id;
* an **aggregate** for calls made every simulated cycle (``OoOCore.step``,
  ``InjectionController.tick``, ``CoreAuditor.on_cycle``, ``hang_detected``,
  ``CheckpointStore.consider``, ``checkpoint.matches``): folded into the
  enclosing span as ``[count, total, self]`` so memory stays bounded.

A layer's self time is its duration minus the time spent in traced calls it
made.  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: harness-level spans: their self time is benchmark overhead, not a layer
HARNESS_SPANS = ("workload", "setup", "campaign")
PHASES = ("setup", "campaign")


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans: list[dict] = []
        #: child time accumulated by each open frame (spans and aggregates);
        #: the bottom entry is the root span's parent
        self._frames: list[list[float]] = [[0.0]]
        self._open: list[dict] = []
        self._patches: list[tuple] = []
        self._next_id = 0
        self._next_fault = 0

    # ------------------------------------------------------------ spans

    def _enter(self, name: str, fault: bool) -> dict:
        parent = self._open[-1] if self._open else None
        if fault:
            fault_id = self._next_fault
            self._next_fault += 1
        else:
            fault_id = parent["fault"] if parent is not None else None
        span = {
            "id": self._next_id,
            "parent": parent["id"] if parent is not None else None,
            "name": name,
            "phase": name if name in PHASES else (
                parent["phase"] if parent is not None else None),
            "fault": fault_id,
            "agg": {},
        }
        self._next_id += 1
        self._frames.append([0.0])
        self._open.append(span)
        span["_t0"] = self.clock()
        return span

    def _exit(self, span: dict) -> None:
        t1 = self.clock()
        t0 = span.pop("_t0")
        duration = t1 - t0
        child = self._frames.pop()[0]
        self._open.pop()
        self._frames[-1][0] += duration
        span["start"] = t0 - self.origin
        span["end"] = t1 - self.origin
        span["self"] = max(0.0, duration - child)
        controller = span.pop("_controller", None)
        if controller is not None:
            span["early_masked"] = bool(controller.early_masked)
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """A harness-level span around a block."""
        span = self._enter(name, fault=False)
        try:
            yield span
        finally:
            self._exit(span)

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, name: str, fn, fault: bool = False,
                      on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._enter(name, fault)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(span, result)
                return result
            finally:
                tracer._exit(span)

        return wrapper

    def _agg_wrapper(self, name: str, fn):
        frames = self._frames
        open_spans = self._open
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                frames.pop()
                frames[-1][0] += duration
                agg = open_spans[-1]["agg"]
                entry = agg.get(name)
                if entry is None:
                    agg[name] = [1, duration, duration - frame[0]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[0]

        return wrapper

    def _controller_hook(self, init):
        """``InjectionController.__init__``: remember the fault's controller
        so its span can record whether the run ended early-masked."""
        open_spans = self._open

        @functools.wraps(init)
        def wrapper(controller, *args, **kwargs):
            init(controller, *args, **kwargs)
            for span in reversed(open_spans):
                if span["name"] == "campaign.fault":
                    span["_controller"] = controller
                    break

        return wrapper

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, make) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Patch every traced name (see the module docstring)."""
        from repro.accel import campaign as accel_campaign
        from repro.accel.dataflow import DataflowEngine
        from repro.core import campaign, matrix
        from repro.core.checkpoint import CheckpointStore, CoreCheckpoint
        from repro.core.injector import InjectionController
        from repro.core.journal import CampaignJournal
        from repro.core.liveness import LivenessMap
        from repro.core.sanitizer import CoreAuditor
        from repro.cpu.core import OoOCore

        def record_work(span, result):
            span["cycles"] = result.cycles
            span["ops"] = result.operations

        spans = [
            (campaign, "run_campaign", "campaign.cell"),
            (accel_campaign, "run_accel_campaign", "accel.cell"),
            (matrix, "run_matrix", "matrix.run"),
            (campaign, "golden_run", "campaign.golden"),
            (matrix, "golden_run", "campaign.golden"),
            (campaign, "compile_workload", "kernel.compile"),
            (campaign, "cpu_sample", "faultmodels.masks"),
            (accel_campaign, "accel_sample", "faultmodels.masks"),
            (campaign, "classify", "outcome.classify"),
            (campaign, "mask_provably_dead", "liveness.query"),
            (accel_campaign, "mask_provably_dead", "liveness.query"),
            (campaign, "attach_cpu_recorders", "liveness.attach"),
            (LivenessMap, "from_recorders", "liveness.map"),
            (OoOCore, "from_executable", "cpu.build"),
            (CoreCheckpoint, "restore_into", "checkpoint.restore"),
            (accel_campaign, "accel_golden", "accel.golden"),
            (accel_campaign.AccelReplayContext, "__init__", "accel.context"),
            (accel_campaign.AccelReplayContext, "reset", "accel.reset"),
        ]
        for owner, attr, name in spans:
            self._patch(owner, attr,
                        lambda fn, name=name: self._span_wrapper(name, fn))
        self._patch(DataflowEngine, "run", lambda fn: self._span_wrapper(
            "dataflow.run", fn, on_return=record_work))
        for owner, attr, name in (
            (campaign, "run_one_fault", "campaign.fault"),
            (matrix, "run_one_fault", "campaign.fault"),
            (accel_campaign, "run_one_accel_fault", "accel.fault"),
        ):
            self._patch(owner, attr, lambda fn, name=name: self._span_wrapper(
                name, fn, fault=True))
        for owner, attr, name in (
            (OoOCore, "step", "cpu.step"),
            (InjectionController, "tick", "injector.tick"),
            (CoreAuditor, "on_cycle", "sanitizer.on_cycle"),
            (CoreAuditor, "audit", "sanitizer.audit"),
            (campaign, "hang_detected", "sanitizer.hang_check"),
            (CheckpointStore, "consider", "checkpoint.consider"),
            (CoreCheckpoint, "capture", "checkpoint.snapshot"),
            (campaign, "checkpoint_matches", "checkpoint.match"),
            (CampaignJournal, "append", "journal.append"),
        ):
            self._patch(owner, attr,
                        lambda fn, name=name: self._agg_wrapper(name, fn))
        self._patch(InjectionController, "__init__", self._controller_hook)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def write(self, path: Path, meta: dict) -> None:
        doc = {**meta, "spans": self.spans}
        Path(path).write_text(json.dumps(doc) + "\n")


class _Totals:
    """``(phase, layer) -> [count, total, self]`` over spans and aggregates."""

    def __init__(self, spans: list[dict]):
        self._by = defaultdict(lambda: [0, 0.0, 0.0])
        for span in spans:
            entry = self._by[(span["phase"], span["name"])]
            entry[0] += 1
            entry[1] += span["end"] - span["start"]
            entry[2] += span["self"]
            for name, (count, total, self_s) in span["agg"].items():
                entry = self._by[(span["phase"], name)]
                entry[0] += count
                entry[1] += total
                entry[2] += self_s

    def _sum(self, name: str, phase: str | None, index: int):
        return sum(v[index] for (p, n), v in self._by.items()
                   if n == name and (phase is None or p == phase))

    def count(self, name: str, phase: str | None = None) -> int:
        return self._sum(name, phase, 0)

    def total(self, name: str, phase: str | None = None) -> float:
        return self._sum(name, phase, 1)

    def self_s(self, name: str, phase: str | None = None) -> float:
        return self._sum(name, phase, 2)

    def layer_self_s(self) -> float:
        return sum(v[2] for (_p, n), v in self._by.items()
                   if n not in HARNESS_SPANS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], records: list, wall_s: float,
                  journal_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (``trace.overhead`` excepted:
    it needs the untraced run, so ``run.py`` adds it).

    ``records`` are the in-memory fault records of the campaign phase: they
    carry ``restored_from`` and ``early_exited``, which journals omit.
    """
    t = _Totals(spans)
    camp = "campaign"
    cpu_faults = [s for s in spans
                  if s["name"] == "campaign.fault" and s["phase"] == camp]
    controlled = [s for s in cpu_faults if "early_masked" in s]
    probed = sum(1 for s in cpu_faults if "checkpoint.match" in s["agg"])
    runs = [s for s in spans if s["name"] == "dataflow.run"
            and s["phase"] == camp]
    steps = t.count("cpu.step", camp)
    step_s = t.self_s("cpu.step", camp)
    ops = sum(s.get("ops", 0) for s in runs)
    run_s = t.self_s("dataflow.run", camp)
    verdicts = len(records)
    return {
        "kernel.compile_s": t.total("kernel.compile"),
        "faultmodels.masks_s": t.total("faultmodels.masks"),
        "campaign.golden_calls": t.count("campaign.golden"),
        "campaign.golden_s": t.total("campaign.golden"),
        "checkpoint.consider_s": t.total("checkpoint.consider"),
        "checkpoint.snapshots": t.count("checkpoint.snapshot"),
        "liveness.map_s": t.total("liveness.map") + t.total("liveness.attach"),
        "cpu.steps": steps,
        "cpu.step_s": step_s,
        "cpu.ns_per_step": _ratio(step_s * 1e9, steps),
        "cpu.steps_per_fault": _ratio(steps, len(cpu_faults)),
        "cpu.builds": t.count("cpu.build", camp),
        "cpu.build_s": t.total("cpu.build", camp),
        "campaign.fault_self_s": t.self_s("campaign.fault"),
        "injector.ticks": t.count("injector.tick"),
        "injector.tick_s": t.self_s("injector.tick"),
        "injector.early_masked_share": _ratio(
            sum(1 for s in controlled if s["early_masked"]), len(controlled)),
        "checkpoint.restores": t.count("checkpoint.restore"),
        "checkpoint.restore_s": t.total("checkpoint.restore"),
        "checkpoint.cycles_skipped": sum(
            getattr(r, "restored_from", 0) for r in records),
        "checkpoint.probes": t.count("checkpoint.match"),
        "checkpoint.probe_s": t.total("checkpoint.match"),
        "checkpoint.early_exit_ratio": _ratio(
            sum(1 for r in records if getattr(r, "early_exited", False)),
            probed),
        "sanitizer.audit_s": (t.self_s("sanitizer.on_cycle", camp)
                              + t.self_s("sanitizer.audit", camp)),
        "sanitizer.hang_check_s": t.self_s("sanitizer.hang_check"),
        "liveness.queries": t.count("liveness.query"),
        "liveness.query_s": t.total("liveness.query"),
        "liveness.skip_ratio": _ratio(
            sum(1 for r in records if r.classified_by == "liveness"),
            verdicts),
        "journal.appends": t.count("journal.append"),
        "journal.append_s": t.total("journal.append"),
        "journal.bytes": journal_bytes,
        "matrix.self_s": t.self_s("matrix.run"),
        "campaign.loop_self_s": (t.self_s("campaign.cell")
                                   + t.self_s("accel.cell")),
        "outcome.classify_s": t.total("outcome.classify"),
        "accel.golden_s": t.total("accel.golden"),
        "accel.resets": t.count("accel.reset"),
        "accel.reset_s": t.total("accel.reset"),
        "dataflow.runs": len(runs),
        "dataflow.run_s": run_s,
        "dataflow.cycles": sum(s.get("cycles", 0) for s in runs),
        "dataflow.ops": ops,
        "dataflow.ns_per_op": _ratio(run_s * 1e9, ops),
        "campaign.hang_timeout_share": _ratio(
            sum(1 for r in records if r.crash_reason in ("hang", "timeout")),
            verdicts),
        "trace.coverage": _ratio(t.layer_self_s(), wall_s),
    }
