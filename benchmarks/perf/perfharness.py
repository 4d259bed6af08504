"""Workloads of the campaign benchmark, and the child process that runs one.

``run.py`` starts this file in a fresh interpreter for every measurement,
with ``PYTHONHASHSEED=0`` (the x86 back end's register allocation depends on
set iteration order, so an unpinned hash seed changes x86 verdicts between
processes) and with every in-process cache empty, so set-up is measured
cold.  The job arrives as one JSON object on argv and the result leaves as
one JSON line on stdout::

    python perfharness.py '{"workload": "dsa", "seed": 1, "faults": null,
                            "mode": "full", "seconds": 15, "out": "..."}'

Modes: ``full`` sets up, then repeats the campaign phase while another pass
fits in ``seconds`` (at least once) and checks the verdicts; ``setup`` only
times set-up; ``trace`` sets up and runs one pass under the layer tracer.
Outside the tracer, set-up and campaign times are also converted into
reference seconds by probing the host's speed next to them (``hostspeed``).

The harness reaches every campaign function through its module
(``campaign.golden_run``, never an imported name) so the tracer's patches
see the calls.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

from repro.accel import campaign as accel_campaign
from repro.core import campaign, matrix
from repro.core.checkpoint import DEFAULT_POLICY, NO_CHECKPOINTS
from repro.core.faults import FaultModel
from repro.core.journal import CampaignJournal, mask_to_dict
from repro.core.outcome import Outcome
from repro.core.presets import sim_config
from repro.core.telemetry import Telemetry

from hostspeed import HostProbe, ReferenceClock

#: Latin square: each ISA, workload and target appears three times
CPU_TRANSIENT = (
    ("rv", "crc32", "regfile_int"), ("rv", "qsort", "l1d"),
    ("rv", "sha", "lq"), ("arm", "crc32", "l1d"), ("arm", "qsort", "lq"),
    ("arm", "sha", "regfile_int"), ("x86", "crc32", "lq"),
    ("x86", "qsort", "regfile_int"), ("x86", "sha", "l1d"),
)
CPU_PERMANENT = (
    ("rv", "qsort", "l1d", FaultModel.STUCK_AT_0),
    ("arm", "crc32", "l1i", FaultModel.STUCK_AT_1),
    ("x86", "crc32", "l1d", FaultModel.STUCK_AT_1),
)
GRID = {
    "isas": ["rv", "arm"], "workloads": ["sha", "dijkstra", "fft"],
    "targets": ["regfile_int", "l1d"], "liveness": "on",
}
DSA = (("gemm", "MATRIX1"), ("gemm", "MATRIX3"), ("spmv", "VAL"),
       ("spmv", "COLS"))

#: faults per cell: one pass of each workload takes 12-20 s on a 2-core
#: x86-64 host; cpu-permanent's 201 verdicts leave 10 beyond p95, and
#: grid-liveness's 1440 hold enough watchdog timeouts (cheaper per cycle
#: than other runs) that their count moves its throughput little by seed
FAULTS = {"cpu-transient": 120, "cpu-permanent": 67, "grid-liveness": 120,
          "dsa": 300}
#: verdicts per cell re-simulated by the reference path after timing
ORACLE_PER_CELL = {"cpu-transient": 2, "cpu-permanent": 1,
                   "grid-liveness": 2, "dsa": 4}
#: host-speed probes: seconds per probe around set-up and in the campaign
#: phase, and campaign seconds between two
SETUP_PROBE_S = 0.15
PROBE_S = 0.05
PROBE_EVERY_S = 1.0


@dataclass
class Cell:
    key: str
    spec: object        # CampaignSpec | AccelCampaignSpec
    golden: object      # GoldenRun | AccelGolden
    masks: list


@dataclass
class Prepared:
    workload: str
    cells: list[Cell]
    grid: object = None     # MatrixGrid of grid-liveness


def cell_seed(seed: int, key: str) -> int:
    """Per-cell sample seed derived from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}\x1f{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def setup(workload: str, seed: int, faults: int) -> Prepared:
    """Compile, run the goldens (checkpoints, liveness where used) and draw
    the fault samples: everything a campaign needs before its first fault."""
    if workload in ("cpu-transient", "cpu-permanent"):
        cfg = sim_config()
        cells = []
        rows = CPU_TRANSIENT if workload == "cpu-transient" else CPU_PERMANENT
        for isa, name, target, *model in rows:
            key = f"{isa}-{name}-{target}"
            spec = campaign.CampaignSpec(
                isa=isa, workload=name, target=target, cfg=cfg,
                model=model[0] if model else FaultModel.TRANSIENT,
                faults=faults, seed=cell_seed(seed, key))
            golden = campaign.golden_run(isa, name, spec.cfg, spec.scale,
                                         checkpoints=DEFAULT_POLICY)
            cells.append(Cell(key, spec, golden,
                              campaign.masks_for_spec(spec, golden)))
        return Prepared(workload, cells)
    if workload == "grid-liveness":
        grid = matrix.grid_from_dict({
            "matrix": {"name": "perf-grid-liveness"},
            "cpu": {**GRID, "faults": faults, "seed": seed},
        })
        cells = []
        for cell in grid.cells:
            runtime = matrix.cell_runtime(cell, DEFAULT_POLICY)
            cells.append(Cell(cell.key, cell.spec, runtime.golden,
                              list(runtime.masks)))
        return Prepared(workload, cells, grid)
    if workload == "dsa":
        cells = []
        for design, component in DSA:
            key = f"{design}-{component}"
            spec = accel_campaign.AccelCampaignSpec(
                design=design, component=component, faults=faults,
                seed=cell_seed(seed, key))
            golden = accel_campaign.accel_golden(spec)
            cells.append(Cell(key, spec, golden,
                              accel_campaign.accel_masks(spec, golden)))
        return Prepared(workload, cells)
    raise ValueError(f"unknown workload {workload!r}")


def campaign_pass(prep: Prepared, work: Path, telemetry) -> dict[str, Path]:
    """Run every cell through its public campaign function (serial, one
    process); returns each cell's journal."""
    if prep.grid is not None:
        matrix.run_matrix(prep.grid, work / "grid", workers=1,
                          telemetry=telemetry)
        return {c.key: work / "grid" / "cells" / f"{c.key}.jsonl"
                for c in prep.cells}
    journals = {}
    for cell in prep.cells:
        path = journals[cell.key] = work / f"{cell.key}.jsonl"
        if prep.workload == "dsa":
            accel_campaign.run_accel_campaign(
                cell.spec, cell.masks, journal=path, telemetry=telemetry)
        else:
            campaign.run_campaign(cell.spec, cell.masks, workers=1,
                                  journal=path, telemetry=telemetry)
    return journals


def timed_setup(workload: str, seed: int, faults: int,
                clock: ReferenceClock) -> Prepared:
    """``setup``, timed by ``clock``."""
    clock.start()
    prep = setup(workload, seed, faults)
    clock.stop()
    return prep


def timed_pass(prep: Prepared, work: Path,
               clock: ReferenceClock) -> tuple[list, dict]:
    """One campaign phase, timed by ``clock``: ``([(record, wall_s)],
    journals)``.  A probing clock probes the host at the start, about every
    ``PROBE_EVERY_S`` between two verdicts and at the end."""
    finished: list = []

    def sink(event) -> None:
        if event.kind == "fault_finished":
            finished.append((event.record, event.wall_s))
            clock.tick()

    clock.start()
    journals = campaign_pass(prep, work, Telemetry(sinks=[sink]))
    clock.stop()
    return finished, journals


# --------------------------------------------------------------------------
# verdicts and their checks
# --------------------------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_identity(golden) -> list:
    """Cycles, instructions (operations on the DSA) and output hash."""
    if isinstance(golden, accel_campaign.AccelGolden):
        return [golden.cycles, golden.operations, _sha(golden.output)]
    return [golden.cycles, golden.result.instructions, _sha(golden.output)]


def verdict(record) -> list:
    """The record fields a verdict consists of; ``restored_from`` and
    ``early_exited`` say how it was reached, not what it is."""
    return [record.mask.mask_id, record.outcome.value, record.hvf.value,
            record.cycles, record.masked_reason, record.crash_reason,
            record.detected_by, record.classified_by]


def load_verdicts(journals: dict[str, Path]) -> dict[str, list]:
    return {key: CampaignJournal.load(path) for key, path in journals.items()}


def _cells_digest(prep: Prepared, rows) -> str:
    """sha256 over every cell's key, golden identity and ``rows(cell)``."""
    h = hashlib.sha256()
    for cell in sorted(prep.cells, key=lambda c: c.key):
        line = [cell.key, golden_identity(cell.golden), rows(cell)]
        h.update(json.dumps(line).encode() + b"\n")
    return h.hexdigest()


def verdict_digest(prep: Prepared, records: dict[str, list]) -> str:
    return _cells_digest(prep, lambda c: [verdict(r) for r in records[c.key]])


def setup_fingerprint(prep: Prepared) -> str:
    """Goldens and samples: equal in every process that sets up the same
    workload and seed."""
    return _cells_digest(prep, lambda c: [mask_to_dict(m) for m in c.masks])


def sample_problems(prep: Prepared, records: dict[str, list]) -> list[str]:
    """Every cell journaled exactly its sample, in order."""
    problems = []
    for cell in prep.cells:
        got = [r.mask for r in records[cell.key]]
        if got != cell.masks:
            problems.append(f"{cell.key}: journal holds {len(got)} records, "
                            f"not the {len(cell.masks)}-mask sample")
    return problems


def reference_record(prep: Prepared, cell: Cell, mask):
    """The verdict without checkpoints, early exit, liveness claims or the
    DSA replay context: the from-scratch path the optimisations must match."""
    if prep.workload == "dsa":
        return accel_campaign.run_one_accel_fault(cell.spec, mask)
    return campaign.run_one_fault(replace(cell.spec, liveness=None), mask,
                                  cell.golden, checkpoints=NO_CHECKPOINTS)


def oracle_problems(prep: Prepared, records: dict[str, list],
                    seed: int) -> list[str]:
    """Re-simulate a seeded sample of verdicts on the reference path."""
    rng = random.Random(f"oracle/{prep.workload}/{seed}")
    per_cell = ORACLE_PER_CELL[prep.workload]
    problems = []
    for cell in prep.cells:
        rows = records[cell.key]
        for record in rng.sample(rows, min(per_cell, len(rows))):
            ref = reference_record(prep, cell, record.mask)
            if record.classified_by == "liveness":
                ok = ref.outcome is Outcome.MASKED
            else:
                ok = verdict(ref) == verdict(record)
            if not ok:
                problems.append(f"{cell.key} mask {record.mask.mask_id}: "
                                f"{verdict(record)} but the reference path "
                                f"gives {verdict(ref)}")
    return problems


def leak_problems(prep: Prepared, misses_before: int) -> list[str]:
    """Set-up work that ran again inside the timed phase."""
    problems = []
    misses = campaign.golden_miss_count() - misses_before
    if misses:
        problems.append(f"{misses} golden simulation(s) ran in the campaign "
                        f"phase")
    if prep.workload == "dsa":
        problems += [f"{cell.key}: the DSA golden was recomputed in the "
                     f"campaign phase" for cell in prep.cells
                     if accel_campaign.accel_golden(cell.spec)
                     is not cell.golden]
    return problems


# --------------------------------------------------------------------------
# the child process
# --------------------------------------------------------------------------


def run_cycles(prep: Prepared, records: dict[str, list]) -> int:
    """Simulated cycles the verdicts' fault runs had to cover.

    A CPU fault run resumes from the golden checkpoint before its first
    flip, so it covers the cycles from that flip to the end of the run; a
    DSA fault run replays the kernel from cycle 0.  The end is the run's
    recorded cycle count, so the sum is a function of the sample and its
    verdicts alone: it tracks the host time a sample needs (long runs and
    watchdog timeouts included) without depending on how the program
    reaches the verdicts.  Analytic (liveness) verdicts cover none.
    """
    total = 0
    for cell in prep.cells:
        for record, mask in zip(records[cell.key], cell.masks):
            if record.classified_by == "liveness":
                continue
            start = 0 if prep.workload == "dsa" else mask.first_cycle
            total += max(0, record.cycles - start)
    return total


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile cut point (q in 1..99)."""
    return statistics.quantiles(values, n=100)[q - 1]


def run_job(workload: str, seed: int, faults: int | None, mode: str,
            seconds: float, out: str) -> dict:
    """One measurement.  Times come in host seconds and, except under the
    tracer (whose spans would count the probes), in reference seconds too:
    ``setup_s`` and ``fault_cycles_per_s`` (see ``hostspeed``)."""
    faults = faults or FAULTS[workload]
    result = {"workload": workload, "seed": seed, "faults": faults,
              "mode": mode}
    probe = None if mode == "trace" else HostProbe()
    setup_clock = ReferenceClock(probe, SETUP_PROBE_S)
    if mode == "setup":
        prep = timed_setup(workload, seed, faults, setup_clock)
        result.update(setup_s=setup_clock.ref_s,
                      host_setup_s=setup_clock.host_s,
                      setup_fingerprint=setup_fingerprint(prep))
        return result

    Path(out).mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out))
    tracer = None
    try:
        if mode == "trace":
            from perftrace import Tracer

            tracer = Tracer()
            tracer.install()
            with tracer.span("workload"):
                with tracer.span("setup"):
                    prep = timed_setup(workload, seed, faults, setup_clock)
                with tracer.span("campaign"):
                    clock = ReferenceClock(None)
                    passes = [(*timed_pass(prep, scratch / "pass-0", clock),
                               clock)]
            tracer.uninstall()
        else:
            prep = timed_setup(workload, seed, faults, setup_clock)
            misses = campaign.golden_miss_count()
            passes = []
            while True:
                clock = ReferenceClock(probe, PROBE_S, PROBE_EVERY_S)
                work = scratch / f"pass-{len(passes)}"
                passes.append((*timed_pass(prep, work, clock), clock))
                spent = sum(c.host_s for _f, _j, c in passes)
                if spent + clock.host_s > seconds:
                    break
        records = load_verdicts(passes[0][1])
        pass_rows = [{"campaign_s": clock.host_s, "verdicts": len(finished),
                      "digest": verdict_digest(prep, load_verdicts(journals))}
                     for finished, journals, clock in passes]
        problems = sample_problems(prep, records)
        if len({p["digest"] for p in pass_rows}) > 1:
            problems.append("campaign passes disagree on the verdicts")
        if mode == "full":
            problems += leak_problems(prep, misses)
            problems += oracle_problems(prep, records, seed)

        first = passes[0][0]
        latencies = [wall for finished, _j, _c in passes
                     for _r, wall in finished]
        pass_s = statistics.median(p["campaign_s"] for p in pass_rows)
        cycles = run_cycles(prep, records)
        if probe is not None:
            for row, (_f, _j, clock) in zip(pass_rows, passes):
                row.update(campaign_ref_s=clock.ref_s, host_speed=clock.speed,
                           probe_rates=clock.rates)
            result.update({
                "setup_s": setup_clock.ref_s,
                "setup_probe_rates": setup_clock.rates,
                "fault_cycles_per_s": cycles / statistics.median(
                    p["campaign_ref_s"] for p in pass_rows),
                "host_speed": statistics.median(
                    p["host_speed"] for p in pass_rows),
            })
        result.update({
            "host_setup_s": setup_clock.host_s,
            "setup_fingerprint": setup_fingerprint(prep),
            "passes": pass_rows,
            "digest": pass_rows[0]["digest"],
            "attempted": len(first),
            "failed": sum(1 for r, _ in first
                          if r.outcome is Outcome.SIM_FAULT),
            "run_cycles": cycles,
            "host_fault_cycles_per_s": cycles / pass_s,
            "faults_per_s": len(first) / pass_s,
            "wall_s": setup_clock.host_s + pass_s,
            "fault_p50_ms": 1000 * statistics.median(latencies),
            "fault_p95_ms": 1000 * _percentile(latencies, 95),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "problems": problems,
        })
        if tracer is not None:
            from perftrace import layer_metrics

            journals = passes[0][1]
            layers = layer_metrics(
                tracer.spans, [r for r, _ in first], result["wall_s"],
                sum(p.stat().st_size for p in journals.values()))
            result["layers"] = layers
            trace_path = Path(out) / f"trace-{workload}.json"
            tracer.write(trace_path, {"workload": workload, "seed": seed,
                                      "faults": faults,
                                      "wall_s": result["wall_s"],
                                      "metrics": layers})
            result["trace_file"] = str(trace_path)
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    print(json.dumps(run_job(**json.loads(sys.argv[1]))))
