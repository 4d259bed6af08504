"""Campaign benchmark: four workloads, end-to-end metrics, a traced run.

    python3 benchmarks/perf/run.py                         # every workload
    python3 benchmarks/perf/run.py --workload dsa --seed 2
    python3 benchmarks/perf/run.py --workload dsa --trace  # per-layer metrics

Each workload runs in fresh child processes, one at a time (see
``perfharness.py``): one that sets up and runs the campaign phase, then
``SETUP_SAMPLES - 1`` that only set up, so ``setup_s`` is a median of cold
set-ups.  Every metric is printed by name with its unit; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json``, or with
``--trace`` its ``per_layer`` metrics).  A run whose verdicts are wrong
prints ``"correct": false`` and exits 1; a run that cannot measure exits 2
without a result line.  The results, with every sample, also go to
``--results`` (default ``benchmarks/perf/out/``) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"
OUT = HERE / "out"

WORKLOADS = ("cpu-transient", "cpu-permanent", "grid-liveness", "dsa")
#: cold set-ups per untraced run; setup_s is their median
SETUP_SAMPLES = 3
#: every run of one workload ends within this many seconds
RUN_BUDGET_S = 170.0
#: pinned digests are those of the default per-cell fault counts
PINNED_SEEDS = (1, 2)
#: measured and printed with every untraced run but not gated: the first
#: four move 4-24% between seeds with the sample's mix of short and long
#: fault runs; the host_ ones are the gated times before their conversion
#: to reference seconds, and the host's speed that converts them
REPORTED = {"faults_per_s": "1/s", "wall_s": "s", "fault_p50_ms": "ms",
            "fault_p95_ms": "ms", "host_fault_cycles_per_s": "cycles/s",
            "host_setup_s": "s", "host_speed": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to measuring wrong
    verdicts)."""


def run_child(job: dict, deadline: float) -> dict:
    """Run one job in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "perfharness.py"), json.dumps(job)],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{job['workload']} ({job['mode']}) did not finish "
                         f"within the {RUN_BUDGET_S:.0f} s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{job['workload']} ({job['mode']}) exited with "
                         f"code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pinned_problems(workload: str, seed: int, faults: int | None,
                    digest: str) -> list[str]:
    """Compare a default-size run's digest with the one pinned for its seed."""
    if faults is not None or seed not in PINNED_SEEDS:
        return []
    pinned = json.loads(BASELINE.read_text())["digests"][str(seed)][workload]
    if digest != pinned:
        return [f"verdict digest {digest[:16]}... differs from the one "
                f"pinned for seed {seed} ({pinned[:16]}...)"]
    return []


def _job(workload: str, seed: int, faults: int | None, mode: str,
         seconds: float) -> dict:
    return {"workload": workload, "seed": seed, "faults": faults,
            "mode": mode, "seconds": seconds, "out": str(OUT)}


def measure(workload: str, seed: int, seconds: float,
            faults: int | None = None) -> dict:
    """Untraced run of one workload: end-to-end metrics and checks.

    ``faults`` overrides the per-cell fault count (tests only); such runs
    are not compared with the pinned digests.
    """
    deadline = time.monotonic() + RUN_BUDGET_S
    main = run_child(_job(workload, seed, faults, "full", seconds), deadline)
    problems = list(main["problems"])
    problems += pinned_problems(workload, seed, faults, main["digest"])
    setups = [main]
    for _ in range(SETUP_SAMPLES - 1):
        extra = run_child(_job(workload, seed, faults, "setup", 0), deadline)
        setups.append(extra)
        if extra["setup_fingerprint"] != main["setup_fingerprint"]:
            problems.append("a second process set up different goldens or "
                            "fault samples")
    values = {name: main[name] for name in (
        "fault_cycles_per_s", "peak_rss_mb", *REPORTED)}
    for name in ("setup_s", "host_setup_s"):
        values[name] = statistics.median(s[name] for s in setups)
    return {
        "correct": not problems, "problems": problems,
        "attempted": main["attempted"], "failed": main["failed"],
        "failed_share": main["failed"] / main["attempted"],
        "digest": main["digest"], "values": values,
        "setup_samples": [s["setup_s"] for s in setups],
        "passes": main["passes"],
    }


def measure_traced(workload: str, seed: int,
                   faults: int | None = None) -> dict:
    """Traced run of one workload, next to one untraced pass that gives
    the tracing overhead and the reference digest."""
    deadline = time.monotonic() + RUN_BUDGET_S
    base = run_child(_job(workload, seed, faults, "full", 0), deadline)
    traced = run_child(_job(workload, seed, faults, "trace", 0), deadline)
    problems = list(base["problems"]) + list(traced["problems"])
    problems += pinned_problems(workload, seed, faults, base["digest"])
    if traced["digest"] != base["digest"]:
        problems.append("the traced run's verdicts differ from the "
                        "untraced run's")
    values = dict(traced["layers"])
    values["trace.overhead"] = traced["wall_s"] / base["wall_s"] - 1
    return {
        "correct": not problems, "problems": problems,
        "attempted": base["attempted"], "failed": base["failed"],
        "failed_share": base["failed"] / base["attempted"],
        "digest": base["digest"], "values": values,
        "trace_file": traced["trace_file"],
    }


def with_units(values: dict[str, float], declared: dict[str, str]) -> dict:
    missing = sorted(set(declared) - set(values))
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not "
                         f"measured: {', '.join(missing)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="derives every cell's fault sample (default 1; "
                             "2 is held out for checking claims)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="campaign passes repeat while another fits in "
                             "this time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: report per-layer metrics "
                                             "from a traced run")
    parser.add_argument("--results", type=Path, default=None,
                        help="results JSON path")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    doc = json.loads(BENCHMARK.read_text())
    seconds = args.seconds if args.seconds is not None else doc["run_seconds"]
    declared = {m["name"]: m["unit"]
                for m in doc["per_layer" if args.trace else "end_to_end"]}
    workloads = args.workload or list(WORKLOADS)

    summaries = {}
    try:
        for workload in workloads:
            summary = (measure_traced(workload, args.seed) if args.trace
                       else measure(workload, args.seed, seconds))
            values = summary.pop("values")
            summary["metrics"] = with_units(values, declared)
            summary["reported"] = {name: {"value": values[name], "unit": unit}
                                   for name, unit in REPORTED.items()
                                   if name in values}
            summaries[workload] = summary
            for name, metric in summary["metrics"].items():
                print(f"{workload:14s} {name:30s} {metric['value']:>16.6f} "
                      f"{metric['unit']}")
            for name, metric in summary["reported"].items():
                print(f"{workload:14s} {name:30s} {metric['value']:>16.6f} "
                      f"{metric['unit']} (reported, not gated)")
            print(f"{workload:14s} {'failed_share':30s} "
                  f"{summary['failed_share']:>16.6f} ratio "
                  f"({summary['failed']}/{summary['attempted']})")
            for problem in summary["problems"]:
                print(f"{workload}: INCORRECT: {problem}", file=sys.stderr)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = args.results or OUT / (
        f"results-{'-'.join(workloads) if args.workload else 'all'}"
        f"-seed{args.seed}{'-trace' if args.trace else ''}.json")
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({
        "seed": args.seed, "seconds": seconds, "trace": bool(args.trace),
        "workloads": summaries}, indent=2) + "\n")

    correct = all(s["correct"] for s in summaries.values())
    if len(summaries) == 1:
        metrics = next(iter(summaries.values()))["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, s in summaries.items()
                   for name, m in s["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
