"""Compare benchmark results of a parent and a change, pair by pair.

    python3 benchmarks/perf/compare.py --parent p01.json p02.json ... \\
                                      --change c01.json c02.json ...

Each file is a ``run.py --results`` file; the i-th parent and the i-th
change form a pair, so run them alternating (parent first in one pair,
change first in the next) with the same seed.  For every workload and
end-to-end metric of ``BENCHMARK.json`` this prints one verdict:

* ``improved`` -- the change wins at least 9/10 of the pairs (ties count
  for neither) and its median beats the parent's by more than the parent's
  interquartile range; needs at least 10 pairs;
* ``regressed`` -- the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median; for
  ``setup_s`` at least ``SETUP_FLOOR_S``);
* ``unresolved`` -- either side's interquartile range, as a share of its
  median, is wider than that bound, unless every change run beats every
  parent run;
* ``unchanged`` -- none of the above.

The share of quarantined verdicts (``failed/attempted``) is ``regressed``
when it rose in any pair.  Exits 1 when anything regressed or is
unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"

#: pairs needed before a gain may be claimed
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE = 0.9
#: set-up may always worsen by this many seconds: dsa sets up in ~40 ms,
#: where a share of the median is below the noise of starting a process
SETUP_FLOOR_S = 0.05


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    verdict: str
    parent: list[float]
    change: list[float]
    wins: int


def judge(parent: list[float], change: list[float], better: str,
          bound: float, floor: float = 0.0) -> tuple[str, int]:
    """Verdict for one metric on one workload, and the change's wins.

    The metric may worsen by ``bound`` times the parent's median or by
    ``floor`` (in its own unit), whichever is larger.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the same number (>= 2) of parent and change "
                         "runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    if p_med:
        bound = max(bound, floor / abs(p_med))
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    every_run_better = (min(sign * c for c in change)
                        > max(sign * p for p in parent))
    gain = sign * (c_med - p_med)
    if spread > bound and not every_run_better:
        return "unresolved", wins
    if (len(parent) >= MIN_PAIRS_FOR_GAIN
            and wins >= WIN_SHARE * len(parent) and gain > p_q3 - p_q1):
        return "improved", wins
    if -gain > bound * abs(p_med):
        return "regressed", wins
    return "unchanged", wins


def compare(parents: list[dict], changes: list[dict],
            metrics: list[dict]) -> list[Row]:
    """Rows for every workload present in all results, every metric, and
    the quarantined share."""
    workloads = [w for w in parents[0]["workloads"]
                 if all(w in r["workloads"] for r in parents + changes)]
    rows = []
    for workload in workloads:
        def series(results, name):
            return [r["workloads"][workload]["metrics"][name]["value"]
                    for r in results]

        for m in metrics:
            parent = series(parents, m["name"])
            change = series(changes, m["name"])
            floor = SETUP_FLOOR_S if m["name"] == "setup_s" else 0.0
            verdict, wins = judge(parent, change, m["better"], m["bound"],
                                  floor)
            rows.append(Row(workload, m["name"], verdict, parent, change,
                            wins))

        def failed_share(results):
            return [r["workloads"][workload]["failed"]
                    / r["workloads"][workload]["attempted"] for r in results]

        parent, change = failed_share(parents), failed_share(changes)
        rose = any(c > p for p, c in zip(parent, change))
        rows.append(Row(workload, "failed_share",
                        "regressed" if rose else "unchanged",
                        parent, change, 0))
    return rows


def _describe(values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change) or len(args.parent) < 2:
        parser.error("give the same number (at least 2) of --parent and "
                     "--change files")
    parents = [json.loads(p.read_text()) for p in args.parent]
    changes = [json.loads(p.read_text()) for p in args.change]
    if any(p["seed"] != c["seed"] for p, c in zip(parents, changes)):
        parser.error("each pair must use the same seed")
    if any(r["trace"] for r in parents + changes):
        parser.error("compare untraced results only")
    if len(parents) < MIN_PAIRS_FOR_GAIN:
        print(f"note: {len(parents)} pairs; a gain needs at least "
              f"{MIN_PAIRS_FOR_GAIN}", file=sys.stderr)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = compare(parents, changes, metrics)
    print(f"{'workload':14s} {'metric':20s} {'verdict':11s} wins  "
          f"parent median [q1, q3] -> change median [q1, q3]")
    for row in rows:
        print(f"{row.workload:14s} {row.metric:20s} {row.verdict:11s} "
              f"{row.wins:2d}/{len(row.parent):<2d} "
              f"{_describe(row.parent)} -> {_describe(row.change)}")
    bad = [r for r in rows if r.verdict in ("regressed", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
