"""compare.py's verdict rule on synthetic result files."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

METRICS = [
    {"name": "faults_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
]


#: the end-to-end metrics of BENCHMARK.json, which the command line reads
E2E = json.loads((Path(__file__).resolve().parents[2]
                  / "BENCHMARK.json").read_text())["end_to_end"]


def _results(faults_per_s: float, wall_s: float, failed: int = 0,
             seed: int = 1) -> dict:
    values = {**{m["name"]: 1.0 for m in E2E},
              "faults_per_s": faults_per_s, "wall_s": wall_s}
    metrics = {name: {"value": v, "unit": "-"} for name, v in values.items()}
    return {"seed": seed, "seconds": 15, "trace": False,
            "workloads": {"dsa": {"metrics": metrics, "attempted": 100,
                                  "failed": failed}}}


def _noisy(base: float, n: int, spread: float) -> list[float]:
    """``n`` values within ``base * (1 +- spread)``, evenly spaced."""
    return [base * (1 + spread * (2 * i / (n - 1) - 1)) for i in range(n)]


def _verdicts(perf_compare, parents, changes) -> dict[str, str]:
    return {r.metric: r.verdict
            for r in perf_compare.compare(parents, changes, METRICS)}


def test_same_distribution_is_unchanged(perf_compare):
    values = _noisy(100.0, 10, 0.02)
    parents = [_results(v, 1000 / v) for v in values]
    changes = [_results(v, 1000 / v) for v in reversed(values)]
    assert _verdicts(perf_compare, parents, changes) == {
        "faults_per_s": "unchanged", "wall_s": "unchanged",
        "failed_share": "unchanged"}


def test_consistent_gain_beyond_the_parent_spread_is_improved(perf_compare):
    parents = [_results(v, 1000 / v) for v in _noisy(100.0, 10, 0.02)]
    changes = [_results(v, 1000 / v) for v in _noisy(130.0, 10, 0.02)]
    verdicts = _verdicts(perf_compare, parents, changes)
    assert verdicts["faults_per_s"] == "improved"
    assert verdicts["wall_s"] == "improved"


def test_gain_needs_ten_pairs(perf_compare):
    parents = [_results(v, 1000 / v) for v in _noisy(100.0, 9, 0.02)]
    changes = [_results(v, 1000 / v) for v in _noisy(130.0, 9, 0.02)]
    assert _verdicts(perf_compare, parents, changes)["faults_per_s"] \
        == "unchanged"


def test_gain_inside_the_parent_spread_is_not_improved(perf_compare):
    parents = [_results(v, 10.0) for v in _noisy(100.0, 10, 0.04)]
    changes = [_results(v * 1.01, 10.0) for v in _noisy(100.0, 10, 0.04)]
    assert _verdicts(perf_compare, parents, changes)["faults_per_s"] \
        == "unchanged"


def test_worse_by_more_than_the_bound_is_regressed(perf_compare):
    parents = [_results(100.0, v) for v in _noisy(10.0, 10, 0.02)]
    changes = [_results(100.0, v) for v in _noisy(11.5, 10, 0.02)]
    assert _verdicts(perf_compare, parents, changes)["wall_s"] == "regressed"


def test_worse_within_the_bound_is_unchanged(perf_compare):
    parents = [_results(100.0, v) for v in _noisy(10.0, 10, 0.02)]
    changes = [_results(100.0, v) for v in _noisy(10.5, 10, 0.02)]
    assert _verdicts(perf_compare, parents, changes)["wall_s"] == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved(perf_compare):
    parents = [_results(100.0, v) for v in _noisy(10.0, 10, 0.4)]
    changes = [_results(100.0, v) for v in _noisy(10.0, 10, 0.4)]
    assert _verdicts(perf_compare, parents, changes)["wall_s"] == "unresolved"


def test_wide_spread_resolves_when_every_change_run_is_better(perf_compare):
    parents = [_results(100.0, v) for v in _noisy(20.0, 10, 0.4)]
    changes = [_results(100.0, v) for v in _noisy(5.0, 10, 0.4)]
    assert _verdicts(perf_compare, parents, changes)["wall_s"] == "improved"


def test_any_increase_in_failed_share_is_regressed(perf_compare):
    parents = [_results(100.0, 10.0) for _ in range(10)]
    changes = [_results(100.0, 10.0) for _ in range(9)] + [
        _results(100.0, 10.0, failed=1)]
    assert _verdicts(perf_compare, parents, changes)["failed_share"] \
        == "regressed"


def test_failed_share_rising_in_every_pair_is_regressed(perf_compare):
    """Same maximum on both sides, but the change quarantines more."""
    parents = [_results(100.0, 10.0) for _ in range(9)] + [
        _results(100.0, 10.0, failed=1)]
    changes = [_results(100.0, 10.0, failed=1) for _ in range(10)]
    assert _verdicts(perf_compare, parents, changes)["failed_share"] \
        == "regressed"


def test_setup_may_always_worsen_by_the_floor(perf_compare):
    parent = _noisy(0.040, 10, 0.02)
    slower = [v + 0.02 for v in parent]     # +50%, but under 0.05 s
    assert perf_compare.judge(parent, slower, "lower", 0.1,
                              perf_compare.SETUP_FLOOR_S)[0] == "unchanged"
    assert perf_compare.judge(parent, slower, "lower", 0.1)[0] == "regressed"
    parent = _noisy(1.0, 10, 0.02)
    slower = [v * 1.2 for v in parent]
    assert perf_compare.judge(parent, slower, "lower", 0.1,
                              perf_compare.SETUP_FLOOR_S)[0] == "regressed"


def test_judge_rejects_unpaired_runs(perf_compare):
    with pytest.raises(ValueError):
        perf_compare.judge([1.0, 2.0, 3.0], [1.0, 2.0], "lower", 0.1)


def test_cli_exit_code_flags_regressions(perf_compare, tmp_path, capsys):
    def write(name: str, worse_by: float, i: int) -> str:
        doc = _results(100.0, 10.0)
        for m in E2E:
            value = 10.0 + 0.01 * i
            value *= worse_by if m["better"] == "lower" else 1 / worse_by
            doc["workloads"]["dsa"]["metrics"][m["name"]]["value"] = value
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    parents = [write(f"p{i}.json", 1.0, i) for i in range(3)]
    same = [write(f"c{i}.json", 1.0, i) for i in range(3)]
    slow = [write(f"s{i}.json", 1.3, i) for i in range(3)]
    assert perf_compare.main(["--parent", *parents, "--change", *same]) == 0
    assert perf_compare.main(["--parent", *parents, "--change", *slow]) == 1
    out = capsys.readouterr().out
    assert "dsa" in out and "regressed" in out
