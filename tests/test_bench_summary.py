import importlib.util
import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "bench_summary", ROOT / "tools" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def write_runs(root: Path, totals: dict[int, float], written: float,
               rounds: dict[int, int] | None = None) -> None:
    runs = root / "bench" / "runs"
    runs.mkdir(parents=True)
    for seed, total in totals.items():
        record = {
            "result": {"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {"total_ref": {"value": total, "unit": "ref"},
                                   "peak_rss_mb": {"value": 20.0, "unit": "MB"}}},
            "rounds": [{}] * (rounds or {}).get(seed, 3), "traced_rounds": [],
            "host": {"cpus": 2, "python": "3.11.7"},
        }
        path = runs / f"tilings-seed{seed}.json"
        path.write_text(json.dumps(record))
        os.utime(path, (written + seed, written + seed))
    (runs / "tilings-seed1-trace-spans.json").write_text("{}")


def test_summary_pairs_runs_by_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_runs(parent, {1: 100.0, 2: 110.0, 3: 90.0, 4: 95.0}, 1000.0)
    write_runs(change, {1: 60.0, 2: 70.0, 3: 95.0, 4: 50.0}, 2000.0)
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(parent), str(change), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    doc = summary["workloads"]["tilings"]["untraced"]
    assert doc["seeds"] == [1, 2, 3, 4]
    assert doc["parent_ran_first"] == [True] * 4
    total = doc["metrics"]["total_ref"]
    assert total["parent"]["median"] == 97.5
    assert total["change"]["median"] == 65.0
    assert (total["pairs_won"], total["pairs_lost"]) == (3, 1)
    assert total["median_gap_exceeds_parent_iqr"]
    assert total["within_bound"]
    rss = doc["metrics"]["peak_rss_mb"]
    assert (rss["pairs_won"], rss["pairs_lost"]) == (0, 0)
    assert rss["median_change"] == 0.0
    assert summary["change"]["commit"] is None or len(summary["change"]["commit"]) == 40


def test_summary_gives_the_median_rounds_per_run(tmp_path, capsys):
    # faster code runs more rounds, and a run's peak RSS grows with them
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_runs(parent, {1: 100.0, 2: 110.0, 3: 90.0}, 1000.0, {1: 3, 2: 4, 3: 6})
    write_runs(change, {1: 60.0, 2: 70.0, 3: 95.0}, 2000.0, {1: 5, 2: 7, 3: 6})
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(parent), str(change), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())["workloads"]["tilings"]["untraced"]
    assert [run["rounds"] for run in doc["runs"]["change"]] == [5, 7, 6]
    assert doc["median_rounds"] == {"parent": 4, "change": 6}
    line = next(line for line in capsys.readouterr().out.splitlines()
                if "rounds per run" in line)
    assert line.split()[-3:] == ["4", "->", "6"]


def test_each_end_to_end_metric_gets_a_verdict(tmp_path, capsys):
    # over bound: the median is worse by more than the bound; unresolved:
    # not, but the parent's spread is wider than the bound and the runs
    # overlap; within bound otherwise
    cases = {
        "over": ({1: 100.0, 2: 101.0, 3: 99.0}, {1: 130.0, 2: 128.0, 3: 131.0}),
        "noisy": ({1: 60.0, 2: 100.0, 3: 140.0, 4: 100.0},
                  {1: 110.0, 2: 95.0, 3: 105.0, 4: 120.0}),
        "beaten": ({1: 60.0, 2: 100.0, 3: 140.0, 4: 100.0},
                   {1: 50.0, 2: 55.0, 3: 40.0, 4: 45.0}),
        "flat": ({1: 100.0, 2: 101.0, 3: 99.0}, {1: 110.0, 2: 109.0, 3: 111.0}),
    }
    verdicts = {}
    for name, (before, after) in cases.items():
        parent, change = tmp_path / name / "parent", tmp_path / name / "change"
        write_runs(parent, before, 1000.0)
        write_runs(change, after, 2000.0)
        (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        out = tmp_path / name / "BENCH.json"
        assert bench_summary.main([str(parent), str(change), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())["workloads"]["tilings"]["untraced"]
        verdicts[name] = doc["metrics"]["total_ref"]["verdict"]
        assert doc["metrics"]["peak_rss_mb"]["verdict"] == "within bound"
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if "total_ref" in line)
        assert line.endswith(verdicts[name])
    assert verdicts == {"over": "over bound", "noisy": "unresolved",
                        "beaten": "within bound", "flat": "within bound"}
