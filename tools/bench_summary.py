"""Summarise paired benchmark runs of two checkouts into one JSON record.

    python3 tools/bench_summary.py PARENT CHANGE --out BENCH_name.json

PARENT and CHANGE are the roots of two checkouts on which
``bench/run.py`` has been run with the same workloads, seeds and
``--seconds``; each keeps its records in ``bench/runs/``.  Runs of the
two checkouts are paired by workload, seed and tracing.  For every
workload the summary gives each side's median rounds per run (faster
code runs more rounds in its ``--seconds``, and a run's peak RSS grows
with its rounds), and for every metric each side's values by seed,
their median and quartiles, and the pairs the change won (ties count
for neither side).  For the end-to-end metrics it also gives the
median's relative change against the bound in ``BENCHMARK.json``, and a
verdict: ``over bound`` if the median got worse by more than the bound;
``unresolved`` if not, but the parent's quartile spread, relative to its
median, is wider than the bound and not every change run beats every
parent run, so the runs are too noisy to tell; ``within bound``
otherwise.  The commit ids of both checkouts and the facts of the machine are recorded
beside them.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)(?P<trace>-trace)?\.json")


def load_runs(root: Path) -> dict[tuple[str, bool], dict[int, dict]]:
    """The run records under root/bench/runs, by (workload, traced), then seed."""
    runs: dict[tuple[str, bool], dict[int, dict]] = {}
    for path in sorted((root / "bench" / "runs").glob("*.json")):
        match = RECORD.fullmatch(path.name)
        if match is None:  # a traced run's spans
            continue
        record = json.loads(path.read_text())
        record["written"] = path.stat().st_mtime
        key = (match["workload"], match["trace"] is not None)
        runs.setdefault(key, {})[int(match["seed"])] = record
    return runs


def git(root: Path, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(root), *args],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def checkout(root: Path) -> dict:
    status = git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "commit": git(root, "rev-parse", "HEAD"),
        "src_tree": git(root, "rev-parse", "HEAD:src"),
        "uncommitted_changes": None if status is None else status != "",
    }


def spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values),
            "quartiles": [quartiles[0], quartiles[2]]}


def compare(name: str, unit: str, better: str, bound: float | None,
            seeds: list[int], parent: dict[int, dict], change: dict[int, dict]) -> dict:
    before = [parent[s]["result"]["metrics"][name]["value"] for s in seeds]
    after = [change[s]["result"]["metrics"][name]["value"] for s in seeds]
    sign = 1 if better == "lower" else -1
    entry = {
        "unit": unit,
        "better": better,
        "parent": spread(before),
        "change": spread(after),
        "pairs": len(seeds),
        "pairs_won": sum(sign * (b - a) > 0 for b, a in zip(before, after)),
        "pairs_lost": sum(sign * (a - b) > 0 for b, a in zip(before, after)),
    }
    p_med, c_med = entry["parent"]["median"], entry["change"]["median"]
    p_q1, p_q3 = entry["parent"]["quartiles"]
    entry["median_change"] = (c_med - p_med) / p_med if p_med else None
    entry["median_gap_exceeds_parent_iqr"] = abs(c_med - p_med) > p_q3 - p_q1
    if bound is not None and entry["median_change"] is not None:
        entry["bound"] = bound
        entry["within_bound"] = sign * entry["median_change"] <= bound
        beats_all = max(sign * a for a in after) < min(sign * b for b in before)
        noisy = (p_q3 - p_q1) / abs(p_med) > bound and not beats_all
        entry["verdict"] = ("over bound" if not entry["within_bound"] else
                            "unresolved" if noisy else "within bound")
    return entry


def summarise(parent_root: Path, change_root: Path) -> dict:
    spec = json.loads((change_root / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent_runs, change_runs = load_runs(parent_root), load_runs(change_root)
    workloads: dict[str, dict] = {}
    hosts = set()
    for key in sorted(parent_runs.keys() & change_runs.keys()):
        workload, traced = key
        parent, change = parent_runs[key], change_runs[key]
        seeds = sorted(s for s in parent.keys() & change.keys()
                       if parent[s]["result"] and change[s]["result"])
        if not seeds:
            continue
        for side in (parent, change):
            hosts.update(json.dumps(side[s].get("host"), sort_keys=True) for s in seeds)
        names = [n for n in change[seeds[0]]["result"]["metrics"] if n in metrics]
        workloads.setdefault(workload, {})["traced" if traced else "untraced"] = {
            "seeds": seeds,
            "parent_ran_first": [parent[s]["written"] < change[s]["written"] for s in seeds],
            "runs": {side: [{"seed": s, **{k: runs[s]["result"][k] for k in
                                            ("correct", "attempted", "failed")},
                             "rounds": len(runs[s]["rounds"]),
                             "traced_rounds": len(runs[s]["traced_rounds"])}
                            for s in seeds]
                     for side, runs in (("parent", parent), ("change", change))},
            "median_rounds": {side: statistics.median(len(runs[s]["rounds"]) for s in seeds)
                              for side, runs in (("parent", parent), ("change", change))},
            "metrics": {n: compare(n, metrics[n]["unit"], metrics[n]["better"],
                                   metrics[n].get("bound"), seeds, parent, change)
                        for n in names},
        }
    return {
        "parent": checkout(parent_root),
        "change": checkout(change_root),
        "run_seconds": spec.get("run_seconds"),
        "machine": {
            "run_hosts": [json.loads(h) for h in sorted(hosts)],
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.system(),
            "release": platform.release(),
            "machine": platform.machine(),
        },
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    summary = summarise(args.parent, args.change)
    if not summary["workloads"]:
        print("error: the two checkouts share no benchmark runs", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for workload, kinds in summary["workloads"].items():
        for kind, doc in kinds.items():
            rounds = doc["median_rounds"]
            print(f"{workload:<13} {kind:<9} {'rounds per run (median)':<34} "
                  f"{rounds['parent']:>12.4g} -> {rounds['change']:<12.4g}")
            for name, m in doc["metrics"].items():
                print(f"{workload:<13} {kind:<9} {name:<34} "
                      f"{m['parent']['median']:>12.4g} -> {m['change']['median']:<12.4g} "
                      f"won {m['pairs_won']}/{m['pairs']} {m.get('verdict', '')}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
