"""Benchmark for hexcount: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src`` directory.  The run repeats whole rounds until S seconds have
passed (at least three rounds, or one untraced and one traced round with
``--trace 1``).  Each round imports ``hexcount`` afresh, so the
program's ``lru_cache``s start cold and are never cleared or pre-filled,
then times every op of the workload once and checks every output against
a computation made apart from the program.

Times are reported in reference units: CPU seconds over the CPU seconds
of the fixed kernel in ``kernel.py``, run beside the ops.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Raw seconds are
printed above it, and the whole record (and, when traced, every span) is
written under ``bench/runs/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from kernel import Meter, clock
from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS_PER_ROUND = 5
NOMINAL_KERNEL_S = 0.004
MIN_ROUNDS = 3
STOP_AFTER_S = 90.0
LAYER_SPANS = (
    "closedform", "lgv.build", "lgv.bareiss", "lgv.condense", "oracle.paths",
    "oracle.pp", "geometry.to_tiling", "geometry.to_paths", "geometry.extend",
    "geometry.to_pp", "geometry.render",
)
CLI_WORKLOADS = ("count-det", "verify-brute")


def load_program() -> SimpleNamespace:
    """Import hexcount from the checkout's src, dropping any earlier
    import so that every module-level cache starts empty."""
    for name in [m for m in sys.modules if m == "hexcount" or m.startswith("hexcount.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hexcount")
    if Path(pkg.__file__).resolve().parent != SRC / "hexcount":
        raise ImportError(f"hexcount imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{
        name: importlib.import_module(f"hexcount.{name}")
        for name in ("cli", "closedform", "geometry", "lgv", "oracle")
    })


def tail(values: list[float]) -> float:
    """The value at the highest percentile with at least ten values above it."""
    return sorted(values)[max(len(values) - 11, 0)]


def samples(meter: Meter) -> tuple[dict, list]:
    """Each op's (ref, seconds) in one round, by op index, and the same
    for each piece of timed work outside the ops, in order."""
    ops = {i: (s / meter.reference(mid), s) for i, mid, s in meter.ops}
    extra = [(s / meter.reference(mid), s) for mid, s in meter.extra]
    return ops, extra


def combine(rounds: list[tuple[dict, list]]) -> dict:
    """Figures over rounds of the same ops.  Each op's time is its median
    over the rounds, which takes the host's noise out of single ops before
    the median and the tail are read off."""
    per_op: dict[int, list] = {}
    per_extra: dict[int, list] = {}
    for ops, extra in rounds:
        for i, value in ops.items():
            per_op.setdefault(i, []).append(value)
        for j, value in enumerate(extra):
            per_extra.setdefault(j, []).append(value)
    out = {}
    for k, unit in enumerate(("ref", "s")):
        op = [statistics.median(v[k] for v in values) for values in per_op.values()]
        extra = sum(statistics.median(v[k] for v in values) for values in per_extra.values())
        out[f"total_{unit}"] = sum(op) + extra
        out[f"op_p50_{unit}"] = statistics.median(op)
        out[f"op_tail_{unit}"] = tail(op)
    return out


def summarize(meter: Meter, round_samples: tuple[dict, list]) -> dict:
    """One round's figures in reference units and in raw seconds."""
    return {
        "ops": len(meter.ops),
        **combine([round_samples]),
        "kernel_ms": 1000 * statistics.median(s for _, s in meter.kernels),
        "wall_s": meter.wall,
    }


def layer_figures(workload: str, tracer: Tracer, meter: Meter) -> dict:
    """Per-layer figures of one traced round: self time of each layer's
    spans in reference units, and the counts recorded beside them."""
    own = tracer.self_times()
    times = dict.fromkeys(LAYER_SPANS, 0.0)
    cli_self = 0.0
    for span, own_s in zip(tracer.spans, own):
        name, start, end = span[0], span[1], span[2]
        ref = own_s / meter.reference((start + end) / 2)
        if name in times:
            times[name] += ref
        elif name == "op" and workload in CLI_WORKLOADS:
            cli_self += ref
    n = tracer.counts
    out = {f"{name}.time_ref": value for name, value in times.items()}
    out.update({
        "closedform.calls": n["closedform.calls"],
        "closedform.result_bits": n["closedform.bits"] / max(n["closedform.calls"], 1),
        "lgv.condense.blocks": n["lgv.condense.blocks"],
        "lgv.condense.fallbacks": n["lgv.condense.fallbacks"],
        "geometry.tiles": n["geometry.tiles"],
        "geometry.svg_bytes": n["geometry.svg_bytes"],
        "cli.self_time_ref": cli_self,
    })
    for layer in ("oracle.paths", "oracle.pp"):
        out[f"{layer}.nodes"] = n[f"{layer}.nodes"]
        out[f"{layer}.families_per_node"] = n[f"{layer}.families"] / max(n[f"{layer}.nodes"], 1)
    return out


def missing_layers(workload: str, tracer: Tracer) -> list[str]:
    reached = {span[0] for span in tracer.spans}
    missing = {name for name in LAYER_SPANS if name not in reached} | tracer.missing
    if workload not in CLI_WORKLOADS:
        missing.add("cli")
    return sorted(missing)


def run(args) -> dict:
    workload = WORKLOADS[args.workload]()
    started = time.perf_counter()
    setups, plain, traced, spans = [], [], [], []
    plain_samples, traced_samples = [], []
    attempted = failed = 0
    failures: list[str] = []
    missing: set[str] = set()
    while True:
        trace_round = bool(args.trace) and len(traced) < len(plain)
        hx = items = None
        gc.collect()
        round_setups = []
        for _ in range(SETUPS_PER_ROUND):
            t0 = clock()
            hx = load_program()
            items = workload.inputs(args.seed)
            round_setups.append(clock() - t0)
        tracer = Tracer() if trace_round else None
        meter = Meter(tracer)
        # The host's speed drifts by up to half between phases, so
        # set-up CPU seconds are scaled to a host where the kernel takes
        # NOMINAL_KERNEL_S, using the kernel runs made right after them.
        scale = NOMINAL_KERNEL_S / statistics.median(s for _, s in meter.kernels)
        setups += [s * scale for s in round_setups]
        workload.run_round(hx, items, meter)
        meter.finish()
        attempted += meter.attempted
        failed += meter.failed
        failures += meter.failures
        if meter.ops:
            round_samples = samples(meter)
            (traced if trace_round else plain).append(summarize(meter, round_samples))
            (traced_samples if trace_round else plain_samples).append(round_samples)
        if tracer is not None and meter.ops:
            traced[-1]["layers"] = layer_figures(args.workload, tracer, meter)
            missing.update(missing_layers(args.workload, tracer))
            spans += [span + [len(traced)] for span in tracer.spans]
        elapsed = time.perf_counter() - started
        if not meter.ops or elapsed >= STOP_AFTER_S:
            break
        if args.trace:
            if len(traced) == len(plain) and elapsed >= args.seconds:
                break
        elif len(plain) >= MIN_ROUNDS and elapsed >= args.seconds:
            break

    record = {
        "result": None,
        "rounds": plain,
        "traced_rounds": traced,
        "setups_s": setups,
        "missing_layers": sorted(missing),
        "errors": workload.errors[:20],
        "self_test_missed": [],
        "failures": failures,
        "spans": spans,
    }
    if not plain or (args.trace and not traced):
        return record
    missed = record["self_test_missed"] = workload.self_test()

    def med(key: str, rounds: list[dict]) -> float:
        return statistics.median(r[key] for r in rounds)

    if args.trace:
        layers = {key: med(key, [r["layers"] for r in traced]) for key in traced[0]["layers"]}
        layers["trace.overhead_ref"] = (combine(traced_samples)["total_ref"]
                                        - combine(plain_samples)["total_ref"])
        layers["ref.kernel_ms"] = med("kernel_ms", plain + traced)
        metrics = {key: {"value": value, "unit": unit_of(key)} for key, value in layers.items()}
    else:
        figures = combine(plain_samples)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "total_ref": {"value": figures["total_ref"], "unit": "ref"},
            "op_p50_ref": {"value": figures["op_p50_ref"], "unit": "ref"},
            "op_tail_ref": {"value": figures["op_tail_ref"], "unit": "ref"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    record["result"] = {
        "correct": not workload.errors and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record


def unit_of(metric: str) -> str:
    if metric.endswith("_ref"):
        return "ref"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("families_per_node"):
        return "families/node"
    if metric.endswith("result_bits"):
        return "bits"
    if metric.endswith("svg_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hexcount" / "__init__.py").is_file():
        print(f"error: no hexcount sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record = run(args)
    result = record["result"]
    for text in record["failures"]:
        print(text, file=sys.stderr)
    for error in record["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    for label in record["self_test_missed"]:
        print(f"self-test: planted fault not caught: {label}", file=sys.stderr)
    for i, r in enumerate(record["rounds"] + record["traced_rounds"]):
        kind = "traced" if i >= len(record["rounds"]) else "round"
        print(f"{kind} {i}: {r['ops']} ops, total {r['total_s']:.3f} s cpu "
              f"= {r['total_ref']:.2f} ref, ops {r['wall_s']:.3f} s wall, "
              f"p50 {r['op_p50_s'] * 1000:.3f} ms, tail {r['op_tail_s'] * 1000:.3f} ms, "
              f"kernel {r['kernel_ms']:.2f} ms")
    if record["missing_layers"] and args.trace:
        print(f"layers not reached: {', '.join(record['missing_layers'])}")

    runs = BENCH / "runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    spans = record.pop("spans")
    record["host"] = {"cpus": os.cpu_count(), "python": platform.python_version()}
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        names = ["name", "start", "end", "parent", "op", "round"]
        spans_doc = {"fields": names, "spans": spans}
        (runs / f"{stem}-spans.json").write_text(json.dumps(spans_doc) + "\n")
    if result is None:
        print("error: no op succeeded, so there is nothing to report", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
