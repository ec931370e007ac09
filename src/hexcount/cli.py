"""Command-line interface.

Subcommands:

* ``count``      evaluate one parameter tuple by several methods
* ``propp``      the symmetric special case, checked against the
                 general formula and the determinant
* ``verify``     sweep all parameter tuples up to given side bounds and
                 cross-check every method
* ``identities`` run the determinant/polynomial identity checks
* ``render``     write an SVG of a tiling (or the bare region)

Exit codes: 0 all methods agree, 1 disagreement, 2 usage error
(including an output file that cannot be written), 3 enumeration
budget exceeded.  All counts print as decimal strings
(also in ``--json`` output) since they grow past any fixed-width type.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, Iterator, Sequence

from .closedform import (
    HexagonParams,
    check_final_identity,
    check_krattenthaler_lemma,
    check_lemma5_identity,
    check_relabelling_identities,
    count_propp,
    count_theorem1,
)
from .exact import ExactInt
from .geometry import (
    build_region,
    extend_to_full_hexagon,
    paths_to_tiling,
    render_svg,
)
from .lgv import build_matrix_M, det_condensation, det_elimination, \
    verify_desnanot_jacobi
from .oracle import (
    Budget,
    BudgetExceededError,
    enumerate_constrained_pp,
    enumerate_path_families,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _decimal(value: ExactInt) -> str:
    """A count in decimal.  ``str`` refuses ints of more than 4300 digits,
    a guard meant for parsing untrusted text; ``Decimal`` converts any int
    exactly and without that limit."""
    return str(Decimal(value))


@dataclass
class MethodResult:
    method: str
    value: ExactInt | None
    elapsed: float
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "value": None if self.value is None else _decimal(self.value),
            "elapsed": round(self.elapsed, 6),
            "note": self.note,
        }


@dataclass
class RunReport:
    """Outcome of one CLI run: per-method values plus agreement status."""

    command: str
    params: dict
    results: list[MethodResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def agree(self) -> bool:
        values = {r.value for r in self.results if r.value is not None}
        return len(values) <= 1

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "results": [r.to_dict() for r in self.results],
            "agree": self.agree,
            "notes": self.notes,
        }

    def print_text(self, out=None) -> None:
        out = out if out is not None else sys.stdout
        header = " ".join(f"{k}={v}" for k, v in self.params.items())
        print(f"{self.command} {header}".rstrip(), file=out)
        for r in self.results:
            value = "-" if r.value is None else _decimal(r.value)
            note = f"  [{r.note}]" if r.note else ""
            print(f"  {r.method:<14} {value}{note}  ({r.elapsed:.3f}s)", file=out)
        for note in self.notes:
            print(f"  note: {note}", file=out)
        print(f"  agree: {'yes' if self.agree else 'NO'}", file=out)


METHODS: dict[str, Callable[[HexagonParams, int | None], ExactInt]] = {
    "formula": lambda p, budget: count_theorem1(p),
    "det": lambda p, budget: det_elimination(build_matrix_M(*p.astuple())),
    "det-condense": lambda p, budget: det_condensation(
        build_matrix_M(*p.astuple())
    ),
    "brute": lambda p, budget: enumerate_path_families(p, budget=Budget(budget)),
    "brute-pp": lambda p, budget: enumerate_constrained_pp(p, budget=Budget(budget)),
}

DEFAULT_METHODS = "formula,det,det-condense"


def _evaluate(report: RunReport, p: HexagonParams, methods: Sequence[str],
              budget: int | None) -> None:
    for name in methods:
        start = time.perf_counter()
        try:
            value = METHODS[name](p, budget)
            note = ""
        except BudgetExceededError as exc:
            if len(methods) == 1:
                raise
            value = None
            note = f"skipped: {exc}"
        report.results.append(
            MethodResult(name, value, time.perf_counter() - start, note)
        )


def _parse_methods(raw: str) -> list[str]:
    methods = [m.strip() for m in raw.split(",") if m.strip()]
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise _UsageError(
            f"unknown methods {unknown}; choose from {sorted(METHODS)}"
        )
    if not methods:
        raise _UsageError("no methods given")
    return methods


class _UsageError(Exception):
    pass


def _emit(report: RunReport, as_json: bool) -> None:
    if as_json:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        print()
    else:
        report.print_text()


def cmd_count(args: argparse.Namespace) -> int:
    try:
        p = HexagonParams(args.a, args.b, args.c, args.r, args.s, args.t)
    except ValueError as exc:
        raise _UsageError(str(exc))
    methods = _parse_methods(args.methods)
    report = RunReport("count", {k: getattr(p, k) for k in "abcrst"})
    _evaluate(report, p, methods, args.budget)
    _emit(report, args.json)
    return EXIT_OK if report.agree else EXIT_DISAGREE


def cmd_propp(args: argparse.Namespace) -> int:
    n = args.n
    if n < 0:
        raise _UsageError(f"n must be >= 0, got {n}")
    p = HexagonParams(2 * n, 2 * n, 2 * n, n + 1, n + 1, n + 1)
    report = RunReport("propp", {"n": n, **{k: getattr(p, k) for k in "abcrst"}})
    start = time.perf_counter()
    special = count_propp(n)
    report.results.append(
        MethodResult("special-form", special, time.perf_counter() - start)
    )
    _evaluate(report, p, ["formula", "det"], args.budget)
    _emit(report, args.json)
    return EXIT_OK if report.agree else EXIT_DISAGREE


def _all_params(max_a: int, max_b: int, max_c: int) -> Iterator[tuple[int, ...]]:
    """Every valid (a, b, c, r, s, t) with sides up to the given bounds,
    in lexicographic order."""
    for a, b, c in itertools.product(
        range(max_a + 1), range(max_b + 1), range(max_c + 1)
    ):
        yield from itertools.product(
            [a], [b], [c], range(1, a + 3), range(1, b + 3), range(1, c + 3)
        )


@dataclass
class VerifyOutcome:
    instances: int = 0
    disagreements: list[dict] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_dict(self) -> dict:
        return {
            "instances": self.instances,
            "disagreements": self.disagreements,
            "skipped": self.skipped,
            "ok": self.ok,
        }


def run_verify(
    max_a: int,
    max_b: int,
    max_c: int,
    budget: int | None = None,
    include_brute: bool = True,
    fault: Callable[[HexagonParams, ExactInt], ExactInt] | None = None,
) -> VerifyOutcome:
    """Cross-check every method on every parameter tuple with sides up
    to the given bounds.

    A brute-force method that exceeds its per-instance budget is
    recorded as skipped for that instance, not failed.  ``fault``, used
    by the self-tests, post-processes the closed-form value so that the
    harness can be shown to catch a planted disagreement.
    """
    outcome = VerifyOutcome()
    methods = [m for m in METHODS if include_brute or not m.startswith("brute")]
    for params in _all_params(max_a, max_b, max_c):
        p = HexagonParams(*params)
        outcome.instances += 1
        values: dict[str, ExactInt] = {}
        for name in methods:
            try:
                values[name] = METHODS[name](p, budget)
            except BudgetExceededError as exc:
                outcome.skipped.append(
                    {"params": params, "method": name, "note": str(exc)}
                )
        if fault is not None:
            values["formula"] = fault(p, values["formula"])
        if len(set(values.values())) > 1:
            outcome.disagreements.append({
                "params": params,
                "values": {k: _decimal(v) for k, v in values.items()},
            })
    return outcome


def cmd_verify(args: argparse.Namespace) -> int:
    for name in ("max_a", "max_b", "max_c"):
        if getattr(args, name) < 0:
            raise _UsageError(f"--{name.replace('_', '-')} must be >= 0")
    outcome = run_verify(
        args.max_a, args.max_b, args.max_c,
        budget=args.budget, include_brute=not args.skip_brute,
    )
    if args.json:
        json.dump(outcome.to_dict(), sys.stdout, indent=2)
        print()
    else:
        print(f"checked {outcome.instances} parameter tuples "
              f"(sides up to {args.max_a},{args.max_b},{args.max_c})")
        for item in outcome.skipped:
            print(f"  skipped {item['method']} at {item['params']}: "
                  f"{item['note']}")
        if outcome.ok:
            print("all methods agree")
        else:
            for item in outcome.disagreements:
                print(f"  DISAGREEMENT at {item['params']}: {item['values']}")
    return EXIT_OK if outcome.ok else EXIT_DISAGREE


def run_identities(bound: int, trials: int, seed: int) -> dict:
    """Run every identity check; returns a summary dict with failure lists."""
    rng = random.Random(seed)
    summary: dict = {"bound": bound, "trials": trials, "seed": seed,
                     "failures": [], "checks": {}}

    def record(name: str, total: int, failures: list) -> None:
        summary["checks"][name] = {"total": total, "failed": len(failures)}
        summary["failures"].extend(f"{name}: {f}" for f in failures)

    failures = []
    total = 0
    for order in (4, 5):
        for _ in range(trials):
            matrix = [[rng.randint(-9, 9) for _ in range(order)]
                      for _ in range(order)]
            total += 1
            if not verify_desnanot_jacobi(matrix):
                failures.append(f"order {order}: {matrix}")
    record("desnanot-jacobi", total, failures)

    failures = []
    total = 0
    for _ in range(trials // 2):
        n = rng.randint(1, 5)
        x = [rng.randint(-8, 8) for _ in range(n)]
        av = [rng.randint(-8, 8) for _ in range(n - 1)]
        bv = [rng.randint(-8, 8) for _ in range(n - 1)]
        total += 1
        if not check_krattenthaler_lemma(x, av, bv):
            failures.append(f"x={x} A={av} B={bv}")
    record("factorisation-lemma", total, failures)

    for name, check, arity in (
        ("assembly-identity", check_final_identity, 6),
        ("minor-step-identity", check_lemma5_identity, 4),
    ):
        failures = []
        total = 0
        grid = range(bound + 1)
        for tup in itertools.product(grid, repeat=arity):
            total += 1
            if not check(*tup):
                failures.append(str(tup))
        for _ in range(trials):
            tup = tuple(rng.randint(-50, 50) for _ in range(arity))
            total += 1
            if not check(*tup):
                failures.append(str(tup))
        record(name, total, failures)

    failures = []
    total = 0
    for params in _all_params(bound, bound, bound):
        report = check_relabelling_identities(*params)
        total += 1
        if not report.ok:
            failures.append(f"{params}: {report.failures()}")
    record("minor-relabelling", total, failures)

    summary["ok"] = not summary["failures"]
    return summary


def cmd_identities(args: argparse.Namespace) -> int:
    if args.bound < 0 or args.trials < 1:
        raise _UsageError("--bound must be >= 0 and --trials >= 1")
    summary = run_identities(args.bound, args.trials, args.seed)
    if args.json:
        json.dump(summary, sys.stdout, indent=2)
        print()
    else:
        for name, stats in summary["checks"].items():
            print(f"  {name:<22} {stats['total']:>6} checks, "
                  f"{stats['failed']} failed")
        for failure in summary["failures"]:
            print(f"  FAIL {failure}")
        print("all identities hold" if summary["ok"] else "identities FAILED")
    return EXIT_OK if summary["ok"] else EXIT_DISAGREE


class _FoundFamily(Exception):
    def __init__(self, family):
        self.family = family


def cmd_render(args: argparse.Namespace) -> int:
    try:
        p = HexagonParams(args.a, args.b, args.c, args.r, args.s, args.t)
    except ValueError as exc:
        raise _UsageError(str(exc))
    if args.region_only:
        svg = render_svg(build_region(p))
        _write(args.out, svg)
        print(f"wrote {args.out}")
        return EXIT_OK
    if args.index < 0:
        raise _UsageError(f"--index must be >= 0, got {args.index}")

    wanted = args.index
    seen = 0

    def grab(family) -> None:
        nonlocal seen
        if seen == wanted:
            raise _FoundFamily(family)
        seen += 1

    try:
        total = enumerate_path_families(p, emit=grab, budget=Budget(args.budget))
    except _FoundFamily as found:
        tiling = paths_to_tiling(found.family)
        if args.full:
            tiling = extend_to_full_hexagon(tiling)
        _write(args.out, render_svg(tiling))
        print(f"wrote {args.out} (tiling {wanted})")
        return EXIT_OK
    raise _UsageError(
        f"--index {wanted} out of range: only {total} tilings exist"
    )


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from None


def _add_params(sub: argparse.ArgumentParser) -> None:
    for name in ("a", "b", "c", "r", "s", "t"):
        sub.add_argument(name, type=int)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true",
                     help="machine-readable output (counts as strings)")
    sub.add_argument("--budget", type=int, default=None,
                     help="node-expansion budget per enumeration "
                          "(default: HEXCOUNT_BUDGET or 10^8)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs ten times as much as a parse."""
    parser = argparse.ArgumentParser(
        prog="hexcount",
        description="Count rhombus tilings of a hexagon with three fixed "
                    "border tiles, by independent exact methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="evaluate one parameter tuple")
    _add_params(p_count)
    p_count.add_argument("--methods", default=DEFAULT_METHODS,
                         help=f"comma-separated list from {sorted(METHODS)} "
                              f"(default {DEFAULT_METHODS})")
    _add_common(p_count)
    p_count.set_defaults(func=cmd_count)

    p_propp = sub.add_parser("propp", help="symmetric special case a=b=c=2n")
    p_propp.add_argument("n", type=int)
    _add_common(p_propp)
    p_propp.set_defaults(func=cmd_propp)

    p_verify = sub.add_parser("verify",
                              help="cross-check all methods on a sweep")
    p_verify.add_argument("--max-a", type=int, default=2)
    p_verify.add_argument("--max-b", type=int, default=2)
    p_verify.add_argument("--max-c", type=int, default=2)
    p_verify.add_argument("--skip-brute", action="store_true",
                          help="skip the enumeration oracles")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_ident = sub.add_parser("identities",
                             help="check the determinant identities")
    p_ident.add_argument("--bound", type=int, default=2,
                         help="sweep sides/grids up to this bound (default 2)")
    p_ident.add_argument("--trials", type=int, default=100,
                         help="random trials per randomized check (default 100)")
    p_ident.add_argument("--seed", type=int, default=0)
    p_ident.add_argument("--json", action="store_true")
    p_ident.set_defaults(func=cmd_identities)

    p_render = sub.add_parser("render", help="write an SVG")
    _add_params(p_render)
    p_render.add_argument("--out", required=True, help="output file")
    p_render.add_argument("--index", type=int, default=0,
                          help="which tiling, in enumeration order (default 0)")
    p_render.add_argument("--region-only", action="store_true",
                          help="render the bare region instead of a tiling")
    p_render.add_argument("--full", action="store_true",
                          help="extend the tiling to the full hexagon")
    p_render.add_argument("--budget", type=int, default=None)
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "budget" in vars(args):  # a malformed budget fails before any work
            try:
                args.budget = Budget(args.budget).limit
            except ValueError as exc:
                raise _UsageError(str(exc))
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
