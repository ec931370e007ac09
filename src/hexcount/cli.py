"""Command-line interface.

Subcommands:

* ``count``      evaluate one parameter tuple by several methods
* ``propp``      the symmetric special case, checked against the
                 general formula and the determinant (no budget: none
                 of its methods enumerates)
* ``verify``     sweep all parameter tuples up to given side bounds and
                 cross-check every method
* ``identities`` tally the identity suite of ``closedform.identity_checks``
* ``render``     write an SVG of a tiling (or the bare region)

``count``, ``propp`` and ``verify`` run their methods through one timed
loop, ``_evaluate``, and judge agreement by one rule, ``RunReport.agree``.

Exit codes: 0 all methods agree, 1 disagreement, 2 usage error
(including an output file that cannot be written), 3 enumeration
budget exceeded, 4 internal error (any other exception, reported as
one stderr line naming the subcommand, the method and tuple if a
method raised it, and the exception type).  All
counts print as decimal strings (also in ``--json`` output) since they
grow past any fixed-width type.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, Sequence

from .closedform import count_propp, count_theorem1, identity_checks
from .exact import ExactInt
from .geometry import (
    build_full_region,
    build_region,
    extend_to_full_hexagon,
    paths_to_tiling,
    render_svg,
)
from .lgv import HexagonParams, all_params, build_matrix_M, det_condensation, \
    det_elimination
from .oracle import (
    Budget,
    BudgetExceededError,
    enumerate_constrained_pp,
    enumerate_path_families,
    iter_path_families,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


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
    note: str = ""  # why the method was skipped, if it was

    @property
    def shown_note(self) -> str:
        return f"skipped: {self.note}" if self.note else ""

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "value": None if self.value is None else _decimal(self.value),
            "elapsed": round(self.elapsed, 6),
            "note": self.shown_note,
        }


@dataclass
class RunReport:
    """Outcome of one CLI run: per-method values plus agreement status."""

    command: str
    params: dict
    results: list[MethodResult] = field(default_factory=list)

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
            "notes": [],  # kept in the schema; no run writes a note
        }

    def print_text(self, out=None) -> None:
        out = out if out is not None else sys.stdout
        header = " ".join(f"{k}={v}" for k, v in self.params.items())
        print(f"{self.command} {header}".rstrip(), file=out)
        for r in self.results:
            value = "-" if r.value is None else _decimal(r.value)
            note = f"  [{r.shown_note}]" if r.note else ""
            print(f"  {r.method:<14} {value}{note}  ({r.elapsed:.3f}s)", file=out)
        print(f"  agree: {'yes' if self.agree else 'NO'}", file=out)


METHODS: dict[str, Callable[[HexagonParams, int | None], ExactInt]] = {
    "formula": lambda p, budget: count_theorem1(p),
    "det": lambda p, budget: det_elimination(build_matrix_M(*p)),
    "det-condense": lambda p, budget: det_condensation(build_matrix_M(*p)),
    "brute": lambda p, budget: enumerate_path_families(p, budget=Budget(budget)),
    "brute-pp": lambda p, budget: enumerate_constrained_pp(p, budget=Budget(budget)),
}

DEFAULT_METHODS = "formula,det,det-condense"


def _describe(exc: Exception) -> str:
    """An exception's type and the first line of its message."""
    detail = str(exc).partition("\n")[0]
    return f"{type(exc).__name__}: {detail}"


class _MethodError(Exception):
    """Any other exception raised by a method, naming the method and tuple."""


def _evaluate(p: HexagonParams, methods: Sequence[tuple[str, Callable]],
              budget: int | None) -> list[MethodResult]:
    """Time each (name, method); one over budget is skipped, unless all are.
    Any other exception becomes a ``_MethodError`` naming the method and p."""
    results = []
    for name, method in methods:
        start = time.perf_counter()
        try:
            value, note = method(p, budget), ""
        except BudgetExceededError as exc:
            exceeded, value, note = exc, None, str(exc)
        except Exception as exc:
            raise _MethodError(f"{name} at {tuple(p)}: {_describe(exc)}") from exc
        results.append(
            MethodResult(name, value, time.perf_counter() - start, note)
        )
    if all(r.value is None for r in results):
        raise exceeded
    return results


def _parse_methods(raw: str) -> list[tuple[str, Callable]]:
    """The named methods in order; a name given twice runs twice."""
    methods = [m.strip() for m in raw.split(",") if m.strip()]
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise _UsageError(
            f"unknown methods {unknown}; choose from {sorted(METHODS)}"
        )
    if not methods:
        raise _UsageError("no methods given")
    return [(m, METHODS[m]) for m in methods]


class _UsageError(Exception):
    pass


def _report(args: argparse.Namespace, p: HexagonParams,
            methods: Sequence[tuple[str, Callable]], **header: int) -> int:
    """Evaluate, print the report of ``args.command`` and return its exit code."""
    params = {**header, **{k: getattr(p, k) for k in "abcrst"}}
    budget = getattr(args, "budget", None)  # propp takes none
    report = RunReport(args.command, params, _evaluate(p, methods, budget))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        report.print_text()
    return EXIT_OK if report.agree else EXIT_DISAGREE


def _params(args: argparse.Namespace) -> HexagonParams:
    """The tuple a b c r s t of ``count`` and ``render``; an invalid one is
    a usage error."""
    try:
        return HexagonParams(args.a, args.b, args.c, args.r, args.s, args.t)
    except ValueError as exc:
        raise _UsageError(str(exc))


def cmd_count(args: argparse.Namespace) -> int:
    return _report(args, _params(args), _parse_methods(args.methods))


def cmd_propp(args: argparse.Namespace) -> int:
    n = args.n
    if n < 0:
        raise _UsageError(f"n must be >= 0, got {n}")
    p = HexagonParams(2 * n, 2 * n, 2 * n, n + 1, n + 1, n + 1)
    methods = [("special-form", lambda p, budget: count_propp(n)),
               ("formula", METHODS["formula"]), ("det", METHODS["det"])]
    return _report(args, p, methods, n=n)


def run_verify(max_a: int, max_b: int, max_c: int, budget: int | None = None,
               include_brute: bool = True) -> dict:
    """Run the methods of ``METHODS`` on every parameter tuple with sides
    up to the given bounds, through ``_evaluate`` as ``count`` does, judge
    each tuple by ``RunReport.agree``, and fold them into a summary dict.

    A brute-force method that exceeds its per-instance budget is
    recorded as skipped for that instance, not failed.
    """
    methods = [(name, method) for name, method in METHODS.items()
               if include_brute or not name.startswith("brute")]
    instances, disagreements, skipped = 0, [], []
    for instances, params in enumerate(all_params(max_a, max_b, max_c), 1):
        report = RunReport("verify", {}, _evaluate(HexagonParams(*params),
                                                  methods, budget))
        skipped += ({"params": params, "method": r.method, "note": r.note}
                    for r in report.results if r.value is None)
        if not report.agree:
            disagreements.append({"params": params, "values": {
                r.method: _decimal(r.value)
                for r in report.results if r.value is not None}})
    return {"instances": instances, "disagreements": disagreements,
            "skipped": skipped, "ok": not disagreements}


def cmd_verify(args: argparse.Namespace) -> int:
    for name in ("max_a", "max_b", "max_c"):
        if getattr(args, name) < 0:
            raise _UsageError(f"--{name.replace('_', '-')} must be >= 0")
    summary = run_verify(args.max_a, args.max_b, args.max_c,
                         budget=args.budget, include_brute=not args.skip_brute)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"checked {summary['instances']} parameter tuples "
              f"(sides up to {args.max_a},{args.max_b},{args.max_c})")
        for item in summary["skipped"]:
            print(f"  skipped {item['method']} at {item['params']}: "
                  f"{item['note']}")
        if summary["ok"]:
            print("all methods agree")
        else:
            for item in summary["disagreements"]:
                print(f"  DISAGREEMENT at {item['params']}: {item['values']}")
    return EXIT_OK if summary["ok"] else EXIT_DISAGREE


def run_identities(bound: int, trials: int, seed: int) -> dict:
    """Fold ``closedform.identity_checks`` into a summary dict: totals and
    failures per check, and every failing case."""
    checks: dict[str, dict] = {}
    failures: list[str] = []
    for name, case, holds in identity_checks(bound, trials, seed):
        stats = checks.setdefault(name, {"total": 0, "failed": 0})
        stats["total"] += 1
        if not holds:
            stats["failed"] += 1
            failures.append(f"{name}: {case}")
    return {"bound": bound, "trials": trials, "seed": seed,
            "failures": failures, "checks": checks, "ok": not failures}


def cmd_identities(args: argparse.Namespace) -> int:
    if args.bound < 0 or args.trials < 1:
        raise _UsageError("--bound must be >= 0 and --trials >= 1")
    summary = run_identities(args.bound, args.trials, args.seed)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        for name, stats in summary["checks"].items():
            print(f"  {name:<22} {stats['total']:>6} checks, "
                  f"{stats['failed']} failed")
        for failure in summary["failures"]:
            print(f"  FAIL {failure}")
        print("all identities hold" if summary["ok"] else "identities FAILED")
    return EXIT_OK if summary["ok"] else EXIT_DISAGREE


def cmd_render(args: argparse.Namespace) -> int:
    p = _params(args)
    if args.index < 0:
        raise _UsageError(f"--index must be >= 0, got {args.index}")
    if args.region_only:
        region = build_full_region(p) if args.full else build_region(p)
        _write(args.out, render_svg(region))
        print(f"wrote {args.out}")
        return EXIT_OK

    total = 0
    for total, family in enumerate(iter_path_families(p, args.budget), 1):
        if total > args.index:
            break
    else:
        raise _UsageError(f"--index {args.index} out of range: "
                          f"only {total} tilings exist")
    tiling = paths_to_tiling(family)
    if args.full:
        tiling = extend_to_full_hexagon(tiling)
    _write(args.out, render_svg(tiling))
    print(f"wrote {args.out} (tiling {args.index})")
    return EXIT_OK


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
    p_propp.add_argument("--json", action="store_true",
                         help="machine-readable output (counts as strings)")
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
                          help="extend the tiling to the full hexagon; with "
                               "--region-only, render the bare full hexagon")
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
    except Exception as exc:  # exit 1 is reserved for a disagreement
        detail = exc if isinstance(exc, _MethodError) else _describe(exc)
        print(f"error: internal error in {args.command}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
