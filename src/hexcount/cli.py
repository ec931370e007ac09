"""Command-line interface.

Subcommands:

* ``count``      evaluate one parameter tuple by several methods
* ``propp``      the symmetric special case, checked against the
                 general formula and the determinant (a fixed meter
                 limit of 10^8, as none of its methods enumerates)
* ``verify``     sweep all parameter tuples up to given side bounds and
                 cross-check every method
* ``identities`` tally the identity suite of ``closedform.identity_checks``
* ``render``     write an SVG of a tiling (or the bare region)

``count``, ``propp`` and ``verify`` pick methods by ``_parse_methods``, time each
as ``method(p, Budget(limit))`` in ``_evaluate`` and judge by ``_agree``.
Each ``cmd_*`` returns its summary dict, its text lines (read off that dict)
and its verdict; ``main`` alone prints one or the other (JSON under
``--json``) and picks the exit code.

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
from decimal import Decimal
from typing import Callable, NamedTuple, Sequence

from .closedform import count_propp, count_theorem1, identity_checks
from .exact import ExactInt, _integer
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
    DEFAULT_BUDGET,
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
Outcome = tuple[dict | None, list[str], bool]  # summary, text lines, verdict


def _decimal(value: ExactInt) -> str:
    """A count in decimal.  ``str`` refuses ints of more than 4300 digits,
    a guard meant for parsing untrusted text; ``Decimal`` converts any int
    exactly and without that limit."""
    return str(Decimal(value))


class MethodResult(NamedTuple):
    method: str
    value: ExactInt | None
    elapsed: float
    note: str = ""  # why the method was skipped, if it was


def _agree(results: Sequence[MethodResult]) -> bool:
    """The one agreement rule: every method that gave a value gave the same."""
    return len({r.value for r in results if r.value is not None}) <= 1


METHODS: dict[str, Callable[[HexagonParams, Budget], ExactInt]] = {
    "formula": lambda p, meter: count_theorem1(p),
    "det": lambda p, meter: det_elimination(build_matrix_M(*p.fewest_paths)),
    "det-condense": lambda p, meter: det_condensation(build_matrix_M(*p.fewest_paths)),
    "brute": lambda p, meter: enumerate_path_families(p, budget=meter),
    "brute-pp": lambda p, meter: enumerate_constrained_pp(p, budget=meter),
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
    """Time each (name, method) on p and a fresh meter; one over budget is
    skipped, unless all are.  Other exceptions become ``_MethodError``s."""
    results = []
    for name, method in methods:
        start = time.perf_counter()
        try:
            value, note = method(p, Budget(budget)), ""
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


def _usage(check: Callable, *args):
    """``check(*args)``, with a ``ValueError`` from it as a usage error."""
    try:
        return check(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _report(args: argparse.Namespace, p: HexagonParams,
            methods: Sequence[tuple[str, Callable]], **header: int) -> Outcome:
    """Evaluate, and return the outcome of ``args.command``."""
    params = {**header, **{k: getattr(p, k) for k in "abcrst"}}
    results = _evaluate(p, methods, args.budget)
    summary = {"command": args.command, "params": params, "results": [
        {"method": r.method,
         "value": None if r.value is None else _decimal(r.value),
         "elapsed": round(r.elapsed, 6),
         "note": f"skipped: {r.note}" if r.note else ""} for r in results],
        "agree": _agree(results), "notes": []}  # no run writes a note
    lines = [f"{args.command} " + " ".join(f"{k}={v}" for k, v in params.items())]
    for r, shown in zip(results, summary["results"]):  # times unrounded
        note = f"  [{shown['note']}]" if r.note else ""
        lines.append(f"  {r.method:<14} {shown['value'] or '-'}{note}"
                     f"  ({r.elapsed:.3f}s)")
    lines.append(f"  agree: {'yes' if summary['agree'] else 'NO'}")
    return summary, lines, summary["agree"]


def cmd_count(args: argparse.Namespace) -> Outcome:
    p = _usage(HexagonParams, args.a, args.b, args.c, args.r, args.s, args.t)
    return _report(args, p, _parse_methods(args.methods))


def cmd_propp(args: argparse.Namespace) -> Outcome:
    n = _usage(_integer, "n", args.n, 0)
    p = HexagonParams(2 * n, 2 * n, 2 * n, n + 1, n + 1, n + 1)
    methods = [("special-form", lambda p, meter: count_propp(n)),
               *_parse_methods("formula,det")]
    return _report(args, p, methods, n=n)


def run_verify(max_a: int, max_b: int, max_c: int, budget: int | None = None,
               include_brute: bool = True) -> dict:
    """Run ``METHODS`` (``DEFAULT_METHODS`` without ``include_brute``) on every
    tuple with sides up to the given bounds through ``_evaluate``, judge each
    by ``_agree``, and fold them into a summary dict.

    A brute-force method that exceeds its per-instance budget is
    recorded as skipped for that instance, not failed.
    """
    methods = _parse_methods(",".join(METHODS) if include_brute else DEFAULT_METHODS)
    instances, disagreements, skipped = 0, [], []
    for instances, params in enumerate(all_params(max_a, max_b, max_c), 1):
        results = _evaluate(HexagonParams(*params), methods, budget)
        skipped += ({"params": params, "method": r.method, "note": r.note}
                    for r in results if r.value is None)
        if not _agree(results):
            disagreements.append({"params": params, "values": {
                r.method: _decimal(r.value) for r in results if r.value is not None}})
    return {"instances": instances, "disagreements": disagreements,
            "skipped": skipped, "ok": not disagreements}


def cmd_verify(args: argparse.Namespace) -> Outcome:
    for name in ("max_a", "max_b", "max_c"):
        _usage(_integer, f"--{name.replace('_', '-')}", getattr(args, name), 0)
    summary = run_verify(args.max_a, args.max_b, args.max_c,
                         budget=args.budget, include_brute=not args.skip_brute)
    lines = [f"checked {summary['instances']} parameter tuples "
             f"(sides up to {args.max_a},{args.max_b},{args.max_c})"]
    lines += (f"  skipped {item['method']} at {item['params']}: {item['note']}"
              for item in summary["skipped"])
    lines += [f"  DISAGREEMENT at {item['params']}: {item['values']}"
              for item in summary["disagreements"]] or ["all methods agree"]
    return summary, lines, summary["ok"]


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


def cmd_identities(args: argparse.Namespace) -> Outcome:
    _usage(_integer, "--bound", args.bound, 0)
    _usage(_integer, "--trials", args.trials, 1)
    summary = run_identities(args.bound, args.trials, args.seed)
    lines = [f"  {name:<22} {stats['total']:>6} checks, {stats['failed']} failed"
             for name, stats in summary["checks"].items()]
    lines += (f"  FAIL {failure}" for failure in summary["failures"])
    lines.append("all identities hold" if summary["ok"] else "identities FAILED")
    return summary, lines, summary["ok"]


def cmd_render(args: argparse.Namespace) -> Outcome:
    p = _usage(HexagonParams, args.a, args.b, args.c, args.r, args.s, args.t)
    _usage(_integer, "--index", args.index, 0)
    if args.region_only:
        shape = build_full_region(p) if args.full else build_region(p)
        shown = ""
    else:
        total = 0
        for total, family in enumerate(iter_path_families(p, args.budget), 1):
            if total > args.index:
                break
        else:
            raise _UsageError(f"--index {args.index} out of range: "
                              f"only {total} tilings exist")
        shape = paths_to_tiling(family)
        if args.full:
            shape = extend_to_full_hexagon(shape)
        shown = f" (tiling {args.index})"
    _write(args.out, render_svg(shape))
    return None, [f"wrote {args.out}{shown}"], True


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from None


def _add_params(sub: argparse.ArgumentParser) -> None:
    for name in ("a", "b", "c", "r", "s", "t"):
        sub.add_argument(name, type=int)


def _add_common(sub: argparse.ArgumentParser, flags=("--json", "--budget")) -> None:
    if "--json" in flags:
        sub.add_argument("--json", action="store_true",
                         help="machine-readable output (counts as strings)")
    if "--budget" in flags:
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
    _add_common(p_propp, ("--json",))
    p_propp.set_defaults(func=cmd_propp, budget=DEFAULT_BUDGET)

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
    _add_common(p_ident, ("--json",))
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
    _add_common(p_render, ("--budget",))
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "budget" in vars(args):  # a malformed budget fails before any work
            args.budget = _usage(Budget, args.budget).limit
        summary, lines, ok = args.func(args)
        print(json.dumps(summary, indent=2) if getattr(args, "json", False)
              else "\n".join(lines))
        return EXIT_OK if ok else EXIT_DISAGREE
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
