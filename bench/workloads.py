"""The four workloads: their seeded inputs, their ops, and the checks of
every output.

Each workload object is made once per run.  ``inputs(seed)`` makes the
op list; ``run_round(hx, items, meter)`` runs it once against a freshly
imported program ``hx`` and checks every output as it comes, outside the
timed interval; ``self_test()`` plants faults in outputs kept from the
first round and returns the labels of those the checks did not catch.
Inputs are drawn on a fixed stratified design (see ``design``), so every
seed gives the same make-up of work and only the draws differ.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import itertools
import math
import random
from collections import Counter

import checks
from kernel import clock

COUNT_METHODS = 3  # formula, det and det-condense: the default of `count`
VERIFY_METHODS = "formula,det,det-condense,brute,brute-pp"


def design(rng: random.Random, n: int, *ranges: tuple[int, int]) -> list[tuple[int, ...]]:
    """n points of a fixed rank-1 lattice over the given integer ranges.

    Each range is cut into n equal slices.  Point k takes slice
    (k * h**j) mod n of range j, for a fixed unit h modulo n, so the way
    sizes are paired is the same for every seed; the seed draws only the
    value inside each slice."""
    h = round(n * 0.618)
    while math.gcd(h, n) != 1:
        h += 1
    points = []
    for k in range(n):
        point = []
        for j, (lo, hi) in enumerate(ranges):
            width = (hi - lo + 1) / n
            point.append(lo + int(((k * pow(h, j, n)) % n + rng.random()) * width))
        points.append(tuple(point))
    return points


def place(a: int, b: int, c: int, ur: int, us: int, ut: int) -> tuple[int, ...]:
    """The tuple whose positions r, s, t sit at the given thousandths of
    their ranges 1..a+2, 1..b+2, 1..c+2."""
    return (a, b, c, 1 + ur * (a + 2) // 1000, 1 + us * (b + 2) // 1000,
            1 + ut * (c + 2) // 1000)


def _count_bits(counts, result, args, kwargs):
    counts["closedform.calls"] += 1
    counts["closedform.bits"] += result.bit_length()


def _tally(key, measure):
    def after(counts, result, args, kwargs):
        counts[key] += measure(result)
    return after


def _nodes(layer):
    def after(counts, result, args, kwargs):
        budget = kwargs.get("budget")
        counts[f"{layer}.families"] += result
        counts[f"{layer}.nodes"] += getattr(budget, "used", 0)
    return after


def trace_cli(tracer, hx) -> None:
    """Wrap the layer entry points that ``hexcount.cli`` calls."""
    cli = hx.cli
    tracer.patch(cli, "count_theorem1", "closedform", _count_bits)
    tracer.patch(cli, "build_matrix_M", "lgv.build")
    tracer.patch(cli, "det_elimination", "lgv.bareiss")
    tracer.patch(cli, "enumerate_path_families", "oracle.paths", _nodes("oracle.paths"))
    tracer.patch(cli, "enumerate_constrained_pp", "oracle.pp", _nodes("oracle.pp"))
    condense = getattr(cli, "det_condensation", None)
    stats_type = getattr(hx.lgv, "CondensationStats", None)
    if condense is None:
        tracer.missing.add("lgv.condense")
        return
    if stats_type is None or "stats" not in inspect.signature(condense).parameters:
        tracer.missing.add("lgv.condense.blocks")
        cli.det_condensation = tracer.wrap(condense, "lgv.condense")
        return

    def counted(matrix):
        stats = stats_type()
        value = condense(matrix, stats=stats)
        tracer.counts["lgv.condense.blocks"] += stats.blocks
        tracer.counts["lgv.condense.fallbacks"] += stats.fallbacks
        return value

    cli.det_condensation = tracer.wrap(counted, "lgv.condense")


def run_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class Workload:
    name = ""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self._expected: dict[tuple, int] = {}
        self.kept: list = []

    def expected(self, params: tuple) -> int:
        if params not in self._expected:
            self._expected[params] = checks.count_mod(params)
        return self._expected[params]

    def keep(self, item) -> None:
        if len(self.kept) < 2:
            self.kept.append(item)


class FormulaBig(Workload):
    """count_theorem1 on 40 distinct tuples with a in 20..60 and b, c in
    100..220: only ``exact`` and ``closedform`` run, on 10^4-bit ints."""

    name = "formula-big"
    OPS = 40

    def inputs(self, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        return [place(*point) for point in design(
            rng, self.OPS, (20, 60), (100, 220), (100, 220), *[(0, 999)] * 3)]

    def run_round(self, hx, items, meter) -> None:
        count = hx.closedform.count_theorem1
        if meter.tracer is not None:
            count = meter.tracer.wrap(count, "closedform", _count_bits)
        for params in items:
            ok, value = meter.op(count, params)
            if ok:
                self.errors += checks.check_count(params, value, self.expected(params))
                self.keep((params, value))

    def self_test(self) -> list[str]:
        params, value = self.kept[0]
        caught = checks.check_count(params, value + 1, self.expected(params))
        return [] if caught else ["count + 1"]


class CountDet(Workload):
    """``hexcount count a b c r s t --json`` with its default methods, run
    in-process through ``hexcount.cli.main``, in order of size: 28 tuples
    with a <= b+c and 12 with a > b+c, whose matrices have vanishing
    interior minors, so condensation falls back to elimination."""

    name = "count-det"
    REGULAR = 28
    FALLBACK = 12

    def inputs(self, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        items = [place(a, b, max(c, a - b), *u) for a, b, c, *u in design(
            rng, self.REGULAR, (20, 48), (0, 50), (0, 50), *[(0, 999)] * 3)]
        items += [place(a, ub * (a // 2) // 1000, uc * (a // 2) // 1000, *u)
                  for a, ub, uc, *u in design(rng, self.FALLBACK, (20, 48), *[(0, 999)] * 5)]
        return sorted(items)

    def run_round(self, hx, items, meter) -> None:
        if meter.tracer is not None:
            trace_cli(meter.tracer, hx)
        for params in items:
            ok, out = meter.op(run_cli, hx.cli, ["count", *map(str, params), "--json"])
            if ok:
                errors, _ = checks.check_cli_report(params, *out, COUNT_METHODS,
                                                    self.expected(params))
                self.errors += errors
                self.keep((params, out))

    def self_test(self) -> list[str]:
        params, (rc, text) = self.kept[0]
        value = checks.check_cli_report(params, rc, text, COUNT_METHODS,
                                        self.expected(params))[1]
        missed = []
        if not checks.check_count(params, value + 1, self.expected(params)):
            missed.append("count + 1")
        one_off = text.replace(f'"{value}"', f'"{value + 1}"', 1)
        if not checks.check_cli_report(params, rc, one_off, COUNT_METHODS,
                                       self.expected(params))[0]:
            missed.append("one method's count + 1")
        return missed


class VerifyBrute(Workload):
    """The 729 tuples of the default ``hexcount verify`` (sides <= 2) in
    seeded order, each one ``count ... --methods formula,det,det-condense,
    brute,brute-pp --json``: the per-tuple work of ``verify``."""

    name = "verify-brute"

    def inputs(self, seed: int) -> list[tuple]:
        items = [
            (a, b, c, r, s, t)
            for a, b, c in itertools.product(range(3), repeat=3)
            for r in range(1, a + 3) for s in range(1, b + 3) for t in range(1, c + 3)
        ]
        random.Random(seed).shuffle(items)
        return items

    def run_round(self, hx, items, meter) -> None:
        if meter.tracer is not None:
            trace_cli(meter.tracer, hx)
        totals: Counter = Counter()
        for params in items:
            argv = ["count", *map(str, params), "--methods", VERIFY_METHODS, "--json"]
            ok, out = meter.op(run_cli, hx.cli, argv)
            if ok:
                errors, value = checks.check_cli_report(
                    params, *out, VERIFY_METHODS.count(",") + 1, self.expected(params))
                self.errors += errors
                totals[params[:3]] += value or 0
        for shape, total in sorted(totals.items()):
            self.errors += checks.check_sum_rule(shape, total)
        self.keep(totals)

    def self_test(self) -> list[str]:
        totals = self.kept[0]
        shape = max(totals)
        missed = []
        if not checks.check_sum_rule(shape, totals[shape] + 1):
            missed.append("shape total + 1")
        params = shape + (1, 1, 1)
        if not checks.check_count(params, self.expected(params) + 1, self.expected(params)):
            missed.append("count + 1")
        return missed


class Tilings(Workload):
    """Every tiling of every (r, s, t) for the shapes (1,1,1), (2,1,0) and
    (1,1,0) and their 120-degree rotations, enumerated inside the timed
    run.  One op is one tiling: paths -> tiling -> paths, extension to the
    full hexagon, reading as a plane partition, and SVG rendering."""

    name = "tilings"
    SHAPES = [(1, 1, 1), (2, 1, 0), (1, 0, 2), (0, 2, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]

    def inputs(self, seed: int) -> list[tuple]:
        items = [
            (a, b, c, r, s, t)
            for a, b, c in self.SHAPES
            for r in range(1, a + 3) for s in range(1, b + 3) for t in range(1, c + 3)
        ]
        random.Random(seed).shuffle(items)
        return items

    def run_round(self, hx, items, meter) -> None:
        g, tracer = hx.geometry, meter.tracer
        steps = {
            "geometry.to_tiling": g.paths_to_tiling,
            "geometry.to_paths": g.tiling_to_paths,
            "geometry.extend": g.extend_to_full_hexagon,
            "geometry.to_pp": g.tiling_to_plane_partition,
            "geometry.render": g.render_svg,
            "oracle.paths": hx.oracle.enumerate_path_families,
        }
        if tracer is not None:
            after = {
                "geometry.extend": _tally("geometry.tiles", lambda tiling: len(tiling.tiles)),
                "geometry.render": _tally("geometry.svg_bytes", len),
                "oracle.paths": _nodes("oracle.paths"),
            }
            steps = {name: tracer.wrap(fn, name, after.get(name)) for name, fn in steps.items()}
        to_tiling, to_paths, extend, to_pp, render, enumerate_families = steps.values()

        def process(family):
            tiling = to_tiling(family)
            back = to_paths(tiling)
            full = extend(tiling)
            return back, to_pp(full), render(full)

        totals: Counter = Counter()
        for params in items:
            seen: set = set()
            inside = 0.0

            def emit(family):
                nonlocal inside
                entered = clock()
                span = tracer.open("emit", entered) if tracer is not None else -1
                ok, out = meter.op(process, family)
                if ok:
                    self.check_tiling(params, family, *out, seen)
                if tracer is not None:
                    tracer.close(span)
                inside += clock() - entered

            start = clock()
            found = enumerate_families(params, emit=emit, budget=hx.oracle.Budget())
            end = clock()
            meter.extra.append(((start + end) / 2, end - start - inside))
            if found != len(seen):
                self.errors.append(f"{params}: {found} tilings counted, "
                                   f"{len(seen)} distinct plane partitions")
            totals[params[:3]] += found
        for shape, total in sorted(totals.items()):
            self.errors += checks.check_sum_rule(shape, total)

    def check_tiling(self, params, family, back, pp, svg, seen) -> None:
        family = _points(family)
        back = _points(back)
        rows = tuple(map(tuple, pp.rows))
        self.errors += checks.check_round_trip(params, family, back)
        self.errors += checks.check_plane_partition(params, rows)
        self.errors += checks.check_new(params, seen, rows)
        self.errors += checks.check_svg(params, svg)
        if not self.kept or self.kept[0][0][3:] != params[3:]:
            self.keep((params, family, back, rows, svg))

    def self_test(self) -> list[str]:
        (p1, family, back, rows, svg), (p2, _, back2, rows2, _) = self.kept
        missed = []
        if not checks.check_round_trip(p1, family, back2):
            missed.append("swapped tiling")
        if not checks.check_plane_partition(p1, rows2):
            missed.append("swapped plane partition")
        if not checks.check_new(p1, {rows}, rows):
            missed.append("repeated plane partition")
        first = svg.index("<polygon ")
        cut = svg[:first] + svg[svg.index("\n", first) + 1:]
        if not checks.check_svg(p1, cut):
            missed.append("SVG missing a polygon")
        if not checks.check_sum_rule(p1[:3], checks.sum_rule(*p1[:3]) + 1):
            missed.append("shape total + 1")
        return missed


def _points(family):
    return [tuple((v.x, v.y) for v in path.vertices) for path in family.paths]


WORKLOADS = {w.name: w for w in (FormulaBig, CountDet, VerifyBrute, Tilings)}
