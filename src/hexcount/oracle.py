"""Brute-force enumeration oracles.

Two independent exhaustive counters double-check the formulas and the
determinants: one enumerates families of nonintersecting lattice paths
directly, the other enumerates plane partitions in a box, optionally
restricted to the boundary pattern that encodes the three fixed border
tiles.  Both are deterministic (fixed visit order) and budgeted: every
search-tree node expansion spends one unit, and exceeding the budget
raises rather than returning a partial count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

from .closedform import HexagonParams, _as_params
from .exact import ExactInt
from .lgv import LatticePoint, PointConfiguration, build_point_configuration

DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "HEXCOUNT_BUDGET"


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration exceeds its node-expansion budget."""

    def __init__(self, limit: int):
        super().__init__(
            f"enumeration exceeded the budget of {limit} node expansions"
        )
        self.limit = limit


class Budget:
    """Node-expansion counter with a hard limit.

    The default limit comes from the HEXCOUNT_BUDGET environment
    variable, falling back to 10**8.  One instance tracks one
    enumeration call.
    """

    def __init__(self, limit: int | None = None):
        if limit is None:
            raw = os.environ.get(BUDGET_ENV_VAR)
            try:
                limit = int(raw) if raw else DEFAULT_BUDGET
            except ValueError:
                raise ValueError(
                    f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}"
                ) from None
        if limit <= 0:
            raise ValueError(f"budget must be positive, got {limit}")
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(self.limit)


def _resolve_budget(budget: int | Budget | None) -> Budget:
    if isinstance(budget, Budget):
        return budget
    return Budget(budget)


RIGHT = LatticePoint(1, 0)
DOWN = LatticePoint(0, -1)


@dataclass(frozen=True)
class MonotonePath:
    """Lattice path taking steps (+1, 0) or (0, -1); may be a single point."""

    vertices: tuple[LatticePoint, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a path needs at least one vertex")
        for p, q in zip(self.vertices, self.vertices[1:]):
            step = (q.x - p.x, q.y - p.y)
            if step not in ((1, 0), (0, -1)):
                raise ValueError(f"illegal step {step} at {p}")

    @property
    def start(self) -> LatticePoint:
        return self.vertices[0]

    @property
    def end(self) -> LatticePoint:
        return self.vertices[-1]


@dataclass(frozen=True)
class PathFamily:
    """One family of pairwise vertex-disjoint paths, path i from P_i to Q_i."""

    config: PointConfiguration
    paths: tuple[MonotonePath, ...]

    def __post_init__(self) -> None:
        if len(self.paths) != self.config.size:
            raise ValueError(
                f"expected {self.config.size} paths, got {len(self.paths)}"
            )
        seen: set[LatticePoint] = set()
        for i, path in enumerate(self.paths):
            if path.start != self.config.starts[i]:
                raise ValueError(f"path {i} starts at {path.start}, "
                                 f"expected {self.config.starts[i]}")
            if path.end != self.config.ends[i]:
                raise ValueError(f"path {i} ends at {path.end}, "
                                 f"expected {self.config.ends[i]}")
            for v in path.vertices:
                if v in seen:
                    raise ValueError(f"paths intersect at {v}")
                seen.add(v)


def family_to_line(family: PathFamily) -> str:
    """One-line text form: paths joined by ';', vertices by ',',
    coordinates by a space."""
    return ";".join(
        ",".join(f"{v.x} {v.y}" for v in path.vertices) for path in family.paths
    )


def parse_family_line(line: str, config: PointConfiguration) -> PathFamily:
    """Inverse of family_to_line."""
    paths = []
    for chunk in line.strip().split(";"):
        vertices = []
        for pair in chunk.split(","):
            xs, ys = pair.split()
            vertices.append(LatticePoint(int(xs), int(ys)))
        paths.append(MonotonePath(tuple(vertices)))
    return PathFamily(config, tuple(paths))


def enumerate_path_families(
    p: HexagonParams | Sequence[int] | PointConfiguration,
    emit: Callable[[PathFamily], None] | None = None,
    budget: int | Budget | None = None,
) -> ExactInt:
    """Count (and optionally emit) all nonintersecting path families.

    Paths are built in index order 0, 1, ..., a+1; within a path the
    right step is always tried before the down step, which fixes the
    emission order.  Pruning: a path from P_i to Q_i may only visit the
    rectangle spanned by its endpoints, and no vertex may repeat across
    the family.
    """
    if isinstance(p, PointConfiguration):
        config = p
    else:
        params = _as_params(p)
        config = build_point_configuration(*params.astuple())
    tracker = _resolve_budget(budget)
    n = config.size
    occupied: set[LatticePoint] = set()
    prefix: list[MonotonePath] = []

    def extend(index: int, point: LatticePoint,
               trail: list[LatticePoint]) -> ExactInt:
        tracker.spend()
        target = config.ends[index]
        if point == target:
            # endpoint stays occupied while the remaining paths are built
            occupied.add(point)
            if emit is not None:
                prefix.append(MonotonePath(tuple(trail) + (point,)))
            total = build_family(index + 1)
            if emit is not None:
                prefix.pop()
            occupied.discard(point)
            return total
        total = 0
        trail.append(point)
        occupied.add(point)
        for step in (RIGHT, DOWN):
            nxt = LatticePoint(point.x + step.x, point.y + step.y)
            if nxt.x > target.x or nxt.y < target.y or nxt in occupied:
                continue
            total += extend(index, nxt, trail)
        occupied.discard(point)
        trail.pop()
        return total

    def build_family(index: int) -> ExactInt:
        if index == n:
            if emit is not None:
                emit(PathFamily(config, tuple(prefix)))
            return 1
        start = config.starts[index]
        if start in occupied:
            return 0
        return extend(index, start, [])

    return build_family(0)


@dataclass(frozen=True)
class PlanePartition:
    """Rectangular array with weakly decreasing rows and columns,
    entries >= 0."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(row) for row in self.rows}
        if len(widths) > 1:
            raise ValueError("rows must have equal length")
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if v < 0:
                    raise ValueError(f"negative entry at ({i}, {j})")
                if j + 1 < len(row) and row[j + 1] > v:
                    raise ValueError(f"row {i} increases at column {j + 1}")
                if i + 1 < len(self.rows) and self.rows[i + 1][j] > v:
                    raise ValueError(f"column {j} increases at row {i + 1}")

    def to_text(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)


def _descending_rows(
    width: int, cap_row: Sequence[int], tracker: Budget
) -> "list[tuple[int, ...]]":
    """All weakly decreasing rows of the given width with entry j <= cap_row[j],
    in lexicographically decreasing order."""
    results: list[tuple[int, ...]] = []
    row: list[int] = []

    def place(j: int, high: int) -> None:
        if j == width:
            results.append(tuple(row))
            return
        top = min(high, cap_row[j])
        for v in range(top, -1, -1):
            tracker.spend()
            row.append(v)
            place(j + 1, v)
            row.pop()

    place(0, cap_row[0] if width else 0)
    return results


def _fill_rows(height: int, width: int, first_rows: Sequence[tuple[int, ...]],
               row_ok: Callable[[int, tuple[int, ...]], bool], tracker: Budget,
               emit: Callable[[PlanePartition], None] | None) -> ExactInt:
    """Count (and optionally emit) the plane partitions with one of
    first_rows on top, each later row in lexicographically decreasing
    order under the row above, and every row i passing row_ok(i, row)."""
    count = 0
    stack: list[tuple[int, ...]] = []

    def fill(i: int, row: tuple[int, ...]) -> None:
        nonlocal count
        if not row_ok(i, row):
            return
        stack.append(row)
        if i + 1 == height:
            count += 1
            if emit is not None:
                emit(PlanePartition(tuple(stack)))
        else:
            for below in _descending_rows(width, row, tracker):
                fill(i + 1, below)
        stack.pop()

    for first in first_rows:
        fill(0, first)
    return count


def enumerate_plane_partitions_box(
    a: int,
    b: int,
    c: int,
    emit: Callable[[PlanePartition], None] | None = None,
    budget: int | Budget | None = None,
) -> ExactInt:
    """Count (and optionally emit) plane partitions with a rows, b
    columns, entries <= c.  Rows are generated top to bottom, each row
    lexicographically decreasing, fixing the emission order."""
    for name, value in (("a", a), ("b", b), ("c", c)):
        if value < 0:
            raise ValueError(f"side {name} must be >= 0, got {value}")
    tracker = _resolve_budget(budget)
    if a == 0 or b == 0:
        if emit is not None:
            emit(PlanePartition(tuple(() for _ in range(a))))
        return 1
    return _fill_rows(a, b, _descending_rows(b, [c] * b, tracker),
                      lambda i, row: True, tracker, emit)


def enumerate_constrained_pp(
    p: HexagonParams | Sequence[int],
    emit: Callable[[PlanePartition], None] | None = None,
    budget: int | Budget | None = None,
) -> ExactInt:
    """Count plane partitions in the (a+2) x (b+2) x (c+2) box whose
    boundary pattern encodes the three fixed border tiles:

    * exactly b+2-s entries of the first row equal the maximum c+2,
    * exactly r rows (counted from the bottom) end in 0,
    * the bottom-left entry equals c+2-t.

    These are exact constraints, not bounds.  Weak decrease makes each
    one local: the first row is forced on a prefix, the last column is
    positive above row a+2-r and zero from it on.
    """
    params = _as_params(p)
    a, b, c, r, s, t = params.astuple()
    tracker = _resolve_budget(budget)
    height, width, depth = a + 2, b + 2, c + 2
    first_zero_row = height - r  # rows with index >= this end in 0

    def row_ok(i: int, row: Sequence[int]) -> bool:
        if i < first_zero_row:
            if row[-1] == 0:
                return False
        elif row[-1] != 0:
            return False
        if i == height - 1 and row[0] != depth - t:
            return False
        return True

    # First row: a forced prefix of b+2-s maxima, then strictly below
    # the maximum.  Generate the free suffix only.
    maxima = width - s
    first_rows = [
        (depth,) * maxima + suffix
        for suffix in _descending_rows(s, [depth - 1] * s, tracker)
    ]
    return _fill_rows(height, width, first_rows, row_ok, tracker, emit)
