"""Brute-force enumeration oracles.

Two independent exhaustive counters double-check the formulas and the
determinants: one enumerates families of nonintersecting lattice paths
directly, the other enumerates plane partitions in a box, optionally
restricted to the boundary pattern that encodes the three fixed border
tiles.  Both are deterministic (fixed visit order) and budgeted: every
search-tree node expansion spends one unit, and exceeding the budget
raises rather than returning a partial count.  Each loop keeps its node
count in a local, written to ``Budget.used`` before every yield or emit
(and read back after it), on exhaustion and on the raise.  Neither
search recurses, so neither has a depth limit: the path search keeps an
explicit stack, the fill none.  A public constructor checks what a
caller hands it; what the searches emit is valid as built, so unchecked.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .exact import ExactInt, _integer
from .lgv import HexagonParams, LatticePoint, _point, _unchecked, validate_sides

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
    variable, falling back to 10**8.  An instance accumulates: shared by
    several enumeration calls, it counts and limits them together.
    """

    def __init__(self, limit: int | None = None):
        if limit is None:
            raw = os.environ.get(BUDGET_ENV_VAR)
            try:
                limit = int(raw) if raw else DEFAULT_BUDGET
            except ValueError:
                limit = 0
            if limit <= 0:
                raise ValueError(f"{BUDGET_ENV_VAR} must be a positive "
                                 f"integer, got {raw!r}")
        else:
            limit = _integer("budget", limit, 1)
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(self.limit)


def _resolve_budget(budget: int | Budget | None) -> Budget:
    return budget if isinstance(budget, Budget) else Budget(budget)


@dataclass(frozen=True)
class MonotonePath:
    """Lattice path taking steps (+1, 0) or (0, -1); may be a single point."""

    vertices: tuple[LatticePoint, ...]

    def __post_init__(self) -> None:
        vertices = []
        for i, point in enumerate(self.vertices):
            try:
                vertices.append(LatticePoint(*point))
            except TypeError:
                raise TypeError(f"path vertex {i} must be an (x, y) pair, "
                                f"got {point!r}") from None
        if not vertices:
            raise ValueError("a path needs at least one vertex")
        object.__setattr__(self, "vertices", vertices := tuple(
            _point(_integer("a path coordinate", value, -math.inf) for value in point)
            for point in vertices))
        for p, q in zip(vertices, vertices[1:]):
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

    config: HexagonParams
    paths: tuple[MonotonePath, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", config := HexagonParams(*self.config))
        object.__setattr__(self, "paths", paths := tuple(
            p if isinstance(p, MonotonePath) else MonotonePath(p) for p in self.paths))
        starts, ends = config.starts, config.ends
        if len(paths) != len(starts):
            raise ValueError(f"expected {len(starts)} paths, got {len(paths)}")
        seen: set[LatticePoint] = set()
        for i, path in enumerate(paths):
            if path.start != starts[i]:
                raise ValueError(f"path {i} starts at {path.start}, "
                                 f"expected {starts[i]}")
            if path.end != ends[i]:
                raise ValueError(f"path {i} ends at {path.end}, "
                                 f"expected {ends[i]}")
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


def parse_family_line(line: str, config: HexagonParams | Sequence[int]) -> PathFamily:
    """Inverse of family_to_line; a malformed vertex raises ``ValueError``."""
    paths = []
    for index, chunk in enumerate(line.strip().split(";")):
        vertices = []
        for pair in chunk.split(","):
            try:
                xs, ys = pair.split()
                vertices.append(LatticePoint(int(xs), int(ys)))
            except ValueError:
                raise ValueError(f"path {index}: malformed vertex {pair!r}") from None
        paths.append(MonotonePath(tuple(vertices)))
    return PathFamily(config, tuple(paths))


def _family(config: HexagonParams,
            walks: Iterable[Sequence[tuple[int, int]]]) -> PathFamily:
    """The producers' one way to make a family, unchecked: path i from walks[i]."""
    return _unchecked(PathFamily, config=config, paths=tuple(
        _unchecked(MonotonePath, vertices=tuple(map(_point, walk))) for walk in walks))


def _path_search(
    p: HexagonParams | Sequence[int],
    budget: int | Budget | None,
    build: bool,
) -> Iterator[PathFamily | None]:
    """Depth-first search on an explicit stack, with no depth limit; yields
    each family, or None for each when ``build`` is false.  A stack entry
    is (walk length before the vertex, path index, (x, y)), where the walk
    holds the vertices of every path so far as (x, y) pairs; popping one
    truncates the walk and ``occupied`` back to it.  A family is built
    from the walk, path i being walk[first[i]:first[i+1]], only when it
    is emitted, valid as built: each path steps right or down from its
    start to its end, and ``occupied`` keeps the paths disjoint."""
    config = HexagonParams(*p)
    tracker = _resolve_budget(budget)
    starts, ends = [tuple(q) for q in config.starts], [tuple(q) for q in config.ends]
    size, used, limit = len(starts), tracker.used, tracker.limit
    walk: list[tuple[int, int]] = []
    occupied: set[tuple[int, int]] = set()
    first = [0] * size  # walk position where each path begins
    stack = [(0, 0, starts[0])]
    pop, push, occupy = stack.pop, stack.append, occupied.add
    while stack:
        length, index, point = pop()
        if len(walk) > length:  # backtrack
            occupied.difference_update(walk[length:])
            del walk[length:]
        if (used := used + 1) > limit:
            tracker.used = used
            raise BudgetExceededError(limit)
        walk.append(point)
        occupy(point)
        length += 1
        x, y = point
        tx, ty = ends[index]
        if x != tx or y != ty:
            # pushed first, so the right step is tried first
            if y > ty and (down := (x, y - 1)) not in occupied:
                push((length, index, down))
            if x < tx and (right := (x + 1, y)) not in occupied:
                push((length, index, right))
            continue
        # the endpoint stays occupied while the remaining paths are built
        index += 1
        if index == size:
            tracker.used = used
            yield _family(config, (walk[i:j] for i, j in zip(
                first, [*first[1:], length]))) if build else None
            used = tracker.used
        elif starts[index] not in occupied:
            first[index] = length
            push((length, index, starts[index]))
    tracker.used = used


def enumerate_path_families(
    p: HexagonParams | Sequence[int],
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
    count = 0
    for count, family in enumerate(_path_search(p, budget, emit is not None), 1):
        if emit is not None:
            emit(family)
    return count


def iter_path_families(
    p: HexagonParams | Sequence[int],
    budget: int | Budget | None = None,
) -> Iterator[PathFamily]:
    """The families of enumerate_path_families, in the same order, lazily."""
    return _path_search(p, budget, True)


@dataclass(frozen=True)
class PlanePartition:
    """Rectangular array with weakly decreasing rows and columns,
    entries >= 0."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        if len({len(row) for row in rows}) > 1:
            raise ValueError("rows must have equal length")
        object.__setattr__(self, "rows", rows := tuple(  # plain ints, not bools
            tuple(_integer(f"entry ({i}, {j})", v, -math.inf) for j, v in enumerate(row))
            for i, row in enumerate(rows)))
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v < 0:
                    raise ValueError(f"negative entry at ({i}, {j})")
                if j + 1 < len(row) and row[j + 1] > v:
                    raise ValueError(f"row {i} increases at column {j + 1}")
                if i + 1 < len(rows) and rows[i + 1][j] > v:
                    raise ValueError(f"column {j} increases at row {i + 1}")

    def to_text(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)


def _fill_cells(height: int, width: int, top: int,
                row_ok: Callable[[int, int, int], bool], tracker: Budget,
                emit: Callable[[PlanePartition], None] | None,
                prefix: Sequence[int] = ()) -> ExactInt:
    """Count (and optionally emit) the height x width plane partitions with
    entries <= top whose first row starts with prefix and whose every row i
    passes row_ok(i, first, last), given its first and last entries once
    the row is complete.

    The array is filled cell by cell in row-major order, each cell from its
    cap min(above, left) down to 0, so the arrays come in lexicographically
    decreasing order, each valid as built, every entry in 0..min(above,
    left).  There is no stack and no recursion: a backtrack lowers the last
    cell past the prefix that is above 0, and the cells after it are
    re-capped on the way forward.  Each entry tried spends one unit; the
    prefix spends none."""
    cells = [top] * width + list(prefix)  # a row of caps above row 0
    start, end = len(cells), (height + 1) * width
    cells += [0] * (end - start)
    count, k = 0, start  # cells[:k] are set
    used, limit = tracker.used, tracker.limit
    while True:
        if k % width:  # inside a row: cap min(above, left)
            cap, left = cells[k - width], cells[k - 1]
            cells[k] = left if left < cap else cap
        elif (ok := k == width or row_ok(k // width - 2, cells[k - width],
                                         cells[k - 1])) and k < end:
            cells[k] = cells[k - width]  # a row's first cell: cap above
        else:
            if ok:
                count += 1
                if emit is not None:
                    tracker.used = used
                    emit(_unchecked(PlanePartition, rows=tuple(
                        tuple(cells[i:i + width]) for i in range(width, end, width))))
                    used = tracker.used
            k -= 1
            while k >= start and not cells[k]:
                k -= 1
            if k < start:
                tracker.used = used
                return count
            cells[k] -= 1
        k += 1
        if (used := used + 1) > limit:
            tracker.used = used
            raise BudgetExceededError(limit)


def enumerate_plane_partitions_box(
    a: int,
    b: int,
    c: int,
    emit: Callable[[PlanePartition], None] | None = None,
    budget: int | Budget | None = None,
) -> ExactInt:
    """Count (and optionally emit) plane partitions with a rows, b
    columns, entries <= c.  The cells are filled in row-major order, each
    from min(above, left) down to 0, so the arrays come in
    lexicographically decreasing order, read row by row.  The fill has no
    depth limit."""
    a, b, c = validate_sides(a, b, c)
    tracker = _resolve_budget(budget)
    if a == 0 or b == 0:
        if emit is not None:
            emit(PlanePartition(tuple(() for _ in range(a))))
        return 1
    return _fill_cells(a, b, c, lambda i, first, last: True, tracker, emit)


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
    a, b, c, r, s, t = HexagonParams(*p)
    tracker = _resolve_budget(budget)
    height, width, depth = a + 2, b + 2, c + 2

    def row_ok(i: int, first: int, last: int) -> bool:
        return (last == 0) == (i >= height - r) and (
            i < height - 1 or first == depth - t)

    # First row: a forced prefix of b+2-s maxima, then strictly below
    # the maximum, so every free entry is capped at depth-1.
    return _fill_cells(height, width, depth - 1, row_ok, tracker, emit,
                       prefix=(depth,) * (width - s))
