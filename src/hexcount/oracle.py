"""Brute-force enumeration oracles.

Two independent exhaustive counters double-check the formulas and the
determinants: one enumerates families of nonintersecting lattice paths
directly, the other enumerates plane partitions in a box, optionally
restricted to the boundary pattern that encodes the three fixed border
tiles.  Both are deterministic (fixed visit order) and budgeted: every
search-tree node expansion spends one unit, and exceeding the budget
raises rather than returning a partial count.  Each loop keeps its node
count in a local, written to ``Budget.used`` before every yield or emit
(and read back after it), on exhaustion and on the raise; the fill's
count is the variable of a ``for`` over a range ending at the limit.
Neither search recurses, so neither has a depth limit: the path search
walks straight on, its vertices ints on a flat grid, and stacks only
the down steps it defers, and the fill reads its row rule from a table.
A public constructor checks what a caller hands it; what the searches
emit is valid as built, so unchecked.
A path family holds its walks, each path's vertices as (x, y) pairs; a
producer's family (the path search's, or ``tiling_to_paths``') holds its
config and walks alone, and builds its ``MonotonePath``s and their
``LatticePoint``s only if a caller reads ``paths``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from .exact import ExactInt, _integer, _items
from .lgv import HexagonParams, LatticePoint, _params, _point, _unchecked, validate_sides

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
        """Add amount, an int >= 0, to ``used``; past the limit, raise."""
        self.used += _integer("amount", amount, 0)
        if self.used > self.limit:
            raise BudgetExceededError(self.limit)


def _resolve_budget(budget: int | Budget | None) -> Budget:
    return budget if isinstance(budget, Budget) else Budget(budget)


@dataclass(frozen=True)
class MonotonePath:
    """Lattice path taking steps (+1, 0) or (0, -1); may be a single point."""

    vertices: tuple[LatticePoint, ...]

    def __post_init__(self) -> None:
        points = _items("path vertices", self.vertices, "a sequence of (x, y) pairs")
        vertices = [_items(f"path vertex {i}", point, "an (x, y) pair", 2)
                    for i, point in enumerate(points)]
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


@dataclass(frozen=True, eq=False)
class PathFamily:
    """One family of pairwise vertex-disjoint paths, path i from P_i to Q_i.

    A family holds its walks, path i's vertices as (x, y) pairs, and is
    equal to and hashes like any family with the same config and walks.
    The public constructor checks the paths and keeps their walks; a
    producer's family holds its config and walks alone, and makes its
    ``paths`` (of ``LatticePoint`` vertices) on first read and keeps them."""

    config: HexagonParams
    paths: tuple[MonotonePath, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", config := _params(self.config))
        object.__setattr__(self, "paths", paths := tuple(
            p if isinstance(p, MonotonePath) else
            MonotonePath(_items(f"path {i}", p, "a sequence of (x, y) pairs"))
            for i, p in enumerate(_items("paths", self.paths, "a sequence of paths"))))
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
        object.__setattr__(self, "_walks", tuple(path.vertices for path in paths))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.config == other.config and self._walks == other._walks

    def __hash__(self) -> int:
        return hash((self.config, self._walks))


class _Paths:
    """``PathFamily.paths`` of a producer's family: made on first read and
    kept in the instance, whose own ``paths`` this non-data descriptor
    never shadows, so a public family reads the paths it checked."""

    def __get__(self, family: PathFamily | None, owner: type | None = None) -> object:
        if family is None:
            return self
        vars(family)["paths"] = paths = tuple(
            _unchecked(MonotonePath, vertices=tuple(map(_point, walk))) for walk in family._walks)
        return paths


PathFamily.paths = _Paths()  # set after @dataclass, which would take it for a default


def family_to_line(family: PathFamily) -> str:
    """One-line text form: paths joined by ';', vertices by ',',
    coordinates by a space."""
    if not isinstance(family, PathFamily):
        raise TypeError(f"family must be a PathFamily, got {family!r}")
    return ";".join(
        ",".join(f"{v.x} {v.y}" for v in path.vertices) for path in family.paths
    )


def parse_family_line(line: str, config: HexagonParams | Sequence[int]) -> PathFamily:
    """Inverse of family_to_line; a malformed vertex raises ``ValueError``."""
    if not isinstance(line, str):
        raise TypeError(f"line must be a str, got {line!r}")
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
    """The producers' one way to make a family, unchecked: path i walks
    walks[i], kept as a tuple of (x, y) pairs; its paths wait for a reader."""
    return _unchecked(PathFamily, config=config, _walks=tuple(map(tuple, walks)))


def _path_search(
    config: HexagonParams, tracker: Budget, build: bool
) -> Iterator[PathFamily | None]:
    """Depth-first search with no depth limit; yields each family, or None
    for each when ``build`` is false.  A vertex (x, y) is the int
    v = x*h + y, h the greatest y plus 2 (an empty row between columns),
    so a right step is v + h and a down step v - 1; ``grid``, a bytearray
    indexed by v, marks the vertices taken.  Path i may step right while
    v < right, its end's x times h, that is while x is below its end's,
    and down while y, kept as the walk moves, is above its end's.  The
    walk holds every path so far as vertices and goes straight on: right
    if it can, else down, and from a path's end into the next path's
    start.  The stack keeps only the down steps passed over, as (walk
    length before the vertex, path index, v); a dead end or a family pops
    one, clearing the grid cells of the walk past it.  Path i is
    walk[first[i]:first[i+1]].  (x, y) pairs are made only for an emitted
    family, read from the table ``pairs``, and only for paths low on, those
    the walk changed since the last family; the paths before them are
    kept.  A family is valid as built: each path steps right or down from
    its start to its end, and ``grid`` keeps the paths disjoint.  p and the
    budget come checked."""
    starts, ends = config.starts, config.ends
    points = (*starts, *ends)
    h = max(y for _, y in points) + 2
    columns = max(points)[0] + 1  # the greatest x
    grid = bytearray(columns * h)
    pairs = list(product(range(columns), range(h))) if build else []  # pairs[v] is (x, y)
    starts = [(x * h + y, y) for x, y in starts]
    targets = [(x * h + y, x * h, y) for x, y in ends]  # (v, right, y)
    size, used, limit = len(starts), tracker.used, tracker.limit
    walk = [0] * len(grid)  # a walk takes each vertex once at most
    first = [0] * (size + 1)  # walk position where each path begins, and the length
    made: list[tuple[tuple[int, int], ...]] = [()] * size  # the last family's walks
    stack: list[tuple[int, int, int]] = []
    pop, push = stack.pop, stack.append
    length, index, low, (v, y), (end, right, ty) = 0, 0, 0, starts[0], targets[0]
    while True:
        if (used := used + 1) > limit:
            tracker.used = used
            raise BudgetExceededError(limit)
        walk[length] = v
        grid[v] = 1
        length += 1
        if y > ty and not grid[v - 1]:
            if v < right and not grid[v + h]:
                push((length, index, v - 1))  # right first, down later
                v += h
            else:
                v -= 1
                y -= 1
            continue
        if v < right and not grid[v + h]:
            v += h
            continue
        if v == end:  # the end stays taken for the next paths
            index += 1
            if index == size:
                tracker.used = used
                if build:
                    first[size] = length
                    for i in range(low, size):  # paths low.. changed since the last family
                        made[i] = tuple(map(pairs.__getitem__, walk[first[i]:first[i + 1]]))
                    yield _family(config, made)
                else:
                    yield None
                used, low = tracker.used, size
            elif not grid[starts[index][0]]:
                v, y = starts[index]
                first[index] = length
                end, right, ty = targets[index]
                continue
        if not stack:
            break
        top = length
        length, index, v = pop()  # backtrack
        for u in walk[length:top]:
            grid[u] = 0
        if index < low:
            low = index
        y = v % h
        end, right, ty = targets[index]
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
    count, search = 0, _path_search(_params(p), _resolve_budget(budget), emit is not None)
    for count, family in enumerate(search, 1):
        if emit is not None:
            emit(family)
    return count


def iter_path_families(
    p: HexagonParams | Sequence[int],
    budget: int | Budget | None = None,
) -> Iterator[PathFamily]:
    """The families of enumerate_path_families, lazily; p and budget checked on the call."""
    return _path_search(_params(p), _resolve_budget(budget), True)


@dataclass(frozen=True)
class PlanePartition:
    """Rectangular array with weakly decreasing rows and columns,
    entries >= 0."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(_items(f"row {i}", row, "a sequence of entries") for i, row
                     in enumerate(_items("rows", self.rows, "a sequence of rows")))
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


def _fill_cells(height: int, width: int, top: int, zero_from: int | None,
                corner: int | None, tracker: Budget,
                emit: Callable[[PlanePartition], None] | None,
                prefix: Sequence[int] = ()) -> ExactInt:
    """Count (and optionally emit) the height x width plane partitions with
    entries <= top whose first row starts with prefix and, unless zero_from
    and corner are None (the box), whose rows from zero_from on end in 0,
    those above in a positive entry, and whose bottom-left entry is corner:
    as a row completes, it must end in ``ends[k]``, a table kept at the
    cell k that starts the next row (None inside a row).

    The array is filled cell by cell in row-major order, each from its cap
    min(above, left) down to 0, so the arrays come in lexicographically
    decreasing order, each valid as built.  There is no stack and no
    recursion: a backtrack lowers the last cell past the prefix that is
    above 0, and the cells after it are re-capped from ``value``, the cell
    last set.  Each entry tried spends one unit; the prefix spends none.
    The count is the variable of a ``for`` over a range that ends at the
    limit, so running out raises at ``Budget.used == limit + 1``.  After an
    emit, ``Budget.used`` is read back; if the consumer moved it, the range
    restarts from it and the node is entered again as a dead end (its
    value set to -1, which meets no row rule), to backtrack from there."""
    cells = [top] * width + list(prefix)  # a row of caps above row 0
    start, end = len(cells), (height + 1) * width
    # a backtrack's scan stops at the nonzero cap or prefix cell before
    # start, or else (the box with top 0) at cells[end], read as cells[-1]
    cells += [0] * (end - start) + [1]
    ends: list[range | None] = [None] * (end + 1)
    ends[width::width] = [  # row i ends where row i + 1 starts, at (i + 2) * width
        range(top + 1) if zero_from is None or i < 0 else
        range(1) if i >= zero_from else range(1, top + 1) for i in range(-1, height)]
    corners = range(top + 1) if corner is None else range(corner, corner + 1)
    count, k, value = 0, start, cells[start - 1]  # cells[:k] are set, value = cells[k-1]
    used, limit = tracker.used, tracker.limit
    while True:  # one node range, restarted when a consumer moves the count
        # a count already past the limit still takes this node, then raises
        for used in range(used, max(used, limit) + 1):
            if (last := ends[k]) is None:  # inside a row: cap min(above, left)
                if (cap := cells[k - width]) < value:
                    value = cap
                cells[k] = value
            elif (ok := value in last) and k < end:
                cells[k] = value = cells[k - width]  # a row's first cell: cap above
            else:
                if ok and cells[k - width] in corners:
                    count += 1
                    if emit is not None:
                        tracker.used = used
                        emit(_unchecked(PlanePartition, rows=tuple(
                            tuple(cells[i:i + width]) for i in range(width, end, width))))
                        if tracker.used != used:  # re-enter this node as a dead end,
                            used, value = tracker.used, -1  # as -1 meets no row rule
                            break
                k -= 1
                while not cells[k]:
                    k -= 1
                if k < start:
                    tracker.used = used
                    return count
                cells[k] = value = cells[k] - 1
            k += 1
        else:
            tracker.used = used + 1
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
    return _fill_cells(a, b, c, None, None, tracker, emit)


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
    a, b, c, r, s, t = _params(p)
    # First row: a forced prefix of b+2-s maxima c+2, then strictly below
    # the maximum, so every free entry is capped at c+1.
    return _fill_cells(a + 2, b + 2, c + 1, a + 2 - r, c + 2 - t,
                       _resolve_budget(budget), emit, prefix=(c + 2,) * (b + 2 - s))
