"""Triangular-lattice geometry: regions, tilings, and SVG rendering.

Lattice model.  Vertices are integer pairs (x, y) in axial coordinates;
a vertex renders at (x * sqrt(3)/2, y + x/2), so every rendered vertex
is a multiple of (sqrt(3)/2, 1/2) and all edges have unit length.  The
unit triangles come in two orientations:

    up   cell U(u, v): vertices (u, v), (u+1, v), (u, v+1)
    down cell D(u, v): vertices (u+1, v), (u, v+1), (u+1, v+1)

A rhombus tile is one down cell glued to an adjacent up cell.  The up
partner of D(u, v) is U(u+1, v), U(u, v), or U(u, v+1); in the rendered
picture the three cases are a flat rhombus, one leaning up to the
right, and one leaning down to the right.

Cells and tiles are tuples, (u, v, orientation) and (down, up), so they
sort and hash as tuples do.  Each is validated when it is constructed:
a cell's orientation is 'up' or 'down', and a tile's cells are an
adjacent down/up pair.

Two regions matter here.  The working region is a hexagon with side
lengths a, c+3, b, a+3, c, b+3 (clockwise from the top side) minus one
up cell on each of the three long sides; the removed cells sit at
positions t, s, r along those sides and leave notches.  Tilings of the
working region biject with the nonintersecting path families counted by
the rest of the package: a flat tile is a right step, an up-leaning
tile a down step.  The full region is the surrounding a+2, c+2, b+2,
a+2, c+2, b+2 hexagon; a tiling of the working region extends uniquely
to it by three forced border strips, and exactly one tile per strip
(the one absorbing the notch cell) is pinned by the position parameter.
Tilings of the full hexagon are read off as plane partitions in the
(a+2) x (b+2) x (c+2) box.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, pairwise
from typing import Iterable, NamedTuple, Sequence

from .closedform import HexagonParams, _as_params
from .lgv import LatticePoint, build_point_configuration
from .oracle import MonotonePath, PathFamily, PlanePartition

UP = "up"
DOWN = "down"

FLAT = "flat"
RISING = "rising"
FALLING = "falling"


class _CellFields(NamedTuple):
    u: int
    v: int
    orientation: str


class TriCell(_CellFields):
    """One unit triangle of the lattice."""

    __slots__ = ()

    def __new__(cls, u: int, v: int, orientation: str) -> TriCell:
        if orientation not in (UP, DOWN):
            raise ValueError(f"orientation must be 'up' or 'down', "
                             f"got {orientation!r}")
        return tuple.__new__(cls, (u, v, orientation))

    def vertices(self) -> tuple[LatticePoint, LatticePoint, LatticePoint]:
        u, v = self.u, self.v
        if self.orientation == UP:
            return (LatticePoint(u, v), LatticePoint(u + 1, v),
                    LatticePoint(u, v + 1))
        return (LatticePoint(u + 1, v), LatticePoint(u, v + 1),
                LatticePoint(u + 1, v + 1))


_PARTNER_OFFSETS = {(1, 0): FLAT, (0, 0): RISING, (0, 1): FALLING}


class _TileFields(NamedTuple):
    down: TriCell
    up: TriCell


class Tile(_TileFields):
    """A rhombus: one down cell plus an adjacent up cell."""

    __slots__ = ()

    def __new__(cls, down: TriCell, up: TriCell) -> Tile:
        if down.orientation != DOWN or up.orientation != UP:
            raise ValueError("a tile pairs one down cell with one up cell")
        if (up.u - down.u, up.v - down.v) not in _PARTNER_OFFSETS:
            raise ValueError(f"cells {down} and {up} are not adjacent")
        return tuple.__new__(cls, (down, up))

    @property
    def lean(self) -> str:
        """'flat', 'rising', or 'falling' (appearance in the rendered frame)."""
        return _PARTNER_OFFSETS[(self.up.u - self.down.u, self.up.v - self.down.v)]

    def cells(self) -> tuple[TriCell, TriCell]:
        return (self.down, self.up)


@dataclass(frozen=True)
class Region:
    """A finite set of lattice cells, either the working ('notched')
    region or the full hexagon."""

    kind: str
    params: HexagonParams
    cells: frozenset[TriCell]

    def __post_init__(self) -> None:
        if self.kind not in ("notched", "full"):
            raise ValueError(f"unknown region kind {self.kind!r}")


def notch_cells(p: HexagonParams) -> tuple[TriCell, TriCell, TriCell]:
    """The three removed up cells, in the order (t side, s side, r side).

    The t notch sits on the upper-left long side, t cells from its top;
    the s notch on the upper-right long side, s cells from the top; the
    r notch on the bottom side, r cells from the left.
    """
    a, b, c, r, s, t = p.astuple()
    return (
        TriCell(-1, -t - 1, UP),
        TriCell(a + b + 1 - s, s - b - 3, UP),
        TriCell(b + r - 1, -b - c - 3, UP),
    )


@lru_cache(maxsize=None)
def _build_region_cached(p: HexagonParams, kind: str) -> Region:
    # The cells whose vertices satisfy -1 <= x <= a+b+2, -b-c-3 <= y <= 0
    # and -c-4 <= x+y <= a-1, minus the notches.  The full hexagon reaches
    # one lattice step further on the lower bounds of x and y and on the
    # upper bound of x+y, and keeps the notches.
    a, b, c = p.a, p.b, p.c
    step = 1 if kind == "full" else 0
    x_lo, y_lo, sum_hi = -1 - step, -b - c - 3 - step, a - 1 + step
    cells = {
        cell
        for u in range(x_lo, a + b + 2)
        for v in range(y_lo, 0)
        for cell in (TriCell(u, v, UP), TriCell(u, v, DOWN))
        if all(x_lo <= x <= a + b + 2 and y_lo <= y <= 0
               and -c - 4 <= x + y <= sum_hi for x, y in cell.vertices())
    }
    if kind == "notched":
        for cell in notch_cells(p):
            if cell not in cells:
                raise AssertionError(f"notch cell {cell} not inside the hexagon")
            cells.remove(cell)
    return Region(kind, p, frozenset(cells))


def build_region(p: HexagonParams | Sequence[int]) -> Region:
    """The working region: the notched hexagon that the path families tile."""
    return _build_region_cached(_as_params(p), "notched")


def build_full_region(p: HexagonParams | Sequence[int]) -> Region:
    """The full a+2, c+2, b+2, a+2, c+2, b+2 hexagon."""
    return _build_region_cached(_as_params(p), "full")


@dataclass(frozen=True)
class Tiling:
    """A rhombus tiling of a region.  Tiles must be sorted and must
    partition the region's cells exactly."""

    region: Region
    tiles: tuple[Tile, ...]

    def __post_init__(self) -> None:
        if list(self.tiles) != sorted(self.tiles):
            raise ValueError("tiles must be listed in sorted order")
        cells = self.region.cells
        covered = set(chain.from_iterable(self.tiles))
        if covered != cells or 2 * len(self.tiles) != len(cells):
            twice = [cell for cell, k in
                     Counter(chain.from_iterable(self.tiles)).items() if k > 1]
            raise ValueError(
                f"tiles do not partition the region "
                f"(extra {sorted(covered - cells)[:3]}, "
                f"missing {sorted(cells - covered)[:3]}, "
                f"covered twice {sorted(twice)[:3]})"
            )


def _entry_cell(pos: LatticePoint, c: int) -> TriCell:
    # The down cell a path at (x, y) is about to cross.
    return TriCell(pos.x - 1, pos.y - pos.x - c - 4, DOWN)


def paths_to_tiling(family: PathFamily) -> Tiling:
    """Tiling of the working region encoded by a nonintersecting family.

    Each path step lays one tile on the down cell it crosses: a right
    step pairs it with the up cell ahead (flat tile), a down step with
    the up cell behind (rising tile).  Cells touched by no path are
    paired into falling tiles.
    """
    cfg = family.config
    params = HexagonParams(cfg.a, cfg.b, cfg.c, cfg.r, cfg.s, cfg.t)
    region = build_region(params)
    tiles = []
    used: set[TriCell] = set()
    for path in family.paths:
        for pos, nxt in pairwise(path.vertices):
            down = _entry_cell(pos, params.c)
            if nxt.x == pos.x + 1:
                up = TriCell(pos.x, down.v, UP)
            else:
                up = TriCell(pos.x - 1, down.v, UP)
            tiles.append(Tile(down, up))
            used.add(down)
            used.add(up)
    leftover = region.cells - used
    for cell in sorted(leftover):
        if cell.orientation != DOWN:
            continue
        partner = TriCell(cell.u, cell.v + 1, UP)
        if partner not in leftover:
            raise ValueError(f"no untouched up cell above {cell}")
        tiles.append(Tile(cell, partner))
    return Tiling(region, tuple(sorted(tiles)))


def _trace_paths(
    tiling: Tiling, endpoints: Iterable[tuple[LatticePoint, LatticePoint]]
) -> list[MonotonePath]:
    """Follow one path per (start, end) pair across the tiling: a flat
    tile is a right step, a rising tile a down step, and a path stops
    where it leaves the region."""
    c = tiling.region.params.c
    cells = tiling.region.cells
    by_down_cell = {tile.down: tile for tile in tiling.tiles}
    paths = []
    for start, end in endpoints:
        pos = start
        vertices = [pos]
        while (down := _entry_cell(pos, c)) in cells:
            lean = by_down_cell[down].lean
            if lean == FLAT:
                pos = LatticePoint(pos.x + 1, pos.y)
            elif lean == RISING:
                pos = LatticePoint(pos.x, pos.y - 1)
            else:
                raise ValueError(f"falling tile blocks the path at {pos}")
            vertices.append(pos)
        if pos != end:
            raise ValueError(f"path from {start} ends at {pos}, expected {end}")
        paths.append(MonotonePath(tuple(vertices)))
    return paths


def tiling_to_paths(tiling: Tiling) -> PathFamily:
    """Inverse of paths_to_tiling.  Requires a working-region tiling."""
    if tiling.region.kind != "notched":
        raise ValueError("path extraction needs a working-region tiling")
    cfg = build_point_configuration(*tiling.region.params.astuple())
    return PathFamily(cfg, tuple(_trace_paths(tiling, zip(cfg.starts, cfg.ends))))


def extend_to_full_hexagon(tiling: Tiling) -> Tiling:
    """Extend a working-region tiling to the full hexagon.

    The three border strips between the two regions admit exactly one
    tiling each once the notch cell is absorbed; the tile that absorbs
    it is the fixed border tile selected by the position parameter.
    """
    if tiling.region.kind != "notched":
        raise ValueError("extension needs a working-region tiling")
    p = tiling.region.params
    a, b, c, r, s, t = p.astuple()
    tiles = list(tiling.tiles)

    # upper-left strip (column u = -2 plus the t notch)
    for k in range(1, t + 1):
        tiles.append(Tile(TriCell(-2, -k, DOWN), TriCell(-2, -k, UP)))
    tiles.append(Tile(TriCell(-2, -t - 1, DOWN), TriCell(-1, -t - 1, UP)))
    for k in range(t + 1, c + 3):
        tiles.append(Tile(TriCell(-2, -k - 1, DOWN), TriCell(-2, -k, UP)))

    # upper-right strip (along the top-right side plus the s notch)
    for i in range(1, b + 3 - s):
        tiles.append(Tile(TriCell(a + i - 2, -i, DOWN),
                          TriCell(a + i - 1, -i, UP)))
    tiles.append(Tile(TriCell(a + b + 1 - s, s - b - 3, DOWN),
                      TriCell(a + b + 1 - s, s - b - 3, UP)))
    for i in range(b + 3 - s, b + 3):
        tiles.append(Tile(TriCell(a + i - 1, -i - 1, DOWN),
                          TriCell(a + i - 1, -i, UP)))

    # bottom strip (row v = -b-c-4 plus the r notch)
    for j in range(0, a + 2 - r):
        tiles.append(Tile(TriCell(a + b + 1 - j, -b - c - 4, DOWN),
                          TriCell(a + b + 1 - j, -b - c - 4, UP)))
    tiles.append(Tile(TriCell(b + r - 1, -b - c - 4, DOWN),
                      TriCell(b + r - 1, -b - c - 3, UP)))
    for j in range(a + 3 - r, a + 3):
        tiles.append(Tile(TriCell(a + b + 1 - j, -b - c - 4, DOWN),
                          TriCell(a + b + 2 - j, -b - c - 4, UP)))

    return Tiling(build_full_region(p), tuple(sorted(tiles)))


def tiling_to_plane_partition(tiling: Tiling) -> PlanePartition:
    """Read a full-hexagon tiling as a plane partition in the
    (a+2) x (b+2) x (c+2) box.

    The full hexagon carries a+2 paths of its own (running start k =
    (k-1, c+k+2) to (b+1+k, k)); entry j of row a+1-k is the height of
    path k during its (j+1)-th right step, minus k.
    """
    if tiling.region.kind != "full":
        raise ValueError("plane-partition extraction needs a full-hexagon "
                         "tiling; see extend_to_full_hexagon")
    p = tiling.region.params
    a, b, c = p.a, p.b, p.c
    paths = _trace_paths(tiling, (
        (LatticePoint(k - 1, c + k + 2), LatticePoint(b + 1 + k, k))
        for k in range(a + 2)
    ))
    rows = [
        tuple(pos.y - k for pos, nxt in pairwise(path.vertices)
              if nxt.x == pos.x + 1)
        for k, path in enumerate(paths)
    ]
    return PlanePartition(tuple(reversed(rows)))


_SQRT3_2 = math.sqrt(3.0) / 2.0

_FILL = {FLAT: "#9e9e9e", RISING: "#cfcfcf", FALLING: "#ffffff"}
_STROKE = "#333333"


def _render_xy(pt: LatticePoint) -> tuple[float, float]:
    return (pt.x * _SQRT3_2, pt.y + pt.x / 2.0)


def render_svg(target: Tiling | Region) -> str:
    """Deterministic SVG for a tiling (one polygon per tile, shaded by
    lean) or a bare region (one polygon per cell).

    Unit edge length, vertices on the (sqrt(3)/2, 1/2) grid, fixed
    6-decimal coordinates, polygons in sorted order.
    """
    if isinstance(target, Tiling):
        region = target.region
        polygons = [
            (tuple(_quad_corners(tile)), _FILL[tile.lean])
            for tile in target.tiles
        ]
    else:
        region = target
        polygons = [
            (cell.vertices(), _FILL[FALLING]) for cell in sorted(region.cells)
        ]
    points = [_render_xy(p) for cell in region.cells for p in cell.vertices()]
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    margin = 0.5
    width = max(xs) - min(xs) + 2 * margin
    height = max(ys) - min(ys) + 2 * margin
    x0 = min(xs) - margin
    y1 = max(ys) + margin

    def fmt(pt: LatticePoint) -> str:
        x, y = _render_xy(pt)
        return f"{x - x0:.6f},{y1 - y:.6f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width:.6f} {height:.6f}" '
        f'width="{width * 40:.0f}" height="{height * 40:.0f}">',
    ]
    for corners, fill in polygons:
        pts = " ".join(fmt(p) for p in corners)
        lines.append(
            f'<polygon points="{pts}" fill="{fill}" '
            f'stroke="{_STROKE}" stroke-width="0.03" '
            f'stroke-linejoin="round"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _quad_corners(tile: Tile) -> list[LatticePoint]:
    down_verts = set(tile.down.vertices())
    up_verts = set(tile.up.vertices())
    shared = sorted(down_verts & up_verts)
    apex_down = next(iter(down_verts - up_verts))
    apex_up = next(iter(up_verts - down_verts))
    return [apex_down, shared[0], apex_up, shared[1]]
