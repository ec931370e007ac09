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

A Tiling holds one lean code per entry of its region's sorted down
cells (0 flat, 1 rising, 2 falling) and derives its tiles on demand;
both constructors check the codes by one set test against region.cells.
The bijections, extension and renderer work on the codes alone, through
one per-column table of the down cells, (lowest, highest, base), that
gives a down cell's index as base + height in O(columns) memory.

A region is built by integer inequalities on each candidate cell's
(u, v), and keeps its SVG frame: the header and the text of each column
x and each height h = 2y + x, formatted once, so rendering a tiling
formats no float.

Two regions matter here.  The working region is a hexagon with side
lengths a, c+3, b, a+3, c, b+3 (clockwise from the top side) minus one
up cell on each of the three long sides; the removed cells sit at
positions t, s, r along those sides and leave notches.  Tilings of the
working region biject with the nonintersecting path families counted by
the rest of the package: a flat tile is a right step, an up-leaning
tile a down step.  The full region is the surrounding a+2, c+2, b+2,
a+2, c+2, b+2 hexagon.  A working tiling extends to it uniquely: the
same path-step rule lays the three border strips along border walks
that lengthen the working paths, and the tiles on the notch cells are
the fixed border tiles that the position parameters pin.  Tilings of
the full hexagon are read off as plane partitions in the (a+2) x
(b+2) x (c+2) box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import pairwise
from typing import Iterable, NamedTuple, Sequence

from .lgv import HexagonParams, LatticePoint, PointConfiguration, _point, \
    build_point_configuration
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
# Lean code k is _LEANS[k]: the up cell sits _OFFSETS[k] from the down cell.
_OFFSETS = tuple(_PARTNER_OFFSETS)
_LEANS = tuple(_PARTNER_OFFSETS.values())


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

    @cached_property
    def down_cells(self) -> tuple[TriCell, ...]:
        """The region's down cells, sorted."""
        return tuple(sorted(cell for cell in self.cells
                            if cell.orientation == DOWN))

    @cached_property
    def _svg_frame(self) -> tuple[str, dict[int, str], dict[int, str]]:
        """render_svg's header line, and the text of each column x and of
        each height h = 2y + x in its view box.  A cell's vertices have x
        in u..u+1 and h in 2v+u..2v+u+2, one more for a down cell; a
        vertex renders at (x * sqrt(3)/2, h/2), and h/2 is y + x/2 exactly."""
        us = [u for u, _, _ in self.cells]
        hs = [2 * v + u + (o == DOWN) for u, v, o in self.cells]
        x_lo, x_hi, h_lo, h_hi = min(us), max(us) + 1, min(hs), max(hs) + 2
        margin = 0.5
        width = x_hi * _SQRT3_2 - x_lo * _SQRT3_2 + 2 * margin
        height = h_hi / 2.0 - h_lo / 2.0 + 2 * margin
        header = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                  f'viewBox="0 0 {width:.6f} {height:.6f}" '
                  f'width="{width * 40:.0f}" height="{height * 40:.0f}">')
        x0, y1 = x_lo * _SQRT3_2 - margin, h_hi / 2.0 + margin
        return (header,
                {x: f"{x * _SQRT3_2 - x0:.6f}" for x in range(x_lo, x_hi + 1)},
                {h: f"{y1 - h / 2.0:.6f}" for h in range(h_lo, h_hi + 1)})

    @cached_property
    def _config(self) -> PointConfiguration:
        """The path end points P_i and Q_i of the region's parameters."""
        return build_point_configuration(*self.params)

    @cached_property
    def _tables(self) -> dict[int, tuple[int, int, int]]:
        """The down-cell table {x: (lowest y, highest y, base)}: a path at
        vertex (x, y) = (u+1, u+v+c+5) crosses D(u, v) = down_cells[base
        + y]; a column's down cells are consecutive there and in y."""
        c5, table = self.params.c + 5, {}
        for i, (u, v, _) in enumerate(self.down_cells):
            y = u + v + c5
            lo, _, base = table.get(u + 1, (y, y, i - y))
            table[u + 1] = (lo, y, base)
        return table

    @cached_property
    def _border(self) -> tuple[bytes, tuple[tuple[int, int, int], ...]]:
        """A full hexagon's codes outside the working region, and the
        (start, stop, to) spans that copy the working codes [start:stop]
        into it at to, one per column.  The border codes are the path-step
        rule along the border walks.  Path 0 comes down t steps from
        (-1, c+2) and steps right onto P_0 (the t notch); path a+1 takes
        b+2-s right steps from (a, a+c+3) and steps down onto P_{a+1}
        (the s notch); path i leaves Q_i by a right step if i < r, else by
        a down step, so the r notch gets a falling tile."""
        a, b, c, r, s, t = self.params
        work = build_region(self.params)
        first, last = work._config.starts[0], work._config.starts[-1]
        walks = [[(-1, c + 2 - k) for k in range(t + 1)] + [first],
                 [(a + k, a + c + 3) for k in range(b + 3 - s)] + [last]]
        walks += [(q, (q.x + 1, q.y) if i < r else (q.x, q.y - 1))
                  for i, q in enumerate(work._config.ends)]
        spans = tuple((base + lo, base + hi + 1, self._tables[x][2] + lo)
                      for x, (lo, hi, base) in work._tables.items())
        return bytes(_lay_tiles(self, walks)), spans


def notch_cells(p: HexagonParams) -> tuple[TriCell, TriCell, TriCell]:
    """The three removed up cells, in the order (t side, s side, r side).

    The t notch sits on the upper-left long side, t cells from its top;
    the s notch on the upper-right long side, s cells from the top; the
    r notch on the bottom side, r cells from the left.
    """
    a, b, c, r, s, t = p
    return (
        TriCell(-1, -t - 1, UP),
        TriCell(a + b + 1 - s, s - b - 3, UP),
        TriCell(b + r - 1, -b - c - 3, UP),
    )


@lru_cache(maxsize=4)  # a tuple's traffic is its working and full regions
def _build_region_cached(key: tuple[int, ...], kind: str) -> Region:
    # The cells whose vertices satisfy -1 <= x <= a+b+2, -b-c-3 <= y <= 0
    # and -c-4 <= x+y <= a-1, minus the notches.  The full hexagon reaches
    # one lattice step further on the lower bounds of x and y and on the
    # upper bound of x+y, and keeps the notches.  A cell's vertices have x
    # in u..u+1 and y in v..v+1, which the ranges of u and v keep in
    # bounds, and x+y in u+v+d..u+v+d+1, d = 0 up and 1 down.  Keyed on
    # the plain 6-tuple, so a hit builds no HexagonParams; a miss validates.
    p = HexagonParams(*key)
    a, b, c = p.a, p.b, p.c
    step = 1 if kind == "full" else 0
    x_lo, y_lo, sum_hi = -1 - step, -b - c - 3 - step, a - 1 + step
    cells = {
        TriCell(u, v, orientation)
        for u in range(x_lo, a + b + 2)
        for v in range(y_lo, 0)
        for orientation, d in ((UP, 0), (DOWN, 1))
        if -c - 4 <= u + v + d < sum_hi
    }
    if kind == "notched":
        for cell in notch_cells(p):
            if cell not in cells:
                raise AssertionError(f"notch cell {cell} not inside the hexagon")
            cells.remove(cell)
    return Region(kind, p, frozenset(cells))


def build_region(p: HexagonParams | Sequence[int]) -> Region:
    """The working region: the notched hexagon that the path families tile."""
    return _build_region_cached(tuple(p), "notched")


def build_full_region(p: HexagonParams | Sequence[int]) -> Region:
    """The full a+2, c+2, b+2, a+2, c+2, b+2 hexagon."""
    return _build_region_cached(tuple(p), "full")


def _partitions(region: Region, leans: bytes | bytearray) -> bool:
    """Whether the codes, one 0, 1 or 2 per down cell, pair the down cells
    one to one with the region's up cells: as many up cells as down
    cells, and distinct partner up cells, all in region.cells."""
    downs = region.down_cells
    if (len(leans) != len(downs) or max(leans, default=0) > 2
            or len(region.cells) != 2 * len(downs)):
        return False
    ups = {(u + _OFFSETS[k][0], v + _OFFSETS[k][1], UP)
           for (u, v, _), k in zip(downs, leans)}
    return len(ups) == len(downs) and ups <= region.cells


@dataclass(frozen=True, init=False)
class Tiling:
    """A rhombus tiling of a region, as one lean code per entry of
    region.down_cells.  Tiling(region, tiles) is the public constructor:
    tiles must be sorted and must partition the region's cells exactly."""

    region: Region
    leans: bytes

    def __init__(self, region: Region, tiles: Sequence[Tile]) -> None:
        if list(tiles) != sorted(tiles):
            raise ValueError("tiles must be listed in sorted order")
        leans = bytes(_LEANS.index(tile.lean) for tile in tiles)
        if ([tile.down for tile in tiles] != list(region.down_cells)
                or not _partitions(region, leans)):
            raise ValueError("tiles do not partition the region")
        vars(self).update(region=region, leans=leans)

    @classmethod
    def _from_leans(cls, region: Region, leans: bytes | bytearray) -> Tiling:
        """The internal builders' constructor, with no tiles and no sort:
        the same check as the public one, _partitions, on the codes."""
        if not _partitions(region, leans):
            raise ValueError("lean codes do not partition the region")
        tiling = object.__new__(cls)
        vars(tiling).update(region=region, leans=bytes(leans))
        return tiling

    @cached_property
    def tiles(self) -> tuple[Tile, ...]:
        """The tiles in sorted order, derived from the codes."""
        return tuple(Tile(down, TriCell(down.u + du, down.v + dv, UP))
                     for down, (du, dv) in zip(self.region.down_cells,
                                               map(_OFFSETS.__getitem__, self.leans)))


def _lay_tiles(region: Region,
               walks: Iterable[Sequence[tuple[int, int]]]) -> bytearray:
    """The path-step rule: each step of each walk of (x, y) pairs codes the
    down cell it crosses flat ahead of a right step and rising behind a
    down step (the code is the step's drop).  Every other down cell is
    falling."""
    entries = region._tables
    leans = bytearray(b"\2") * len(region.down_cells)
    for walk in walks:
        for (x, y), (_, ny) in pairwise(walk):
            leans[entries[x][2] + y] = y - ny
    return leans


def paths_to_tiling(family: PathFamily) -> Tiling:
    """Tiling of the working region encoded by a nonintersecting family:
    the path-step rule (_lay_tiles) along its paths."""
    cfg = family.config
    region = _build_region_cached((cfg.a, cfg.b, cfg.c, cfg.r, cfg.s, cfg.t), "notched")
    return Tiling._from_leans(region, _lay_tiles(
        region, (path.vertices for path in family.paths)))


def _trace_paths(
    tiling: Tiling, endpoints: Iterable[tuple[tuple[int, int], tuple[int, int]]]
) -> list[list[tuple[int, int]]]:
    """Follow one path per (start, end) pair across the tiling, as a list
    of (x, y) pairs: a flat tile is a right step, a rising tile a down
    step, and a path stops where it leaves the region."""
    entries, leans = tiling.region._tables, tiling.leans
    paths = []
    for (x, y), end in endpoints:
        vertices = [(x, y)]
        while (column := entries.get(x)) and column[0] <= y <= column[1]:
            code = leans[column[2] + y]
            if code == 2:
                raise ValueError(f"falling tile blocks the path at {(x, y)}")
            x, y = x + 1 - code, y - code
            vertices.append((x, y))
        if (x, y) != end:
            raise ValueError(f"path from {vertices[0]} ends at {(x, y)}, "
                             f"expected {tuple(end)}")
        paths.append(vertices)
    return paths


def tiling_to_paths(tiling: Tiling) -> PathFamily:
    """Inverse of paths_to_tiling.  Requires a working-region tiling."""
    if tiling.region.kind != "notched":
        raise ValueError("path extraction needs a working-region tiling")
    cfg = tiling.region._config
    paths = _trace_paths(tiling, zip(cfg.starts, cfg.ends))
    return PathFamily(cfg, tuple(MonotonePath(tuple(map(_point, path))) for path in paths))


def extend_to_full_hexagon(tiling: Tiling) -> Tiling:
    """Extend a working-region tiling to the full hexagon.

    The border strips are forced: Region._border lays their codes once
    per full region by the path-step rule along three border walks, and
    the tiles on the notch cells are the fixed border tiles.  The working
    codes are copied into that template column by column, with no sort.
    """
    if tiling.region.kind != "notched":
        raise ValueError("extension needs a working-region tiling")
    full = build_full_region(tiling.region.params)
    template, spans = full._border
    leans = bytearray(template)
    for start, stop, to in spans:
        leans[to:to + stop - start] = tiling.leans[start:stop]
    return Tiling._from_leans(full, leans)


def tiling_to_plane_partition(tiling: Tiling) -> PlanePartition:
    """Read a full-hexagon tiling as a plane partition in the
    (a+2) x (b+2) x (c+2) box.

    The full hexagon carries a+2 paths of its own (running start k =
    (k-1, c+k+2) to (b+1+k, k)), the working paths lengthened by the
    border walks; entry j of row a+1-k is the height of path k during
    its (j+1)-th right step, minus k.
    """
    if tiling.region.kind != "full":
        raise ValueError("plane-partition extraction needs a full-hexagon "
                         "tiling; see extend_to_full_hexagon")
    p = tiling.region.params
    a, b, c = p.a, p.b, p.c
    paths = _trace_paths(tiling, (((k - 1, c + k + 2), (b + 1 + k, k))
                                  for k in range(a + 2)))
    rows = [tuple(y - k for (x, y), (nx, _) in pairwise(path) if nx == x + 1)
            for k, path in enumerate(paths)]
    return PlanePartition(tuple(reversed(rows)))


_SQRT3_2 = math.sqrt(3.0) / 2.0

# The four corners of a tile as offsets from its down cell D(u, v), by
# lean: the down cell's apex, the shared vertex that sorts first, the up
# cell's apex, the other shared vertex.
_QUAD_CORNERS = {
    FLAT: ((0, 1), (1, 0), (2, 0), (1, 1)),
    RISING: ((1, 1), (0, 1), (0, 0), (1, 0)),
    FALLING: ((1, 0), (0, 1), (0, 2), (1, 1)),
}
_FILL = {FLAT: "#9e9e9e", RISING: "#cfcfcf", FALLING: "#ffffff"}
_SHAPES = tuple((_QUAD_CORNERS[lean], _FILL[lean]) for lean in _LEANS)


def render_svg(target: Tiling | Region) -> str:
    """Deterministic SVG for a tiling (one polygon per tile, shaded by
    lean) or a bare region (one polygon per cell).

    Unit edge length, vertices on the (sqrt(3)/2, 1/2) grid, fixed
    6-decimal coordinates, polygons in sorted order.  The frame (view
    box, and the text of each column and height) is computed once per
    region and kept on it; each call then does per-tile work only, and
    formats no float.
    """
    if isinstance(target, Tiling):
        region = target.region
        shapes = [(u, v, *_SHAPES[code]) for (u, v, _), code
                  in zip(region.down_cells, target.leans)]
    else:  # a cell's vertices are its corners' offsets from (0, 0)
        region = target
        shapes = [(0, 0, cell.vertices(), _FILL[FALLING])
                  for cell in sorted(region.cells)]
    header, xtext, htext = region._svg_frame
    lines = [header]
    for u, v, corners, fill in shapes:
        pts = [f"{xtext[u + dx]},{htext[2 * (v + dy) + u + dx]}"
               for dx, dy in corners]
        lines.append(
            f'<polygon points="{" ".join(pts)}" fill="{fill}" '
            f'stroke="#333333" stroke-width="0.03" '
            f'stroke-linejoin="round"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
