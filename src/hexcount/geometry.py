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
sort and hash as tuples do.  A caller's are validated when constructed
and by ``_replace`` (a cell's u and v are kept as plain ints and its
orientation is 'up' or 'down', a tile's cells an adjacent down/up
pair); the region builder, the tiles of a tiling and the bijections
build theirs unchecked, valid as built.

A Tiling holds one lean code per entry of its region's sorted down
cells (0 flat, 1 rising, 2 falling) and derives its tiles on demand;
both constructors check the codes by one set test of integer partner
keys.  The bijections, extension and renderer work on the codes alone,
through one per-column table of the down cells, (lowest, highest,
base), that gives a down cell's index as base + height.

A region's cells are built column by column by integer inequalities on
each candidate cell's (u, v); its sorted down cells, column table and
keys are its own cached properties.  All depend on the sides (a, b, c)
alone, so a small cache keeps them per shape; a working region removes
its three notches, up cells all, from the shape's cells and up keys.
A region keeps its SVG frame (the header and the text of each column x
and height h = 2y + x) and each tile's polygon line once formatted, so
a tiling's SVG is one lookup per tile.  The full hexagon's frame and
lines are its shape's, shared by every (r, s, t); a notch may move a
working region's frame, so each working region keeps its own.

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
from operator import add
from typing import Iterable, NamedTuple, Sequence

from .exact import _integer
from .lgv import HexagonParams, LatticePoint, _unchecked, _validating_make
from .oracle import PathFamily, PlanePartition, _family

UP = "up"
DOWN = "down"
# A cell's three vertices as offsets from (u, v), by orientation.
_CELL_CORNERS = {UP: ((0, 0), (1, 0), (0, 1)), DOWN: ((1, 0), (0, 1), (1, 1))}

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
    _make = _validating_make

    def __new__(cls, u: int, v: int, orientation: str) -> TriCell:
        if orientation not in (UP, DOWN):
            raise ValueError(f"orientation must be 'up' or 'down', "
                             f"got {orientation!r}")
        u, v = (_integer("a cell coordinate", w, -math.inf) for w in (u, v))
        return tuple.__new__(cls, (u, v, orientation))

    def vertices(self) -> tuple[LatticePoint, LatticePoint, LatticePoint]:
        u, v, o = self
        return tuple(LatticePoint(u + dx, v + dy) for dx, dy in _CELL_CORNERS[o])


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
    _make = _validating_make

    def __new__(cls, down: TriCell, up: TriCell) -> Tile:
        down, up = TriCell(*down), TriCell(*up)
        if down.orientation != DOWN or up.orientation != UP:
            raise ValueError("a tile pairs one down cell with one up cell")
        if (up.u - down.u, up.v - down.v) not in _PARTNER_OFFSETS:
            raise ValueError(f"cells {down} and {up} are not adjacent")
        return tuple.__new__(cls, (down, up))

    @property
    def lean(self) -> str:
        """'flat', 'rising', or 'falling' (appearance in the rendered frame)."""
        return _PARTNER_OFFSETS[(self.up.u - self.down.u, self.up.v - self.down.v)]


@dataclass(frozen=True)
class Region:
    """A finite set of lattice cells, either the working ('notched')
    region or the full hexagon.  A caller's params and cells are checked,
    and kept as the cache's HexagonParams and a frozenset of TriCells."""

    kind: str
    params: HexagonParams
    cells: frozenset[TriCell]

    def __post_init__(self) -> None:
        if self.kind not in ("notched", "full"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        object.__setattr__(self, "params", HexagonParams(*self.params))
        object.__setattr__(self, "cells", frozenset(TriCell(*c) for c in self.cells))

    @cached_property
    def down_cells(self) -> tuple[TriCell, ...]:
        """The region's down cells, sorted."""
        return tuple(sorted(cell for cell in self.cells
                            if cell.orientation == DOWN))

    @cached_property
    def _keys(self) -> tuple[int, tuple[int, ...], frozenset[int]]:
        """(k, each down cell's key u*k + v, the up cells' keys); k is 2 more
        than the span of v over the cells and notches, so no key aliases."""
        vs = [v for _, v, _ in (*self.cells, *notch_cells(self.params))]
        k = max(vs) - min(vs) + 2
        return (k, tuple(u * k + v for u, v, _ in self.down_cells),
                frozenset(u * k + v for u, v, o in self.cells if o == UP))

    @cached_property
    def _polygons(self) -> list[str | None]:
        """render_svg's line for code c on down_cells[i] at 3i + c, once formatted."""
        return [None] * (3 * len(self.down_cells))

    @cached_property
    def _svg_frame(self) -> tuple[str, dict[int, str], dict[int, str]]:
        """render_svg's header line, and the text of each column x and of
        each height h = 2y + x in its view box.  A cell's vertices have x
        in u..u+1 and h in 2v+u..2v+u+2, one more for a down cell; a
        vertex renders at (x * sqrt(3)/2, h/2), and h/2 is y + x/2 exactly."""
        if not self.cells:
            raise ValueError("cannot render a region with no cells")
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
    def _endpoints(self) -> tuple[tuple[LatticePoint, LatticePoint], ...]:
        """The (P_i, Q_i) pairs of the region's parameters."""
        return tuple(zip(self.params.starts, self.params.ends))

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
        work = _build_region_cached(self.params, "notched")
        pairs = work._endpoints
        walks = [[(-1, c + 2 - k) for k in range(t + 1)] + [pairs[0][0]],
                 [(a + k, a + c + 3) for k in range(b + 3 - s)] + [pairs[-1][0]]]
        walks += [(q, (q.x + 1, q.y) if i < r else (q.x, q.y - 1))
                  for i, (_, q) in enumerate(pairs)]
        spans = tuple((base + lo, base + hi + 1, self._tables[x][2] + lo)
                      for x, (lo, hi, base) in work._tables.items())
        return bytes(_lay_tiles(self, walks)), spans


def notch_cells(p: HexagonParams | Sequence[int]) -> tuple[TriCell, TriCell, TriCell]:
    """The three removed up cells, in the order (t side, s side, r side).

    The t notch sits on the upper-left long side, t cells from its top;
    the s notch on the upper-right long side, s cells from the top; the
    r notch on the bottom side, r cells from the left.
    """
    a, b, c, r, s, t = HexagonParams(*p)  # checked ints: the cells are valid as built
    return tuple([tuple.__new__(TriCell, (u, v, UP)) for u, v in (
        (-1, -t - 1), (a + b + 1 - s, s - b - 3), (b + r - 1, -b - c - 3))])


@lru_cache(maxsize=16)  # eight shapes of each kind; holds no tuple's region
def _shape(a: int, b: int, c: int, kind: str) -> dict[str, object]:
    # The fields of the (a, b, c) region of this kind before any notch is
    # cut: the cells whose vertices satisfy -1 <= x <= a+b+2, -b-c-3 <= y
    # <= 0 and -c-4 <= x+y <= a-1.  The full hexagon reaches one lattice
    # step further on the lower bounds of x and y and on the upper bound
    # of x+y.  A cell's vertices have x in u..u+1 and y in v..v+1, which
    # the ranges of u and v keep in bounds, and x+y in u+v+d..u+v+d+1, d =
    # 0 up and 1 down, which bound v.  Cells and region are built
    # unchecked: orientation and kind are literal.  The region's own
    # properties derive the rest with r = s = t = 1: _tables reads only
    # c, and the cells hold every notch of every (r, s, t), so _keys' span
    # is theirs.  The full hexagon keeps its notches: its frame and lines
    # are the shape's too.
    step = 1 if kind == "full" else 0
    x_lo, y_lo, sum_hi = -1 - step, -b - c - 3 - step, a - 1 + step
    cells = frozenset([tuple.__new__(TriCell, (u, v, o)) for u in range(x_lo, a + b + 2)
                       for d, o in ((0, UP), (1, DOWN)) for v in range(
                           max(y_lo, -c - 4 - u - d), min(0, sum_hi - u - d))])
    params = HexagonParams(a, b, c, 1, 1, 1)
    region = _unchecked(Region, kind=kind, params=params, cells=cells)
    region.down_cells, region._tables, region._keys
    if kind == "full":  # filled here, so that the shape's tuples share them
        region._svg_frame, region._polygons
    return vars(region)


@lru_cache(maxsize=4)  # a tuple's traffic is its working and full regions
def _build_region_cached(p: HexagonParams, kind: str) -> Region:
    # The shape's fields, and for the working region its cells and up keys
    # minus the notches.  Callers check p first: 1.0 == 1, so an unchecked
    # tuple could hit its int twin.
    fields = {**_shape(p.a, p.b, p.c, kind), "params": p}
    if kind == "notched":
        notches, (k, downs, ups) = notch_cells(p), fields["_keys"]
        fields["cells"] = fields["cells"].difference(notches)
        fields["_keys"] = (k, downs, ups.difference(u * k + v for u, v, _ in notches))
    return _unchecked(Region, **fields)


def build_region(p: HexagonParams | Sequence[int]) -> Region:
    """The working region: the notched hexagon that the path families tile."""
    return _build_region_cached(HexagonParams(*p), "notched")


def build_full_region(p: HexagonParams | Sequence[int]) -> Region:
    """The full a+2, c+2, b+2, a+2, c+2, b+2 hexagon."""
    return _build_region_cached(HexagonParams(*p), "full")


def _partitions(region: Region, leans: bytes | bytearray) -> bool:
    """Whether the codes, one 0, 1 or 2 per down cell, pair the down cells
    one to one with the region's up cells: as many up cells as down
    cells, and distinct partner up cells, all in region.cells (by key)."""
    k, downs, ups = region._keys
    if (len(leans) != len(downs) or max(leans, default=0) > 2
            or len(region.cells) != 2 * len(downs)):
        return False
    partners = set(map(add, downs, map((k, 0, 1).__getitem__, leans)))
    return len(partners) == len(downs) and partners <= ups


@dataclass(frozen=True, init=False)
class Tiling:
    """A rhombus tiling of a region, as one lean code per entry of
    region.down_cells.  Tiling(region, tiles) is the public constructor:
    tiles must be sorted and must partition the region's cells exactly."""

    region: Region
    leans: bytes

    def __init__(self, region: Region, tiles: Iterable[Tile]) -> None:
        checked = []  # each a Tile, so plain (down, up) cell pairs will do
        for i, tile in enumerate(tiles):
            try:
                down, up = tile
            except (TypeError, ValueError):
                raise TypeError(f"tile {i} must be a (down, up) pair, "
                                f"got {tile!r}") from None
            checked.append(Tile(down, up))
        if (tiles := tuple(checked)) != tuple(sorted(tiles)):
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
        return _unchecked(cls, region=region, leans=bytes(leans))

    @cached_property
    def tiles(self) -> tuple[Tile, ...]:
        """The tiles in sorted order, from the codes: adjacent pairs, unchecked."""
        return tuple(tuple.__new__(Tile, (down, tuple.__new__(TriCell, (
            down.u + du, down.v + dv, UP)))) for down, (du, dv) in zip(
                self.region.down_cells, map(_OFFSETS.__getitem__, self.leans)))


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
    region = _build_region_cached(family.config, "notched")
    return Tiling._from_leans(region, _lay_tiles(
        region, (path.vertices for path in family.paths)))


def _trace_paths(
    tiling: Tiling, endpoints: Iterable[tuple[tuple[int, int], tuple[int, int]]]
) -> list[list[tuple[int, int]]]:
    """Follow one path per (start, end) pair across the tiling, as a list
    of (x, y) pairs: a flat tile is a right step, a rising tile a down
    step, and a path stops where it leaves the region.  Traces that meet
    coincide from there on, so the check of distinct ends proves them disjoint."""
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
    """Inverse of paths_to_tiling.  Requires a working-region tiling.  The
    family is valid as traced (see _trace_paths), so built unchecked."""
    if tiling.region.kind != "notched":
        raise ValueError("path extraction needs a working-region tiling")
    region = tiling.region
    return _family(region.params, _trace_paths(tiling, region._endpoints))


def extend_to_full_hexagon(tiling: Tiling) -> Tiling:
    """Extend a working-region tiling to the full hexagon.

    The border strips are forced: Region._border lays their codes once
    per full region by the path-step rule along three border walks, and
    the tiles on the notch cells are the fixed border tiles.  The working
    codes are copied into that template column by column, with no sort.
    """
    if tiling.region.kind != "notched":
        raise ValueError("extension needs a working-region tiling")
    full = _build_region_cached(tiling.region.params, "full")
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
    its (j+1)-th right step, minus k: valid, as the paths are disjoint."""
    if tiling.region.kind != "full":
        raise ValueError("plane-partition extraction needs a full-hexagon "
                         "tiling; see extend_to_full_hexagon")
    a, b, c = tiling.region.params[:3]
    paths = _trace_paths(tiling, (((k - 1, c + k + 2), (b + 1 + k, k))
                                  for k in range(a + 2)))
    rows = [tuple(y - k for (x, y), (nx, _) in pairwise(path) if nx == x + 1)
            for k, path in enumerate(paths)]
    return _unchecked(PlanePartition, rows=tuple(reversed(rows)))


_SQRT3_2 = math.sqrt(3.0) / 2.0

# The four corners of a tile as offsets from its down cell D(u, v), by
# lean: the down cell's apex, the shared vertex that sorts first, the up
# cell's apex, the other shared vertex.  _SHAPES has them, by lean code,
# and _CELLS a bare cell's three, by orientation, as (x, h) offsets from
# (u, 2v + u), each with its fill.
_QUAD_CORNERS = {
    FLAT: ((0, 1), (1, 0), (2, 0), (1, 1)),
    RISING: ((1, 1), (0, 1), (0, 0), (1, 0)),
    FALLING: ((1, 0), (0, 1), (0, 2), (1, 1)),
}
_FILL = {FLAT: "#9e9e9e", RISING: "#cfcfcf", FALLING: "#ffffff"}
_SHAPES = tuple((tuple((dx, 2 * dy + dx) for dx, dy in _QUAD_CORNERS[lean]),
                 _FILL[lean]) for lean in _LEANS)
_CELLS = {o: (tuple((dx, 2 * dy + dx) for dx, dy in corners), _FILL[FALLING])
          for o, corners in _CELL_CORNERS.items()}
_STYLE = 'stroke="#333333" stroke-width="0.03" stroke-linejoin="round"/>'


def _polygon(xt: dict[int, str], ht: dict[int, str], u: int, h: int,
             corners: Sequence[tuple[int, int]], fill: str) -> str:
    """The polygon line of the corners, (x, h) offsets from (u, h)."""
    points = " ".join([f"{xt[u + dx]},{ht[h + dh]}" for dx, dh in corners])
    return f'<polygon points="{points}" fill="{fill}" {_STYLE}'


def render_svg(target: Tiling | Region) -> str:
    """Deterministic SVG for a tiling (one polygon per tile, shaded by
    lean) or a bare region (one polygon per cell).

    Unit edge length, vertices on the (sqrt(3)/2, 1/2) grid, fixed
    6-decimal coordinates, polygons in sorted order, each line from
    _polygon.  The frame (view box, and the text of each column and
    height) is computed once per region (per shape for the full hexagon)
    and kept on it, and so is each tile's line once a render first draws
    it (Region._polygons); a bare region's are not.
    """
    region = target.region if isinstance(target, Tiling) else target
    header, xt, ht = region._svg_frame
    if region is target:  # a bare region: one polygon per cell, formatted per call
        lines = [_polygon(xt, ht, u, 2 * v + u, *_CELLS[o])
                 for u, v, o in sorted(region.cells)]
    else:
        slots = region._polygons
        used = list(map(add, range(0, len(slots), 3), target.leans))
        if None in map(slots.__getitem__, used):
            for (u, v, _), code, slot in zip(region.down_cells, target.leans, used):
                if slots[slot] is None:
                    slots[slot] = _polygon(xt, ht, u, 2 * v + u, *_SHAPES[code])
        lines = map(slots.__getitem__, used)
    return "\n".join([header, *lines, "</svg>"]) + "\n"
