import copy
import dataclasses
import gc
import hashlib
import itertools
import math
import pickle
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hexcount.closedform import HexagonParams, all_params, count_theorem1
from hexcount import geometry, oracle
from hexcount.geometry import (
    _QUAD_CORNERS,
    FALLING,
    FLAT,
    RISING,
    Region,
    Tile,
    Tiling,
    TriCell,
    _trace_paths,
    build_full_region,
    build_region,
    extend_to_full_hexagon,
    notch_cells,
    paths_to_tiling,
    render_svg,
    tiling_to_paths,
    tiling_to_plane_partition,
)
from hexcount.lgv import LatticePoint
from hexcount.oracle import (
    MonotonePath,
    PathFamily,
    PlanePartition,
    enumerate_constrained_pp,
    enumerate_path_families,
    family_to_line,
    iter_path_families,
)


def worked_example_family():
    """A specific tiling of the (2,1,1,2,2,1) region, fixed once."""
    def path(*points):
        return MonotonePath(tuple(LatticePoint(x, y) for x, y in points))

    return PathFamily(
        HexagonParams(2, 1, 1, 2, 2, 1),
        (
            path((0, 2), (0, 1), (1, 1), (1, 0)),
            path((0, 4), (0, 3), (1, 3), (2, 3), (2, 2), (2, 1)),
            path((1, 5), (2, 5), (2, 4), (3, 4), (4, 4), (4, 3)),
            path((3, 5), (4, 5), (5, 5), (5, 4)),
        ),
    )


# --------------------------------------------------------------------- cells

def test_tricell_vertices():
    up = TriCell(2, -3, "up")
    assert up.vertices() == (
        LatticePoint(2, -3), LatticePoint(3, -3), LatticePoint(2, -2)
    )
    down = TriCell(2, -3, "down")
    assert down.vertices() == (
        LatticePoint(3, -3), LatticePoint(2, -2), LatticePoint(3, -2)
    )
    assert set(up.vertices()) & set(down.vertices()) == {
        LatticePoint(3, -3), LatticePoint(2, -2)
    }
    with pytest.raises(ValueError):
        TriCell(0, 0, "sideways")


def test_tile_leans():
    down = TriCell(4, -2, "down")
    assert Tile(down, TriCell(5, -2, "up")).lean == FLAT
    assert Tile(down, TriCell(4, -2, "up")).lean == RISING
    assert Tile(down, TriCell(4, -1, "up")).lean == FALLING
    with pytest.raises(ValueError, match="not adjacent"):
        Tile(down, TriCell(6, -2, "up"))
    with pytest.raises(ValueError, match="one down cell"):
        Tile(TriCell(4, -2, "up"), TriCell(4, -2, "down"))


# ------------------------------------------------------------------- regions

def test_cells_and_tiles_validate_when_replaced():
    cell = TriCell(0, 0, "up")
    with pytest.raises(ValueError, match="orientation must be"):
        cell._replace(orientation="sideways")
    with pytest.raises(ValueError, match="orientation must be"):
        TriCell._make((0, 0, "sideways"))
    assert type(cell._replace(v=2)) is TriCell and cell._replace(v=2) == (0, 2, "up")
    tile = Tile(TriCell(0, 0, "down"), TriCell(0, 0, "up"))
    with pytest.raises(ValueError, match="not adjacent"):
        tile._replace(up=TriCell(9, 9, "up"))
    with pytest.raises(ValueError, match="one down cell"):
        Tile._make((cell, cell))
    assert tile._replace(up=TriCell(1, 0, "up")).lean == FLAT
    # a tile's cells may be plain tuples, and are kept as checked TriCells
    plain = Tile((0, 0, "down"), (1, 0, "up"))
    assert plain.lean == FLAT and [type(c) for c in plain] == [TriCell, TriCell]
    assert Tile._make([(0, 0, "down"), (0, 0, "up")]) == tile
    with pytest.raises(ValueError, match="orientation must be"):
        Tile((0, 0, "down"), (1, 0, "left"))
    with pytest.raises(TypeError, match="a cell coordinate must be an integer"):
        Tile((0, 0, "down"), (1.0, 0, "up"))


def test_region_sizes_worked_example():
    p = HexagonParams(2, 1, 1, 2, 2, 1)
    region = build_region(p)
    full = build_full_region(p)
    assert len(region.cells) == 40
    assert len(full.cells) == 66
    ups = sum(1 for cell in region.cells if cell.orientation == "up")
    assert ups == len(region.cells) - ups  # tileable: equal up/down counts


def test_region_minimal_case():
    region = build_region((0, 0, 0, 1, 1, 1))
    assert len(region.cells) == 6


def test_notches_are_outside_the_region_but_inside_the_full_hexagon():
    p = HexagonParams(2, 1, 1, 2, 2, 1)
    region = build_region(p)
    full = build_full_region(p)
    for cell in notch_cells(p):
        assert cell not in region.cells
        assert cell in full.cells
    assert region.cells < full.cells
    with pytest.raises(ValueError, match=r"^position r must be in 1\.\.2, got 9$"):
        notch_cells((0, 0, 0, 9, 1, 1))
    with pytest.raises(TypeError, match=r"^side a must be an integer, got 0\.5$"):
        notch_cells((0.5, 0, 0, 1, 1, 1))


@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_region_size_matches_path_count(a, b, c, data):
    # every tiling has one flat/rising tile per path step plus falling
    # filler, and the region size is independent of r, s, t
    r = data.draw(st.integers(min_value=1, max_value=a + 2))
    s = data.draw(st.integers(min_value=1, max_value=b + 2))
    t = data.draw(st.integers(min_value=1, max_value=c + 2))
    region = build_region((a, b, c, r, s, t))
    full = build_full_region((a, b, c, r, s, t))
    hexagon_cells = 2 * ((a + 2) * (b + 2) + (b + 2) * (c + 2) + (c + 2) * (a + 2))
    assert len(full.cells) == hexagon_cells
    strips = (a + 3) + (b + 3) + (c + 3)
    assert len(region.cells) == hexagon_cells - 2 * strips


def test_region_cache_keeps_only_recent_regions():
    # each tuple's traffic is its working region and its full hexagon, so
    # the cache holds a few regions, not every region ever built
    refs = [weakref.ref(build(p)) for p in all_params(2, 2, 2)
            for build in (build_region, build_full_region)]
    gc.collect()
    alive = sum(ref() is not None for ref in refs)
    bound = geometry._build_region_cached.cache_info().maxsize
    assert len(refs) == 1458
    assert bound is not None and alive <= bound, (alive, bound)


def test_region_rejects_unknown_kind():
    p = HexagonParams(0, 0, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        Region("oval", p, frozenset())
    # a caller's params are checked, and kept as the cache's HexagonParams
    with pytest.raises(TypeError, match="position t must be an integer"):
        Region("notched", (0, 0, 0, 1, 1, 1.0), frozenset())
    assert type(Region("full", (0, 0, 0, 1, 1, 1), frozenset()).params) is HexagonParams
    # and a caller's cells are checked, and kept as a frozenset of TriCells
    tiling = paths_to_tiling(next(iter_path_families(p)))
    cells = tiling.region.cells
    for given in (list(cells), [tuple(cell) for cell in cells]):
        region = Region("notched", p, given)
        assert type(region.cells) is frozenset and region.cells == cells
        assert all(type(cell) is TriCell for cell in region.cells)
        assert Tiling(region, tiling.tiles).leans == tiling.leans
    with pytest.raises(ValueError, match="orientation must be 'up' or 'down'"):
        Region("notched", p, [(0, 0, "left")])
    # a cell's coordinates are checked, and kept as plain ints
    float_cell = "a cell coordinate must be an integer, got -?[0-9]+\\.0"
    with pytest.raises(TypeError, match=float_cell):
        Region("notched", p, [(float(u), v, o) for u, v, o in cells])
    with pytest.raises(TypeError, match="a cell coordinate must be an integer"):
        TriCell(0, Fraction(1), "up")
    flags = TriCell(True, False, "up")
    assert flags == (1, 0, "up") and [type(w) for w in flags] == [int, int, str]
    with pytest.raises(TypeError, match="a cell coordinate must be an integer"):
        TriCell(0, 0, "down")._replace(u=0.5)


def test_region_names_a_malformed_cell():
    p = (0, 0, 0, 1, 1, 1)
    with pytest.raises(TypeError, match=r"^cell 0 must be a \(u, v, orientation\) "
                                        r"triple, got 5$"):
        Region("full", p, [5])
    with pytest.raises(TypeError, match=r"^cell 0 must be a \(u, v, orientation\) "
                                        r"triple, got \(0, 0\)$"):
        Region("full", p, [(0, 0)])
    with pytest.raises(TypeError, match=r"^cell 1 must be a \(u, v, orientation\) "
                                        r"triple, got \(0, 0, 'up', 1\)$"):
        Region("full", p, [(0, 0, "up"), (0, 0, "up", 1)])
    # a cell of three fields keeps its own checks
    with pytest.raises(TypeError, match="a cell coordinate must be an integer"):
        Region("full", p, [(0.5, 0, "up")])
    assert Region("full", p, [[0, 0, "up"]]).cells == {TriCell(0, 0, "up")}


def reference_cells(a, b, c, kind):
    """The cells of the (a, b, c) hexagon, notches not yet removed, by
    testing every vertex of every candidate cell against -1 <= x <= a+b+2,
    -b-c-3 <= y <= 0 and -c-4 <= x+y <= a-1 (one step wider on the
    lower bounds of x and y and the upper bound of x+y for the full
    hexagon)."""
    step = 1 if kind == "full" else 0
    x_lo, y_lo, sum_hi = -1 - step, -b - c - 3 - step, a - 1 + step
    return frozenset(
        cell
        for u in range(x_lo, a + b + 2)
        for v in range(y_lo, 0)
        for cell in (TriCell(u, v, "up"), TriCell(u, v, "down"))
        if all(x_lo <= x <= a + b + 2 and y_lo <= y <= 0
               and -c - 4 <= x + y <= sum_hi for x, y in cell.vertices())
    )


def test_region_builder_and_frame_match_every_vertex():
    # sides <= 5, with r, s and t each at both ends of their ranges: the
    # cells and down cells equal the vertex-by-vertex reference, and the
    # frame's header and coordinate strings equal float formatting of
    # each vertex at (x * sqrt(3)/2, y + x/2)
    sqrt3_2 = math.sqrt(3.0) / 2.0
    for a, b, c in itertools.product(range(6), repeat=3):
        hexagons = {kind: reference_cells(a, b, c, kind)
                    for kind in ("notched", "full")}
        for r, s, t in itertools.product((1, a + 2), (1, b + 2), (1, c + 2)):
            p = HexagonParams(a, b, c, r, s, t)
            for region in (build_region(p), build_full_region(p)):
                cells = hexagons[region.kind]
                if region.kind == "notched":
                    cells = cells - set(notch_cells(p))
                assert region.cells == cells
                assert region.down_cells == tuple(sorted(
                    cell for cell in cells if cell.orientation == "down"))
                points = {pt for cell in cells for pt in cell.vertices()}
                xs = [x * sqrt3_2 for x, _ in points]
                ys = [y + x / 2.0 for x, y in points]
                width = max(xs) - min(xs) + 1.0
                height = max(ys) - min(ys) + 1.0
                x0, y1 = min(xs) - 0.5, max(ys) + 0.5
                header, xtext, htext = region._svg_frame
                assert header == (
                    f'<svg xmlns="http://www.w3.org/2000/svg" '
                    f'viewBox="0 0 {width:.6f} {height:.6f}" '
                    f'width="{width * 40:.0f}" height="{height * 40:.0f}">')
                assert set(xtext) == {x for x, _ in points}
                assert set(htext) == {2 * y + x for x, y in points}
                for x, y in points:
                    assert xtext[x] == f"{x * sqrt3_2 - x0:.6f}"
                    assert htext[2 * y + x] == f"{y1 - (y + x / 2.0):.6f}"


# ------------------------------------------------------------------- tilings

def test_tiling_must_partition_region():
    family = worked_example_family()
    tiling = paths_to_tiling(family)
    with pytest.raises(ValueError, match="partition"):
        Tiling(tiling.region, tiling.tiles[:-1])
    with pytest.raises(ValueError, match="sorted"):
        Tiling(tiling.region, tuple(reversed(tiling.tiles)))
    assert Tiling(tiling.region, iter(tiling.tiles)) == tiling
    # plain (down, up) cell pairs build the same tiling; a non-pair is named
    plain = [(tuple(down), tuple(up)) for down, up in tiling.tiles]
    assert Tiling(tiling.region, plain) == tiling
    for bad in (5, (tiling.tiles[0].down,)):
        with pytest.raises(TypeError, match="tile 1 must be a \\(down, up\\) pair"):
            Tiling(tiling.region, [tiling.tiles[0], bad, *tiling.tiles[2:]])


def test_derived_tiles_are_pinned_and_rebuild_the_tiling():
    # one sha256 over repr(tiling.tiles) of every working tiling with
    # sides <= 1 and of its extension (930 of each), taken when tilings
    # still stored their tiles; the public constructor, given those
    # tiles, rebuilds an equal tiling
    digest = hashlib.sha256()
    tilings = 0
    for p in all_params(1, 1, 1):
        for family in iter_path_families(p):
            tiling = paths_to_tiling(family)
            extended = extend_to_full_hexagon(tiling)
            for t in (tiling, extended):
                digest.update(repr(t.tiles).encode())
                assert Tiling(t.region, t.tiles) == t
            tilings += 1
    assert tilings == 930
    assert digest.hexdigest() == (
        "53fb42e89dd3d646e6b33e35dad3c79cf8700d056a17fddb7807f407dcdcf5b7")


def test_public_constructor_refuses_every_non_partition():
    tiling = paths_to_tiling(worked_example_family())
    region, tiles = tiling.region, tiling.tiles
    # one tile moved to another adjacent up cell: that cell is covered
    # twice or lies outside the region, and one up cell is left bare
    for i, tile in enumerate(tiles):
        u, v = tile.down.u, tile.down.v
        for du, dv in {(1, 0), (0, 0), (0, 1)} - {(tile.up.u - u, tile.up.v - v)}:
            moved = Tile(tile.down, TriCell(u + du, v + dv, "up"))
            with pytest.raises(ValueError, match="partition"):
                Tiling(region, tiles[:i] + (moved,) + tiles[i + 1:])
    # one tile listed twice and the next one missing
    for i in range(len(tiles) - 1):
        with pytest.raises(ValueError, match="partition"):
            Tiling(region, tiles[:i + 1] + tiles[i:i + 1] + tiles[i + 2:])
    # a region with one more up cell than the tiles can cover
    wider = Region(region.kind, region.params,
                   region.cells | {TriCell(-5, 0, "up")})
    with pytest.raises(ValueError, match="partition"):
        Tiling(wider, tiles)
    with pytest.raises(ValueError, match="partition"):
        Tiling._from_leans(wider, tiling.leans)


def test_internal_constructor_checks_the_partition():
    tiling = paths_to_tiling(worked_example_family())
    region, leans = tiling.region, tiling.leans
    assert Tiling._from_leans(region, leans) == tiling
    # changing any one code uncovers the up cell it paired with
    for i, code in enumerate(leans):
        for other in {0, 1, 2} - {code}:
            flipped = leans[:i] + bytes([other]) + leans[i + 1:]
            with pytest.raises(ValueError, match="partition"):
                Tiling._from_leans(region, flipped)
    for bad in (leans[:-1], leans + b"\2", leans[:-1] + b"\3"):
        with pytest.raises(ValueError, match="partition"):
            Tiling._from_leans(region, bad)


def reference_partitions(region, leans):
    """The rule the partner keys replaced: build each down cell's partner
    up cell as a (u, v, 'up') tuple and test the set against region.cells."""
    downs = region.down_cells
    if (len(leans) != len(downs) or max(leans, default=0) > 2
            or len(region.cells) != 2 * len(downs)):
        return False
    offsets = ((1, 0), (0, 0), (0, 1))
    ups = {(u + offsets[k][0], v + offsets[k][1], "up")
           for (u, v, _), k in zip(downs, leans)}
    return len(ups) == len(downs) and ups <= region.cells


def test_partner_keys_give_the_cell_rule_verdict():
    # every working and full tiling with sides <= 1, each single-code
    # flip of it, and its codes cut by one, extended by one and ending in
    # code 3: the key check and the cell rule agree.  So they do on
    # caller-built regions with one far-off up cell more and, for the
    # first tiling of each tuple, with one in place of each of its own up
    # cells U(u, v): far off, or U(u - 1, v + k), which has the key u*k + v
    # under the built region's k, the width of its rows.  The caller's
    # region takes its k from its own cells, so the swap is seen
    far = (TriCell(-5, 0, "up"), TriCell(0, -10**6, "up"))
    verdicts = 0
    for p in all_params(1, 1, 1):
        wider = {}
        for i, family in enumerate(iter_path_families(p)):
            tiling = paths_to_tiling(family)
            for t in (tiling, extend_to_full_hexagon(tiling)):
                region, leans = t.region, t.leans
                variants = [leans, leans[:-1], leans + b"\0", leans[:-1] + b"\3"]
                variants += [leans[:j] + bytes([other]) + leans[j + 1:]
                             for j, code in enumerate(leans)
                             for other in {0, 1, 2} - {code}]
                checks = [(region, codes) for codes in variants]
                if region.kind not in wider:
                    wider[region.kind] = [Region(region.kind, p, region.cells | {cell})
                                          for cell in far]
                checks += [(r, codes) for r in wider[region.kind] for codes in variants[:4]]
                if i == 0:
                    k = region._keys[0]
                    checks += [(Region(region.kind, p, region.cells - {up} | {cell}), leans)
                               for up in region.cells if up.orientation == "up"
                               for cell in (*far, TriCell(up.u - 1, up.v + k, "up"))]
                for r, codes in checks:
                    verdict = geometry._partitions(r, codes)
                    assert verdict == reference_partitions(r, codes), (p, codes)
                    verdicts += verdict
    assert verdicts == 1860  # each tiling on its own region, and nothing else


def test_shape_values_equal_the_properties_of_a_caller_built_region():
    # the builder takes down_cells, _tables and _keys, and the full
    # hexagon's frame, from the values shared by the tuples of one (a, b,
    # c); a caller-built region with the same cells derives each from its
    # own cells and params, and gets the same values
    for p in all_params(2, 2, 2):
        for region in (build_region(p), build_full_region(p)):
            twin = Region(region.kind, p, region.cells)
            names = ["down_cells", "_tables", "_keys"]
            names += ["_svg_frame"] * (region.kind == "full")
            for name in names:
                assert name in vars(region) and name not in vars(twin)
                assert getattr(region, name) == getattr(twin, name), (p, region.kind, name)


def test_shape_cache_is_bounded_and_keeps_no_region_alive():
    assert geometry._shape.cache_info().maxsize is not None
    refs = [weakref.ref(build(p)) for p in all_params(1, 1, 1) if p[:3] == (1, 1, 1)
            for build in (build_region, build_full_region)]
    geometry._build_region_cached.cache_clear()
    gc.collect()
    assert geometry._shape.cache_info().currsize > 0
    assert [ref() for ref in refs] == [None] * 54


def test_column_tables_index_every_down_cell_once():
    # a path at vertex (x, y) crosses the down cell D(x-1, y-x-c-4); the
    # table of each region gives that cell's index in down_cells
    for p in all_params(2, 2, 2):
        for region in (build_region(p), build_full_region(p)):
            entries = region._tables
            indices = sorted(base + y for lo, hi, base in entries.values()
                             for y in range(lo, hi + 1))
            assert indices == list(range(len(region.down_cells)))
            for i, (u, v, _) in enumerate(region.down_cells):
                x, y = u + 1, v + u + 1 + p[2] + 4
                lo, hi, base = entries[x]
                assert lo <= y <= hi and base + y == i


def test_round_trip_worked_example():
    family = worked_example_family()
    tiling = paths_to_tiling(family)
    assert len(tiling.tiles) == 20
    assert tiling_to_paths(tiling) == family
    flats = sum(1 for tile in tiling.tiles if tile.lean == FLAT)
    rises = sum(1 for tile in tiling.tiles if tile.lean == RISING)
    total_steps = sum(len(p.vertices) - 1 for p in family.paths)
    assert flats + rises == total_steps


def test_extension_adds_the_three_border_strips():
    p = HexagonParams(2, 1, 1, 2, 2, 1)
    tiling = paths_to_tiling(worked_example_family())
    extended = extend_to_full_hexagon(tiling)
    assert extended.region.kind == "full"
    assert len(extended.tiles) == 33
    assert set(tiling.tiles) < set(extended.tiles)
    # each notch cell is absorbed by exactly one new tile
    added = set(extended.tiles) - set(tiling.tiles)
    for cell in notch_cells(p):
        owners = [tile for tile in added if cell in tile]
        assert len(owners) == 1


def test_extension_is_deterministic_and_position_dependent():
    family = worked_example_family()
    ext1 = extend_to_full_hexagon(paths_to_tiling(family))
    ext2 = extend_to_full_hexagon(paths_to_tiling(family))
    assert ext1 == ext2

    def border(family):
        tiling = paths_to_tiling(family)
        return set(extend_to_full_hexagon(tiling).tiles) - set(tiling.tiles)

    # the border tiles depend on the tuple alone, never on the tiling ...
    p = HexagonParams(2, 1, 1, 2, 2, 1)
    borders = {frozenset(border(f)) for f in iter_path_families(p)}
    assert len(borders) == 1
    # ... and each of r, s and t alone moves them
    (base,) = borders
    for i, top in ((3, p.a + 2), (4, p.b + 2), (5, p.c + 2)):
        for value in range(1, top + 1):
            q = list(p)
            if value != q[i]:
                q[i] = value
                assert border(next(iter_path_families(q))) != base, q


def test_plane_partition_of_worked_example():
    tiling = paths_to_tiling(worked_example_family())
    pp = tiling_to_plane_partition(extend_to_full_hexagon(tiling))
    assert pp.rows == ((3, 2, 2), (3, 2, 2), (2, 2, 0), (2, 1, 0))
    assert pp.to_text() == "3 2 2\n3 2 2\n2 2 0\n2 1 0"


def _walk(*corners):
    """The unit-step walk through the given points, each leg along one
    axis (right or down)."""
    points = [corners[0]]
    for corner in corners[1:]:
        while points[-1] != corner:
            x, y = points[-1]
            points.append(LatticePoint(x + (corner.x > x), y - (corner.y < y)))
    return MonotonePath(tuple(points))


def test_full_hexagon_paths_are_the_working_paths_with_border_walks():
    # on every tiling with sides <= 1, the full hexagon's own paths, traced
    # across the extension, are the working paths lengthened to the full
    # hexagon's end points: path 0 down the left border then right onto
    # P_0, path a+1 right along the top then down onto P_{a+1}, and every
    # path one step on from Q_i
    tilings = 0
    for p in all_params(1, 1, 1):
        a, b, c = p[:3]
        ends = [(LatticePoint(k - 1, c + k + 2), LatticePoint(b + 1 + k, k))
                for k in range(a + 2)]
        for family in iter_path_families(p):
            expected = []
            for k, (path, (start, end)) in enumerate(zip(family.paths, ends)):
                first = path.vertices[0]
                corner = (LatticePoint(start.x, first.y) if k == 0
                          else LatticePoint(first.x, start.y))
                expected.append(_walk(start, corner, *path.vertices, end))
            extended = extend_to_full_hexagon(paths_to_tiling(family))
            assert _trace_paths(extended, ends) == [list(w.vertices) for w in expected]
            tilings += 1
    assert tilings == sum(count_theorem1(p) for p in all_params(1, 1, 1)) == 930


def test_wrong_region_kinds_are_rejected():
    tiling = paths_to_tiling(worked_example_family())
    extended = extend_to_full_hexagon(tiling)
    with pytest.raises(ValueError, match="working-region"):
        tiling_to_paths(extended)
    with pytest.raises(ValueError, match="full-hexagon"):
        tiling_to_plane_partition(tiling)
    with pytest.raises(ValueError, match="working-region"):
        extend_to_full_hexagon(extended)


def test_traced_paths_must_end_at_their_ends():
    # a notched region built by hand from the full hexagon's cells: the
    # traces run on along the border walks, past the working ends
    tiling = paths_to_tiling(worked_example_family())
    full = build_full_region(tiling.region.params)
    fake = Region("notched", full.params, full.cells)
    with pytest.raises(ValueError, match=re.escape(
            "path from (0, 2) ends at (2, 0), expected (1, 0)")):
        tiling_to_paths(Tiling._from_leans(fake, extend_to_full_hexagon(tiling).leans))
    # public constructors reach a falling tile: the working cells of
    # t = 2 under the parameters of t = 1 move P_0 down onto one
    tiling = paths_to_tiling(next(iter_path_families((0, 0, 0, 1, 1, 2))))
    fake = Region("notched", HexagonParams(0, 0, 0, 1, 1, 1), tiling.region.cells)
    with pytest.raises(ValueError, match=re.escape(
            "falling tile blocks the path at (0, 1)")):
        tiling_to_paths(Tiling(fake, tiling.tiles))


def test_every_producer_output_passes_the_public_checks():
    # the producers build paths, families, cells, tiles and plane
    # partitions unchecked; rebuilt through the public constructors,
    # every one of them on the sides <= 1 sweep is accepted and equal
    def checked(family):
        return PathFamily(family.config,
                          tuple(MonotonePath(path.vertices) for path in family.paths))

    def check_pp(pp):
        assert PlanePartition(pp.rows) == pp

    tilings = 0
    for p in all_params(1, 1, 1):
        for region in (build_region(p), build_full_region(p)):
            assert region.cells == {TriCell(*cell) for cell in region.cells}
        for family in iter_path_families(p):
            assert checked(family) == family
            tiling = paths_to_tiling(family)
            back = tiling_to_paths(tiling)
            assert checked(back) == back
            extended = extend_to_full_hexagon(tiling)
            for t in (tiling, extended):
                assert all(Tile(*tile) == tile for tile in t.tiles)
            check_pp(tiling_to_plane_partition(extended))
            tilings += 1
        enumerate_constrained_pp(p, emit=check_pp)
    assert tilings == 930


def public_twin(family):
    """The family rebuilt through the public constructor from plain pairs."""
    return PathFamily(family.config,
                      [[tuple(v) for v in path.vertices] for path in family.paths])


def emitted_and_traced(p):
    """Each family of p as the search emits it and as tiling_to_paths
    traces it back, both unread."""
    return [(family, tiling_to_paths(paths_to_tiling(family)))
            for family in iter_path_families(p)]


def test_producer_families_equal_their_public_twins():
    # a family from the search or from tiling_to_paths equals, both ways,
    # the public family with the same paths and hashes like it, and no
    # other; equality is by config and walks, so the same walks under
    # another config make another family
    families = 0
    for p in all_params(1, 1, 1):
        twins = [public_twin(family) for family in iter_path_families(p)]
        pairs = emitted_and_traced(p)
        for i, pair in enumerate(pairs):
            for family in pair:
                assert family == twins[i] and twins[i] == family
                assert hash(family) == hash(twins[i])
                assert all(family != twin for j, twin in enumerate(twins) if j != i)
            families += 1
        assert len(set(twins) | {f for pair in pairs for f in pair}) == len(twins)
    assert families == 930
    family = next(iter_path_families((1, 1, 1, 1, 1, 1)))
    moved = oracle._family(HexagonParams(1, 1, 1, 1, 1, 2), family._walks)
    assert moved != family and family != moved


def test_a_family_never_equals_a_tuple():
    family, back = emitted_and_traced((2, 1, 1, 2, 2, 1))[0]
    twin = public_twin(family)
    for f in (family, back, twin):
        for other in ((f.config, f._walks), f._walks, tuple(f.paths),
                      (f.config, f.paths)):
            assert f != other and other != f
            assert f.__eq__(other) is NotImplemented


def test_family_paths_are_made_once_as_public_types():
    for family in emitted_and_traced((2, 1, 1, 2, 2, 1))[5]:
        assert "paths" not in vars(family)
        paths = family.paths
        assert family.paths is paths and vars(family)["paths"] is paths
        assert type(paths) is tuple and all(type(path) is MonotonePath for path in paths)
        assert all(type(v) is LatticePoint for path in paths for v in path.vertices)
        assert family == public_twin(family)


def test_unread_families_copy_and_pickle_equal():
    for family in emitted_and_traced((2, 1, 1, 2, 2, 1))[7]:
        copies = [copy.copy(family), copy.deepcopy(family),
                  pickle.loads(pickle.dumps(family))]
        assert "paths" not in vars(family)
        for twin in copies:
            assert type(twin) is PathFamily and twin == family and hash(twin) == hash(family)
            assert twin.paths == public_twin(family).paths


def test_replace_checks_the_family():
    family = next(iter_path_families((2, 1, 1, 2, 2, 1)))
    assert dataclasses.replace(family) == family
    with pytest.raises(ValueError, match="starts at"):
        dataclasses.replace(family, config=HexagonParams(2, 1, 1, 2, 2, 2))
    with pytest.raises(ValueError, match="expected 4 paths"):
        dataclasses.replace(family, paths=family.paths[:-1])


def test_the_round_trip_makes_no_paths():
    # paths -> tiling -> paths reads the walks alone: neither family
    # makes its paths
    for p in all_params(1, 1, 1):
        for family, back in emitted_and_traced(p):
            assert back == family
            assert "paths" not in vars(family) and "paths" not in vars(back)


@pytest.mark.parametrize("call, message", [
    (lambda: paths_to_tiling(5), r"^family must be a PathFamily, got 5$"),
    (lambda: paths_to_tiling([[(0, 1), (0, 0)]]),
     r"^family must be a PathFamily, got \[\[\(0, 1\), \(0, 0\)\]\]$"),
    (lambda: tiling_to_paths(5), r"^tiling must be a Tiling, got 5$"),
    (lambda: tiling_to_paths(build_region((1, 1, 1, 1, 1, 1))),
     r"^tiling must be a Tiling, got Region\("),
    (lambda: family_to_line(5), r"^family must be a PathFamily, got 5$"),
    (lambda: family_to_line("0 1,0 0"), r"^family must be a PathFamily, got '0 1,0 0'$"),
    (lambda: extend_to_full_hexagon(5), r"^tiling must be a Tiling, got 5$"),
    (lambda: tiling_to_plane_partition(5), r"^tiling must be a Tiling, got 5$"),
    (lambda: tiling_to_plane_partition(build_full_region((0, 0, 0, 1, 1, 1))),
     r"^tiling must be a Tiling, got Region\("),
    (lambda: render_svg(5), r"^target must be a Tiling or a Region, got 5$"),
    (lambda: render_svg((0, 0, 0, 1, 1, 1)),
     r"^target must be a Tiling or a Region, got \(0, 0, 0, 1, 1, 1\)$"),
    (lambda: oracle.parse_family_line(5, (0, 0, 0, 1, 1, 1)), r"^line must be a str, got 5$"),
    (lambda: oracle.parse_family_line(b"0 1,0 0", (0, 0, 0, 1, 1, 1)),
     r"^line must be a str, got b'0 1,0 0'$"),
], ids=["to-tiling", "to-tiling-list", "to-paths", "to-paths-region", "line", "line-str",
        "extend", "to-pp", "to-pp-region", "render", "render-params", "parse", "parse-bytes"])
def test_bijections_name_an_argument_of_the_wrong_type(call, message):
    with pytest.raises(TypeError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: Tiling(build_region((1, 1, 1, 1, 1, 1)), 5),
     r"^tiles must be a sequence of tiles, got 5$"),
    (lambda: Tiling(5, []), r"^region must be a Region, got 5$"),
    (lambda: Tiling("x", []), r"^region must be a Region, got 'x'$"),
    (lambda: Region("full", (0, 0, 0, 1, 1, 1), 5), r"^cells must be a sequence of cells, got 5$"),
], ids=["tiles", "region-int", "region-str", "cells"])
def test_tiling_and_region_name_a_bad_argument(call, message):
    with pytest.raises(TypeError, match=message):
        call()


@given(
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
    st.data(),
)
@settings(max_examples=20, deadline=None)
def test_round_trips_small(a, b, c, data):
    r = data.draw(st.integers(min_value=1, max_value=a + 2))
    s = data.draw(st.integers(min_value=1, max_value=b + 2))
    t = data.draw(st.integers(min_value=1, max_value=c + 2))
    params = (a, b, c, r, s, t)

    def round_trip(family):
        tiling = paths_to_tiling(family)
        assert tiling_to_paths(tiling) == family
        pp = tiling_to_plane_partition(extend_to_full_hexagon(tiling))
        maxima = sum(1 for v in pp.rows[0] if v == c + 2)
        zeros = sum(1 for row in pp.rows if row[-1] == 0)
        assert maxima == b + 2 - s
        assert zeros == r
        assert pp.rows[-1][0] == c + 2 - t

    n = enumerate_path_families(params, emit=round_trip)
    assert n == count_theorem1(params)


# ----------------------------------------------------------------- rendering

COORD = re.compile(r"-?\d+\.\d{6},-?\d+\.\d{6}")


def test_first_sides_24_family_round_trips():
    family = next(iter_path_families((24, 24, 24, 1, 1, 1)))
    assert sum(len(path.vertices) for path in family.paths) == 1324
    tiling = paths_to_tiling(family)
    assert len(tiling.tiles) == 1947
    assert tiling_to_paths(tiling) == family


def test_render_tiling_svg_shape():
    tiling = paths_to_tiling(worked_example_family())
    svg = render_svg(tiling)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polygon") == 20
    for match in re.finditer(r'points="([^"]+)"', svg):
        pts = match.group(1).split()
        assert len(pts) == 4
        assert all(COORD.fullmatch(p) for p in pts)


def test_render_region_svg_uses_triangles():
    region = build_region((2, 1, 1, 2, 2, 1))
    svg = render_svg(region)
    assert svg.count("<polygon") == 40
    first = re.search(r'points="([^"]+)"', svg)
    assert len(first.group(1).split()) == 3
    # a region with no cells, bare or under its empty tiling, is refused by name
    empty = Region("notched", (2, 1, 1, 2, 2, 1), ())
    for target in (empty, Tiling(empty, ())):
        with pytest.raises(ValueError, match="^cannot render a region with no cells$"):
            render_svg(target)


def test_render_is_deterministic():
    family = worked_example_family()
    svg1 = render_svg(paths_to_tiling(family))
    svg2 = render_svg(paths_to_tiling(tiling_to_paths(paths_to_tiling(family))))
    assert svg1 == svg2



def test_render_bytes_are_pinned():
    # sha256 digests of the renderer's output on the worked example, for
    # the working-region tiling, its full-hexagon extension and the bare
    # working region; any change to coordinates, order or styling shows
    tiling = paths_to_tiling(worked_example_family())
    digests = [
        hashlib.sha256(render_svg(target).encode()).hexdigest()
        for target in (tiling, extend_to_full_hexagon(tiling),
                       build_region((2, 1, 1, 2, 2, 1)))
    ]
    assert digests == [
        "63ad7c34ed26541faa9e2ba1da9152d34d67f50a55985f14b777477ece804ff0",
        "8015bf295702c6f10b78ed9d9fcd5b4818ba689f5f3b1e09a4254e912555f80b",
        "53db1237a1d0da0b6f086d7568715ee8bd52ed0cf4357e9d43c273961da1e5f0",
    ]


def test_render_bytes_are_pinned_on_a_sweep():
    # one sha256 over both bare regions and every tiling, with its
    # extension, of each shape-(1, 1, 1) tuple with r, s, t in 1..3:
    # 54 region SVGs and 1,170 tiling SVGs
    digest = hashlib.sha256()
    tilings = 0
    for r, s, t in itertools.product(range(1, 4), repeat=3):
        p = HexagonParams(1, 1, 1, r, s, t)
        digest.update(render_svg(build_region(p)).encode())
        digest.update(render_svg(build_full_region(p)).encode())
        for family in iter_path_families(p):
            tiling = paths_to_tiling(family)
            digest.update(render_svg(tiling).encode())
            digest.update(render_svg(extend_to_full_hexagon(tiling)).encode())
            tilings += 2
    assert tilings == 1170
    assert digest.hexdigest() == (
        "fcfee2c56b1ebb881ee25d75c26edd3ebf58afe8a2a2a0691e4c8507340da72d")


def test_extension_bytes_are_pinned_on_every_sides_2_tuple():
    # one sha256 over the rendered extension of the first tiling of each
    # of the 729 tuples with sides <= 2; the border strips depend on the
    # tuple alone, so this pins every strip layout with sides <= 2
    digest = hashlib.sha256()
    tuples = 0
    for p in all_params(2, 2, 2):
        tiling = paths_to_tiling(next(iter_path_families(p)))
        digest.update(render_svg(extend_to_full_hexagon(tiling)).encode())
        tuples += 1
    assert tuples == 729
    assert digest.hexdigest() == (
        "c2a432974c111b94c5f86349ea3b6bf12417693d4ee6eb48e919656993a434a6")


def test_render_order_does_not_change_the_bytes():
    # a region keeps each tile's polygon line once formatted; every tuple
    # with sides <= 1 renders its full tilings in enumeration order, the
    # bare full region, then the tilings in reverse, on one cached full
    # region, and each tiling's bytes equal a render on a fresh region
    for p in all_params(1, 1, 1):
        geometry._build_region_cached.cache_clear()
        fulls = [extend_to_full_hexagon(paths_to_tiling(family))
                 for family in iter_path_families(p)]
        cold = [render_svg(Tiling(Region("full", p, t.region.cells), t.tiles))
                for t in fulls]
        assert len({id(t.region) for t in fulls}) == 1
        forward = [render_svg(t) for t in fulls]
        bare = render_svg(fulls[0].region)
        backward = [render_svg(t) for t in reversed(fulls)]
        assert forward == cold and backward == cold[::-1]
        assert bare == render_svg(Region("full", p, fulls[0].region.cells))


def test_tuple_order_does_not_change_the_bytes():
    # the tuples of one shape share its full hexagon's polygon lines; from
    # cold caches, each shape with sides <= 1 renders the full tilings of
    # its tuples in enumeration order, then in reverse tuple order, and
    # each tiling's bytes equal a cold render on a caller-built twin
    for a, b, c in itertools.product(range(2), repeat=3):
        geometry._build_region_cached.cache_clear()
        geometry._shape.cache_clear()
        tuples = [p for p in all_params(a, b, c) if p[:3] == (a, b, c)]
        fulls = {p: [extend_to_full_hexagon(paths_to_tiling(family))
                     for family in iter_path_families(p)] for p in tuples}
        polygons = fulls[tuples[0]][0].region._polygons
        assert all(t.region._polygons is polygons for ts in fulls.values() for t in ts)
        cold = {p: [render_svg(Tiling(Region("full", p, t.region.cells), t.tiles))
                    for t in ts] for p, ts in fulls.items()}
        for order in (tuples, tuples[::-1]):
            for p in order:
                assert [render_svg(t) for t in fulls[p]] == cold[p], p


def test_quad_corner_table_matches_the_cell_vertices():
    # corners in order: the down cell's apex, the shared vertex that sorts
    # first, the up cell's apex, the other shared vertex
    down = TriCell(0, 0, "down")
    for up in (TriCell(1, 0, "up"), TriCell(0, 0, "up"), TriCell(0, 1, "up")):
        tile = Tile(down, up)
        down_verts, up_verts = set(down.vertices()), set(up.vertices())
        first, second = sorted(down_verts & up_verts)
        (apex_down,), (apex_up,) = down_verts - up_verts, up_verts - down_verts
        assert [LatticePoint(*corner) for corner in _QUAD_CORNERS[tile.lean]] \
            == [apex_down, first, apex_up, second]
    assert sorted(_QUAD_CORNERS) == sorted([FLAT, RISING, FALLING])

def test_render_vertices_on_half_grid():
    # up to the 0.5 margin, coordinates are multiples of sqrt(3)/2 and 1/2
    import math

    svg = render_svg(paths_to_tiling(worked_example_family()))
    xs, ys = set(), set()
    for match in COORD.finditer(svg):
        x_str, y_str = match.group(0).split(",")
        xs.add(float(x_str) - 0.5)
        ys.add(float(y_str) - 0.5)
    sx = math.sqrt(3) / 2
    for x in xs:
        assert abs(x / sx - round(x / sx)) < 1e-4
    for y in ys:
        assert abs(y / 0.5 - round(y / 0.5)) < 1e-9


def test_tile_names_a_malformed_cell():
    up = TriCell(0, 0, "up")
    with pytest.raises(TypeError, match=r"^the down cell must be a \(u, v, orientation\) "
                                        r"triple, got 5$"):
        Tile(5, up)
    with pytest.raises(TypeError, match=r"^the down cell must be a \(u, v, orientation\) "
                                        r"triple, got \(0, 0\)$"):
        Tile((0, 0), up)
    with pytest.raises(TypeError, match=r"^the up cell must be a \(u, v, orientation\) "
                                        r"triple, got \(0, 0, 'up', 1\)$"):
        Tile((0, 0, "down"), (0, 0, "up", 1))
    # a cell of three fields keeps its own checks
    with pytest.raises(TypeError, match="a cell coordinate must be an integer"):
        Tile((0.5, 0, "down"), up)
    assert Tile((0, 0, "down"), [0, 0, "up"]).lean == RISING
