"""End-to-end acceptance checks.

Everything here works on exact integers and demands exact equality;
there are no tolerances anywhere.
"""

import itertools
import time
from collections import Counter

from hexcount.closedform import (
    HOLDS,
    all_params,
    count_macmahon_box,
    count_propp,
    count_theorem1,
    det_inner_closed,
    det_m00_closed,
    identity_checks,
)
from hexcount.geometry import (
    build_region,
    extend_to_full_hexagon,
    paths_to_tiling,
    render_svg,
    tiling_to_paths,
    tiling_to_plane_partition,
)
from hexcount.lgv import (
    HexagonParams,
    build_matrix_M,
    det_condensation,
    det_elimination,
    minor,
)
from hexcount.oracle import (
    LatticePoint,
    MonotonePath,
    PathFamily,
    enumerate_constrained_pp,
    enumerate_path_families,
    enumerate_plane_partitions_box,
)


def test_all_five_methods_agree_on_the_small_sweep():
    start = time.monotonic()
    instances = 0
    for params in all_params(2, 2, 2):
        reference = count_theorem1(params)
        matrix = build_matrix_M(*params)
        assert det_elimination(matrix) == reference, params
        assert det_condensation(matrix) == reference, params
        assert enumerate_path_families(params) == reference, params
        assert enumerate_constrained_pp(params) == reference, params
        instances += 1
    elapsed = time.monotonic() - start
    assert instances == (2 + 3 + 4) ** 3
    assert elapsed < 300, f"sweep took {elapsed:.0f}s"


def test_symmetric_special_case_matches_the_general_count():
    for n in range(4):
        params = (2 * n, 2 * n, 2 * n, n + 1, n + 1, n + 1)
        assert count_propp(n) == count_theorem1(params)
    assert count_propp(0) == enumerate_path_families((0, 0, 0, 1, 1, 1))
    assert count_propp(1) == enumerate_path_families((2, 2, 2, 2, 2, 2))


def test_box_counting_formula_matches_enumeration():
    assert count_macmahon_box(1, 1, 1) == 2
    assert count_macmahon_box(2, 2, 2) == 20
    for a, b, c in itertools.product(range(4), repeat=3):
        assert enumerate_plane_partitions_box(a, b, c) == count_macmahon_box(
            a, b, c
        ), (a, b, c)


def test_minor_closed_forms_match_elimination():
    for a in range(1, 5):
        for b in range(5):
            for c in range(5):
                for r in range(1, a + 2):
                    matrix = build_matrix_M(a, b, c, r, 1, 1)
                    inner = minor(matrix, (0, a + 1), (0, a + 1))
                    assert det_inner_closed(a, b, c, r) == det_elimination(
                        inner
                    ), (a, b, c, r)
                for r in range(1, a + 3):
                    for s in range(1, b + 3):
                        matrix = build_matrix_M(a, b, c, r, s, 1)
                        first = minor(matrix, (0,), (0,))
                        assert det_m00_closed(a, b, c, r, s) == det_elimination(
                            first
                        ), (a, b, c, r, s)


def test_identity_suite_has_zero_failures():
    # the suite `hexcount identities` runs, on sides and grids up to 3
    # and with random polynomial points in -100..100
    totals = Counter()
    checked = 0
    for name, case, holds in identity_checks(3, 100, 20260814):
        assert holds, (name, str(case))
        totals[name] += 1
        if name == "minor-relabelling":
            checked += list(case.statuses.values()).count(HOLDS)
    assert totals == {
        "desnanot-jacobi": 2 * 100,
        "factorisation-lemma": 50,
        "assembly-identity": 4**6 + 100,
        "minor-step-identity": 4**4 + 100,
        "minor-relabelling": (2 + 3 + 4 + 5) ** 3,
    }
    assert checked > 0


def worked_example_family():
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


def test_bijections_round_trip_losslessly():
    # every family on the small sweep survives paths -> tiling -> paths
    for params in all_params(2, 2, 2):

        def round_trip(family):
            assert tiling_to_paths(paths_to_tiling(family)) == family

        enumerate_path_families(params, emit=round_trip)

    # on a smaller grid, the extended tilings reproduce the constrained
    # plane partitions exactly, as a multiset
    for params in all_params(1, 1, 1):
        arrays = []

        def collect(family):
            tiling = extend_to_full_hexagon(paths_to_tiling(family))
            arrays.append(tiling_to_plane_partition(tiling).rows)

        enumerate_path_families(params, emit=collect)
        expected = []
        enumerate_constrained_pp(params, emit=lambda pp: expected.append(pp.rows))
        assert Counter(arrays) == Counter(expected), params

    # fixed worked example: a specific tiling maps to a specific array
    tiling = paths_to_tiling(worked_example_family())
    pp = tiling_to_plane_partition(extend_to_full_hexagon(tiling))
    assert pp.to_text() == "3 2 2\n3 2 2\n2 2 0\n2 1 0"


def test_svg_rendering_is_wellformed_and_deterministic():
    family = worked_example_family()
    tiling = paths_to_tiling(family)
    svg = render_svg(tiling)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.rstrip().endswith("</svg>")
    region = build_region((2, 1, 1, 2, 2, 1))
    assert svg.count("<polygon") == len(region.cells) // 2 == 20
    rebuilt = paths_to_tiling(tiling_to_paths(tiling))
    assert render_svg(rebuilt) == svg
