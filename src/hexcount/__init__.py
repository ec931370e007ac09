"""Exact counting of rhombus tilings of a hexagon with three fixed
border tiles.

The same number is computed three independent ways (closed-form
product, binomial determinant, brute-force enumeration), the
determinant identities behind the closed form are checked numerically,
and tilings can be rendered to SVG.
"""

from .closedform import (
    IdentityReport,
    check_final_identity,
    check_krattenthaler_lemma,
    check_lemma5_identity,
    check_relabelling_identities,
    count_macmahon_box,
    count_propp,
    count_theorem1,
    det_inner_closed,
    det_m00_closed,
)
from .exact import ExactInt, binomial, factorial, pochhammer, superfactorial
from .geometry import (
    Region,
    Tile,
    Tiling,
    TriCell,
    build_full_region,
    build_region,
    extend_to_full_hexagon,
    paths_to_tiling,
    render_svg,
    tiling_to_paths,
    tiling_to_plane_partition,
)
from .lgv import (
    CondensationStats,
    CountMatrix,
    HexagonParams,
    LatticePoint,
    build_matrix_M,
    count_paths,
    det_condensation,
    det_elimination,
    minor,
    verify_desnanot_jacobi,
)
from .oracle import (
    Budget,
    BudgetExceededError,
    MonotonePath,
    PathFamily,
    PlanePartition,
    enumerate_constrained_pp,
    enumerate_path_families,
    enumerate_plane_partitions_box,
    family_to_line,
    iter_path_families,
    parse_family_line,
)

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "BudgetExceededError",
    "CondensationStats",
    "CountMatrix",
    "ExactInt",
    "HexagonParams",
    "IdentityReport",
    "LatticePoint",
    "MonotonePath",
    "PathFamily",
    "PlanePartition",
    "Region",
    "Tile",
    "Tiling",
    "TriCell",
    "binomial",
    "build_full_region",
    "build_matrix_M",
    "build_region",
    "check_final_identity",
    "check_krattenthaler_lemma",
    "check_lemma5_identity",
    "check_relabelling_identities",
    "count_macmahon_box",
    "count_paths",
    "count_propp",
    "count_theorem1",
    "det_condensation",
    "det_elimination",
    "det_inner_closed",
    "det_m00_closed",
    "enumerate_constrained_pp",
    "enumerate_path_families",
    "enumerate_plane_partitions_box",
    "extend_to_full_hexagon",
    "factorial",
    "family_to_line",
    "iter_path_families",
    "minor",
    "parse_family_line",
    "paths_to_tiling",
    "pochhammer",
    "render_svg",
    "superfactorial",
    "tiling_to_paths",
    "tiling_to_plane_partition",
    "verify_desnanot_jacobi",
]
