import ast
import gc
import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hexcount.closedform import check_relabelling_identities, count_propp, count_theorem1
from hexcount.exact import binomial
from hexcount.geometry import build_full_region, build_region, extend_to_full_hexagon, \
    paths_to_tiling
from hexcount.lgv import HexagonParams
from hexcount.oracle import (
    PathFamily,
    enumerate_constrained_pp,
    enumerate_path_families,
    enumerate_plane_partitions_box,
    iter_path_families,
)
from hexcount.lgv import (
    CondensationStats,
    CountMatrix,
    LatticePoint,
    build_matrix_M,
    count_paths,
    det_condensation,
    det_elimination,
    minor,
    verify_desnanot_jacobi,
)


def det_leibniz(rows):
    """Reference determinant: sum over permutations (only sane for n <= 5)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = 1 if inversions % 2 == 0 else -1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


sparse_matrix = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from((0, 0, 0, 0, 0, 0, 1, -1, 2, -5, 13)),
                 min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)

small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


# ---------------------------------------------------------------- parameters

def test_validate_names_the_offending_parameter():
    with pytest.raises(ValueError, match="side b"):
        HexagonParams(0, -1, 0, 1, 1, 1)
    with pytest.raises(ValueError, match="position t"):
        HexagonParams(1, 1, 1, 1, 1, 4)
    with pytest.raises(ValueError, match="position r"):
        HexagonParams(1, 1, 1, 0, 1, 1)
    HexagonParams(0, 0, 0, 2, 2, 2)  # upper ends are inclusive


# ------------------------------------------------------------- configuration

def test_point_configuration_minimal_case():
    cfg = HexagonParams(0, 0, 0, 1, 1, 1)
    assert cfg.starts == (LatticePoint(0, 1), LatticePoint(1, 2))
    assert cfg.ends == (LatticePoint(0, 0), LatticePoint(2, 2))


def test_point_configuration_worked_example():
    cfg = HexagonParams(2, 1, 1, 2, 2, 1)
    assert cfg.starts == (
        LatticePoint(0, 2),
        LatticePoint(0, 4),
        LatticePoint(1, 5),
        LatticePoint(3, 5),
    )
    assert cfg.ends == (
        LatticePoint(1, 0),
        LatticePoint(2, 1),
        LatticePoint(4, 3),
        LatticePoint(5, 4),
    )


def test_count_paths_rectangle():
    assert count_paths(LatticePoint(0, 3), LatticePoint(2, 0)) == binomial(5, 3)
    assert count_paths(LatticePoint(0, 0), LatticePoint(0, 0)) == 1
    assert count_paths(LatticePoint(1, 0), LatticePoint(0, 0)) == 0  # left
    assert count_paths(LatticePoint(0, 0), LatticePoint(0, 1)) == 0  # up
    # any (x, y) pair will do, as for MonotonePath and PathFamily
    assert count_paths((0, 3), (2, 0)) == count_paths([0, 3], [2, 0]) == binomial(5, 3)
    assert count_paths((0, 0), (1, 0)) == 1
    assert count_paths([1, 0], [0, 0]) == 0  # left
    assert count_paths((True, 0), (2, False)) == 1  # a bool is an int
    for start, end, bad in (((0, 0), (1.5, 0), "1.5"), ((0.0, 1), (1, 0), "0.0")):
        with pytest.raises(TypeError, match=f"a path coordinate must be an integer, got {bad}"):
            count_paths(start, end)
    for start, end, bad in (((0, 0), (1,), "end"), ((0, 0), 5, "end"), (5, (0, 0), "start")):
        with pytest.raises(TypeError, match=f"path {bad} must be an \\(x, y\\) pair"):
            count_paths(start, end)


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
@settings(max_examples=100)
def test_matrix_entries_count_paths(a, b, c, data):
    r = data.draw(st.integers(min_value=1, max_value=a + 2))
    s = data.draw(st.integers(min_value=1, max_value=b + 2))
    t = data.draw(st.integers(min_value=1, max_value=c + 2))
    cfg = HexagonParams(a, b, c, r, s, t)
    m = build_matrix_M(a, b, c, r, s, t)
    for i in range(a + 2):
        for j in range(a + 2):
            assert m.entries[i][j] == count_paths(cfg.starts[i], cfg.ends[j])


def test_matrix_minimal_case_entries():
    m = build_matrix_M(0, 0, 0, 1, 1, 1)
    assert m.entries == ((1, 0), (0, 1))


# -------------------------------------------------------------------- minors

def test_minor_deletes_by_label():
    m = CountMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    inner = minor(m, (0,), (2,))
    assert inner.entries == ((4, 5), (7, 8))
    assert inner.row_labels == (1, 2)
    assert inner.col_labels == (0, 1)
    # labels persist: deleting label 2 from the minor removes its last row
    again = minor(inner, (2,), (1,))
    assert again.entries == ((4,),)
    assert minor([[1, 2], [3, 4]], (0,), (0,)).entries == ((4,),)  # raw rows


def test_minor_errors():
    m = CountMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="unknown row"):
        minor(m, (5,), (0,))
    with pytest.raises(ValueError, match="equally many"):
        minor(m, (0,), ())
    with pytest.raises(ValueError, match=r"^unknown column labels: \[2, 7\]$"):
        minor(m, (0,), (7, 2))
    with pytest.raises(ValueError, match="^need one label per row and one per column$"):
        CountMatrix(m.entries, (0,), (0, 1))
    with pytest.raises(ValueError, match="^labels must be distinct$"):
        CountMatrix(m.entries, (0, 1), (1, 1))


def test_minor_delete_everything_gives_empty_determinant_one():
    m = CountMatrix.from_rows([[1, 2], [3, 4]])
    empty = minor(m, (0, 1), (0, 1))
    assert len(empty.entries) == 0
    assert det_elimination(empty) == 1
    assert det_condensation(empty) == 1


# -------------------------------------------------------------- determinants

def test_raw_rows_must_be_square_and_integer():
    for check in (det_elimination, det_condensation, verify_desnanot_jacobi,
                  CountMatrix.from_rows):
        with pytest.raises(TypeError):
            check([[0.5, 1], [1, 1]])
    with pytest.raises(TypeError):
        minor([[0.5, 1], [1, 1]], (0,), (0,))
    for det in (det_elimination, det_condensation):
        for rows in ([[1, 2], [3]], [[1, 2, 3], [4, 5, 6]]):
            with pytest.raises(ValueError, match="square"):
                det(rows)
    # the constructor checks entries as from_rows does: a float or a
    # Fraction would give a wrong determinant, and lists would not hash
    for bad in (1.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            CountMatrix(((bad, 1), (1, 1)), (0, 1), (0, 1))
    built = CountMatrix([[1, 2], [3, 4]], [0, 1], [0, 1])
    assert built == CountMatrix.from_rows([[1, 2], [3, 4]])
    assert hash(built) == hash(CountMatrix.from_rows([[1, 2], [3, 4]]))


def test_det_known_values():
    assert det_elimination([[2]]) == 2
    assert det_elimination([[1, 2], [3, 4]]) == -2
    assert det_elimination([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert det_elimination([[1, 2], [2, 4]]) == 0
    assert det_elimination([[0, 0], [0, 0]]) == 0


def test_det_zero_pivot_column():
    # first column entirely zero below a zero pivot
    assert det_elimination([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0


@given(small_matrix)
@settings(max_examples=150)
def test_det_elimination_matches_leibniz(rows):
    assert det_elimination(rows) == det_leibniz(rows)


@given(small_matrix)
@settings(max_examples=150)
def test_det_condensation_matches_elimination(rows):
    assert det_condensation(rows) == det_elimination(rows)


def test_condensation_fallback_on_zero_interior():
    # interior 1x1 block is 0, so the 3x3 must fall back to elimination
    rows = [[1, 2, 3], [4, 0, 5], [6, 7, 8]]
    stats = CondensationStats()
    assert det_condensation(rows, stats) == det_leibniz(rows)
    assert stats.fallbacks > 0


@given(sparse_matrix)
@settings(max_examples=300)
def test_det_condensation_matches_elimination_on_sparse_matrices(rows):
    # mostly zeros: many zero interiors, settled by the zero-line rule or
    # by the elimination fallback, and both must stay exact
    assert det_condensation(rows) == det_elimination(rows)


def test_condensation_zero_line_needs_no_fallback():
    # the 3x3 block has a zero interior and a zero row, so it is 0 outright
    for rows in ([[1, 2, 3], [0, 0, 0], [4, 5, 6]],
                 [[1, 0, 3], [4, 0, 5], [6, 0, 8]]):
        stats = CondensationStats()
        assert det_condensation(rows, stats) == 0
        assert stats.fallbacks == 0
        assert stats.blocks == 14


def _path_matrix_params():
    for a, b, c in itertools.product(range(4), repeat=3):
        for r, s, t in itertools.product(
            range(1, a + 3), range(1, b + 3), range(1, c + 3)
        ):
            yield a, b, c, r, s, t
    rng = random.Random(20)
    for k in range(21):
        a = rng.randint(2, 40)
        if k % 3 == 0:  # a > b + c: M has a band of zeros
            b = rng.randint(0, a - 1)
            c = rng.randint(0, a - 1 - b)
        else:
            b, c = rng.randint(0, 40), rng.randint(0, 40)
        r, s, t = (rng.randint(1, side + 2) for side in (a, b, c))
        yield a, b, c, r, s, t


def test_condensation_on_path_matrices_needs_no_fallback():
    for params in _path_matrix_params():
        matrix = build_matrix_M(*params)
        n = len(matrix.entries)
        stats = CondensationStats()
        assert det_condensation(matrix, stats) == det_elimination(matrix), params
        assert stats.fallbacks == 0, params
        assert stats.blocks == n * (n + 1) * (2 * n + 1) // 6, params


def test_condensation_keeps_two_layers():
    # a memo of all O(n^3) block determinants peaks at 6.7 MB here; two
    # layers of O(n^2) of them stay well under 1.5 MB
    matrix = build_matrix_M(48, 21, 35, 28, 3, 32)
    tracemalloc.start()
    try:
        det_condensation(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000, peak


def test_condensation_frees_its_memo_on_return():
    # the memo of a 32 x 32 matrix holds about 2 MB of block determinants;
    # it must go when the call returns, not when the cyclic collector runs
    matrix = build_matrix_M(30, 20, 20, 10, 10, 10)
    det_condensation(matrix)  # first-call allocations are not the memo's
    gc.disable()
    tracemalloc.start()
    try:
        det_condensation(matrix)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 100_000, held

def test_condensation_no_fallback_on_generic_matrix():
    rows = [[5, 1, 1], [1, 6, 1], [1, 1, 7]]
    stats = CondensationStats()
    assert det_condensation(rows, stats) == det_leibniz(rows)
    assert stats.fallbacks == 0


def test_condensation_large_hexagon_matrix():
    m = build_matrix_M(5, 3, 4, 3, 2, 2)
    assert det_condensation(m) == det_elimination(m)


# ----------------------------------------------------------------- identity

@given(small_matrix.filter(lambda rows: len(rows) >= 2))
@settings(max_examples=150)
def test_desnanot_jacobi_random(rows):
    assert verify_desnanot_jacobi(rows)


def test_desnanot_jacobi_rejects_tiny():
    with pytest.raises(ValueError):
        verify_desnanot_jacobi([[3]])


def test_desnanot_jacobi_on_path_matrices():
    for params in [(2, 1, 1, 2, 2, 1), (3, 2, 1, 2, 1, 2), (1, 3, 2, 1, 4, 3)]:
        assert verify_desnanot_jacobi(build_matrix_M(*params))


# ---------------------------------------------------------------- parameters

def test_hexagon_params_is_the_validated_plain_tuple():
    p = HexagonParams(2, 1, 1, 2, 2, 1)
    a, b, c, r, s, t = p
    assert all(type(v) is int for v in (a, b, c, r, s, t))
    plain = (2, 1, 1, 2, 2, 1)
    assert p == plain and hash(p) == hash(plain)
    with pytest.raises(ValueError, match="position t must be in 1..3, got 4"):
        HexagonParams(2, 1, 1, 2, 2, 4)
    with pytest.raises(ValueError, match="position r must be in 1..4, got 9"):
        p._replace(r=9)
    assert count_theorem1(plain) == count_theorem1(p) == 81
    assert enumerate_constrained_pp(plain) == enumerate_constrained_pp(p) == 81
    assert build_region(plain) is build_region(p)


def test_every_turn_of_the_hexagon_has_the_count_as_determinant():
    # a 120-degree turn, (a, r) -> (b, s) -> (c, t), maps tilings one to one,
    # so the M of each turn counts them; the CLI takes the first turn with
    # the least first side, so a tie keeps p
    for params in _path_matrix_params():
        a, b, c, r, s, t = params
        turns = [params, (b, c, a, s, t, r), (c, a, b, t, r, s)]
        fewest = HexagonParams(*params).fewest_paths
        assert type(fewest) is HexagonParams
        assert fewest == min(turns, key=lambda q: q[0]), params
        count = count_theorem1(params)
        # every turn to sides 3; past that, the CLI's turn only
        for q in turns if max(a, b, c) <= 3 else [fewest]:
            assert det_elimination(build_matrix_M(*q)) == count, (params, q)


def test_parameters_must_be_integers():
    with pytest.raises(TypeError, match=r"^position r must be an integer, got 1\.0$"):
        HexagonParams(1, 1, 1, 1.0, 1, 1)
    calls = [
        lambda: count_theorem1((1, 1, 1, 1, 1, 1.0)),
        lambda: build_matrix_M(1.0, 1, 1, 1, 1, 1),
        lambda: enumerate_path_families((1, 1, 1, 1, 1.0, 1)),
        lambda: enumerate_constrained_pp((1, 1, 1.0, 1, 1, 1)),
        lambda: enumerate_plane_partitions_box(2, 2.0, 2),
        lambda: count_propp(1.0),
        lambda: count_propp(Fraction(1)),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="must be an integer, got"):
            call()
    # a bool is an integer, stored as a plain int
    assert [type(v) for v in HexagonParams(True, 1, 1, 1, 1, 1)] == [int] * 6
    # and every check's plain ints are the values used
    cfg = HexagonParams(True, 0, 0, 1, 1, 1)
    assert all(type(v) is int for v in (cfg.a, cfg.b, cfg.c, cfg.r, cfg.s, cfg.t))
    assert all(type(v) is int
               for v in check_relabelling_identities(True, 0, 0, 1, 1, 1).params)
    # 1.0 == 1 shares a cache key, so a float tuple must not reach the region cache
    with pytest.raises(TypeError, match="position t must be an integer"):
        build_region((1, 1, 1, 1, 1, 1.0))
    ones = (1, 1, 1, 1, 1, 1)
    full = extend_to_full_hexagon(paths_to_tiling(next(iter_path_families(ones))))
    assert full.region.params == ones
    assert all(type(v) is int for v in full.region.params)
    # with the int twin cached, a float or Fraction tuple is still refused
    family = next(iter_path_families(ones))
    assert build_region(ones) is paths_to_tiling(family).region
    for bad in ((1, 1, 1, 1, 1, 1.0), (1, 1, 1, 1, 1, Fraction(1))):
        for call in (lambda: build_region(bad), lambda: build_full_region(bad),
                     lambda: PathFamily(bad, family.paths)):
            with pytest.raises(TypeError, match="position t must be an integer"):
                call()


@pytest.mark.parametrize("module", ["oracle", "geometry"])
def test_routes_do_not_import_the_closed_form(module):
    # the brute-force and bijection routes stay independent of the formula
    import hexcount

    source = Path(hexcount.__file__).with_name(f"{module}.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("closedform" in name for name in imported), imported


def test_no_function_calls_its_own_name():
    # no recursion in the package, so no input depth meets the recursion limit
    import hexcount

    def calls_itself(function):
        return any(isinstance(call, ast.Call) and (
            isinstance(f := call.func, ast.Name) and f.id == function.name
            or isinstance(f, ast.Attribute) and f.attr == function.name
            and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"))
            for call in ast.walk(function))

    found = [f"{path.name}: {node.name}"
             for path in sorted(Path(hexcount.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and calls_itself(node)]
    assert found == []
