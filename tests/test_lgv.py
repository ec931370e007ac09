import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hexcount.exact import binomial
from hexcount.lgv import (
    CondensationStats,
    CountMatrix,
    LatticePoint,
    build_matrix_M,
    build_point_configuration,
    count_paths,
    det_condensation,
    det_elimination,
    minor,
    validate_parameters,
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
        validate_parameters(0, -1, 0, 1, 1, 1)
    with pytest.raises(ValueError, match="position t"):
        validate_parameters(1, 1, 1, 1, 1, 4)
    with pytest.raises(ValueError, match="position r"):
        validate_parameters(1, 1, 1, 0, 1, 1)
    validate_parameters(0, 0, 0, 2, 2, 2)  # upper ends are inclusive


# ------------------------------------------------------------- configuration

def test_point_configuration_minimal_case():
    cfg = build_point_configuration(0, 0, 0, 1, 1, 1)
    assert cfg.starts == (LatticePoint(0, 1), LatticePoint(1, 2))
    assert cfg.ends == (LatticePoint(0, 0), LatticePoint(2, 2))


def test_point_configuration_worked_example():
    cfg = build_point_configuration(2, 1, 1, 2, 2, 1)
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
    cfg = build_point_configuration(a, b, c, r, s, t)
    m = build_matrix_M(a, b, c, r, s, t)
    for i in range(a + 2):
        for j in range(a + 2):
            assert m.entry(i, j) == count_paths(cfg.starts[i], cfg.ends[j])


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


def test_minor_errors():
    m = CountMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="unknown row"):
        minor(m, (5,), (0,))
    with pytest.raises(ValueError, match="equally many"):
        minor(m, (0,), ())


def test_minor_delete_everything_gives_empty_determinant_one():
    m = CountMatrix.from_rows([[1, 2], [3, 4]])
    empty = minor(m, (0, 1), (0, 1))
    assert empty.order == 0
    assert det_elimination(empty) == 1
    assert det_condensation(empty) == 1


# -------------------------------------------------------------- determinants

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
        n = matrix.order
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
