"""The argument rule of every public entry point: it returns the exact
answer or raises ``TypeError`` or ``ValueError`` naming the argument."""

import re

import pytest

import hexcount
from hexcount import (
    CountMatrix,
    HexagonParams,
    MonotonePath,
    PathFamily,
    Region,
    Tiling,
    build_full_region,
    build_region,
    count_paths,
    count_theorem1,
    det_condensation,
    det_elimination,
    enumerate_constrained_pp,
    enumerate_path_families,
    iter_path_families,
    minor,
    verify_desnanot_jacobi,
)
from hexcount.geometry import notch_cells


@pytest.mark.parametrize("name", [
    name for name in hexcount.__all__ if callable(getattr(hexcount, name))])
def test_every_public_callable_takes_a_single_int_cleanly(name):
    # a result, or an error of the two kinds that name what is wrong;
    # never AttributeError from reading a field of the int
    try:
        getattr(hexcount, name)(5)
    except (TypeError, ValueError):
        pass


# The eight entry points that take a parameter tuple, the path search
# by both its routes; iter_path_families is called and never iterated,
# so it must check p when it is called.
TAKE_PARAMS = {
    "count_theorem1": count_theorem1,
    "enumerate_path_families": enumerate_path_families,
    "iter_path_families": iter_path_families,
    "enumerate_constrained_pp": enumerate_constrained_pp,
    "PathFamily": lambda p: PathFamily(p, ()),
    "Region": lambda p: Region("full", p, ()),
    "build_region": build_region,
    "build_full_region": build_full_region,
    "notch_cells": notch_cells,
}


@pytest.mark.parametrize("call", TAKE_PARAMS.values(), ids=TAKE_PARAMS)
@pytest.mark.parametrize("bad", [5, None, (0, 0, 0, 1, 1), [0, 0, 0, 1, 1, 1, 1], ""],
                         ids=["int", "none", "five", "seven", "empty"])
def test_a_malformed_params_is_named(call, bad):
    with pytest.raises(TypeError, match=rf"^params must be an \(a, b, c, r, s, t\) tuple, "
                                        rf"got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("call", TAKE_PARAMS.values(), ids=TAKE_PARAMS)
@pytest.mark.parametrize("bad, message", [
    ((0, 0, 0, 1, 1, 1.0), r"^position t must be an integer, got 1\.0$"),
    ([0.0, 0, 0, 1, 1, 1], r"^side a must be an integer, got 0\.0$"),
], ids=["t", "a-list"])
def test_a_float_in_params_is_named_by_its_position(call, bad, message):
    with pytest.raises(TypeError, match=message):
        call(bad)


def test_a_hexagon_params_passed_in_is_the_one_kept():
    p = HexagonParams(1, 0, 1, 2, 1, 3)
    family = next(iter_path_families(p))
    assert Region("full", p, build_full_region(p).cells).params is p
    assert PathFamily(p, family.paths).config is p
    assert PathFamily(tuple(p), family.paths).config == p


def test_iter_path_families_checks_the_budget_when_called():
    with pytest.raises(ValueError, match=r"^budget must be >= 1, got 0$"):
        iter_path_families((0, 0, 0, 1, 1, 1), budget=0)


MATRIX = r"^matrix must be a CountMatrix or a sequence of rows, got 5$"


@pytest.mark.parametrize("call, message", [
    (lambda: CountMatrix(5, (), ()), r"^entries must be a sequence of rows, got 5$"),
    (lambda: CountMatrix([[1], 7], [0, 1], [0, 1]),
     r"^row 1 must be a sequence of integers, got 7$"),
    (lambda: CountMatrix([[1]], 5, [0]), r"^row_labels must be a sequence of labels"),
    (lambda: CountMatrix([[1]], [0], 5), r"^col_labels must be a sequence of labels"),
    (lambda: CountMatrix.from_rows(5), MATRIX),
    (lambda: CountMatrix.from_rows([3]), r"^row 0 must be a sequence of integers"),
    (lambda: det_elimination(5), MATRIX),
    (lambda: det_condensation(5), MATRIX),
    (lambda: minor(5), MATRIX),
    (lambda: verify_desnanot_jacobi(5), MATRIX),
    (lambda: minor([[1]], 5), r"^delete_rows must be a sequence of labels, got 5$"),
    (lambda: minor([[1]], (), 5), r"^delete_cols must be a sequence of labels, got 5$"),
], ids=["entries", "row", "row-labels", "col-labels", "from-rows", "from-rows-row",
        "elimination", "condensation", "minor", "desnanot-jacobi", "delete-rows",
        "delete-cols"])
def test_matrix_entry_points_name_a_non_iterable_argument(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def read_at_most(n):
    """An iterator of n items that fails the test if read further."""
    yield from range(n)
    pytest.fail(f"read past {n} items")


@pytest.mark.parametrize("call, message", [
    (lambda: Region("full", (0, 0, 0, 1, 1, 1), [read_at_most(4)]),
     r"^cell 0 must be a \(u, v, orientation\) triple"),
    (lambda: Tiling(build_region((0, 0, 0, 1, 1, 1)), [read_at_most(3)]),
     r"^tile 0 must be a \(down, up\) pair"),
    (lambda: MonotonePath([read_at_most(3)]), r"^path vertex 0 must be an \(x, y\) pair"),
    (lambda: count_paths(read_at_most(3), (0, 0)), r"^path start must be an \(x, y\) pair"),
    (lambda: build_region(read_at_most(7)), r"^params must be an \(a, b, c, r, s, t\) tuple"),
], ids=["cell", "tile", "vertex", "point", "params"])
def test_a_fixed_length_argument_is_read_to_one_past_its_length(call, message):
    with pytest.raises(TypeError, match=message):
        call()


@pytest.mark.parametrize("bad", [5, {}], ids=["int", "dict"])
def test_condensation_checks_its_stats_when_called(bad, monkeypatch):
    # before any work: the determinant itself must not run
    monkeypatch.setattr("hexcount.lgv._as_rows", lambda matrix: pytest.fail("ran"))
    with pytest.raises(TypeError,
                       match=rf"^stats must be a CondensationStats, got {re.escape(repr(bad))}$"):
        det_condensation([[1, 2], [3, 4]], stats=bad)
