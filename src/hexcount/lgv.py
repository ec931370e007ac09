"""Nonintersecting lattice paths and exact binomial determinants.

The tilings counted by this package biject with families of a+2
nonintersecting lattice paths taking unit steps right (+1, 0) and down
(0, -1).  The number of such families equals the determinant of the
matrix whose (i, j) entry counts the paths from start i to end j.

The parameter domain is stated here once, for every route:
``validate_parameters``, the 6-tuple ``HexagonParams`` validated when it
is built, and ``all_params`` up to given sides.  This module also builds
the start/end configuration and the binomial count matrix.  Raw rows
become a ``CountMatrix`` in one place, ``CountMatrix.from_rows``, which
takes integer entries only and, through the constructor, a square
shape.  Two independent exact determinant algorithms follow:

* ``det_elimination``: fraction-free Gaussian elimination (Bareiss).
  All intermediate values stay integers; the quotient at each step is
  exact by construction.

* ``det_condensation``: Dodgson condensation on contiguous blocks,
  bottom-up by block size (Dodgson 1866; Robbins and Rumsey 1986), by
  the recurrence

      det(A) * det(interior) = det(NW) * det(SE) - det(NE) * det(SW)

  where the four corner blocks drop one leading/trailing row and
  column.  Only the layers of the two previous block sizes are kept,
  O(n^2) integers, and there is no recursion.  When an interior
  determinant vanishes the division is impossible.  A block with a row
  or column that is zero inside it is then 0 (the zero-line rule, which
  has settled every zero interior met on the path matrices M); any
  other such block falls back to elimination.  ``CondensationStats``
  reports the blocks evaluated and the fallbacks to elimination.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exact import ExactInt, binomial


class LatticePoint(NamedTuple):
    x: int
    y: int


_point = partial(tuple.__new__, LatticePoint)  # from (x, y), with no Python-level call


def validate_sides(a: int, b: int, c: int) -> None:
    """Check that the sides a, b, c are nonnegative, naming the offender."""
    for name, value in (("a", a), ("b", b), ("c", c)):
        if value < 0:
            raise ValueError(f"side {name} must be >= 0, got {value}")


def validate_parameters(a: int, b: int, c: int, r: int, s: int, t: int) -> None:
    """Check the hexagon side and border positions, naming the offender.

    Sides a, b, c are arbitrary nonnegative integers.  The three border
    positions live in r in 1..a+2, s in 1..b+2, t in 1..c+2; each indexes
    which of the candidate border cells along one hexagon side carries
    the fixed tile.
    """
    validate_sides(a, b, c)
    for name, value, hi in (("r", r, a + 2), ("s", s, b + 2), ("t", t, c + 2)):
        if not 1 <= value <= hi:
            raise ValueError(f"position {name} must be in 1..{hi}, got {value}")


class _ParamFields(NamedTuple):
    a: int
    b: int
    c: int
    r: int
    s: int
    t: int


class HexagonParams(_ParamFields):
    """Sides a, b, c >= 0 and border positions r in 1..a+2, s in 1..b+2,
    t in 1..c+2, as a 6-tuple validated when it is constructed.

    The underlying hexagon has side lengths a+2, c+2, b+2, a+2, c+2,
    b+2 in cyclic order; r, s, t select which border cell along three
    alternating sides carries a fixed rhombus.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates

    def __new__(cls, a: int, b: int, c: int, r: int, s: int, t: int) -> HexagonParams:
        validate_parameters(a, b, c, r, s, t)
        return tuple.__new__(cls, (a, b, c, r, s, t))

    def astuple(self) -> tuple[int, int, int, int, int, int]:
        return tuple(self)


def all_params(max_a: int, max_b: int, max_c: int) -> Iterator[tuple[int, ...]]:
    """Every valid (a, b, c, r, s, t) with sides up to the given bounds,
    as plain tuples in lexicographic order."""
    for a, b, c in itertools.product(
        range(max_a + 1), range(max_b + 1), range(max_c + 1)
    ):
        yield from itertools.product(
            [a], [b], [c], range(1, a + 3), range(1, b + 3), range(1, c + 3)
        )


@dataclass(frozen=True)
class PointConfiguration:
    """Start points P_0..P_{a+1} and end points Q_0..Q_{a+1}."""

    a: int
    b: int
    c: int
    r: int
    s: int
    t: int
    starts: tuple[LatticePoint, ...]
    ends: tuple[LatticePoint, ...]

    @property
    def size(self) -> int:
        return self.a + 2


def build_point_configuration(
    a: int, b: int, c: int, r: int, s: int, t: int
) -> PointConfiguration:
    """Start and end points of the path family for one tiling problem.

    Path i runs from P_i to Q_i.  P_0 and P_{a+1} depend on the border
    positions t and s; the ends Q_j skip one index at j = r, which is
    where the third fixed border tile interrupts the bottom side.
    """
    validate_parameters(a, b, c, r, s, t)
    starts = [LatticePoint(0, c + 2 - t)]
    starts.extend(LatticePoint(i - 1, c + 2 + i) for i in range(1, a + 1))
    starts.append(LatticePoint(a + b + 2 - s, a + c + 2))
    ends = [
        LatticePoint(b + j + (1 if j >= r else 0), j + (1 if j >= r else 0))
        for j in range(a + 2)
    ]
    return PointConfiguration(a, b, c, r, s, t, tuple(starts), tuple(ends))


def count_paths(start: LatticePoint, end: LatticePoint) -> ExactInt:
    """Number of right/down lattice paths from start to end.

    Zero when the end is not weakly right of and weakly below the start.
    """
    right = end.x - start.x
    down = start.y - end.y
    if right < 0 or down < 0:
        return 0
    return binomial(right + down, down)


@dataclass(frozen=True)
class CountMatrix:
    """Square integer matrix with persistent row/column labels.

    Labels name the original path indices, so a minor of a minor still
    knows which rows of the full matrix it came from.
    """

    entries: tuple[tuple[ExactInt, ...], ...]
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")
        if len(self.row_labels) != n or len(self.col_labels) != n:
            raise ValueError("need one label per row and one per column")
        if len(set(self.row_labels)) != n or len(set(self.col_labels)) != n:
            raise ValueError("labels must be distinct")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "CountMatrix":
        """The matrix of raw rows, labelled 0..n-1.

        This is the one conversion of raw rows: each entry must be an
        integer (``operator.index`` takes ints and bools and raises
        ``TypeError`` on a float or a ``Fraction``), and the constructor
        checks that the rows make a square.
        """
        entries = tuple(tuple(map(operator.index, row)) for row in rows)
        labels = tuple(range(len(entries)))
        return cls(entries, labels, labels)

    @property
    def order(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> ExactInt:
        """Entry by position (not label)."""
        return self.entries[i][j]


def _matrix_unchecked(a: int, b: int, c: int, r: int, s: int, t: int) -> CountMatrix:
    # Closed binomial form of count_paths(P_i, Q_j) for this point
    # configuration; rows 0 and a+1 absorb the t- and s-dependence.
    ends = [j + (1 if j >= r else 0) for j in range(a + 2)]
    rows = [tuple(binomial(b + c + 2 - t, c + 2 - t - jj) for jj in ends)]
    rows.extend(tuple(binomial(b + c + 3, b + jj - i + 1) for jj in ends)
                for i in range(1, a + 1))
    rows.append(tuple(binomial(c + s, jj - a - 2 + s) for jj in ends))
    labels = tuple(range(a + 2))
    return CountMatrix(tuple(rows), labels, labels)


def build_matrix_M(a: int, b: int, c: int, r: int, s: int, t: int) -> CountMatrix:
    """The (a+2) x (a+2) path-count matrix M with M[i][j] = #paths(P_i -> Q_j)."""
    validate_parameters(a, b, c, r, s, t)
    return _matrix_unchecked(a, b, c, r, s, t)


def minor(
    matrix: CountMatrix,
    delete_rows: Iterable[int] = (),
    delete_cols: Iterable[int] = (),
) -> CountMatrix:
    """Submatrix with the given row/column labels removed.

    Deletion is by label, not position, so minors compose.  The result
    must stay square.
    """
    dr = set(delete_rows)
    dc = set(delete_cols)
    missing = dr - set(matrix.row_labels)
    if missing:
        raise ValueError(f"unknown row labels: {sorted(missing)}")
    missing = dc - set(matrix.col_labels)
    if missing:
        raise ValueError(f"unknown column labels: {sorted(missing)}")
    if len(dr) != len(dc):
        raise ValueError("minor must delete equally many rows and columns")
    keep_r = [i for i, lab in enumerate(matrix.row_labels) if lab not in dr]
    keep_c = [j for j, lab in enumerate(matrix.col_labels) if lab not in dc]
    entries = tuple(tuple(matrix.entries[i][j] for j in keep_c) for i in keep_r)
    return CountMatrix(
        entries,
        tuple(matrix.row_labels[i] for i in keep_r),
        tuple(matrix.col_labels[j] for j in keep_c),
    )


def _as_rows(matrix: CountMatrix | Sequence[Sequence[int]]) -> list[list[int]]:
    if not isinstance(matrix, CountMatrix):
        matrix = CountMatrix.from_rows(matrix)
    return [list(row) for row in matrix.entries]


def det_elimination(matrix: CountMatrix | Sequence[Sequence[int]]) -> ExactInt:
    """Exact determinant by Bareiss fraction-free elimination.

    Row swaps (with sign bookkeeping) handle zero pivots; if no nonzero
    pivot exists in a column the determinant is 0.  The 0 x 0 matrix has
    determinant 1 (empty product).
    """
    rows = _as_rows(matrix)
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[n - 1][n - 1]


@dataclass
class CondensationStats:
    """Instrumentation for det_condensation: the blocks it evaluated, and
    how many of them it computed by elimination."""

    fallbacks: int = 0
    blocks: int = 0


def det_condensation(
    matrix: CountMatrix | Sequence[Sequence[int]],
    stats: CondensationStats | None = None,
) -> ExactInt:
    """Exact determinant by condensation, bottom-up by block size.

    Layer k holds the determinants of all contiguous k x k blocks, each
    (NW * SE - NE * SW) / interior from layers k-1 and k-2.  A block with
    a zero interior is 0 if it has a row or column that is zero inside it
    (the zero-line rule), and is computed by elimination otherwise.
    ``stats`` counts the blocks evaluated and those eliminations.
    """
    rows = _as_rows(matrix)
    n = len(rows)
    inner, outer = [[1] * (n + 1)] * (n + 1), rows  # block sizes k-2, k-1
    nz = None  # nonzeros in each row, then each column, as prefix counts
    blocks, fallbacks = n * n, 0
    for k in range(2, n + 1):
        size = n - k + 1
        blocks += size * size
        layer = []
        for i in range(size):
            up, down, mid = outer[i], outer[i + 1], inner[i + 1]
            values = []
            for j in range(size):
                if mid[j + 1]:
                    value, remainder = divmod(
                        up[j] * down[j + 1] - up[j + 1] * down[j], mid[j + 1]
                    )
                    if remainder:
                        raise ArithmeticError("condensation division is not exact")
                else:
                    if nz is None:  # built on the first zero interior only
                        nz = [list(itertools.accumulate(map(bool, line), initial=0))
                              for line in (*rows, *zip(*rows))]
                    if any(nz[r][j] == nz[r][j + k] for r in range(i, i + k)) or any(
                        nz[n + c][i] == nz[n + c][i + k] for c in range(j, j + k)
                    ):
                        value = 0
                    else:
                        fallbacks += 1
                        value = det_elimination([r[j : j + k] for r in rows[i : i + k]])
                values.append(value)
            layer.append(values)
        inner, outer = outer, layer
    if stats is not None:
        stats.blocks += blocks
        stats.fallbacks += fallbacks
    return outer[0][0] if n else 1


def verify_desnanot_jacobi(matrix: CountMatrix | Sequence[Sequence[int]]) -> bool:
    """Check det(A) det(A with first+last rows/cols removed) ==
    det(NW) det(SE) - det(NE) det(SW) for this matrix.

    NW removes the last row and column, SE the first row and column,
    NE the last row and first column, SW the first row and last column.
    All five determinants are computed independently by elimination,
    the four corners and the interior from ``minor``.
    """
    if not isinstance(matrix, CountMatrix):
        matrix = CountMatrix.from_rows(matrix)
    if matrix.order < 2:
        raise ValueError(f"identity needs order >= 2, got {matrix.order}")
    (r0, *_, r1), (c0, *_, c1) = matrix.row_labels, matrix.col_labels

    def sub(drop_rows: tuple[int, ...], drop_cols: tuple[int, ...]) -> ExactInt:
        return det_elimination(minor(matrix, drop_rows, drop_cols))

    lhs = det_elimination(matrix) * sub((r0, r1), (c0, c1))
    rhs = sub((r1,), (c1,)) * sub((r0,), (c0,)) - sub((r1,), (c0,)) * sub((r0,), (c1,))
    return lhs == rhs
