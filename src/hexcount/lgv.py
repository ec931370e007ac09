"""Nonintersecting lattice paths and exact binomial determinants.

The tilings counted by this package biject with families of a+2
nonintersecting lattice paths taking unit steps right (+1, 0) and down
(0, -1).  The number of such families equals the determinant of the
matrix whose (i, j) entry counts the paths from start i to end j.

The parameter domain is stated here once, for every route:
``HexagonParams``, the one domain check, a 6-tuple validated when it is
built, with its path endpoints ``starts`` and ``ends`` and its turn with
the fewest paths, ``fewest_paths``; and ``all_params`` up to given
sides.  Parameters are plain ints, checked by ``exact._integer`` (a
float raises ``TypeError``).  This module also builds the count matrix.
Every matrix argument goes through ``CountMatrix.from_rows``; the constructor
is the one check (integer entries, square shape), which this module's own
builders skip.  Two independent exact determinant algorithms follow:

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
import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exact import ExactInt, _integer, binomial


class LatticePoint(NamedTuple):
    x: int
    y: int


_point = partial(tuple.__new__, LatticePoint)  # from (x, y), with no Python-level call
_validating_make = classmethod(lambda cls, values: cls(*values))  # _replace validates


def _unchecked(cls: type, **fields: object):  # a frozen dataclass, no __post_init__
    vars(instance := object.__new__(cls)).update(fields)
    return instance


def validate_sides(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Check that the sides a, b, c are nonnegative integers, naming the
    offender, and return them as plain ints."""
    return _integer("side a", a, 0), _integer("side b", b, 0), _integer("side c", c, 0)


class _ParamFields(NamedTuple):
    a: int
    b: int
    c: int
    r: int
    s: int
    t: int


class HexagonParams(_ParamFields):
    """Sides a, b, c >= 0 and border positions r in 1..a+2, s in 1..b+2,
    t in 1..c+2, as a 6-tuple of plain ints validated on construction and
    by ``_replace``: the sides first, then r, s, t, naming the offender.

    The underlying hexagon has side lengths a+2, c+2, b+2, a+2, c+2,
    b+2 in cyclic order; r, s, t select which border cell along three
    alternating sides carries a fixed rhombus.  A turn by 120 degrees
    maps its tilings one to one onto those of (b, c, a, s, t, r).
    """

    __slots__ = ()
    _make = _validating_make

    def __new__(cls, a: int, b: int, c: int, r: int, s: int, t: int) -> HexagonParams:
        a, b, c = validate_sides(a, b, c)
        return tuple.__new__(cls, (a, b, c, _integer("position r", r, 1, a + 2),
                                   _integer("position s", s, 1, b + 2),
                                   _integer("position t", t, 1, c + 2)))

    @property
    def starts(self) -> tuple[LatticePoint, ...]:
        """The path starts P_0..P_{a+1}; P_0 and P_{a+1} depend on t and s."""
        a, b, c, _, s, t = self
        inner = (_point((i - 1, c + 2 + i)) for i in range(1, a + 1))
        return _point((0, c + 2 - t)), *inner, _point((a + b + 2 - s, a + c + 2))

    @property
    def ends(self) -> tuple[LatticePoint, ...]:
        """The path ends Q_0..Q_{a+1}, path i running from P_i to Q_i; they
        skip index r, where the third fixed border tile cuts the bottom side."""
        b, r = self.b, self.r
        shifted = (j + (1 if j >= r else 0) for j in range(self.a + 2))
        return tuple(_point((b + k, k)) for k in shifted)

    @property
    def fewest_paths(self) -> HexagonParams:
        """The turn of p with the fewest paths, min(a, b, c) + 2: the first
        of p, (b, c, a, s, t, r) and (c, a, b, t, r, s) with the least a."""
        a, b, c, r, s, t = self  # a turn of a checked tuple is checked
        turns = self, (b, c, a, s, t, r), (c, a, b, t, r, s)
        return tuple.__new__(HexagonParams, min(turns, key=operator.itemgetter(0)))


def all_params(max_a: int, max_b: int, max_c: int) -> Iterator[tuple[int, ...]]:
    """Every valid (a, b, c, r, s, t) with sides up to the given bounds,
    as plain tuples in lexicographic order."""
    for a, b, c in itertools.product(
        range(max_a + 1), range(max_b + 1), range(max_c + 1)
    ):
        yield from itertools.product(
            [a], [b], [c], range(1, a + 3), range(1, b + 3), range(1, c + 3)
        )


def count_paths(start: tuple[int, int], end: tuple[int, int]) -> ExactInt:
    """Number of right/down lattice paths from start to end, two (x, y) pairs.

    Zero when the end is not weakly right of and weakly below the start.
    """
    coords = []
    for name, point in (("start", start), ("end", end)):
        try:
            coords += LatticePoint(*point)
        except TypeError:
            raise TypeError(f"path {name} must be an (x, y) pair, "
                            f"got {point!r}") from None
    sx, sy, ex, ey = (_integer("a path coordinate", v, -math.inf) for v in coords)
    right = ex - sx
    down = sy - ey
    if right < 0 or down < 0:
        return 0
    return binomial(right + down, down)


@dataclass(frozen=True)
class CountMatrix:
    """Square integer matrix with persistent row/column labels.

    Labels name the original path indices, so a minor of a minor still
    knows which rows of the full matrix it came from.  Entries and labels
    are stored as tuples, each entry an integer: ``operator.index`` raises
    ``TypeError`` on a float or a ``Fraction``.
    """

    entries: tuple[tuple[ExactInt, ...], ...]
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(tuple(map(operator.index, row)) for row in self.entries)
        rows, cols = tuple(self.row_labels), tuple(self.col_labels)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        if len(rows) != n or len(cols) != n:
            raise ValueError("need one label per row and one per column")
        if len(set(rows)) != n or len(set(cols)) != n:
            raise ValueError("labels must be distinct")
        vars(self).update(entries=entries, row_labels=rows, col_labels=cols)

    @classmethod
    def from_rows(cls, rows: CountMatrix | Sequence[Sequence[int]]) -> CountMatrix:
        """The matrix of raw rows, labelled 0..n-1 (a ``CountMatrix`` as is)."""
        if isinstance(rows, cls):
            return rows
        return cls(rows, range(len(rows)), range(len(rows)))


def _matrix_unchecked(a: int, b: int, c: int, r: int, s: int, t: int) -> CountMatrix:
    # Closed binomial form of count_paths(P_i, Q_j) for these endpoints;
    # rows 0 and a+1 absorb the t- and s-dependence.
    ends = [j + (1 if j >= r else 0) for j in range(a + 2)]
    rows = [tuple(binomial(b + c + 2 - t, c + 2 - t - jj) for jj in ends)]
    rows.extend(tuple(binomial(b + c + 3, b + jj - i + 1) for jj in ends)
                for i in range(1, a + 1))
    rows.append(tuple(binomial(c + s, jj - a - 2 + s) for jj in ends))
    labels = tuple(range(a + 2))
    return _unchecked(CountMatrix, entries=tuple(rows), row_labels=labels,
                      col_labels=labels)


def build_matrix_M(a: int, b: int, c: int, r: int, s: int, t: int) -> CountMatrix:
    """The (a+2) x (a+2) path-count matrix M with M[i][j] = #paths(P_i -> Q_j)."""
    return _matrix_unchecked(*HexagonParams(a, b, c, r, s, t))


def minor(
    matrix: CountMatrix | Sequence[Sequence[int]],
    delete_rows: Iterable[int] = (),
    delete_cols: Iterable[int] = (),
) -> CountMatrix:
    """Submatrix with the given row/column labels removed.

    Deletion is by label, not position, so minors compose.  The result
    must stay square.
    """
    matrix = CountMatrix.from_rows(matrix)
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
    return _unchecked(CountMatrix, entries=entries,
                      row_labels=tuple(matrix.row_labels[i] for i in keep_r),
                      col_labels=tuple(matrix.col_labels[j] for j in keep_c))


def _as_rows(matrix: CountMatrix | Sequence[Sequence[int]]) -> list[list[int]]:
    return [list(row) for row in CountMatrix.from_rows(matrix).entries]


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
    ``stats`` counts the blocks and those eliminations.  The CLI never passes
    M with a > b+c (it turns p to ``fewest_paths``); the tests still do.
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
    matrix = CountMatrix.from_rows(matrix)
    if (order := len(matrix.entries)) < 2:
        raise ValueError(f"identity needs order >= 2, got {order}")
    (r0, *_, r1), (c0, *_, c1) = matrix.row_labels, matrix.col_labels

    def sub(drop_rows: tuple[int, ...], drop_cols: tuple[int, ...]) -> ExactInt:
        return det_elimination(minor(matrix, drop_rows, drop_cols))

    lhs = det_elimination(matrix) * sub((r0, r1), (c0, c1))
    rhs = sub((r1,), (c1,)) * sub((r0,), (c0,)) - sub((r1,), (c0,)) * sub((r0,), (c1,))
    return lhs == rhs
