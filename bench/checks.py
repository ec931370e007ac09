"""Checks made apart from the program.

Nothing here imports ``hexcount``.  The expected values come from the
documented lattice-path set-up and from MacMahon's box formula, computed
with the standard library only, so a fault in the program cannot also
hide in the check.  Each check returns a list of error strings; an empty
list means the output passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

PRIME = 2**61 - 1


def path_points(a: int, b: int, c: int, r: int, s: int, t: int):
    """Start points P_0..P_{a+1} and end points Q_0..Q_{a+1} of the path
    family, as documented: P_0 = (0, c+2-t), P_i = (i-1, c+2+i) for
    1 <= i <= a, P_{a+1} = (a+b+2-s, a+c+2), and Q_j = (b+j+d, j+d) with
    d = 1 when j >= r, else 0.  Paths step right or down."""
    starts = [(0, c + 2 - t)]
    starts += [(i - 1, c + 2 + i) for i in range(1, a + 1)]
    starts.append((a + b + 2 - s, a + c + 2))
    ends = [(b + j + (j >= r), j + (j >= r)) for j in range(a + 2)]
    return starts, ends


def det_mod(rows: list[list[int]], p: int = PRIME) -> int:
    """Determinant modulo the prime p by plain Gaussian elimination."""
    m = [[v % p for v in row] for row in rows]
    n = len(m)
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        rk = m[k]
        det = det * rk[k] % p
        inv = pow(rk[k], -1, p)
        for i in range(k + 1, n):
            ri = m[i]
            f = ri[k] * inv % p
            if f:
                for j in range(k + 1, n):
                    ri[j] = (ri[j] - f * rk[j]) % p
    return det % p


def count_mod(params: tuple[int, ...]) -> int:
    """The tiling count modulo PRIME: det of the path-count matrix built
    from ``math.comb`` between the documented start and end points."""
    starts, ends = path_points(*params)
    rows = []
    for px, py in starts:
        row = []
        for qx, qy in ends:
            right, down = qx - px, py - qy
            row.append(math.comb(right + down, down) if right >= 0 and down >= 0 else 0)
        rows.append(row)
    return det_mod(rows)


def check_count(params: tuple[int, ...], value: int, expected_mod: int) -> list[str]:
    if value % PRIME != expected_mod:
        return [f"{params}: count is {value % PRIME} mod 2^61-1, "
                f"path determinant gives {expected_mod}"]
    return []


def macmahon(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box (MacMahon's product)."""
    value = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                value *= Fraction(i + j + k - 1, i + j + k - 2)
    if value.denominator != 1:
        raise ArithmeticError(f"box product {a} x {b} x {c} is not an integer")
    return value.numerator


def sum_rule(a: int, b: int, c: int) -> int:
    """Sum of count(a, b, c, r, s, t) over every valid (r, s, t), by
    inclusion-exclusion on MacMahon's box with A, B, C = a+2, b+2, c+2."""
    A, B, C = a + 2, b + 2, c + 2
    total = 0
    for da in (0, 1):
        for db in (0, 1):
            for dc in (0, 1):
                total += (-1) ** (da + db + dc) * macmahon(A - da, B - db, C - dc)
    return total


def check_sum_rule(shape: tuple[int, int, int], total: int) -> list[str]:
    want = sum_rule(*shape)
    if total != want:
        return [f"shape {shape}: counts over all (r, s, t) sum to {total}, "
                f"sum rule gives {want}"]
    return []


def check_round_trip(params, family, back) -> list[str]:
    """The paths must come back unchanged and run between the documented
    start and end points."""
    errors = []
    if back != family:
        errors.append(f"{params}: paths -> tiling -> paths changed the family")
    starts, ends = path_points(*params)
    if [p[0] for p in family] != starts or [p[-1] for p in family] != ends:
        errors.append(f"{params}: family does not run from P_i to Q_i")
    return errors


def check_plane_partition(params, rows) -> list[str]:
    """Box shape, weak decrease, and the three boundary conditions that
    encode the fixed tiles."""
    a, b, c, r, s, t = params
    height, width, depth = a + 2, b + 2, c + 2
    if len(rows) != height or any(len(row) != width for row in rows):
        return [f"{params}: plane partition is not {height} x {width}"]
    errors = []
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not 0 <= v <= depth:
                errors.append(f"{params}: entry ({i}, {j}) = {v} outside 0..{depth}")
            if (j + 1 < width and row[j + 1] > v) or (i + 1 < height and rows[i + 1][j] > v):
                errors.append(f"{params}: entries increase after ({i}, {j})")
    if sum(v == depth for v in rows[0]) != width - s:
        errors.append(f"{params}: first row does not hold b+2-s maxima")
    if sum(row[-1] == 0 for row in rows) != r:
        errors.append(f"{params}: not exactly r rows end in 0")
    if rows[-1][0] != depth - t:
        errors.append(f"{params}: bottom-left entry is not c+2-t")
    return errors


def check_svg(params, svg: str) -> list[str]:
    """One polygon per tile of the full hexagon, whose A, C, B, A, C, B
    sides hold 2(AB + BC + CA) unit triangles."""
    A, B, C = params[0] + 2, params[1] + 2, params[2] + 2
    want = A * B + B * C + C * A
    got = svg.count("<polygon ")
    errors = []
    if got != want:
        errors.append(f"{params}: SVG has {got} polygons, region has {2 * want} cells")
    if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")):
        errors.append(f"{params}: SVG is not one closed <svg> element")
    return errors


def check_cli_report(params, rc: int, text: str, methods: int, expected_mod: int):
    """Parse ``hexcount count --json`` output.  Every method must have
    run and given the same count, and the exit code must be 0.
    Returns (errors, count); the count is None when there is none."""
    try:
        report = json.loads(text)
        values = [r["value"] for r in report["results"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{params}: unreadable --json output ({exc})"], None
    errors = []
    if rc != 0:
        errors.append(f"{params}: exit code {rc}")
    if len(values) != methods or None in values or len(set(values)) != 1:
        errors.append(f"{params}: methods disagree or were skipped: {values}")
        return errors, None
    value = int(values[0])
    return errors + check_count(params, value, expected_mod), value


def check_new(params, seen: set, rows) -> list[str]:
    """The plane partitions of one tuple must be distinct."""
    if rows in seen:
        return [f"{params}: plane partition repeated"]
    seen.add(rows)
    return []
