"""Product formulas and determinant identities.

The headline count admits a closed form: a product of six rising
factorials, a ratio of superfactorials, and a six-term polynomial
bracket in the parameters.  This module evaluates that formula exactly,
together with the closed forms for the two key connected minors of the
path-count matrix, the classical factorisation lemma they rest on, and
the polynomial identities that stitch the minors back into the full
determinant.  Every product formula is recorded as exponents of
integers in ``exact.Exponents`` and multiplied out once, over primes;
the polynomial factor joins as a cofactor.  A non-integer result
(impossible if the formulas are transcribed correctly) raises
``ArithmeticError`` instead of rounding.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import prod
from typing import Iterator, Sequence

from .exact import ExactInt, Exponents, _integer
from .lgv import HexagonParams, _matrix_unchecked, _params, all_params, \
    det_elimination, minor, validate_sides, verify_desnanot_jacobi


def theorem_bracket(a: int, b: int, c: int, r: int, s: int, t: int) -> ExactInt:
    """The six-term polynomial factor of the main closed form."""
    return (
        (a + 1) * (b + 1) * (c + 1) * (a + 2 - r) * (b + 2 - s) * (c + 2 - t)
        + (a + 1) * (b + 1) * (c + 1) * r * s * t
        - (a + 2 - r) * (b + 2 - s) * (c + 2 - t) * r * s * t
        + (a + 1) * (c + 1) * (b + 2 - s) * (c + 2 - t) * r * s
        + (b + 1) * (a + 1) * (c + 2 - t) * (a + 2 - r) * s * t
        + (c + 1) * (b + 1) * (a + 2 - r) * (b + 2 - s) * t * r
    )


def count_theorem1(p: HexagonParams | Sequence[int]) -> ExactInt:
    """Closed-form count of tilings with the three fixed border tiles."""
    a, b, c, r, s, t = _params(p)
    x = Exponents()
    for base, length in ((r + 1, b), (s + 1, c), (t + 1, a),
                         (c + 3 - t, b), (a + 3 - r, c), (b + 3 - s, a)):
        x.rising(base, length)
    for n in (a, b, c, a + b + c + 2):
        x.superfactorial(n)
    for n in (b + c + 2, a + c + 2, a + b + 2):
        x.superfactorial(n, -1)
    return x.value(theorem_bracket(a, b, c, r, s, t), "closed-form count")


def count_propp(n: int) -> ExactInt:
    """Closed form of the symmetric special case a = b = c = 2n,
    r = s = t = n + 1 (the central fixed tiles)."""
    n = _integer("n", n, 0)
    x = Exponents()
    x.rising(n + 2, 2 * n, 6)
    x.superfactorial(2 * n, 3)
    x.superfactorial(6 * n + 2)
    x.superfactorial(4 * n + 2, -3)
    cofactor = (n + 1) ** 3 * (3 * n + 1) * (3 * n + 2) ** 2
    return x.value(cofactor, "symmetric-case count")


def count_macmahon_box(a: int, b: int, c: int) -> ExactInt:
    """Number of plane partitions in an a x b x c box.

    Classical product formula, written as a ratio of the products
    0! 1! ... (n-1)!, with the convention that an empty product (any
    side 0) gives 1.
    """
    a, b, c = validate_sides(a, b, c)
    x = Exponents()
    for n, e in ((a, 1), (b, 1), (c, 1), (a + b + c, 1),
                 (a + b, -1), (b + c, -1), (a + c, -1)):
        x.superfactorial(n - 1, e)
    return x.value(1, "box count")


def det_inner_closed(a: int, b: int, c: int, r: int) -> ExactInt:
    """Closed form for det of the inner minor of M (rows and columns 0
    and a+1 removed), valid for a >= 1 and 1 <= r <= a+1.

    Only r enters: the deleted rows carried all the s- and t-dependence.
    """
    a, b, c = validate_sides(_integer("side a", a, 1), b, c)
    r = _integer("position r", r, 1, a + 1)
    x = Exponents()
    x.factorial(b + c + 3, a)
    x.factorial(a + c + 2 - r)
    x.factorial(b + r)
    # prod_{1 <= i < j <= a+1} (j - i): each difference d occurs a+1-d times
    x.superfactorial(a)
    # prod_k (b+c+k+4)**(a-1-k), as the products (b+c+4)...(b+c+3+j)
    for j in range(1, a):
        x.interval(b + c + 4, b + c + 3 + j)
    x.factorial(a + 1 - r, -1)
    x.factorial(r - 1, -1)
    for j in range(1, a + 2):
        x.factorial(b + j, -1)
        x.factorial(a + c + 2 - j, -1)
    return x.value(1, "inner minor determinant")


def det_m00_closed(a: int, b: int, c: int, r: int, s: int) -> ExactInt:
    """Closed form for det of M with row 0 and column 0 removed, valid
    for a >= 1, 1 <= r <= a+2, 1 <= s <= b+2.

    t does not enter: row 0 carried all the t-dependence.  Some rising
    factorials appear with negative length at the ends of the r range;
    ``Exponents.rising`` supplies the standard extension.
    """
    a, b, c, r, s, _ = HexagonParams(_integer("side a", a, 1), b, c, r, s, 1)
    x = Exponents()
    for i in range(1, a + 1):
        x.rising(b + i + 3, c + 1 - i)
        x.factorial(c + i + 2, -1)
    x.rising(s + 1, c)
    x.factorial(a + c + 2, -1)
    x.superfactorial(a)
    x.factorial(r - 1, -1)
    x.factorial(a + 2 - r, -1)
    for base, length in ((c + 2, a + 1 - r), (b + 3, r - 2), (c + 1, a + 2),
                         (c + 3, a), (b + 3 - s, a)):
        x.rising(base, length)
    # prod_k (b+c+k)**(a+3-k), as the products (b+c+4)...(b+c+j)
    for j in range(4, a + 3):
        x.interval(b + c + 4, b + c + j)
    cofactor = (b + 2) * (a + 1) - (r - 1) * (b + 2 - s)
    return x.value(cofactor, "first minor determinant")


def check_krattenthaler_lemma(
    x: Sequence[int], a_vals: Sequence[int], b_vals: Sequence[int]
) -> bool:
    """Check the factorisation lemma behind the minor evaluations.

    With n = len(x), a_vals = (A_2..A_n) and b_vals = (B_2..B_n), the
    n x n determinant with (i, j) entry

        (x_j + A_n)(x_j + A_{n-1}) ... (x_j + A_{i+1})
            * (x_j + B_i)(x_j + B_{i-1}) ... (x_j + B_2)

    (indices i, j from 1) factors as

        prod_{1 <= i < j <= n} (x_i - x_j)
            * prod_{2 <= i <= j <= n} (B_i - A_j).

    Returns True when the elimination determinant equals the product.
    For n = 0 both are 1: the empty determinant and the empty products.
    """
    n = len(x)
    m = max(n - 1, 0)  # the number of A_2..A_n
    if len(a_vals) != m or len(b_vals) != m:
        raise ValueError(
            f"need exactly {m} values A_2..A_n and B_2..B_n, "
            f"got {len(a_vals)} and {len(b_vals)}"
        )

    rows = [[prod(xj + v for v in (*a_vals[i - 1:], *b_vals[:i - 1])) for xj in x]
            for i in range(1, n + 1)]
    rhs = prod(x[i] - x[j] for i in range(n) for j in range(i + 1, n)) * prod(
        b_vals[i] - a_vals[j] for i in range(n - 1) for j in range(i, n - 1))
    return det_elimination(rows) == rhs


def check_final_identity(a: int, b: int, c: int, r: int, s: int, t: int) -> bool:
    """Polynomial identity assembling the two minor closed forms into the
    six-term bracket of the main formula.  Holds for all integers."""
    lhs = (b + 1) * (c + 1) * (
        (b + 2) * (a + 1) - (r - 1) * (b + 2 - s)
    ) * ((c + 2) * (a + 1) - (a + 1 - r) * t) - s * (c + 2 - t) * (
        (a + 1) * (c + 1) - (a + 2 - r) * t
    ) * ((a + 1) * (b + 1) - r * (b + 2 - s))
    return lhs == theorem_bracket(a, b, c, r, s, t)


def check_lemma5_identity(a: int, b: int, r: int, s: int) -> bool:
    """Two-line polynomial identity used inside the first-minor proof.
    Holds for all integers."""
    lhs = ((b + 2) * (a + 1) - (r - 1) * (b + 2 - s)) * (a + b + 2 - s)
    rhs = ((b + 2) * a - (r - 2) * (b + 2 - s)) * (a + b + 2) - (
        (b + 1) * a - (r - 1) * (b + 2 - s)
    ) * s
    return lhs == rhs


HOLDS = "holds"
FAILED = "failed"
SKIPPED = "skipped"


@dataclass(frozen=True)
class IdentityReport:
    """Status per identity: holds, failed, or skipped (its shifted sides
    are out of range at these parameters)."""

    params: tuple[int, int, int, int, int, int]
    statuses: dict[str, str]

    @property
    def ok(self) -> bool:
        return FAILED not in self.statuses.values()

    def failures(self) -> list[str]:
        return sorted(k for k, v in self.statuses.items() if v == FAILED)

    def __str__(self) -> str:
        return f"{self.params}: {self.failures()}"


def check_relabelling_identities(
    a: int, b: int, c: int, r: int, s: int, t: int
) -> IdentityReport:
    """Numerically check the minor relabelling identities at one
    parameter tuple.

    Each identity equates a minor of M(a, b, c, r, s, t) with a minor of
    M at shifted parameters.  A star below means the identity does not
    involve that position; the builder needs some in-range value there,
    and 1 is always valid.  An identity is skipped exactly when one of
    its shifted sides is negative.

    The boundary checks assert that the r-range endpoints collapse:
    probing r one step outside 1..a+2 reproduces the adjacent interior
    value, for both the inner minor and the first minor, and the inner
    minor collapses one step further out as well.
    """
    a, b, c, r, s, t = HexagonParams(a, b, c, r, s, t)
    star = 1
    n = a + 1  # label of the last row/column of M

    # name -> (lhs shape, lhs deletions, rhs shape, rhs deletions)
    cases: dict[str, tuple] = {
        "align-last-col": (
            (a, b, c, r, s, t), ((0,), (n,)),
            (a, b - 1, c + 1, r + 1, s - 1, star), ((0,), (0,)),
        ),
        "align-last-row-col": (
            (a, b, c, r, s, t), ((n,), (n,)),
            (a, c, b, a + 2 - r, c + 2 - t, star), ((0,), (0,)),
        ),
        "align-last-row": (
            (a, b, c, r, s, t), ((n,), (0,)),
            (a, c - 1, b + 1, a + 3 - r, c + 1 - t, star), ((0,), (0,)),
        ),
        "shrink-inner": (
            (a, b, c, r, s, t), ((0, 1, n), (0, 1, n)),
            (a - 1, b, c, r - 1, star, star), ((0, a), (0, a)),
        ),
        "shrink-first": (
            (a, b, c, r, s, t), ((0, 1), (0, 1)),
            (a - 1, b, c, r - 1, s, star), ((0,), (0,)),
        ),
        "shrink-cross": (
            (a, b, c, r, s, t), ((0, 1), (0, n)),
            (a - 1, b - 1, c + 1, r, s - 1, star), ((0,), (0,)),
        ),
        "shrink-outer": (
            (a, b, c, r, s, t), ((0, n), (0, 1)),
            (a, b + 1, c - 1, r - 1, star, star), ((0, n), (0, n)),
        ),
    }
    # r one or two steps outside 1..a+2 and the adjacent value inside it
    for name, dels, outside, inside in (
        ("inner-low-end", ((0, n), (0, n)), 0, 1),
        ("inner-high-end", ((0, n), (0, n)), a + 2, a + 1),
        ("first-low-end", ((0,), (0,)), 0, 1),
        ("first-high-end", ((0,), (0,)), a + 3, a + 2),
        ("inner-past-end", ((0, n), (0, n)), a + 3, a + 1),
    ):
        cases[name] = ((a, b, c, outside, s, t), dels, (a, b, c, inside, s, t), dels)

    statuses: dict[str, str] = {}
    for name, (lshape, ldel, rshape, rdel) in cases.items():
        if min(rshape[:3]) < 0:
            statuses[name] = SKIPPED
            continue
        lhs = det_elimination(minor(_matrix_unchecked(*lshape), *ldel))
        rhs = det_elimination(minor(_matrix_unchecked(*rshape), *rdel))
        statuses[name] = HOLDS if lhs == rhs else FAILED
    return IdentityReport((a, b, c, r, s, t), statuses)


def identity_checks(
    bound: int, trials: int, seed: int
) -> Iterator[tuple[str, object, bool]]:
    """The identity suite, as ``(check name, case, holds)`` per case.

    Desnanot-Jacobi runs on ``trials`` random matrices of orders 4 and 5,
    the factorisation lemma on half as many cases (rounded up), the two
    polynomial identities on the grid 0..bound and ``trials`` random
    points in -100..100, the relabellings on all sides <= bound.
    A case prints as its input; a relabelling's is its ``IdentityReport``.
    """
    rng = random.Random(seed)
    for order in (4, 5):
        for _ in range(trials):
            matrix = [[rng.randint(-9, 9) for _ in range(order)]
                      for _ in range(order)]
            yield ("desnanot-jacobi", f"order {order}: {matrix}",
                   verify_desnanot_jacobi(matrix))
    for _ in range((trials + 1) // 2):
        n = rng.randint(1, 5)
        x = [rng.randint(-8, 8) for _ in range(n)]
        av = [rng.randint(-8, 8) for _ in range(n - 1)]
        bv = [rng.randint(-8, 8) for _ in range(n - 1)]
        yield ("factorisation-lemma", f"x={x} A={av} B={bv}",
               check_krattenthaler_lemma(x, av, bv))
    for name, check, arity in (
        ("assembly-identity", check_final_identity, 6),
        ("minor-step-identity", check_lemma5_identity, 4),
    ):
        for case in itertools.product(range(bound + 1), repeat=arity):
            yield name, case, check(*case)
        for _ in range(trials):
            case = tuple(rng.randint(-100, 100) for _ in range(arity))
            yield name, case, check(*case)
    for params in all_params(bound, bound, bound):
        report = check_relabelling_identities(*params)
        yield "minor-relabelling", report, report.ok
