"""Exact integer arithmetic primitives.

Every count produced by this package is an exact integer.  Python's
built-in ``int`` is already an arbitrary-precision type that round-trips
through decimal strings, so ``ExactInt`` is an alias rather than a custom
class.  ``factorial`` is ``math.factorial`` itself; ``binomial`` adds the
package's convention of zero binomials outside the Pascal triangle, and
``pochhammer`` is the rising factorial with any integer base (exported,
though no package code calls it).  ``Exponents`` evaluates products and
quotients of factorials, superfactorials and rising factorials of
positive integers without forming any of them, recording each in O(1)
and multiplying out once, over primes.  Nothing here caches.
``_integer`` is the package's one integer rule and ``_items`` its one
shape rule, here at the bottom of the import graph so that every module
can use them.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, compress, islice

ExactInt = int
factorial = math.factorial  # n! for n >= 0; ValueError below 0, TypeError on a float


def _integer(name: str, value: int, lo: float, hi: int | None = None) -> int:
    """The value as a plain int in lo..hi (lo may be -math.inf, hi None); a
    float raises ``TypeError``, an int out of range ``ValueError``, naming it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < lo or hi is not None and value > hi:
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return value


def _items(name: str, value: object, form: str, length: int | None = None) -> tuple:
    """The items of an iterable as a tuple, exactly ``length`` of them if
    given (read to one past); else ``TypeError``, naming it and the form."""
    try:
        items = tuple(value if length is None else islice(value, length + 1))
        if length is None or len(items) == length:
            return items
    except TypeError:
        pass
    raise TypeError(f"{name} must be {form}, got {value!r}")


class Exponents:
    """A rational number held as one integer exponent per positive integer.

    Factors are recorded in O(1) as second differences of the exponents:
    an interval of factors changes four entries, a superfactorial three.
    ``value`` rebuilds the exponents by two running sums, moves them onto
    primes by Legendre's formula, multiplies each side out by squaring
    over the bits of the prime exponents, and divides once, exactly.
    """

    def __init__(self) -> None:
        self._diffs = [0, 0]

    def interval(self, lo: int, hi: int, e: int = 1) -> None:
        """Multiply by (lo (lo+1) ... hi)**e, for lo >= 1; empty when hi < lo."""
        if hi < lo:
            return
        if lo < 1:
            raise ValueError(f"factors must be >= 1, got {lo}..{hi}")
        diffs = self._diffs
        diffs.extend([0] * (hi + 3 - len(diffs)))
        diffs[lo] += e
        diffs[lo + 1] -= e
        diffs[hi + 1] -= e
        diffs[hi + 2] += e

    def rising(self, base: int, length: int, e: int = 1) -> None:
        """Multiply by the rising factorial (base)_length to the power e.
        A negative length -m stands for 1 / ((base-1)(base-2)...(base-m)),
        the extension satisfying (x)_n = (x)_{n+1} / (x+n)."""
        if length >= 0:
            self.interval(base, base + length - 1, e)
        else:
            self.interval(base + length, base - 1, -e)

    def factorial(self, n: int, e: int = 1) -> None:
        """Multiply by (n!)**e."""
        self.interval(1, n, e)

    def superfactorial(self, n: int, e: int = 1) -> None:
        """Multiply by (0! 1! ... n!)**e, in which k occurs n+1-k times;
        empty for n < 2."""
        if n < 2:
            return
        diffs = self._diffs  # the exponent e(n+1-k) falls by e a step
        diffs.extend([0] * (n + 3 - len(diffs)))
        diffs[2] += e * (n - 1)
        diffs[3] -= e * n
        diffs[n + 2] += e

    def value(self, cofactor: int = 1, what: str = "product") -> ExactInt:
        """The recorded number times ``cofactor``, which may be any int.
        Raises ``ArithmeticError`` if the result is not an integer."""
        exps = list(accumulate(accumulate(self._diffs)))
        top = len(exps) - 1
        sieve = bytearray(2) + bytearray([1]) * (top - 1)
        for p in range(2, math.isqrt(top) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, top + 1, p)))
        primes = list(compress(range(top + 1), sieve))
        powers = []
        for p in primes:
            e, q = 0, p
            while q <= top:  # Legendre: k holds one p per power q of p dividing it
                e += sum(exps[q::q])
                q *= p
            powers.append(e)
        quotient, remainder = divmod(
            cofactor * _power_product(primes, [max(e, 0) for e in powers]),
            _power_product(primes, [max(-e, 0) for e in powers]))
        if remainder:
            raise ArithmeticError(f"{what} evaluated to a non-integer")
        return quotient


def _power_product(primes: list[int], exps: list[int]) -> ExactInt:
    """The product of p**e over the primes and their exponents, e >= 0, by
    squaring over the exponents' bits from the highest down."""
    acc = 1
    for i in reversed(range(max(exps, default=0).bit_length())):
        acc = acc * acc * math.prod(compress(primes, [e >> i & 1 for e in exps]))
    return acc


def superfactorial(n: int) -> ExactInt:
    """Product of k! for k = 0..n (inclusive), so superfactorial(0) == 1."""
    x = Exponents()
    x.superfactorial(_integer("n", n, 0))
    return x.value()


def pochhammer(base: int, length: int) -> ExactInt:
    """Rising factorial base * (base+1) * ... * (base+length-1).

    The empty product (length == 0) is 1.  The base may be any integer;
    a nonpositive base can legitimately make the product vanish.
    """
    base = _integer("base", base, -math.inf)
    return math.prod(range(base, base + _integer("length", length, 0)))


def binomial(n: int, k: int) -> ExactInt:
    """C(n, k), with the convention C(n, k) = 0 for k < 0 or k > n.

    A negative upper index is rejected: every caller in this package has
    n >= 0 by construction, so a negative n indicates a caller bug rather
    than an out-of-range lattice path.
    """
    if type(n) is not int or type(k) is not int:  # cheaper than _integer per M entry
        n, k = _integer("n", n, -math.inf), _integer("k", k, -math.inf)
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got {n}")
    return math.comb(n, k) if k >= 0 else 0  # math.comb is 0 for k > n
