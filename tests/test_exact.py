import math
import random

import pytest
from hypothesis import given, strategies as st

from hexcount.exact import (
    Exponents,
    binomial,
    factorial,
    pochhammer,
    superfactorial,
)


def test_factorial_known_values():
    assert factorial(0) == 1
    assert factorial(1) == 1
    assert factorial(5) == 120
    assert factorial(20) == 2432902008176640000


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_superfactorial_known_values():
    assert superfactorial(0) == 1
    assert superfactorial(1) == 1
    assert superfactorial(3) == 1 * 1 * 2 * 6
    assert superfactorial(4) == 288
    with pytest.raises(TypeError, match="n must be an integer"):
        superfactorial(2.0)


@given(st.integers(min_value=1, max_value=40))
def test_superfactorial_recurrence(n):
    assert superfactorial(n) == superfactorial(n - 1) * factorial(n)


def test_superfactorial_needs_no_recursion():
    n = 2000
    value = superfactorial(n)
    modulus = 2**61 - 1
    expected = 1
    running = 1
    for k in range(1, n + 1):
        running = running * k % modulus
        expected = expected * running % modulus
    assert value % modulus == expected
    # v_2(k!) = k - popcount(k), summed over k
    two_adic = (value & -value).bit_length() - 1
    assert two_adic == sum(k - bin(k).count("1") for k in range(n + 1))


def test_exponents_match_direct_products():
    x = Exponents()
    x.factorial(7)
    x.superfactorial(4, 2)
    x.rising(3, 4, -1)
    x.rising(9, -2)
    x.interval(10, 11, 3)
    expected = factorial(7) * superfactorial(4) ** 2 * 110**3
    assert expected % (3 * 4 * 5 * 6 * 8 * 7) == 0
    assert x.value(-11) == -11 * expected // (3 * 4 * 5 * 6 * 8 * 7)


def test_exponents_match_direct_products_on_random_recordings():
    # every recording kind, empty ranges and negative lengths included, against
    # the same factors multiplied out and one exact division
    rng = random.Random(29)
    for _ in range(400):
        x, num, den = Exponents(), 1, 1
        for _ in range(rng.randint(0, 6)):
            kind, e = rng.randrange(4), rng.choice((-3, -2, -1, 1, 2, 3))
            if kind == 0:
                lo = rng.randint(1, 60)
                hi = rng.randint(lo - 3, lo + 40)
                x.interval(lo, hi, e)
                factor = math.prod(range(lo, hi + 1))
            elif kind == 1:
                base = rng.randint(1, 40)
                length = rng.randint(1 - base, 30)
                x.rising(base, length, e)
                if length >= 0:
                    factor = math.prod(range(base, base + length))
                else:  # 1 / ((base-1)(base-2)...(base+length))
                    factor, e = math.prod(range(base + length, base)), -e
            elif kind == 2:
                n = rng.randint(0, 60)
                x.factorial(n, e)
                factor = math.factorial(n)
            else:
                n = rng.choice((-1, 0, 1, 2, 3, rng.randint(4, 60)))
                x.superfactorial(n, e)
                factor = math.prod(map(math.factorial, range(max(n, 0) + 1)))
            if e > 0:
                num *= factor**e
            else:
                den *= factor**-e
        cofactor = rng.choice((0, 1, -1, -rng.randint(2, 10**6),
                               rng.randint(-10**40, 10**40), den * rng.randint(-99, 99)))
        quotient, remainder = divmod(cofactor * num, den)
        if remainder:
            with pytest.raises(ArithmeticError, match="non-integer"):
                x.value(cofactor)
        else:
            assert x.value(cofactor) == quotient


def test_exponents_reject_a_denominator_that_does_not_divide():
    x = Exponents()
    x.factorial(3, -1)
    with pytest.raises(ArithmeticError, match="non-integer"):
        x.value(5)
    assert x.value(12) == 2


def test_exponents_reject_nonpositive_factors():
    x = Exponents()
    with pytest.raises(ValueError):
        x.rising(0, 3)
    with pytest.raises(ValueError):
        x.interval(-1, 2)
    x.rising(-4, 0)  # empty, so no factor is recorded
    assert x.value() == 1


def test_pochhammer_basics():
    assert pochhammer(3, 0) == 1
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(-2, 5) == 0  # crosses zero
    assert pochhammer(-5, 3) == -5 * -4 * -3
    with pytest.raises(ValueError):
        pochhammer(3, -1)
    with pytest.raises(TypeError, match=r"base must be an integer, got 2\.5"):
        pochhammer(2.5, 2)


@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=0, max_value=15))
def test_pochhammer_recurrence(base, length):
    assert pochhammer(base, length + 1) == pochhammer(base, length) * (base + length)


def test_binomial_zero_convention():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(0, 0) == 1
    with pytest.raises(ValueError):
        binomial(-1, 0)
    for n, k, message in ((5, -1.0, r"k .* got -1\.0"), (5.0, 2, r"n .* got 5\.0"),
                          (5, 2.0, r"k .* got 2\.0")):
        with pytest.raises(TypeError, match=message):
            binomial(n, k)


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=-5, max_value=65))
def test_binomial_matches_stdlib_inside_triangle(n, k):
    expected = math.comb(n, k) if 0 <= k <= n else 0
    assert binomial(n, k) == expected


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=-2, max_value=52))
def test_binomial_pascal_rule(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
