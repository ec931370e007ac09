import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hexcount.closedform import (
    HexagonParams,
    check_final_identity,
    check_krattenthaler_lemma,
    check_lemma5_identity,
    check_relabelling_identities,
    count_macmahon_box,
    count_propp,
    count_theorem1,
    det_inner_closed,
    det_m00_closed,
    theorem_bracket,
)
from hexcount.lgv import all_params, build_matrix_M, det_elimination, minor


def params_strategy(max_side=3):
    return st.tuples(
        st.integers(min_value=0, max_value=max_side),
        st.integers(min_value=0, max_value=max_side),
        st.integers(min_value=0, max_value=max_side),
    ).flatmap(
        lambda abc: st.tuples(
            st.just(abc[0]),
            st.just(abc[1]),
            st.just(abc[2]),
            st.integers(min_value=1, max_value=abc[0] + 2),
            st.integers(min_value=1, max_value=abc[1] + 2),
            st.integers(min_value=1, max_value=abc[2] + 2),
        )
    )


def test_params_validation():
    HexagonParams(0, 0, 0, 2, 2, 2)
    with pytest.raises(ValueError, match="position s"):
        HexagonParams(1, 1, 1, 1, 0, 1)
    with pytest.raises(ValueError, match="side a"):
        HexagonParams(-2, 1, 1, 1, 1, 1)


def test_count_known_values():
    assert count_theorem1((0, 0, 0, 1, 1, 1)) == 1
    assert count_theorem1((1, 0, 0, 1, 1, 1)) == 2
    assert count_theorem1((0, 1, 0, 1, 1, 1)) == 2
    assert count_theorem1((1, 1, 0, 2, 1, 1)) == 8
    assert count_theorem1((1, 1, 1, 1, 1, 1)) == 35
    assert count_theorem1((2, 1, 1, 2, 2, 1)) == 81


def test_count_accepts_params_object():
    p = HexagonParams(2, 1, 1, 2, 2, 1)
    assert count_theorem1(p) == 81


@given(params_strategy())
@settings(max_examples=120)
def test_count_matches_determinant(params):
    assert count_theorem1(params) == det_elimination(build_matrix_M(*params))


def _wide_params(seed=20, count=20):
    """A fixed set of tuples with sides up to 20; every fourth has a > b+c,
    where the interior minors of M vanish."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        if k % 4 == 3:
            b, c = rng.randint(0, 9), rng.randint(0, 9)
            a = rng.randint(b + c + 1, 20)
        else:
            a, b, c = (rng.randint(0, 20) for _ in range(3))
        out.append((a, b, c, rng.randint(1, a + 2), rng.randint(1, b + 2),
                    rng.randint(1, c + 2)))
    return out


@pytest.mark.parametrize("params", _wide_params())
def test_count_matches_determinant_on_wide_sides(params):
    assert count_theorem1(params) == det_elimination(build_matrix_M(*params))


@given(params_strategy(max_side=2))
@settings(max_examples=80)
def test_count_cyclic_symmetry(params):
    # rotating the hexagon by 120 degrees cycles (a, r) -> (b, s) -> (c, t)
    a, b, c, r, s, t = params
    assert count_theorem1((a, b, c, r, s, t)) == count_theorem1((b, c, a, s, t, r))


def test_propp_values():
    assert count_propp(0) == 1
    assert count_propp(1) == 6272
    assert count_propp(2) == 23763455716
    assert count_propp(3) == 55031753041200000000
    with pytest.raises(ValueError):
        count_propp(-1)


def test_propp_matches_general_count_at_large_size():
    # sides 200: superfactorials of up to 602, megabit numbers if multiplied out
    assert count_propp(100) == count_theorem1((200,) * 3 + (101,) * 3)


def test_count_matches_the_theorem_multiplied_out_at_workload_scale():
    # 10^4-bit counts, with no Exponents: the superfactorial ratio telescopes
    # into runs of factorials, and one exact division must leave no remainder
    def factorials(lo, hi):
        return math.prod(map(math.factorial, range(lo, hi + 1)))

    rng = random.Random(29)
    for _ in range(5):
        a, b, c = rng.randint(20, 60), rng.randint(100, 220), rng.randint(100, 220)
        p = (a, b, c, rng.randint(1, a + 2), rng.randint(1, b + 2), rng.randint(1, c + 2))
        r, s, t = p[3:]
        rising = math.prod(math.prod(range(x, x + n)) for x, n in (
            (r + 1, b), (s + 1, c), (t + 1, a), (c + 3 - t, b), (a + 3 - r, c), (b + 3 - s, a)))
        # sf(a) sf(b) sf(c) sf(a+b+c+2) / (sf(b+c+2) sf(a+c+2) sf(a+b+2)), sf(n) = 0!...n!
        numerator = factorials(a + b + 3, a + b + c + 2) * factorials(0, b)
        denominator = factorials(a + 1, a + c + 2) * factorials(c + 1, b + c + 2)
        quotient, remainder = divmod(rising * theorem_bracket(*p) * numerator, denominator)
        assert remainder == 0
        assert count_theorem1(p) == quotient


def test_macmahon_values():
    assert count_macmahon_box(1, 1, 1) == 2
    assert count_macmahon_box(2, 2, 2) == 20
    assert count_macmahon_box(3, 3, 3) == 980
    assert count_macmahon_box(4, 4, 4) == 232848
    assert count_macmahon_box(0, 9, 4) == 1
    assert count_macmahon_box(1, 2, 3) == 10
    with pytest.raises(ValueError):
        count_macmahon_box(1, -1, 1)


@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)
def test_macmahon_symmetry(a, b, c):
    reference = count_macmahon_box(a, b, c)
    assert count_macmahon_box(b, c, a) == reference
    assert count_macmahon_box(c, a, b) == reference


# ------------------------------------------------------------- minor formulas

@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_inner_minor_formula(a, b, c, data):
    r = data.draw(st.integers(min_value=1, max_value=a + 1))
    m = build_matrix_M(a, b, c, r, 1, 1)
    expected = det_elimination(minor(m, (0, a + 1), (0, a + 1)))
    assert det_inner_closed(a, b, c, r) == expected


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_first_minor_formula(a, b, c, data):
    r = data.draw(st.integers(min_value=1, max_value=a + 2))
    s = data.draw(st.integers(min_value=1, max_value=b + 2))
    m = build_matrix_M(a, b, c, r, s, 1)
    expected = det_elimination(minor(m, (0,), (0,)))
    assert det_m00_closed(a, b, c, r, s) == expected


def test_inner_minor_size_one():
    # a = 1, r = 1: the minor is the single entry M[1][1] = C(b+c+3, b+2),
    # the column index having skipped past r
    from hexcount.exact import binomial

    for b in range(4):
        for c in range(4):
            assert det_inner_closed(1, b, c, 1) == binomial(b + c + 3, b + 2)


def test_minor_formula_domains():
    with pytest.raises(ValueError, match="position r"):
        det_inner_closed(2, 1, 1, 4)
    with pytest.raises(ValueError, match="side a"):
        det_inner_closed(0, 1, 1, 1)
    with pytest.raises(ValueError, match="position s"):
        det_m00_closed(2, 1, 1, 1, 5)
    with pytest.raises(TypeError, match=r"side a must be an integer, got 2\.5"):
        det_inner_closed(2.5, 1, 1, 1)


# ----------------------------------------------------------------- identities

def test_bracket_is_symmetric_under_cyclic_shift():
    # cycling (a, r) -> (b, s) -> (c, t) -> (a, r) fixes the bracket
    for tup in [(1, 2, 3, 1, 2, 3), (0, 1, 2, 2, 1, 1), (3, 1, 0, 2, 3, 1)]:
        a, b, c, r, s, t = tup
        assert theorem_bracket(a, b, c, r, s, t) == theorem_bracket(
            b, c, a, s, t, r
        )


@given(st.lists(st.integers(min_value=-60, max_value=60), min_size=6, max_size=6))
def test_final_identity_everywhere(values):
    assert check_final_identity(*values)


@given(st.lists(st.integers(min_value=-60, max_value=60), min_size=4, max_size=4))
def test_lemma5_identity_everywhere(values):
    assert check_lemma5_identity(*values)


def test_krattenthaler_lemma_small_case():
    # n = 2 by hand: row 1 is (x_j + A_2), row 2 is (x_j + B_2), and
    # det = (x1 - x2)(B_2 - A_2)
    assert check_krattenthaler_lemma([3, 5], [2], [7])
    assert check_krattenthaler_lemma([0, 0], [1], [1])  # equal x_j: both sides 0


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            st.lists(st.integers(-9, 9), min_size=n - 1, max_size=n - 1),
            st.lists(st.integers(-9, 9), min_size=n - 1, max_size=n - 1),
        )
    )
)
@settings(max_examples=120)
def test_krattenthaler_lemma_random(data):
    x, a_vals, b_vals = data
    assert check_krattenthaler_lemma(list(x), list(a_vals), list(b_vals))


def test_krattenthaler_lemma_arity_check():
    with pytest.raises(ValueError):
        check_krattenthaler_lemma([1, 2, 3], [1], [1, 2])
    assert check_krattenthaler_lemma([], [], [])  # n = 0: both sides are 1


def test_relabelling_identities_report():
    report = check_relabelling_identities(2, 1, 1, 2, 2, 1)
    assert report.ok
    assert report.statuses["align-last-row-col"] == "holds"
    assert report.failures() == []
    # every identity is constructible here
    assert "skipped" not in report.statuses.values()


def test_relabelling_identities_skip_rules():
    report = check_relabelling_identities(0, 0, 0, 1, 1, 1)
    assert report.ok
    assert report.statuses["shrink-inner"] == "skipped"  # needs a >= 1
    assert report.statuses["align-last-col"] == "skipped"  # needs b >= 1
    assert report.statuses["align-last-row"] == "skipped"  # needs c >= 1
    assert report.statuses["inner-low-end"] == "holds"


@given(params_strategy(max_side=2))
@settings(max_examples=60, deadline=None)
def test_relabelling_identities_hold(params):
    assert check_relabelling_identities(*params).ok


def test_relabelling_statuses_are_pinned():
    # the skip rule (shifted sides must pass validate_sides) over all 2,744
    # tuples with sides <= 3, as the hand-written predicates gave it
    tally = Counter()
    for params in all_params(3, 3, 3):
        tally.update(check_relabelling_identities(*params).statuses.items())
    skips = dict.fromkeys(["align-last-col", "align-last-row", "shrink-first",
                           "shrink-inner", "shrink-outer"], 392)
    skips["shrink-cross"] = 728
    skips.update(dict.fromkeys(["align-last-row-col", "first-high-end",
                                "first-low-end", "inner-high-end", "inner-low-end",
                                "inner-past-end"], 0))
    assert {name: tally[name, "skipped"] for name in skips} == skips
    assert {name: tally[name, "holds"] for name in skips} == {
        name: 2744 - n for name, n in skips.items()}
    assert sum(tally.values()) == 12 * 2744  # no identity failed, none is missing
    assert sum(skips.values()) == 2688  # so 30,240 hold
