import hashlib
import itertools
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from hexcount.closedform import count_macmahon_box, count_theorem1
from hexcount.lgv import HexagonParams, LatticePoint, all_params
from hexcount.oracle import (
    Budget,
    BudgetExceededError,
    MonotonePath,
    PathFamily,
    PlanePartition,
    enumerate_constrained_pp,
    enumerate_path_families,
    enumerate_plane_partitions_box,
    family_to_line,
    iter_path_families,
    parse_family_line,
)


# -------------------------------------------------------------------- budget

def test_budget_default_from_environment(monkeypatch):
    monkeypatch.setenv("HEXCOUNT_BUDGET", "1234")
    assert Budget().limit == 1234
    monkeypatch.delenv("HEXCOUNT_BUDGET")
    assert Budget().limit == 10**8


def test_budget_spend_raises_past_limit():
    budget = Budget(3)
    budget.spend(3)
    with pytest.raises(BudgetExceededError) as info:
        budget.spend()
    assert info.value.limit == 3
    with pytest.raises(ValueError):
        Budget(0)
    with pytest.raises(TypeError):
        Budget(2.5)


def test_enumeration_stops_at_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_path_families((2, 2, 2, 1, 1, 1), budget=50)
    # a shared tracker accumulates across calls
    tracker = Budget(10**6)
    enumerate_path_families((1, 1, 1, 1, 1, 1), budget=tracker)
    used = tracker.used
    enumerate_path_families((1, 1, 1, 1, 1, 1), budget=tracker)
    assert tracker.used == 2 * used


# --------------------------------------------------------------------- paths

def test_monotone_path_validation():
    MonotonePath((LatticePoint(0, 0),))  # single vertex is fine
    with pytest.raises(ValueError, match="illegal step"):
        MonotonePath((LatticePoint(0, 0), LatticePoint(1, 1)))
    with pytest.raises(ValueError):
        MonotonePath(())
    with pytest.raises(TypeError, match="a path coordinate must be an integer, got 0.0"):
        MonotonePath((LatticePoint(0.0, 1), LatticePoint(1.0, 1)))
    # vertices are kept as a tuple of LatticePoints: a list twin is equal and hashes
    listed = MonotonePath([(0, 1), LatticePoint(0, 0)])
    twin = MonotonePath((LatticePoint(0, 1), LatticePoint(0, 0)))
    assert listed == twin and hash(listed) == hash(twin)
    assert type(listed.vertices) is tuple
    assert all(type(v) is LatticePoint for v in listed.vertices)
    single = [LatticePoint(0, 0)]
    assert hash(MonotonePath(single)) == hash(MonotonePath(tuple(single)))
    # a vertex that is not an (x, y) pair is named by its index and value
    with pytest.raises(TypeError, match=r"^path vertex 0 must be an \(x, y\) pair, got \(0, 1, 5\)$"):
        MonotonePath([(0, 1, 5)])
    with pytest.raises(TypeError, match=r"^path vertex 1 must be an \(x, y\) pair, got 7$"):
        MonotonePath([(0, 1), 7])
    # coordinates are kept as the plain ints they index to, so a bool
    # vertex writes as ints and the line parses back to an equal family
    family = PathFamily(HexagonParams(0, 0, 0, 1, 1, 1),
                        [[(False, True), (0, 0)], [(1, 2), (2, 2)]])
    assert type(family.paths[0].start.y) is int
    assert family_to_line(family) == "0 1,0 0;1 2,2 2"
    assert parse_family_line(family_to_line(family), family.config) == family


def test_path_family_validation():
    cfg = HexagonParams(0, 0, 0, 1, 1, 1)
    PathFamily(
        cfg,
        (
            MonotonePath((LatticePoint(0, 1), LatticePoint(0, 0))),
            MonotonePath((LatticePoint(1, 2), LatticePoint(2, 2))),
        ),
    )
    with pytest.raises(ValueError, match="starts at"):
        PathFamily(
            cfg,
            (
                MonotonePath((LatticePoint(0, 0),)),
                MonotonePath((LatticePoint(1, 2), LatticePoint(2, 2))),
            ),
        )
    with pytest.raises(ValueError, match="ends at"):
        PathFamily(
            cfg,
            (
                MonotonePath((LatticePoint(0, 1), LatticePoint(1, 1))),
                MonotonePath((LatticePoint(1, 2), LatticePoint(2, 2))),
            ),
        )
    with pytest.raises(ValueError, match="expected 2 paths"):
        PathFamily(cfg, (MonotonePath((LatticePoint(0, 1), LatticePoint(0, 0))),))
    # the config is kept as HexagonParams and the paths as a tuple
    family = next(iter_path_families(cfg))
    listed = PathFamily(tuple(cfg), list(family.paths))
    assert listed == family and hash(listed) == hash(family)
    assert type(listed.config) is HexagonParams and type(listed.paths) is tuple
    with pytest.raises(TypeError, match=r"^position t must be an integer, got 1\.0$"):
        PathFamily((0, 0, 0, 1, 1, 1.0), family.paths)
    # paths given as vertex sequences are checked into MonotonePaths
    for p in all_params(1, 1, 1):
        for family in iter_path_families(p):
            twin = PathFamily(family.config, [path.vertices for path in family.paths])
            assert twin == family and hash(twin) == hash(family)
    with pytest.raises(ValueError, match="illegal step"):
        PathFamily(cfg, [[(0, 1), (1, 0)], [(1, 2), (2, 2)]])


def test_path_family_intersection_rejected():
    cfg = HexagonParams(1, 1, 1, 1, 1, 1)

    def path(*points):
        return MonotonePath(tuple(LatticePoint(x, y) for x, y in points))

    with pytest.raises(ValueError, match="intersect"):
        PathFamily(
            cfg,
            (
                path((0, 2), (1, 2), (1, 1), (1, 0)),
                path((0, 4), (1, 4), (1, 3), (1, 2), (2, 2), (3, 2)),
                path((3, 4), (4, 4), (4, 3)),
            ),
        )


def test_enumerate_minimal_cases():
    assert enumerate_path_families((0, 0, 0, 1, 1, 1)) == 1
    assert enumerate_path_families((1, 0, 0, 1, 1, 1)) == 2
    assert enumerate_path_families((0, 1, 0, 1, 1, 1)) == 2
    assert enumerate_path_families((1, 1, 1, 1, 1, 1)) == 35


def test_enumerate_zero_length_path_case():
    # b = 0 and t = c+2 force P_0 == Q_0, a path with no steps
    assert enumerate_path_families((1, 0, 1, 1, 1, 3)) == count_theorem1(
        (1, 0, 1, 1, 1, 3)
    )


def test_enumeration_order_is_fixed():
    lines = []
    enumerate_path_families(
        (1, 1, 1, 1, 1, 1), emit=lambda f: lines.append(family_to_line(f))
    )
    assert len(lines) == 35
    assert len(set(lines)) == 35
    # right steps are explored before down steps, path by path
    assert lines[0] == (
        "0 2,1 2,1 1,1 0;0 4,1 4,2 4,2 3,3 3,3 2;3 4,4 4,4 3"
    )
    assert lines[1] == (
        "0 2,1 2,1 1,1 0;0 4,1 4,2 4,2 3,2 2,3 2;3 4,4 4,4 3"
    )
    assert lines[-1] == "0 2,0 1,0 0,1 0;0 4,0 3,1 3,1 2,2 2,3 2;3 4,3 3,4 3"
    again = []
    enumerate_path_families(
        (1, 1, 1, 1, 1, 1), emit=lambda f: again.append(family_to_line(f))
    )
    assert again == lines


# count, Budget.used and family_to_line stream digest of the recursive
# search that the explicit-stack loop replaced
PINNED_STREAMS = {
    (2, 1, 1, 2, 2, 1): (81, 637, "b28e5a772fc06241ecf3fb495b5ae3b9"
                                  "a870da5d5fd5867b2a4118935242d5a8"),
    (2, 2, 2, 2, 2, 2): (6272, 30840, "0f51f1ba0d1d13d190460cf5321658ed"
                                      "8c28da29123991627409107d2c2f1ae2"),
}


@pytest.mark.parametrize("params", list(PINNED_STREAMS))
def test_emission_stream_is_pinned(params):
    count, used, digest = PINNED_STREAMS[params]
    stream, tracker = hashlib.sha256(), Budget()
    assert enumerate_path_families(
        params, budget=tracker,
        emit=lambda f: stream.update(family_to_line(f).encode() + b"\n"),
    ) == count
    assert (tracker.used, stream.hexdigest()) == (used, digest)


@pytest.mark.parametrize("params", [
    (1, 1, 1, 1, 1, 1), (2, 1, 1, 2, 2, 1), (1, 0, 1, 1, 1, 3), (0, 2, 1, 1, 4, 2),
])
def test_iter_and_emit_give_the_same_families(params):
    emitted, by_emit, by_iter = [], Budget(), Budget()
    count = enumerate_path_families(params, emit=emitted.append, budget=by_emit)
    assert list(iter_path_families(params, budget=by_iter)) == emitted
    assert count == len(emitted)
    assert by_iter.used == by_emit.used
    # counting alone visits the same nodes
    counted = Budget()
    assert enumerate_path_families(params, budget=counted) == count
    assert counted.used == by_emit.used


def test_iter_path_families_stops_at_budget_like_emit():
    for limit in (1, 10, 60, 500):
        emitted, by_emit = [], Budget(limit)
        with pytest.raises(BudgetExceededError):
            enumerate_path_families((2, 2, 2, 1, 1, 1), emit=emitted.append,
                                    budget=by_emit)
        iterated, by_iter = [], Budget(limit)
        with pytest.raises(BudgetExceededError):
            iterated.extend(iter_path_families((2, 2, 2, 1, 1, 1), budget=by_iter))
        assert iterated == emitted
        assert by_iter.used == by_emit.used == limit + 1


# sha256 of the comma-joined Budget.used seen at each emission on
# (2,2,2,2,2,2), from the per-node Budget.spend() loops that the local
# counters replaced: the count must be live whenever a family or array leaves
LIVE_BUDGET_DIGESTS = {
    "paths": "e089e75da9377f0572bfb45a2868ab8996913765f7fdb8e06ac648f2c58a6051",
    "pp": "4f114ad6801be943862f9dfe3cc3091ada26761dab6103897d05b080a56b3a2a",
}


def test_budget_used_is_live_at_every_emission():
    params = (2, 2, 2, 2, 2, 2)

    def seen_by_emit(enumerate_fn):
        tracker, seen = Budget(), []
        enumerate_fn(params, emit=lambda _: seen.append(tracker.used), budget=tracker)
        return seen

    def digest(seen):
        return hashlib.sha256(",".join(map(str, seen)).encode()).hexdigest()

    paths = seen_by_emit(enumerate_path_families)
    pp = seen_by_emit(enumerate_constrained_pp)
    assert (paths[:3], paths[-1], len(paths)) == ([62, 70, 73], 30840, 6272)
    assert (pp[:3], pp[-1], len(pp)) == ([76, 78, 80], 74413, 6272)
    assert {"paths": digest(paths), "pp": digest(pp)} == LIVE_BUDGET_DIGESTS
    tracker, iterated = Budget(), []
    for _ in iter_path_families(params, budget=tracker):
        iterated.append(tracker.used)
    assert iterated == paths


def test_budget_spent_during_emission_is_kept():
    # a tracker shared with the consumer keeps what the consumer spends
    params = (1, 1, 1, 1, 1, 1)
    alone = Budget()
    families = enumerate_path_families(params, budget=alone)
    tracker = Budget()
    for _ in iter_path_families(params, budget=tracker):
        tracker.spend(1000)
    assert tracker.used == alone.used + 1000 * families
    for enumerate_fn in (enumerate_path_families, enumerate_constrained_pp):
        alone, tracker = Budget(), Budget()
        count = enumerate_fn(params, budget=alone)
        enumerate_fn(params, emit=lambda _: tracker.spend(1000), budget=tracker)
        assert tracker.used == alone.used + 1000 * count


def test_emitted_families_are_public_types():
    cfg = HexagonParams(2, 1, 1, 2, 2, 1)
    families = list(iter_path_families(cfg))
    assert len(families) == 81
    for family in families:
        for path in family.paths:
            assert all(isinstance(v, LatticePoint) for v in path.vertices)
        assert parse_family_line(family_to_line(family), cfg) == family


def test_family_line_round_trip():
    cfg = HexagonParams(2, 1, 1, 2, 2, 1)
    families = []
    enumerate_path_families(cfg, emit=families.append)
    for family in families[:10]:
        line = family_to_line(family)
        assert parse_family_line(line, cfg) == family


def test_family_line_errors_name_the_path_and_the_vertex():
    cfg = HexagonParams(2, 1, 1, 2, 2, 1)
    with pytest.raises(ValueError, match=r"^path 0: malformed vertex ''$"):
        parse_family_line("", cfg)
    with pytest.raises(ValueError, match=r"^path 0: malformed vertex 'x 2'$"):
        parse_family_line("0 1,x 2;1 2", cfg)
    with pytest.raises(ValueError, match=r"^path 1: malformed vertex '1'$"):
        parse_family_line("0 1;1", cfg)


@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_formula(a, b, c, data):
    r = data.draw(st.integers(min_value=1, max_value=a + 2))
    s = data.draw(st.integers(min_value=1, max_value=b + 2))
    t = data.draw(st.integers(min_value=1, max_value=c + 2))
    params = (a, b, c, r, s, t)
    assert enumerate_path_families(params) == count_theorem1(params)


# ----------------------------------------------------------- plane partitions

def test_plane_partition_validation():
    PlanePartition(((3, 1), (2, 1), (1, 0)))
    with pytest.raises(ValueError, match="row 0 increases"):
        PlanePartition(((1, 2),))
    with pytest.raises(ValueError, match="column 0 increases"):
        PlanePartition(((1, 1), (2, 0)))
    with pytest.raises(ValueError, match="negative"):
        PlanePartition(((-1,),))
    with pytest.raises(ValueError, match="equal length"):
        PlanePartition(((1, 1), (1,)))
    with pytest.raises(TypeError, match="entry \\(0, 1\\) must be an integer, got 1.5"):
        PlanePartition(((2, 1.5), (1, 0)))
    # rows are kept as a tuple of tuples: a list twin is equal and hashes
    listed, twin = PlanePartition([[2, 1], [1, 0]]), PlanePartition(((2, 1), (1, 0)))
    assert listed == twin and hash(listed) == hash(twin)
    assert listed.rows == ((2, 1), (1, 0)) and type(listed.rows[0]) is tuple
    # bools are kept as the plain ints they stand for
    flags = PlanePartition([[True, False]])
    assert flags.to_text() == PlanePartition([[1, 0]]).to_text() == "1 0"
    assert type(flags.rows[0][0]) is int


def test_plane_partition_text():
    assert PlanePartition(((2, 1), (1, 0))).to_text() == "2 1\n1 0"


def test_box_enumeration_small():
    assert enumerate_plane_partitions_box(1, 1, 1) == 2
    assert enumerate_plane_partitions_box(2, 2, 2) == 20
    assert enumerate_plane_partitions_box(0, 3, 3) == 1
    assert enumerate_plane_partitions_box(3, 0, 3) == 1
    empty = []
    assert enumerate_plane_partitions_box(0, 2, 2, emit=empty.append) == 1
    assert [pp.rows for pp in empty] == [()]
    rows = []
    enumerate_plane_partitions_box(1, 2, 2, emit=lambda p: rows.append(p.rows))
    assert rows == [
        ((2, 2),), ((2, 1),), ((2, 0),), ((1, 1),), ((1, 0),), ((0, 0),),
    ]


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_box_enumeration_matches_formula(a, b, c):
    assert enumerate_plane_partitions_box(a, b, c) == count_macmahon_box(a, b, c)


def test_constrained_minimal_case_unique():
    found = []
    n = enumerate_constrained_pp((0, 0, 0, 1, 1, 1), emit=lambda p: found.append(p.rows))
    assert n == 1
    assert found == [((2, 1), (1, 0))]


def test_constrained_counts_are_exact_not_bounds():
    # boundary classes partition: each array satisfies its own class only
    seen: dict[tuple, tuple] = {}
    for r, s, t in itertools.product((1, 2), repeat=3):
        def collect(pp, key=(r, s, t)):
            assert pp.rows not in seen, f"{pp.rows} in two classes"
            seen[pp.rows] = key
        enumerate_constrained_pp((0, 0, 0, r, s, t), emit=collect)
    for rows, (r, s, t) in seen.items():
        maxima = sum(1 for v in rows[0] if v == 2)
        zero_tail = sum(1 for row in rows if row[-1] == 0)
        assert maxima == 2 - s
        assert zero_tail == r
        assert rows[-1][0] == 2 - t


def test_constrained_matches_formula_beyond_minimal():
    for params in [(1, 1, 0, 2, 1, 1), (2, 1, 1, 2, 2, 1), (0, 2, 1, 1, 3, 2)]:
        assert enumerate_constrained_pp(params) == count_theorem1(params)


# count, Budget.used and to_text stream digest of the row-by-row recursive
# fill that the cell-by-cell loop replaced
PINNED_PP_STREAMS = {
    (2, 1, 1, 2, 2, 1): (81, 1214, "bbb3be9663cdab06311a6a550d1dfacf"
                                   "dca358f3a522c9115ce479bcf6b287ba"),
    (2, 2, 2, 2, 2, 2): (6272, 74544, "f328024d431def8c4ef14a4f19f2dff7"
                                      "71ecb342f01f7b8e56f82863e662ebb1"),
    (3, 3, 3): (980, 2674, "0e9376c42f476cafe78a8ce652fd7b5c"
                           "3684cf7281c36ff2d4cddc75cbb0f0c9"),  # the box
}


@pytest.mark.parametrize("case", list(PINNED_PP_STREAMS))
def test_plane_partition_stream_is_pinned(case):
    count, used, digest = PINNED_PP_STREAMS[case]
    stream, tracker = hashlib.sha256(), Budget()
    enumerate_pp = (partial(enumerate_plane_partitions_box, *case)
                    if len(case) == 3 else partial(enumerate_constrained_pp, case))
    assert enumerate_pp(
        budget=tracker,
        emit=lambda pp: stream.update((pp.to_text() + "\n\n").encode()),
    ) == count
    assert (tracker.used, stream.hexdigest()) == (used, digest)


def test_box_enumeration_has_no_depth_limit():
    # 1,500 rows or columns, past the depth of a recursive fill
    assert enumerate_plane_partitions_box(1500, 1, 1) == 1501
    assert enumerate_plane_partitions_box(1, 1500, 1) == 1501


def test_plane_partition_enumeration_stops_at_budget():
    params = (2, 2, 2, 2, 2, 2)
    full: list[PlanePartition] = []
    enumerate_constrained_pp(params, emit=full.append)
    for limit in (10, 100, 1000):
        emitted, tracker = [], Budget(limit)
        with pytest.raises(BudgetExceededError):
            enumerate_constrained_pp(params, emit=emitted.append, budget=tracker)
        assert tracker.used == limit + 1
        assert emitted == full[:len(emitted)]
    # a shared tracker accumulates across calls
    tracker = Budget(10**6)
    enumerate_constrained_pp((1, 1, 1, 1, 1, 1), budget=tracker)
    used = tracker.used
    enumerate_constrained_pp((1, 1, 1, 1, 1, 1), budget=tracker)
    assert tracker.used == 2 * used > 0
