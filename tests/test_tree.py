import pytest
from hypothesis import given, settings, strategies as st

from adl.diffusion import Snapshot, Trajectory
from adl.protocol import uniform_protocol
from adl.tree import (
    SOURCE,
    ball_size,
    bfs_depths,
    check_degree,
    check_label,
    distance,
    format_label,
    labels_at_depth,
    neighbors,
    parse_label,
    path_between,
    sphere_size,
    steiner_tree,
    TreeContext,
)


def labels(d: int, max_depth: int = 6):
    first = st.integers(0, d - 1)
    rest = st.lists(st.integers(0, d - 2), max_size=max_depth - 1)
    return st.one_of(
        st.just(()),
        st.tuples(first).flatmap(
            lambda head: rest.map(lambda tail: head + tuple(tail))
        ),
    )


def test_degree_below_three_is_rejected():
    check_degree(3)
    with pytest.raises(ValueError, match="degree must be >= 3"):
        check_degree(2)
    with pytest.raises(ValueError, match="degree must be >= 3"):
        Snapshot(d=2, t=2, vs_prev=(0,), vs_now=(0,))
    with pytest.raises(ValueError, match="degree must be >= 3"):
        Trajectory(d=2, protocol="x", seed=0, vs=((), (0,)))
    with pytest.raises(ValueError, match="degree must be >= 3"):
        uniform_protocol(2)  # Protocol.__post_init__
    with pytest.raises(ValueError, match="degree must be >= 3"):
        TreeContext(2)


def test_label_validation():
    check_label(3, (2, 0, 1))
    with pytest.raises(ValueError):
        check_label(3, (3,))
    with pytest.raises(ValueError):
        check_label(3, (0, 2))  # later entries limited to d-2
    check_label(4, (3, 2, 0))


def test_label_text_round_trip():
    assert format_label(()) == "/"
    assert format_label((2, 0, 1)) == "/2/0/1"
    assert parse_label("/") == ()
    assert parse_label("/2/0/1") == (2, 0, 1)
    with pytest.raises(ValueError):
        parse_label("2/0")
    with pytest.raises(ValueError):
        parse_label("/a")
    # only the canonical text format_label writes is accepted
    for text in ("/ 1", "/+1", "/01", "/\u0661", "/1 /0", "/1_0", "//", "/1/", "/0/0_0"):
        with pytest.raises(ValueError, match="malformed label text"):
            parse_label(text)


@given(st.lists(st.integers(0, 10**6), max_size=12).map(tuple))
def test_label_text_round_trips(v):
    assert parse_label(format_label(v)) == v


def test_distance_examples():
    assert distance((0,), (1,)) == 2
    assert distance((0, 1, 0), (0, 1)) == 1
    assert distance((), (2, 0)) == 2


def test_path_between_examples():
    assert path_between((0, 1), (0,)) == [(0, 1), (0,)]
    assert path_between((0,), (1,)) == [(0,), (), (1,)]
    assert path_between((), ()) == [()]


def test_steiner_tree_examples():
    assert steiner_tree(3, [(0,)]) == {(0,)}
    assert steiner_tree(3, [(0,), (1,)]) == {(0,), (), (1,)}
    assert steiner_tree(TreeContext(3), [(0,), (1,)]) == {(0,), (), (1,)}  # earlier call form
    assert steiner_tree(3, [(0,), (1, 0), (2, 1)]) == {
        (0,),
        (),
        (1,),
        (1, 0),
        (2,),
        (2, 1),
    }
    with pytest.raises(ValueError):
        steiner_tree(3, [])


def test_neighborhood_examples():
    assert set(bfs_depths(3, [()], 1)) == {(), (0,), (1,), (2,)}
    assert set(bfs_depths(3, [()], 0)) == {()}
    assert len(set(bfs_depths(3, [(0,)], 2))) == 10


def test_neighbors_degree():
    assert len(neighbors(3, ())) == 3
    assert len(neighbors(3, (1, 0))) == 3
    assert set(neighbors(3, (1,))) == {(), (1, 0), (1, 1)}


@given(st.data())
def test_distance_is_a_metric(data):
    d = data.draw(st.sampled_from([3, 4, 5]))
    lab = labels(d)
    u, v, w = data.draw(lab), data.draw(lab), data.draw(lab)
    assert distance(u, v) == distance(v, u)
    assert (distance(u, v) == 0) == (u == v)
    assert distance(u, w) <= distance(u, v) + distance(v, w)


@given(st.data())
def test_path_matches_distance_and_steps(data):
    d = data.draw(st.sampled_from([3, 4, 5]))
    u, v = data.draw(labels(d)), data.draw(labels(d))
    path = path_between(u, v)
    assert len(path) == distance(u, v) + 1
    assert path[0] == u and path[-1] == v
    for a, b in zip(path, path[1:]):
        assert distance(a, b) == 1
    assert len(set(path)) == len(path)


@given(st.data())
def test_same_subtree_of_source_is_first_entry_equality(data):
    d = data.draw(st.sampled_from([3, 4]))
    nonroot = labels(d).filter(lambda v: v != ())
    x, y = data.draw(nonroot), data.draw(nonroot)
    # x and y share a component of the tree minus the source exactly when the
    # connecting path avoids the source
    assert (SOURCE not in path_between(x, y)) == (x[0] == y[0])


def steiner_by_paths(terms):
    """The Steiner tree's definition: the union of every pairwise path."""
    out = set()
    for a in terms:
        for b in terms:
            out.update(path_between(a, b))
    return out


@st.composite
def terminal_lists(draw):
    """(d, 1-60 labels of depth <= 8), sometimes with a repeated label and a
    label that is a prefix of another."""
    d = draw(st.sampled_from([3, 4, 5]))
    terms = draw(st.lists(labels(d, 8), min_size=1, max_size=58))
    if draw(st.booleans()):
        terms.append(draw(st.sampled_from(terms)))
    if draw(st.booleans()):
        longest = max(terms, key=len)
        terms.append(longest[: draw(st.integers(0, len(longest)))])
    return d, draw(st.permutations(terms))


@settings(max_examples=200, deadline=None)
@given(terminal_lists())
def test_steiner_tree_equals_pairwise_path_union(case):
    d, terms = case
    assert steiner_tree(d, terms) == steiner_by_paths(terms)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 4, 5]))
def test_snapshot_rejects_an_invalid_terminal(d):
    # tree operations take labels as given; a label out of range for d is
    # refused where it enters, so no estimator ever sees one as a terminal
    for bad in [(d,), (0, d - 1), (d - 1,) + (0,) * 6 + (d,)]:
        with pytest.raises(ValueError, match="out of range"):
            Snapshot(d=d, t=2 * len(bad), vs_prev=bad, vs_now=bad)
        with pytest.raises(ValueError, match="out of range"):
            Snapshot(d=d, t=2 * len(bad) + 1, vs_prev=bad[:-1], vs_now=bad)


@given(st.sampled_from([3, 4, 5]), st.integers(1, 5))
def test_ball_size_formula(d, r):
    assert len(set(bfs_depths(d, [()], r))) == ball_size(d, r)
    assert ball_size(d, r) == 1 + d * ((d - 1) ** r - 1) // (d - 2)


def test_sphere_enumeration_agrees_with_count():
    for d in (3, 4):
        for depth in range(4):
            got = list(labels_at_depth(d, depth))
            assert len(got) == sphere_size(d, depth)
            assert len(set(got)) == len(got)
            assert got == sorted(got)
            assert all(len(v) == depth for v in got)


def test_bfs_depths_are_true_distances():
    core = [(0, 0), (1,)]
    depths = bfs_depths(3, core, 3)
    for v, r in depths.items():
        assert r == min(distance(v, c) for c in core)
