import copy
import dataclasses
import math
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from adl.diffusion import (
    Snapshot,
    Trajectory,
    local_radius,
    sample_snapshot,
    simulate,
    walker,
)
from adl.experiments import derive_seed
from adl.protocol import (
    constant_protocol,
    hop_distribution,
    load_protocol_table,
    local_spreading_protocol,
    local_hop_target,
    perfect_protocol,
    uniform_protocol,
)
from adl.tree import SOURCE, bfs_depths, distance
from conftest import stepwise_infected_set


def test_always_stay_keeps_h_one():
    tr = simulate(constant_protocol(3, 1), 20, seed=1)
    assert all(tr.h(t) == 1 for t in range(1, 21))


def test_always_move_maxes_h():
    tr = simulate(constant_protocol(3, 0), 20, seed=2)
    for t in range(2, 21, 2):
        assert tr.h(t) == t // 2


def test_local_spreading_h_is_deterministic():
    proto = local_spreading_protocol(3, 0.5)
    tr = simulate(proto, 10, seed=3)
    assert tr.h(10) == 2  # floor(0.5 * 5)
    for seed in range(20):
        tr = simulate(proto, 40, seed=seed)
        for t in range(2, 41, 2):
            assert tr.h(t) == local_hop_target(0.5, t)


def test_trajectory_structure_invariants():
    proto = uniform_protocol(4)
    for seed in range(50):
        tr = simulate(proto, 15, seed=seed)
        assert tr.vs[0] == SOURCE
        assert tr.h(1) == 1
        for t in range(1, 15, 2):
            assert tr.vs[t + 1] == tr.vs[t]
        for t in range(2, 14, 2):
            step = tr.h(t + 2) - tr.h(t)
            assert step in (0, 1)
            if step:  # a move extends the label away from the origin
                assert tr.vs[t + 2][: tr.h(t)] == tr.vs[t]


def test_simulation_is_pure_in_seed():
    proto = uniform_protocol(3)
    assert simulate(proto, 12, 7).vs == simulate(proto, 12, 7).vs
    assert simulate(proto, 12, 7).vs != simulate(proto, 12, 8).vs


def test_coupling_across_alpha_tables():
    # same seed, monotone alphas: the always-stay walk is a prefix-wise
    # contraction of the always-move walk, and directions coincide on moves
    hi = simulate(constant_protocol(3, 0), 12, seed=42)
    lo = simulate(constant_protocol(3, 1), 12, seed=42)
    assert lo.vs[1] == hi.vs[1]
    for t in range(12):
        assert hi.vs[t][: len(lo.vs[t])] == lo.vs[t]


def test_trajectory_json_round_trip():
    tr = simulate(uniform_protocol(3), 9, seed=11)
    back = Trajectory.from_json(tr.to_json())
    assert back == tr
    assert '"vs": ["/"' in tr.to_json()


def test_trajectory_rejects_inconsistent_walks():
    with pytest.raises(ValueError):
        Trajectory(d=3, protocol="x", seed=0, vs=((), (0,), (0, 1)))  # moved at odd t
    with pytest.raises(ValueError):
        Trajectory(d=3, protocol="x", seed=0, vs=((), (0,), (0,), (1,)))  # jumped sideways
    with pytest.raises(ValueError):
        Trajectory(d=3, protocol="x", seed=0, vs=((0,), (0,)))  # must start at origin
    with pytest.raises(ValueError, match="out of range for d=3"):
        Trajectory(d=3, protocol="x", seed=0, vs=((), (3,), (3,)))


def test_snapshot_dict_round_trip():
    s = Snapshot(d=3, t=5, vs_prev=(1,), vs_now=(1, 0))
    assert Snapshot.from_dict(s.to_dict()) == s
    assert s.to_dict() == {"d": 3, "t": 5, "vs_prev": "/1", "vs_now": "/1/0"}


def test_snapshot_projection_and_validation():
    tr = simulate(constant_protocol(3, 0), 8, seed=5)
    s = tr.snapshot_at(8)
    assert s.vs_prev == s.vs_now == tr.vs[8]
    assert s.is_ball
    s5 = tr.snapshot_at(5)
    assert not s5.is_ball and distance(s5.vs_prev, s5.vs_now) == 1
    with pytest.raises(ValueError):
        tr.snapshot_at(9)
    with pytest.raises(ValueError):
        tr.snapshot_at(0)


def test_snapshot_invariants_enforced():
    with pytest.raises(ValueError, match="even-time snapshots have vs_prev == vs_now"):
        Snapshot(d=3, t=4, vs_prev=(0,), vs_now=(0, 1))  # even but moved
    with pytest.raises(ValueError, match="must be adjacent to its predecessor"):
        Snapshot(d=3, t=5, vs_prev=(0,), vs_now=(0, 1, 0))  # not adjacent
    with pytest.raises(ValueError, match="vs_prev must be the parent of vs_now"):
        Snapshot(d=3, t=5, vs_prev=(0, 0), vs_now=(0,))  # adjacent, child first
    with pytest.raises(ValueError, match="never sits at the origin for t >= 2"):
        Snapshot(d=3, t=4, vs_prev=(), vs_now=())  # origin after t=1
    with pytest.raises(ValueError, match="observation time must be >= 1, got 0"):
        Snapshot(d=3, t=0, vs_prev=(), vs_now=())
    Snapshot(d=3, t=1, vs_prev=(), vs_now=(2,))  # the t=1 edge is allowed


def test_snapshot_behaves_as_a_frozen_dataclass():
    # the generated __init__, with the checks in __post_init__, gives field
    # order, keyword construction, value equality and hash, repr, replace
    # (which validates again), copy and pickle
    s = Snapshot(d=3, t=5, vs_prev=(1,), vs_now=(1, 0))
    assert s == Snapshot(3, 5, (1,), (1, 0)) != Snapshot(3, 5, (1, 0), (1, 0, 1))
    assert hash(s) == hash((3, 5, (1,), (1, 0)))
    assert repr(s) == "Snapshot(d=3, t=5, vs_prev=(1,), vs_now=(1, 0))"
    assert [f.name for f in dataclasses.fields(s)] == ["d", "t", "vs_prev", "vs_now"]
    assert list(vars(s)) == ["d", "t", "vs_prev", "vs_now"]
    assert dataclasses.replace(s, t=7) == Snapshot(3, 7, (1,), (1, 0))
    with pytest.raises(ValueError, match="even-time snapshots"):
        dataclasses.replace(s, t=6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.t = 7
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(twin) is Snapshot and twin == s and vars(twin) == vars(s)


def test_contains_examples():
    s = Snapshot(d=3, t=6, vs_prev=(0, 1), vs_now=(0, 1))
    assert s.contains((0, 1))
    assert s.contains(SOURCE)
    far = (0, 1, 0, 0, 0, 1)  # distance 4 > 3
    assert distance(far, (0, 1)) == 4
    assert not s.contains(far)
    odd = Snapshot(d=3, t=5, vs_prev=(1,), vs_now=(1, 0))
    assert odd.min_vs_distance((0,)) == 2
    assert odd.contains((0,))


def test_infected_count_examples():
    assert Snapshot(d=3, t=4, vs_prev=(0,), vs_now=(0,)).infected_count() == 10
    assert Snapshot(d=3, t=2, vs_prev=(1,), vs_now=(1,)).infected_count() == 4
    assert Snapshot(d=3, t=5, vs_prev=(1,), vs_now=(1, 0)).infected_count() == 14


@pytest.mark.parametrize("d", [3, 4])
def test_infected_set_matches_stepwise_rule(d):
    # the membership predicate and the count both agree with the literal
    # step-by-step construction of the spreading rule
    proto = uniform_protocol(d)
    for seed in range(12):
        tr = simulate(proto, 10, seed=seed)
        for t in range(1, 11):
            expected = stepwise_infected_set(tr, t)
            s = tr.snapshot_at(t)
            assert s.infected_count() == len(expected)
            probe = set(bfs_depths(d, [SOURCE], t // 2 + 2)) | expected
            for v in probe:
                assert s.contains(v) == (v in expected)


def test_every_snapshot_contains_the_source():
    for proto in (uniform_protocol(3), perfect_protocol(4)):
        for seed in range(30):
            tr = simulate(proto, 13, seed=seed)
            for t in range(1, 14):
                assert tr.snapshot_at(t).contains(SOURCE)


def test_local_radius_identity_brute_force():
    # max{r : B_r(origin) fully infected} really is t/2 - h_t
    for d in (3, 4):
        proto = uniform_protocol(d)
        for seed in range(10):
            tr = simulate(proto, 12, seed=seed)
            for t in (4, 8, 12):
                s = tr.snapshot_at(t)
                ball = bfs_depths(d, [SOURCE], t // 2)
                by_r = Counter()
                for v, r in ball.items():
                    by_r[r] += s.contains(v)
                brute = -1
                for r in range(t // 2 + 1):
                    if by_r[r] == len([1 for x in ball.values() if x == r]):
                        brute = r
                    else:
                        break
                assert brute == local_radius(tr, t) == t // 2 - tr.h(t)


def test_local_radius_examples_and_odd_rejection():
    tr = simulate(constant_protocol(3, 0), 12, seed=0)
    assert local_radius(tr, 4) == 0  # h_4 = 2 under always-move
    proto = local_spreading_protocol(3, 0.5)
    tr = simulate(proto, 12, seed=1)
    assert local_radius(tr, 12) == 3  # 6 - floor(0.5 * 6)
    with pytest.raises(ValueError):
        local_radius(tr, 5)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_snapshot_pair_is_always_consistent(seed):
    tr = simulate(uniform_protocol(3), 11, seed=seed)
    for t in range(1, 12):
        s = tr.snapshot_at(t)
        if t % 2 == 0:
            assert s.is_ball
        if not s.is_ball:
            assert s.vs_now[:-1] == s.vs_prev


def test_hop_frequencies_match_dp_three_sigma():
    # bridging: Monte Carlo h_12 frequencies against the exact hop table,
    # per cell, for both a flat and a sharply skewed hop law; h_12 is the
    # depth of vs_12, read off the endpoint-only walk
    n = 100_000
    for proto in (uniform_protocol(3), perfect_protocol(3)):
        hop = hop_distribution(proto, 12)
        counts = Counter(len(sample_snapshot(proto, 12, s).vs_now) for s in range(n))
        for h, p in enumerate(map(float, hop[12]), 1):
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[h] / n - p) <= 3 * sigma


# ---------------------------------------------------------------------------
# the draw contract, pinned against the loop it replaced
# ---------------------------------------------------------------------------


def reference_walk(protocol, T, seed):
    """The draw loop as first written: Protocol.alpha queried at every even
    step and the full path kept."""
    d = protocol.d
    rng = random.Random(seed)
    vs = [SOURCE]
    if T >= 1:
        vs.append((rng.randrange(d),))
    cur = vs[-1]
    for t in range(1, T):
        if t % 2 == 1:
            vs.append(cur)
            continue
        u = rng.random()
        child = rng.randrange(d - 1)
        if u >= protocol.alpha(t, len(cur)):
            cur = cur + (child,)
        vs.append(cur)
    return tuple(vs)


def table_csv(t_max, d):
    """An irregular alpha table (no closed form) up to even t_max."""
    rows = ["t,h,alpha"]
    for t in range(2, t_max + 1, 2):
        for h in range(1, t // 2 + 1):
            rows.append(f"{t},{h},{((7 * t + 3 * h * d) % 11) / 10!r}")
    return "\n".join(rows) + "\n"


CONTRACT_PROTOCOLS = {
    "uniform": uniform_protocol,
    "perfect": perfect_protocol,
    "local": lambda d: local_spreading_protocol(d, 0.5),
    "table": lambda d: load_protocol_table(table_csv(14, d), d),
    "const0": lambda d: constant_protocol(d, 0),
    "const1": lambda d: constant_protocol(d, 1),
}


# d - 1 (d = 3, 5, 9) and d (d = 4, 8) powers of two: randrange rejects half
# of its getrandbits draws there
@pytest.mark.parametrize("d", [3, 4, 5, 8, 9])
@pytest.mark.parametrize("name", sorted(CONTRACT_PROTOCOLS))
def test_walk_matches_reference_loop(name, d):
    proto = CONTRACT_PROTOCOLS[name](d)
    for T in range(0, 17):
        for n in range(200):
            seed = derive_seed(31, d, T, n)
            tr = simulate(proto, T, seed)
            assert tr.vs == reference_walk(proto, T, seed)
            if T:
                assert sample_snapshot(proto, T, seed) == tr.snapshot_at(T)
    with pytest.raises(ValueError, match="T must be >= 0, got -1"):
        simulate(proto, -1, 0)
    with pytest.raises(ValueError, match="observation time must be >= 1, got 0"):
        sample_snapshot(proto, 0, 0)


@pytest.mark.parametrize("d", [3, 4, 5, 8, 9])
@pytest.mark.parametrize("name", sorted(CONTRACT_PROTOCOLS))
def test_one_sampler_reused_across_streams_matches_reference_loop(name, d):
    # a Monte Carlo job builds one walker per time and reseeds one generator
    # per walk; a time-T walk draws a prefix of a longer walk's draws, so one
    # reference path per seed covers every T up to the protocol's horizon
    proto = CONTRACT_PROTOCOLS[name](d)
    longest = 40 if proto.t_max is None else proto.t_max + 2  # last step reads t_max
    seeds = [derive_seed(33, d, n) for n in range(200)]
    paths = [reference_walk(proto, longest, seed) for seed in seeds]
    rng = random.Random()
    for T in range(1, 41):
        if T > longest:
            with pytest.raises(ValueError, match=f"protocol stops at {proto.t_max}"):
                walker(proto, T)
            continue
        walk = walker(proto, T)
        for seed, vs in zip(seeds, paths):
            rng.seed(seed)
            states = walk(rng)  # stage j is vs_{2j-1} = vs_{2j}
            assert states == [vs[0], *vs[1:T + 1:2]]
            assert (states[T // 2], states[(T + 1) // 2]) == (vs[T - 1], vs[T])


@pytest.mark.parametrize("name", sorted(CONTRACT_PROTOCOLS))
def test_trial_loop_snapshots_equal_checked_ones(name):
    # a Monte Carlo job hands the pairs its walkers draw to the estimator
    # cores without checking them again (experiments.run): each is a pair
    # Snapshot(...) accepts, and Trajectory.snapshot_at is the snapshot
    # Snapshot(...) builds from the trajectory's pair
    rng = random.Random()
    for d in (3, 4, 5):
        proto = CONTRACT_PROTOCOLS[name](d)
        for T in range(1, 17):
            walk = walker(proto, T)
            pairs = {}
            for n in range(100):
                rng.seed(derive_seed(35, d, T, n))
                states = walk(rng)
                pair = (states[T // 2], states[(T + 1) // 2])
                pairs.setdefault(pair, pair)
            for prev, now in pairs.values():
                Snapshot(d, T, prev, now)
            tr = simulate(proto, T, derive_seed(36, d, T))
            for t in range(1, T + 1):
                assert tr.snapshot_at(t) == Snapshot(d, t, tr.vs[t - 1], tr.vs[t])


@pytest.mark.parametrize("name", sorted(CONTRACT_PROTOCOLS))
def test_alpha_rows_equal_alpha(name):
    for d in (3, 4, 5):
        proto = CONTRACT_PROTOCOLS[name](d)
        rows = proto.alpha_rows(14)
        assert sorted(rows) == list(range(2, 15, 2))
        for t, row in rows.items():
            assert len(row) == t // 2 + 1
            for h in range(1, t // 2 + 1):
                assert row[h] == proto.alpha(t, h)


def test_table_protocol_raises_past_its_horizon():
    proto = load_protocol_table(table_csv(6, 3), 3)
    assert simulate(proto, 8, 1).T == 8  # alpha needed up to t=6 only
    sample_snapshot(proto, 8, 1)
    for T in (9, 10, 16):
        with pytest.raises(ValueError, match="protocol stops at 6"):
            simulate(proto, T, 1)
        with pytest.raises(ValueError, match="protocol stops at 6"):
            sample_snapshot(proto, T, 1)
