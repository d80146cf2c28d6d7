import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from operator import itemgetter

import pytest

from adl import oracle
from adl.diffusion import Snapshot, sample_snapshot, simulate
from adl.estimators import (
    ESTIMATORS,
    _REL_TOL,
    ExplicitCandidates,
    ShellCandidates,
    _hop_scores,
    _path_window,
    candidate_sets,
    estimate,
    generic_mle,
    generic_mle_candidates,
    k_obs_candidates,
    k_obs_subtree,
    sample_is_origin,
    single_mle,
    single_mle_candidates,
    three_obs_intersection,
    two_obs_path,
    two_obs_path_candidates,
    uniform_mle_cases,
    uniform_mle_cases_candidates,
)
from adl.experiments import derive_seed
from adl.protocol import (
    constant_protocol,
    hop_distribution,
    load_protocol_table,
    local_spreading_protocol,
    perfect_protocol,
    uniform_protocol,
)
from adl.tree import (
    SOURCE,
    bfs_depths,
    distance,
    lcp_len,
    neighbors,
    path_between,
    steiner_tree,
)
from conftest import make_automorphism, shell_members

UNI3 = uniform_protocol(3)
HOP3 = hop_distribution(UNI3, 14)


def snap(d, t, prev, now):
    return Snapshot(d=d, t=t, vs_prev=tuple(prev), vs_now=tuple(now))


def lab(s):
    """A snapshot's labels (t, vs_prev, vs_now), the form every core reads."""
    return s.t, s.vs_prev, s.vs_now


def labs(snaps):
    return [lab(s) for s in snaps]


def _check_common(snaps):
    """The snapshots' degree, once the checks the estimators ran on
    Snapshots pass; the reference and frozen cores below call it."""
    if not snaps:
        raise ValueError("at least one snapshot required")
    for s in snaps:
        if s.t < 2:
            raise ValueError("estimators require observation times t >= 2")
    return snaps[0].d


# ---------------------------------------------------------------------------
# candidate-set machinery
# ---------------------------------------------------------------------------


def test_shell_candidates_count_and_membership():
    shell = ShellCandidates(d=3, centers=((0, 1),), radii=(2,))
    assert shell.size() == 6
    explicit = shell_members(3, [(0, 1)], 2)
    assert len(explicit) == 6
    assert all(shell.contains(v) for v in explicit)
    assert not shell.contains((0, 1))
    pair = ShellCandidates(d=3, centers=((0,), (0, 1)), radii=(1,))
    assert pair.size() == 4
    assert pair.contains(SOURCE)


class FrozenShellCandidates(ShellCandidates):
    """The two-branch shell size and sample of the earlier ShellCandidates,
    kept as the reference the one-rule class must match draw for draw."""

    def _shell_size(self, r: int) -> int:
        if len(self.centers) == 1:
            return self.d * (self.d - 1) ** (r - 1)
        return 2 * (self.d - 1) ** r

    def contains(self, v) -> bool:
        return min(distance(v, c) for c in self.centers) in self.radii

    def sample(self, rng: random.Random):
        total = self.size()
        pick = rng.randrange(total)
        for r in self.radii:
            s = self._shell_size(r)
            if pick < s:
                break
            pick -= s
        if len(self.centers) == 1:
            prev, cur = self.centers[0], None
            options = neighbors(self.d, prev)
        else:
            a, b = self.centers
            prev = a if rng.randrange(2) == 0 else b
            other = b if prev == a else a
            options = [w for w in neighbors(self.d, prev) if w != other]
        cur = options[rng.randrange(len(options))]
        for _ in range(r - 1):
            options = [w for w in neighbors(self.d, cur) if w != prev]
            prev, cur = cur, options[rng.randrange(len(options))]
        return cur


def test_shell_candidates_draw_as_the_two_branch_rule():
    # one size formula and one sampling rule for one center or an adjacent
    # pair: the same sizes, members and draws as the frozen two-branch rule,
    # leaving the generator in the same state
    maker = random.Random(11)
    for case in range(200):
        d = maker.randrange(3, 6)
        center = tuple(maker.randrange(d - 1 if i else d) for i in range(maker.randrange(0, 4)))
        if maker.randrange(2) and center:
            centers = (center, center + (maker.randrange(d - 1),))
        else:
            centers = (center,)
        radii = tuple(sorted(maker.sample(range(1, 5), maker.randrange(1, 4))))
        new, old = ShellCandidates(d, centers, radii), FrozenShellCandidates(d, centers, radii)
        assert new.size() == old.size()
        near = bfs_depths(d, list(centers), radii[-1] + 1)  # every vertex a shell could hold, and more
        assert all(new.contains(v) == old.contains(v) for v in near)
        r_new, r_old = random.Random(case), random.Random(case)
        assert [new.sample(r_new) for _ in range(20)] == [old.sample(r_old) for _ in range(20)]
        assert r_new.getstate() == r_old.getstate()


def test_shell_sampling_is_uniform():
    shell = ShellCandidates(d=3, centers=((1,), (1, 0)), radii=(1, 2))
    assert shell.size() == 4 + 8
    rng = random.Random(0)
    counts = {}
    n = 12_000
    for _ in range(n):
        v = shell.sample(rng)
        assert shell.contains(v)
        counts[v] = counts.get(v, 0) + 1
    assert len(counts) == 12
    for c in counts.values():
        assert abs(c / n - 1 / 12) < 4 * math.sqrt((1 / 12) * (11 / 12) / n)


def test_explicit_candidates_reject_empty():
    with pytest.raises(ValueError):
        ExplicitCandidates(frozenset())


@pytest.mark.parametrize("members", [
    {SOURCE, (0,), (1, 2), (2, 0, 1)},  # the origin among others: the draw decides
    {SOURCE, (0,)},
    {SOURCE},  # alone: always picked, nothing drawn
    {(0,), (1,), (2, 0)},  # absent: never picked, nothing drawn
    {(1, 1)},
])
def test_sample_is_origin_is_the_sample_rule(members):
    # the memoized Monte Carlo hit rule counts exactly what sample() picks,
    # and asks for the seeded generator only when the draw can decide
    cands = ExplicitCandidates(frozenset(members))
    decides = SOURCE in members and len(members) > 1
    hits = 0
    for seed in range(600):
        asked = []

        def seeded():
            asked.append(seed)
            return random.Random(seed)

        got = sample_is_origin(cands.contains(SOURCE), cands.size(), seeded)
        assert got == (cands.sample(random.Random(seed)) == SOURCE)
        assert asked == ([seed] if decides else [])
        hits += got
    assert 0 < hits < 600 if decides else hits == 600 * (members == {SOURCE})


# ---------------------------------------------------------------------------
# single-snapshot MLE
# ---------------------------------------------------------------------------


def test_single_mle_uniform_prefers_hop_one():
    s = snap(3, 10, (0, 1, 0), (0, 1, 0))
    cands, diag = single_mle_candidates(s.d, lab(s), UNI3)
    assert diag["h_star"] == [1]
    assert cands.size() == 3
    assert diag["success_probability"] == pytest.approx(2 / (10 * 3))


def test_single_mle_perfect_ties_everything():
    per = perfect_protocol(3)
    s = snap(3, 6, (0, 1, 0), (0, 1, 0))
    cands, diag = single_mle_candidates(s.d, lab(s), per)
    assert diag["h_star"] == [1, 2, 3]
    assert cands.size() == 21  # N_6 - 1: every infected non-center vertex
    assert diag["success_probability"] == pytest.approx(1 / 21)
    assert cands.contains(SOURCE)


def test_single_mle_local_protocol_is_point_mass():
    proto = local_spreading_protocol(3, 0.5)
    s = snap(3, 10, (0, 1), (0, 1))
    cands, diag = single_mle_candidates(s.d, lab(s), proto)
    assert diag["h_star"] == [2]
    assert diag["success_probability"] == pytest.approx(1 / (3 * 2))


def test_single_mle_odd_ball_and_nonball():
    s_ball = snap(3, 7, (2, 0), (2, 0))
    cands, diag = single_mle_candidates(s_ball.d, lab(s_ball), UNI3)
    assert diag["ball"] is True
    # uniform: p(6,h) alpha(6,h) / (d (d-1)^(h-1)) is maximized at h = 1
    assert diag["h_star"] == [1]
    assert cands.size() == 3
    s_edge = snap(3, 7, (2, 0), (2, 0, 1))
    cands, diag = single_mle_candidates(s_edge.d, lab(s_edge), UNI3)
    # uniform: p (1 - alpha) / (d (d-1)^(h-1)) = const * h / (d-1)^h; h=1,2 tie at d=3
    assert diag["h_star"] == [1, 2]
    assert cands.size() == 2 * 2 + 2 * 4
    chosen = single_mle(s_edge, UNI3, random.Random(0)).chosen
    assert cands.contains(chosen)


THREE_ROW_TABLE = "t,h,alpha\n2,1,0.5\n4,1,0.666666666667\n4,2,0.333333333333\n"


def _shell_set(d, cands):
    return set().union(*(shell_members(d, cands.centers, r) for r in cands.radii))


def test_single_mle_ties_as_generic_mle_on_a_float_table():
    # the uniform alphas to 12 digits: the moved t = 5 pair ties hops 1 and
    # 2 in float, as it does exactly under the uniform protocol
    table = load_protocol_table(THREE_ROW_TABLE, 3)
    s = snap(3, 5, (0,), (0, 0))
    shell, diag = single_mle_candidates(3, lab(s), table)
    explicit, _ = generic_mle_candidates(3, labs([s]), table)
    assert diag["h_star"] == [1, 2]
    assert shell.size() == explicit.size() == 12
    assert _shell_set(3, shell) == explicit.members
    exact, _ = single_mle_candidates(3, lab(s), UNI3)
    assert exact.radii == shell.radii


def test_single_mle_matches_generic_mle_on_a_rounded_uniform_table():
    rows = [f"{t},{h},{(t - 2 * h + 2) / (t + 2):.12g}"
            for t in range(2, 41, 2) for h in range(1, t // 2 + 1)]
    table = load_protocol_table("t,h,alpha\n" + "\n".join(rows) + "\n", 3)
    snaps = [snap(3, t, (0,), (0,)) for t in range(4, 41)]
    snaps += [snap(3, t, (0,), (0, 0)) for t in range(5, 41, 2)]
    assert len(snaps) == 55
    for s in snaps:
        shell, _ = single_mle_candidates(3, lab(s), table)
        explicit, _ = generic_mle_candidates(3, labs([s]), table)
        assert _shell_set(3, shell) == explicit.members, lab(s)


def test_estimate_refuses_a_wrong_snapshot_count():
    # the registry's count rule, in estimator_for's words, for a caller that
    # skips estimator_for; the protocol is still not checked
    s = snap(3, 6, (0,), (0,))
    rng = random.Random(0)
    with pytest.raises(ValueError, match="two_obs_path needs exactly 2 snapshots, got 1"):
        estimate("two_obs_path", [s], None, rng)
    with pytest.raises(ValueError, match="single_mle needs exactly 1 snapshots, got 2"):
        estimate("single_mle", [s, s], UNI3, rng)
    with pytest.raises(ValueError, match="three_obs_intersection needs exactly 3 snapshots"):
        estimate("three_obs_intersection", [s, s], None, rng)
    with pytest.raises(ValueError, match="at least one snapshot required"):
        estimate("generic_mle", [], UNI3, rng)
    moved = snap(3, 5, (1,), (1, 0))
    assert estimate("uniform_mle_cases", [s, moved], None, rng).method == "uniform_mle_cases"


def test_single_mle_chosen_lies_on_the_shell():
    rng = random.Random(3)
    for seed in range(30):
        tr = simulate(UNI3, 12, seed=seed)
        s = tr.snapshot_at(12)
        est = single_mle(s, UNI3, rng)
        assert est.candidates.contains(est.chosen)
        assert distance(est.chosen, s.vs_now) in est.diagnostics["h_star"]


def test_single_mle_brute_force_argmax_small():
    # enumerate every infected vertex and maximize the per-vertex posterior
    for seed in range(40):
        t = 6 + 2 * (seed % 3)
        s = simulate(UNI3, t, seed=seed).snapshot_at(t)
        cands, _ = single_mle_candidates(s.d, lab(s), UNI3)
        scores = {}
        for h in range(1, t // 2 + 1):
            w = HOP3[t][h - 1] / (3 * 2 ** (h - 1))
            for v in shell_members(3, [s.vs_now], h):
                scores[v] = w
        best = max(scores.values())
        brute = {v for v, sc in scores.items() if sc == best}
        assert brute == {v for v in scores if cands.contains(v)}


# ---------------------------------------------------------------------------
# two-snapshot path estimator
# ---------------------------------------------------------------------------


def test_two_obs_path_set_size_example():
    # X1 = 2 and X2 = 3 on opposite sides at t = (8, 10): |S| = 4
    s1 = snap(3, 8, (0, 0), (0, 0))
    s2 = snap(3, 10, (1, 0, 0), (1, 0, 0))
    cands, diag = two_obs_path_candidates(s1.d, lab(s1), lab(s2))
    assert diag["S_size"] == 4
    assert 1 + min(2 - 1, 10 // 2 - 3) + min(3 - 1, 8 // 2 - 2) == 4
    assert cands.contains(SOURCE)


def test_two_obs_path_fallback_when_sources_touch():
    s1 = snap(3, 8, (0,), (0,))
    s2 = snap(3, 8, (0,), (0,))
    cands, diag = two_obs_path_candidates(s1.d, lab(s1), lab(s2))
    assert diag["fallback"] and diag["S_size"] == 0
    assert cands.members == {SOURCE, (0, 0), (0, 1)}


def test_two_obs_path_on_split_event():
    # different first steps: the origin always lands in S, and
    # |S| <= min(t1, t2)/2
    for seed in range(300):
        s1 = simulate(UNI3, 10, seed=derive_seed(1, seed, 0)).snapshot_at(10)
        s2 = simulate(UNI3, 8, seed=derive_seed(1, seed, 1)).snapshot_at(8)
        if s1.vs_now[0] == s2.vs_now[0]:
            continue
        cands, diag = two_obs_path_candidates(s1.d, lab(s1), lab(s2))
        assert cands.contains(SOURCE)
        assert 1 <= diag["S_size"] <= 4


def test_two_obs_path_odd_times_use_both_endpoints():
    s1 = snap(3, 5, (0,), (0, 0))
    s2 = snap(3, 5, (1,), (1, 0))
    cands, diag = two_obs_path_candidates(s1.d, lab(s1), lab(s2))
    assert not diag["fallback"]
    assert cands.members == {SOURCE}


# ---------------------------------------------------------------------------
# three-snapshot intersection: the k-snapshot core at k = 3
# ---------------------------------------------------------------------------


def path_meet(v1, v2, v3):
    """The three-snapshot estimator as the paper states it: the intersection
    of the three pairwise virtual-source paths."""
    return set(path_between(v1, v2)) & set(path_between(v1, v3)) & set(path_between(v2, v3))


def test_three_obs_distinct_directions_hit_source():
    cands, _ = k_obs_candidates(3, [(0,), (1, 0), (2, 1)])
    assert cands.members == {SOURCE}


def test_three_obs_collinear_sources():
    cands, _ = k_obs_candidates(3, [(0, 1), (0,), (1,)])
    assert cands.members == {(0,)}


def test_three_obs_intersection_picks_the_path_meet():
    # odd snapshots make the estimator draw one virtual source of a pair;
    # a replica of its RNG replays those draws
    for seed in range(300):
        d = (3, 4)[seed % 2]
        proto = (uniform_protocol(d), perfect_protocol(d))[seed // 2 % 2]
        times = ((5, 8, 11), (7, 7, 4), (9, 6, 13))[seed % 3]
        snaps = [sample_snapshot(proto, t, derive_seed(21, seed, i)) for i, t in enumerate(times)]
        est = three_obs_intersection(*snaps, random.Random(seed))
        replica = random.Random(seed)
        vs = [s.virtual_sources()[replica.randrange(2)] if len(s.virtual_sources()) == 2
              else s.vs_now for s in snaps]
        assert est.method == "three_obs_intersection"
        assert est.candidates.members == path_meet(*vs) == {est.chosen}
        # the median has at most one virtual source behind each neighbour
        assert est.diagnostics == {"k": 3, "min_max_subtree_count": int(len(set(vs)) > 1),
                                   "well_defined": True}


def test_three_obs_intersection_is_always_a_single_vertex():
    rng = random.Random(5)
    for seed in range(200):
        snaps = [
            simulate(UNI3, t, seed=derive_seed(2, seed, i)).snapshot_at(t)
            for i, t in enumerate((6, 7, 9))
        ]
        est = three_obs_intersection(*snaps, rng)
        assert est.tie_count() == 1


# ---------------------------------------------------------------------------
# k-snapshot subtree counting
# ---------------------------------------------------------------------------


def test_k_obs_distinct_subtrees_recover_source():
    cands, diag = k_obs_candidates(3, [(0, 0), (1,), (2, 1, 0)])
    assert cands.members == {SOURCE}
    assert diag["min_max_subtree_count"] == 1


def test_k_obs_majority_vector_implies_source():
    # whenever no direction holds k/2 or more of the virtual sources, the
    # estimator returns exactly the origin
    proto = uniform_protocol(4)
    for seed in range(150):
        rng = random.Random(derive_seed(3, seed))
        k = rng.choice([3, 5, 8])
        resolved = []
        for i in range(k):
            tr = simulate(proto, 9, seed=derive_seed(3, seed, i))
            s = tr.snapshot_at(9)
            vs = s.virtual_sources()
            resolved.append(vs[rng.randrange(len(vs))])
        counts = {}
        for v in resolved:
            counts[v[0]] = counts.get(v[0], 0) + 1
        cands, _ = k_obs_candidates(4, resolved)
        if max(counts.values()) < k / 2:
            assert cands.members == {SOURCE}


def test_k_obs_single_snapshot_degenerates_to_virtual_source():
    cands, diag = k_obs_candidates(3, [(0, 1)])
    assert cands.members == {(0, 1)}
    assert diag["min_max_subtree_count"] == 0


def k_obs_brute_force(d, resolved):
    """The minimax subtree count scored vertex by vertex over the union of
    the pairwise virtual-source paths and its neighbour ring: a vertex's
    score is the largest number of virtual sources behind one neighbour."""
    core = {v for a in resolved for b in resolved for v in path_between(a, b)}
    scores = {}
    for v in core | {w for c in core for w in neighbors(d, c)}:
        behind = {}
        for u in resolved:
            if u != v:
                first = path_between(v, u)[1]
                behind[first] = behind.get(first, 0) + 1
        scores[v] = max(behind.values(), default=0)
    best = min(scores.values())
    return {v for v, sc in scores.items() if sc == best}, best


def test_k_obs_candidates_match_brute_force():
    rng = random.Random(20261018)
    for _ in range(600):
        d = rng.choice((3, 4, 5))
        k = rng.choice((2, 2, 4, 4, 6, 6, 8, 10, 12, 1, 3, 5, 7, 9, 11))  # even k ties
        pool = []
        for _ in range(rng.randint(1, k)):  # a small pool repeats labels
            depth = rng.randint(0, 7)
            pool.append(tuple(rng.randrange(d if i == 0 else d - 1) for i in range(depth)))
        resolved = [rng.choice(pool) for _ in range(k)]
        cands, diag = k_obs_candidates(d, resolved)
        ties, best = k_obs_brute_force(d, resolved)
        assert cands.members == ties
        assert diag == {"k": k, "min_max_subtree_count": best, "well_defined": len(ties) == 1}


def k_obs_counting_reference(d, resolved):
    """The centroid descent with a Counter of every child at each level, the
    reference for the sorted-median descent of ``k_obs_candidates``."""
    k = len(resolved)
    domain = steiner_tree(d, resolved)
    lo, hi = min(resolved), max(resolved)
    c = lo[: lcp_len(lo, hi)]
    inside = resolved
    while True:
        n = len(c)
        counts = Counter(v[n] for v in inside if len(v) > n)
        step, heavy = max(counts.items(), key=itemgetter(1), default=(None, 0))
        if 2 * heavy <= k:
            break
        c += (step,)
        inside = [v for v in inside if len(v) > n and v[n] == step]
    best = max(k - len(inside), heavy)
    ties = {c}
    if 2 * best == k:
        sources = set(inside)
        for w in [c + (step,) for step, count in counts.items() if count == best]:
            ties.add(w)
            while w not in sources:
                below = [w + (j,) for j in range(d - 1) if w + (j,) in domain]
                if len(below) != 1:
                    break
                w = below[0]
                ties.add(w)
    return ties, {"k": k, "min_max_subtree_count": best, "well_defined": len(ties) == 1}


def random_labels(rng, d, k, pool_size, max_depth):
    pool = [tuple(rng.randrange(d if i == 0 else d - 1) for i in range(rng.randint(0, max_depth)))
            for _ in range(pool_size)]
    return [rng.choice(pool) for _ in range(k)]


def test_k_obs_candidates_match_the_counting_reference():
    rng = random.Random(20261019)
    cases = []
    for d in (3, 4, 6):
        for k in range(1, 61):
            for pool_size in (1, max(1, k // 3), k):  # small pools repeat labels
                cases.append((d, random_labels(rng, d, k, pool_size, 6)))
    # the Monte Carlo k-snapshot shape: d = 4, 50 labels at depth 1..5
    for _ in range(200):
        cases.append((4, [tuple(rng.randrange(4 if i == 0 else 3) for i in range(rng.randint(1, 5)))
                          for _ in range(50)]))
    for d, resolved in cases:
        cands, diag = k_obs_candidates(d, resolved)
        ties, want = k_obs_counting_reference(d, resolved)
        assert (cands.members, diag) == (ties, want), (d, resolved)


@pytest.mark.parametrize("d, resolved, members", [
    # even k, one child of the centroid holding k/2: its branch ties down to
    # the virtual source at (0, 0)
    (3, [(0, 0), (0, 0), (1,), (2,)], {(), (0,), (0, 0)}),
    # even k, two children holding k/2 each: both branches tie, one down to
    # a virtual source and one down to where it splits
    (3, [(0, 1), (0, 1), (1, 0, 0), (1, 0, 1)], {(), (0,), (0, 1), (1,), (1, 0)}),
    # a virtual source on the tie path ends it before the branch splits
    (4, [(0, 2), (0, 2, 1, 0), (0, 2, 1, 2), (1,), (2,), (3, 1)], {(), (0,), (0, 2)}),
    # a centroid below the top that is a virtual source itself, with one
    # child holding k/2
    (3, [(1,), (1,), (1, 0, 1), (1, 0, 1), (1, 0, 1), (1, 0, 1), (0,), (2,)],
     {(1,), (1, 0), (1, 0, 1)}),
])
def test_k_obs_ties_of_half_count_children(d, resolved, members):
    cands, diag = k_obs_candidates(d, resolved)
    ties, want = k_obs_counting_reference(d, resolved)
    assert cands.members == ties == members
    assert diag == want and diag["min_max_subtree_count"] == len(resolved) // 2


def test_k_obs_tie_path_runs_down_to_the_heavy_branch():
    # the centroid () scores k/2 = 2, and so does every vertex between it and
    # the two virtual sources at (0, 0, 0, 1): each has both behind it
    cands, diag = k_obs_candidates(3, [(0, 0, 0, 1), (0, 0, 0, 1), (1,), (2,)])
    assert cands.members == {(), (0,), (0, 0), (0, 0, 0), (0, 0, 0, 1)}
    assert diag == {"k": 4, "min_max_subtree_count": 2, "well_defined": False}
    # the path stops at a virtual source and where the branch splits
    cands, _ = k_obs_candidates(3, [(0, 0), (0, 0, 1, 0), (1,), (2,)])
    assert cands.members == {(), (0,), (0, 0)}
    cands, _ = k_obs_candidates(4, [(0, 1, 0), (0, 1, 2), (1,), (2, 0, 0)])
    assert cands.members == {(), (0,), (0, 1)}
    # a centroid below the top: (0,) holds 5 of 8 and its child (0, 1) holds 4
    cands, diag = k_obs_candidates(3, [(0,), (0, 1, 1), (0, 1, 1), (0, 1, 1, 0), (0, 1, 1, 1),
                                       (1,), (2, 0), (2, 1)])
    assert cands.members == {(0,), (0, 1), (0, 1, 1)}
    assert diag["min_max_subtree_count"] == 4


def test_k_obs_runs_through_public_interface():
    snaps = [
        simulate(UNI3, 10, seed=derive_seed(4, 0, i)).snapshot_at(10) for i in range(5)
    ]
    est = k_obs_subtree(snaps, random.Random(1))
    assert est.candidates.contains(est.chosen)
    assert est.diagnostics["k"] == 5


# ---------------------------------------------------------------------------
# generic MLE
# ---------------------------------------------------------------------------


def test_generic_mle_single_snapshot_matches_single_mle():
    per3 = perfect_protocol(3)
    for proto in (UNI3, per3):
        for seed in range(60):
            t = (6, 8, 10, 12)[seed % 4]
            s = simulate(proto, t, seed=seed).snapshot_at(t)
            shell, diag1 = single_mle_candidates(s.d, lab(s), proto)
            explicit, diag = generic_mle_candidates(proto.d, labs([s]), proto)
            # same argmax hops: every generic candidate sits on a winning shell
            assert all(shell.contains(v) for v in explicit.members)
            want = set()
            for h in diag1["h_star"]:
                want |= shell_members(3, list(s.virtual_sources()), h)
            assert explicit.members == want
            every_hop = ShellCandidates(3, s.virtual_sources(), tuple(range(1, t // 2 + 1)))
            assert diag["feasible_count"] == every_hop.size()


def test_generic_mle_even_even_equals_path_minimizer():
    s1 = snap(3, 8, (0, 0), (0, 0))
    s2 = snap(3, 10, (1, 0, 0), (1, 0, 0))
    cands, _ = generic_mle_candidates(UNI3.d, labs([s1, s2]), UNI3)
    path_set, _ = two_obs_path_candidates(s1.d, lab(s1), lab(s2))
    assert cands.members == path_set.members


def test_generic_mle_coincident_edges_d3_twelve_way_tie():
    s1 = snap(3, 5, (0,), (0, 0))
    s2 = snap(3, 5, (0,), (0, 0))
    cands, _ = generic_mle_candidates(UNI3.d, labs([s1, s2]), UNI3)
    assert cands.size() == 12
    assert cands.members == shell_members(3, [(0,), (0, 0)], 1) | shell_members(
        3, [(0,), (0, 0)], 2
    )
    cases, diag = uniform_mle_cases_candidates(s1.d, lab(s1), lab(s2))
    assert diag["case"] == "odd-odd-7(d=3)"
    assert cases.members == cands.members


def test_generic_mle_empty_domain_falls_back():
    # under the local protocol h_10 = 2 deterministically, but these two
    # virtual sources sit at odd distance, so no vertex can have X1 = X2 = 2:
    # every candidate has zero likelihood
    proto = local_spreading_protocol(3, 0.5)
    s1 = snap(3, 10, (0,), (0,))
    s2 = snap(3, 10, (0, 0, 1, 0), (0, 0, 1, 0))
    cands, diag = generic_mle_candidates(proto.d, labs([s1, s2]), proto)
    assert diag["fallback"]
    assert cands.members == {(), (0, 0), (0, 1)}
    est = generic_mle([s1, s2], proto, random.Random(0))
    assert est.diagnostics["fallback"]


def _brute_force_generic_mle(snaps, hop, proto):
    """Independent reference for the joint MLE: score every vertex within
    min_i floor(t_i / 2) of the Steiner core of all virtual sources (no
    feasible vertex lies farther) by the product of its per-snapshot
    posteriors, in exact rationals (a table protocol's floats converted
    exactly).  None when no vertex has positive likelihood."""
    d = snaps[0].d
    a = proto.alpha_exact if proto.exact else lambda t, h: Fraction(proto.alpha(t, h))

    def posterior(s, x):
        t_eff = s.t - s.t % 2
        base = Fraction(hop[t_eff][x - 1]) / (d * (d - 1) ** (x - 1))
        if s.t % 2 == 0:
            return base
        return base * (a(t_eff, x) if s.is_ball else 1 - a(t_eff, x))

    core = steiner_tree(d, [v for s in snaps for v in s.virtual_sources()])
    feasible = 0
    scores = {}
    for v in bfs_depths(d, core, min(s.t // 2 for s in snaps)):
        xs = [s.min_vs_distance(v) for s in snaps]
        if all(1 <= x <= s.t // 2 for s, x in zip(snaps, xs)):
            feasible += 1
            score = math.prod(posterior(s, x) for s, x in zip(snaps, xs))
            if score:
                scores[v] = score
    if not scores:
        return None, feasible
    best = max(scores.values())
    return {v for v, sc in scores.items() if sc == best}, feasible


# dyadic alphas keep the float hop table exact, so rational scores tie
# exactly where the float log-likelihoods tie within tolerance
DYADIC_TABLE = "t,h,alpha\n" + "".join(
    f"{t},{h},{(0.5, 0.25, 0.75, 0.375, 0.625)[(t + h) % 5]}\n"
    for t in range(2, 11, 2)
    for h in range(1, t // 2 + 1)
)


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("name", ["uniform", "perfect", "local", "table"])
def test_generic_mle_equals_brute_force(name, d):
    proto = {
        "uniform": uniform_protocol,
        "perfect": perfect_protocol,
        "local": lambda d: local_spreading_protocol(d, 0.5),
        "table": lambda d: load_protocol_table(DYADIC_TABLE, d),
    }[name](d)
    hop = hop_distribution(proto, 10)
    rng = random.Random(derive_seed(31, d, len(name)))
    for n in range(80):
        k = 1 + n % 3 if n < 60 else 4  # four snapshots after the first 60 inputs
        times = [rng.randint(2, 10) for _ in range(k)]
        snaps = [
            sample_snapshot(proto, t, derive_seed(32, d, n, i)) for i, t in enumerate(times)
        ]
        want, feasible = _brute_force_generic_mle(snaps, hop, proto)
        got, diag = generic_mle_candidates(proto.d, labs(snaps), proto)
        assert diag["feasible_count"] == feasible, (name, d, times)
        assert diag["fallback"] == (want is None), (name, d, times)
        if want is not None:
            assert got.members == want, (name, d, times)


def test_generic_mle_skips_the_empty_pieces_of_interior_core_vertices():
    # every neighbour of the virtual source (0, 0) lies on the core, so no
    # vertex hangs off it: its depth-1 hop vector (1, 2, 2, 2) scores best
    # but has no vertex, and the true argmax lies elsewhere
    snaps = [snap(3, 8, v, v) for v in [(0, 0), (0,), (0, 0, 0), (0, 0, 1)]]
    hop = hop_distribution(UNI3, 8)
    want, feasible = _brute_force_generic_mle(snaps, hop, UNI3)
    got, diag = generic_mle_candidates(UNI3.d, labs(snaps), UNI3)
    assert got.members == want and diag["feasible_count"] == feasible
    assert not diag["fallback"]


def reference_generic_mle_candidates(snaps, protocol):
    """The joint-MLE core as first written: the Steiner core built as a set,
    a distance() call per core vertex and snapshot, pieces grouped in a dict
    keyed by hop vector, and the winners listed by a walk off the core set."""
    d = _check_common(snaps)
    exact = protocol.exact

    per_snap = []  # (virtual sources, per-hop row) of each snapshot
    all_vs = []
    for s in snaps:
        vs = s.virtual_sources()
        all_vs.extend(vs)
        per_snap.append((vs, _hop_scores(s.t, s.is_ball, protocol)))

    # Every virtual source lies on the core, so a vertex at outward depth r
    # from core vertex c has hop vector x(c) + r.  Each piece (c, r) thus has
    # one likelihood, and no feasible vertex lies deeper than the smallest
    # slack floor(t_i/2) - x_i(c): the search over pieces is exhaustive.
    core = steiner_tree(d, all_vs)
    pieces: dict = {}  # hop vector -> pieces (c, r) sharing it
    feasible = 0
    for c in core:
        x = [min(distance(c, v) for v in vs) for vs, _ in per_snap]
        free = sum(w not in core for w in neighbors(d, c))  # off-core neighbours
        last = min(len(row) - xi for (_, row), xi in zip(per_snap, x))
        if not free:  # nothing hangs off c: only c itself can be a candidate
            last = min(last, 0)
        for r in range(0 if min(x) > 0 else 1, last + 1):
            pieces.setdefault(tuple(xi + r for xi in x), []).append((c, r))
            feasible += free * (d - 1) ** (r - 1) if r else 1

    def score_of(key):
        terms = (row[x - 1] for (_, row), x in zip(per_snap, key))
        if exact:
            return math.prod(terms)
        total = 0.0
        for term in terms:
            if term is None:
                return None
            total += term
        return total

    scored = {key: score_of(key) for key in pieces}
    if exact:
        best = max(scored.values(), default=0)
        win = [k for k, sc in scored.items() if sc == best] if best else []
    else:
        best = max((sc for sc in scored.values() if sc is not None), default=None)
        win = [
            k
            for k, sc in scored.items()
            if sc is not None and math.isclose(sc, best, rel_tol=_REL_TOL, abs_tol=1e-300)
        ]

    diagnostics = {"feasible_count": feasible, "exact": exact, "fallback": not win}
    if not win:
        # no vertex has positive likelihood: a uniform pick among the fringe
        # of the first virtual source
        first = snaps[0].virtual_sources()[0]
        fringe = set(neighbors(d, first)) - set(all_vs)
        return ExplicitCandidates(frozenset(fringe)), diagnostics
    ties = [v for k in win for c, r in pieces[k] for v in _reference_outward(d, core, c, r)]
    return ExplicitCandidates(frozenset(ties)), diagnostics


def _reference_outward(d, core, c, r):
    """The vertices at outward depth r from core vertex c (c itself at r = 0),
    by a non-backtracking walk that leaves the core at its first step."""
    if r == 0:
        return [c]
    layer = [(c, w) for w in neighbors(d, c) if w not in core]
    for _ in range(r - 1):
        layer = [(v, w) for prev, v in layer for w in neighbors(d, v) if w != prev]
    return [v for _, v in layer]


def _assert_same_as_reference(snaps, proto, why):
    got, diag = generic_mle_candidates(proto.d, labs(snaps), proto)
    want, want_diag = reference_generic_mle_candidates(snaps, proto)
    assert got == want, why
    assert list(diag.items()) == list(want_diag.items()), why
    return got, diag


# zeros and ones in a table give zero hop weights, which float rows score None
ZERO_ONE_TABLE = "t,h,alpha\n" + "".join(
    f"{t},{h},{(0.0, 0.5, 1.0, 0.25, 0.75, 0.3)[(t + 2 * h) % 6]}\n"
    for t in range(2, 15, 2)
    for h in range(1, t // 2 + 1)
)


def generic_mle_reference_grid():
    """10,080 seeded inputs: d in {3, 4, 5}; uniform, perfect and local(1/2)
    exact and on their float twins, and a table with 0 and 1 alphas; k in
    1..4 snapshots at times in 2..14.  Yields (snapshots, protocol, why)."""
    for d in (3, 4, 5):
        protocols = [
            (uniform_protocol(d), (True, False)),
            (perfect_protocol(d), (True, False)),
            (local_spreading_protocol(d, "1/2"), (True, False)),
            (load_protocol_table(ZERO_ONE_TABLE, d), (False,)),
        ]
        for p, (proto, modes) in enumerate(protocols):
            for exact in modes:
                scored = proto if exact else replace(proto, exact=False)
                rng = random.Random(derive_seed(61, d, p, exact))
                for n in range(480):
                    times = [rng.randint(2, 14) for _ in range(1 + n % 4)]
                    snaps = [
                        sample_snapshot(proto, t, derive_seed(62, d, p, exact, n, i))
                        for i, t in enumerate(times)
                    ]
                    yield snaps, scored, (d, proto.name, exact, n, times)


def test_generic_mle_equals_the_piece_dict_reference():
    count = 0
    for snaps, proto, why in generic_mle_reference_grid():
        _assert_same_as_reference(snaps, proto, why)
        count += 1
    assert count >= 10_000


REFERENCE_EDGE_CASES = {  # protocol, (vs_prev, vs_now) of each snapshot, times
    # two snapshots share the virtual source (0, 1), which is one terminal
    "shared-virtual-source": (UNI3, [((0,), (0, 1)), ((0, 1), (0, 1))], (7, 8)),
    # an odd non-ball snapshot contributes both ends of its central edge
    "odd-non-ball": (uniform_protocol(4), [((1, 0), (1, 0, 2)), ((1,), (1,))], (9, 6)),
    # the virtual sources lie in different branches: the core runs through
    # the origin and its common prefix is empty
    "core-through-the-origin": (UNI3, [((0, 1), (0, 1)), ((2, 0, 1), (2, 0, 1))], (8, 10)),
    # every neighbour of (0, 0) lies on the core, so nothing hangs off it
    "core-vertex-with-no-free-neighbour": (
        UNI3, [((0, 0), (0, 0)), ((0,), (0,)), ((0, 0, 0), (0, 0, 0)), ((0, 0, 1), (0, 0, 1))],
        (8, 8, 8, 8),
    ),
    # (0,) has terminals below three distinct children, 0, 1 and 2, and one
    # free neighbour, its parent; the child count comes from the prefix
    # lengths of adjacent terminals
    "three-core-children-d4": (
        uniform_protocol(4), [((0, 0), (0, 0)), ((0, 1, 2), (0, 1, 2)), ((0, 2), (0, 2, 1))],
        (8, 8, 9),
    ),
    # (0, 1, 0) and (0, 1, 1) share the child (0, 1) of (0,) and split one
    # level deeper, so (0,) and (0, 1) each have two children on the core
    "shared-child-split-below": (
        UNI3, [((0, 0), (0, 0)), ((0, 1, 0), (0, 1, 0)), ((0, 1, 1), (0, 1, 1))], (6, 8, 8),
    ),
    # the empty domain below: no vertex has positive likelihood
    "fallback": (
        local_spreading_protocol(3, 0.5), [((0,), (0,)), ((0, 0, 1, 0), (0, 0, 1, 0))], (10, 10)
    ),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_EDGE_CASES))
def test_generic_mle_reference_edge_cases(case):
    proto, pairs, times = REFERENCE_EDGE_CASES[case]
    snaps = [snap(proto.d, t, prev, now) for (prev, now), t in zip(pairs, times)]
    for exact in (True, False):
        got, diag = _assert_same_as_reference(
            snaps, proto if exact else replace(proto, exact=False), (case, exact)
        )
        assert diag["exact"] is exact and diag["fallback"] is (case == "fallback")
        if case == "core-through-the-origin":
            assert got.contains(SOURCE)


def test_generic_mle_float_ties_are_kept_against_the_final_best():
    # both snapshots see the single virtual source (0,), so the walk scores
    # depths r = 1..5 of that one core vertex in order; the second row adds
    # 0.0, so each score is exactly the first row's entry
    below = [
        -1.0 - 4e-13,  # the running best at first, close to the final best: kept
        -1.0 - 1.1e-12,  # close to the running best, just outside the final one: dropped
        -1.0 - 9e-13,  # below the running best, close to the final best: kept
        -1.0,  # the final best
        -1.0 - 1.1e-12,  # after the best, just outside the tolerance: dropped
    ]
    assert math.isclose(below[2], below[0], rel_tol=_REL_TOL)
    assert not math.isclose(below[1], -1.0, rel_tol=_REL_TOL)
    proto = replace(UNI3, exact=False)
    proto._scores[(10, True)] = below
    proto._scores[(12, True)] = [0.0] * 6
    s1, s2 = snap(3, 10, (0,), (0,)), snap(3, 12, (0,), (0,))
    want = set().union(*(shell_members(3, [(0,)], r) for r in (1, 3, 4)))
    for snaps in ([s1, s2], [s2, s1]):
        got, diag = _assert_same_as_reference(snaps, proto, "float ties")
        assert got.members == want and not diag["fallback"]


def test_generic_mle_float_mode_matches_exact_mode():
    uni3_f = replace(UNI3, exact=False)
    for seed in range(80):
        t1, t2 = (8, 9, 12, 13)[seed % 4], (4, 5, 6, 7)[(seed // 4) % 4]
        s1 = simulate(UNI3, t1, seed=derive_seed(5, seed, 0)).snapshot_at(t1)
        s2 = simulate(UNI3, t2, seed=derive_seed(5, seed, 1)).snapshot_at(t2)
        a, _ = generic_mle_candidates(UNI3.d, labs([s1, s2]), UNI3)
        b, _ = generic_mle_candidates(uni3_f.d, labs([s1, s2]), uni3_f)
        assert a.members == b.members


def _old_hop_terms(s, hop, proto, exact):
    """The per-hop scores as the estimators computed them per call before
    rows were kept: Fraction(w, d (d-1)^(x-1)) exact, the log term in floats."""
    d, t_eff = s.d, s.t - s.t % 2
    a = proto.alpha_exact if exact else proto.alpha
    one = Fraction(1) if exact else 1.0
    out = []
    for x, w in enumerate(hop[t_eff], 1):
        if s.t % 2:
            w *= a(t_eff, x) if s.is_ball else one - a(t_eff, x)
        if exact:
            out.append(Fraction(w, d * (d - 1) ** (x - 1)))
        else:
            out.append(None if w <= 0.0 else math.log(w) - (x - 1) * math.log(d - 1))
    return out


def _row_snapshots(d):
    """Even snapshots at t <= 20, and an odd ball and an odd non-ball at t <= 21."""
    for t in range(2, 22):
        yield snap(d, t, (0,), (0,))
        if t % 2:
            yield snap(d, t, (0,), (0, 0))


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("name", ["uniform", "perfect", "local", "const"])
def test_hop_scores_order_and_tie_like_the_rational_scores(name, d):
    proto = {
        "uniform": uniform_protocol,
        "perfect": perfect_protocol,
        "local": lambda d: local_spreading_protocol(d, "1/3"),
        "const": lambda d: constant_protocol(d, Fraction(1, 2)),
    }[name](d)
    hop = hop_distribution(proto, 20)
    for s in _row_snapshots(d):
        row, old = _hop_scores(s.t, s.is_ball, proto), _old_hop_terms(s, hop, proto, True)
        assert all(type(v) is int and v >= 0 for v in row), (s.t, s.is_ball)
        # one positive factor scales every entry, so zeros stay zeros and
        # any product of rows orders and ties like the Fraction product
        assert [v == 0 for v in row] == [w == 0 for w in old], (s.t, s.is_ball)
        scales = {Fraction(v) / w for v, w in zip(row, old) if w}
        assert len(scales) <= 1 and all(c > 0 for c in scales), (s.t, s.is_ball)
        for i, j in itertools.product(range(len(row)), repeat=2):
            assert (row[i] < row[j]) == (old[i] < old[j]), (s.t, s.is_ball, i, j)
            assert (row[i] == row[j]) == (old[i] == old[j]), (s.t, s.is_ball, i, j)


@pytest.mark.parametrize("d", [3, 4])
def test_float_hop_scores_equal_the_old_log_terms_bit_for_bit(d):
    # zeros and ones in the table give zero weights, which score None
    table = "t,h,alpha\n" + "".join(
        f"{t},{h},{(0.0, 0.3, 1.0, 0.7, 0.55)[(t + 2 * h) % 5]}\n"
        for t in range(2, 21, 2)
        for h in range(1, t // 2 + 1)
    )
    proto = load_protocol_table(table, d)
    hop = hop_distribution(proto, 20)
    seen_none = False
    for s in _row_snapshots(d):
        row, old = _hop_scores(s.t, s.is_ball, proto), _old_hop_terms(s, hop, proto, False)
        assert [v if v is None else v.hex() for v in row] == [
            w if w is None else w.hex() for w in old
        ], (s.t, s.is_ball)
        seen_none |= None in row
    assert seen_none


def test_hop_rows_kept_on_a_long_lived_hop_change_no_result():
    # two long-lived protocols serve many snapshots; every call must match
    # a fresh protocol's, which has no rows kept yet
    kept = (uniform_protocol(3), perfect_protocol(3))
    rng = random.Random(derive_seed(41))
    for n in range(120):
        proto = kept[n % 2]
        times = [rng.randint(2, 14) for _ in range(1 + n % 3)]
        snaps = [
            sample_snapshot(proto, t, derive_seed(42, n, i)) for i, t in enumerate(times)
        ]
        got = generic_mle_candidates(proto.d, labs(snaps), proto)
        assert got == generic_mle_candidates(proto.d, labs(snaps), replace(proto)), times
        for s in snaps:
            got = single_mle_candidates(s.d, lab(s), proto)
            assert got == single_mle_candidates(s.d, lab(s), replace(proto)), s
    for proto in kept:
        assert proto._hops and proto._scores and proto._success  # rows and hit rates kept
        fresh = replace(proto)
        assert not fresh._hops and proto == fresh and repr(proto) == repr(fresh)


# ---------------------------------------------------------------------------
# uniform-protocol case dispatch
# ---------------------------------------------------------------------------


def test_cases_even_even_coincident_sources():
    s1 = snap(3, 8, (0, 1), (0, 1))
    s2 = snap(3, 12, (0, 1), (0, 1))
    cands, diag = uniform_mle_cases_candidates(s1.d, lab(s1), lab(s2))
    assert diag["case"] == "even-even-1"
    assert cands.members == set(neighbors(3, (0, 1)))


def test_cases_even_even_adjacent_sources():
    s1 = snap(3, 8, (0,), (0,))
    s2 = snap(3, 8, (0, 1), (0, 1))
    cands, diag = uniform_mle_cases_candidates(s1.d, lab(s1), lab(s2))
    assert diag["case"] == "even-even-2"
    assert cands.size() == 4  # 2d - 2


def test_cases_even_odd_ball_adjacent():
    se = snap(3, 8, (0,), (0,))
    so = snap(3, 7, (0, 1), (0, 1))
    cands, diag = uniform_mle_cases_candidates(se.d, lab(se), lab(so))
    assert diag["case"] == "even-odd-3"
    assert cands.members == {(0, 1, 0), (0, 1, 1)}  # neighbors of vs2 minus vs1


def test_cases_even_odd_swapped_dispatch():
    so = snap(3, 7, (0, 1), (0, 1))
    se = snap(3, 8, (0,), (0,))
    cands, diag = uniform_mle_cases_candidates(so.d, lab(so), lab(se))
    assert diag["case"] == "even-odd-3-swapped"
    assert cands.members == {(0, 1, 0), (0, 1, 1)}


def test_cases_odd_odd_shared_edge_vertex():
    # the two non-ball edges share exactly one endpoint; d = 3 gives the
    # seven-vertex candidate set at distance <= 2 from the shared vertex
    s1 = snap(3, 5, (0,), (0, 0))
    s2 = snap(3, 5, (0,), (0, 1))
    cands, diag = uniform_mle_cases_candidates(s1.d, lab(s1), lab(s2))
    assert diag["case"] == "odd-odd-8(d=3)"
    assert cands.size() == 7
    got, _ = generic_mle_candidates(UNI3.d, labs([s1, s2]), UNI3)
    assert got.members == cands.members


def test_cases_odd_odd_edges_at_distance_one():
    s1 = snap(4, 5, (0,), (0, 0))
    s2 = snap(4, 5, (0, 0, 0), (0, 0, 0, 0))
    cands, diag = uniform_mle_cases_candidates(s1.d, lab(s1), lab(s2))
    assert diag["case"] == "odd-odd-9"
    assert cands.size() == 2 * (4 - 2)
    assert cands.members == {(0, 0, 1), (0, 0, 2), (0, 0, 0, 1), (0, 0, 0, 2)}


def test_cases_odd_odd_d3_distance_two_exception():
    s1 = snap(3, 5, (0, 0), (0, 0, 0))
    s2 = snap(3, 5, (0, 1), (0, 1, 0))  # nearest endpoints (0,0) and (0,1)
    cands, diag = uniform_mle_cases_candidates(s1.d, lab(s1), lab(s2))
    assert diag["case"] == "odd-odd-10(d=3,gap=2)"
    # w is the midpoint, w' its third neighbor: here the origin itself
    assert cands.members == {(0,), ()}
    got, _ = generic_mle_candidates(UNI3.d, labs([s1, s2]), UNI3)
    assert got.members == cands.members


def test_cases_refuse_too_early_times():
    with pytest.raises(ValueError):
        uniform_mle_cases_candidates(3, (2, (0,), (0,)), (8, (1,), (1,)))
    with pytest.raises(ValueError):
        uniform_mle_cases_candidates(3, (8, (0,), (0,)), (3, (1,), (1,)))


CASE_TAGS = {
    *(f"even-even-{n}" for n in range(1, 4)),
    *(f"even-odd-{n}" for n in range(1, 7)),
    *(f"odd-odd-{n}" for n in range(1, 11)),
    "odd-odd-7(d=3)", "odd-odd-8(d=3)", "odd-odd-10(d=3,gap=2)",
}
# a ball against a ball of the other parity or against a moved pair
SWAPPABLE_TAGS = {*(f"even-odd-{n}" for n in range(1, 7)), "odd-odd-4", "odd-odd-5", "odd-odd-6"}


def snapshot_kind(s):
    return 0 if s.t % 2 == 0 else 1 if s.is_ball else 2  # even ball, odd ball, moved pair


def swap_tags(s1, s2):
    """Both orders of one pair: the same members and base tag, and a
    ``-swapped`` tag exactly when the first snapshot has the higher kind."""
    a, da = uniform_mle_cases_candidates(s1.d, lab(s1), lab(s2))
    b, db = uniform_mle_cases_candidates(s2.d, lab(s2), lab(s1))
    assert a.members == b.members, (s1, s2)
    assert da["case"].removesuffix("-swapped") == db["case"].removesuffix("-swapped")
    assert da["case"].endswith("-swapped") == (snapshot_kind(s1) > snapshot_kind(s2))
    assert db["case"].endswith("-swapped") == (snapshot_kind(s2) > snapshot_kind(s1))
    return {da["case"], db["case"]}


# moved-pair cases a small sweep draws rarely or never
RARE_CASE_PAIRS = [
    (snap(4, 5, (0,), (0, 0)), snap(4, 5, (0,), (0, 0))),  # odd-odd-7
    (snap(3, 5, (0,), (0, 0)), snap(3, 5, (0,), (0, 0))),  # odd-odd-7(d=3)
    (snap(4, 5, (0,), (0, 0)), snap(4, 5, (0,), (0, 1))),  # odd-odd-8
    (snap(3, 5, (0,), (0, 0)), snap(3, 5, (0,), (0, 1))),  # odd-odd-8(d=3)
    (snap(3, 5, (0,), (0,)), snap(3, 5, (0,), (0, 0))),  # odd-odd-4
    (snap(3, 5, (0, 0), (0, 0, 0)), snap(3, 5, (0, 1), (0, 1, 0))),  # odd-odd-10(d=3,gap=2)
]
RARE_CASE_TAGS = ["odd-odd-7", "odd-odd-7(d=3)", "odd-odd-8", "odd-odd-8(d=3)", "odd-odd-4",
                  "odd-odd-10(d=3,gap=2)"]


def test_cases_swap_symmetry_and_tag_coverage():
    # seeded sampled pairs at d in {3, 4, 5} and 4 <= t1, t2 <= 11, 20 per
    # cell, then the hand-built rare pairs: every case tag is reached, and
    # every swappable one in both orders
    seen = set()
    for d in (3, 4, 5):
        proto = uniform_protocol(d)
        for t1, t2 in itertools.product(range(4, 12), repeat=2):
            for i in range(20):
                s1 = sample_snapshot(proto, t1, derive_seed(9, d, t1, t2, i, 0))
                s2 = sample_snapshot(proto, t2, derive_seed(9, d, t1, t2, i, 1))
                seen |= swap_tags(s1, s2)
    for (s1, s2), tag in zip(RARE_CASE_PAIRS, RARE_CASE_TAGS, strict=True):
        tags = swap_tags(s1, s2)
        assert tag in tags, (tag, tags)
        seen |= tags
    assert seen == CASE_TAGS | {f"{tag}-swapped" for tag in SWAPPABLE_TAGS}


# snapshots farther out than t//2 from the origin, which Snapshot(...) builds
# and from_dict refuses: the windows between them are empty
EMPTY_CASE_PAIRS = [
    ("even-even-3", snap(3, 4, (0, 0, 0), (0, 0, 0)), snap(3, 4, (1, 0, 0), (1, 0, 0))),
    ("even-odd-5", snap(3, 4, (0, 0, 0), (0, 0, 0)), snap(3, 5, (1, 0, 0), (1, 0, 0))),
    ("even-odd-6", snap(3, 4, (0, 0, 0), (0, 0, 0)), snap(3, 5, (1, 0, 0), (1, 0, 0, 0))),
    ("odd-odd-3", snap(3, 5, (0, 0, 0), (0, 0, 0)), snap(3, 5, (1, 0, 0), (1, 0, 0))),
    ("odd-odd-6", snap(3, 5, (0, 0, 0), (0, 0, 0)), snap(3, 5, (1, 0, 0), (1, 0, 0, 0))),
    ("odd-odd-10", snap(3, 5, (0, 0, 0), (0, 0, 0, 0)), snap(3, 5, (1, 0, 0), (1, 0, 0, 0))),
]


@pytest.mark.parametrize("case, s1, s2", EMPTY_CASE_PAIRS, ids=[c for c, _, _ in EMPTY_CASE_PAIRS])
@pytest.mark.parametrize("swap", [False, True], ids=["in-order", "swapped"])
def test_cases_refuse_an_empty_candidate_set(case, s1, s2, swap):
    # the message names the case without its -swapped suffix
    if swap:
        s1, s2 = s2, s1
    with pytest.raises(ValueError) as err:
        uniform_mle_cases_candidates(s1.d, lab(s1), lab(s2))
    assert str(err.value) == f"inconsistent snapshot pair: empty candidate set in case {case}"


def test_cases_match_generic_mle_randomized():
    # a randomized slice of the equivalence sweep (the full 10^4-per-parity
    # sweep runs in the acceptance suite)
    rng = random.Random(17)
    for trial in range(600):
        d = rng.choice([3, 4, 5])
        proto = uniform_protocol(d)
        t1 = rng.choice([4, 5, 6, 7, 8, 9, 10, 11, 12, 13])
        t2 = rng.choice([4, 5, 6, 7, 8, 9, 10, 11, 12, 13])
        s1 = simulate(proto, t1, seed=derive_seed(6, trial, 0)).snapshot_at(t1)
        s2 = simulate(proto, t2, seed=derive_seed(6, trial, 1)).snapshot_at(t2)
        a, _ = generic_mle_candidates(proto.d, labs([s1, s2]), proto)
        b, _ = uniform_mle_cases_candidates(s1.d, lab(s1), lab(s2))
        assert a.members == b.members, (d, t1, t2, s1, s2)


def _brute_force_pair_mle(s1, s2, hop, proto):
    """Independent oracle for the two-snapshot MLE: enumerate every vertex of
    the intersection of the infected sets and maximize the product of the
    per-vertex posteriors, written out from first principles."""
    d = s1.d

    def posterior(s, v):
        x = s.min_vs_distance(v)
        t_eff = s.t if s.t % 2 == 0 else s.t - 1
        if not 1 <= x <= t_eff // 2:
            return Fraction(0)
        base = Fraction(hop[t_eff][x - 1], d * (d - 1) ** (x - 1))
        if s.t % 2 == 0:
            return base
        a = proto.alpha_exact(t_eff, x)
        if s.is_ball:
            return base * a
        return base * (1 - a) / (d - 1)

    centers = list(s1.virtual_sources()) + list(s2.virtual_sources())
    domain = bfs_depths(d, centers, max(s1.radius, s2.radius))
    scores = {}
    for v in domain:
        score = posterior(s1, v) * posterior(s2, v)
        if score:
            scores[v] = score
    best = max(scores.values())
    return {v for v, sc in scores.items() if sc == best}


def test_cases_match_independent_brute_force():
    # unlike the generic-MLE sweep, this oracle shares no search-domain or
    # scoring code with the implementation under test
    rng = random.Random(271828)
    hops = {d: hop_distribution(uniform_protocol(d), 8) for d in (3, 4)}
    for trial in range(150):
        d = rng.choice([3, 4])
        proto = uniform_protocol(d)
        t1 = rng.choice([4, 5, 6, 7, 8, 9])
        t2 = rng.choice([4, 5, 6, 7, 8, 9])
        s1 = simulate(proto, t1, seed=derive_seed(8, trial, 0)).snapshot_at(t1)
        s2 = simulate(proto, t2, seed=derive_seed(8, trial, 1)).snapshot_at(t2)
        brute = _brute_force_pair_mle(s1, s2, hops[d], proto)
        cands, diag = uniform_mle_cases_candidates(s1.d, lab(s1), lab(s2))
        assert cands.members == brute, (d, t1, t2, diag["case"], s1, s2)


# ---------------------------------------------------------------------------
# the closest-pair path window against a per-vertex reference
# ---------------------------------------------------------------------------


def reference_feasible_interior(a, b, s1, s2):
    """Interior of the a-b path, filtered vertex by vertex to the vertices
    infected in both snapshots."""
    return [v for v in path_between(a, b)[1:-1] if s1.contains(v) and s2.contains(v)]


def reference_closest_pair(set1, set2):
    return min(((x, y) for x in set1 for y in set2), key=lambda xy: (distance(*xy), xy))


def reference_two_obs_path_candidates(s1, s2):
    d = s1.d
    vs1, vs2 = s1.virtual_sources(), s2.virtual_sources()
    known = set(vs1) | set(vs2)
    x, y = reference_closest_pair(vs1, vs2)
    s_set = [v for v in reference_feasible_interior(x, y, s1, s2) if v not in known]
    if s_set:
        return frozenset(s_set), {"S_size": len(s_set), "fallback": False}
    fringe = {w for v in known for w in neighbors(d, v)} - known
    return frozenset(fringe), {"S_size": 0, "fallback": True}


def reference_path_case(case, s1, s2):
    """The pick of a case that reads the path between the virtual sources,
    scored by distances on the per-vertex reference interior; None for the
    other cases."""
    if case.endswith("-swapped"):
        case, s1, s2 = case[: -len("-swapped")], s2, s1
    if case == "odd-odd-10(d=3,gap=2)":
        a, b = reference_closest_pair(s1.virtual_sources(), s2.virtual_sources())
        (mid,) = path_between(a, b)[1:-1]
        return {mid} | set(neighbors(s1.d, mid)) - {a, b}
    if case in ("even-even-3", "odd-odd-3", "even-odd-5", "odd-odd-10"):
        a, b = reference_closest_pair(s1.virtual_sources(), s2.virtual_sources())
    elif case in ("even-odd-6", "odd-odd-6"):  # s1 is the ball
        a = s1.vs_now
        b = min(s2.virtual_sources(), key=lambda w: (distance(a, w), w))
    else:
        return None
    feas = reference_feasible_interior(a, b, s1, s2)
    if case == "even-even-3":
        return set(feas)
    if case == "even-odd-5":
        return {min(feas, key=lambda v: distance(v, b))}
    if case in ("even-odd-6", "odd-odd-6"):
        return {min(feas, key=lambda v: distance(v, a))}
    if case == "odd-odd-3":
        score = {v: (s1.t + 1 - 2 * distance(v, a)) * (s2.t + 1 - 2 * distance(v, b))
                 for v in feas}
    else:
        score = {v: distance(v, a) * distance(v, b) for v in feas}
    return {v for v in feas if score[v] == max(score.values())}


WINDOW_PROTOCOLS = {
    "uniform": uniform_protocol,
    "perfect": perfect_protocol,
    "local": lambda d: local_spreading_protocol(d, Fraction(1, 3)),
}


def window_pairs(name, d, low):
    """Independent walks from one origin at every pair of times low..16 that
    the low table admits (low[0] for even times, low[1] for odd), a fixed
    seed list each."""
    proto = WINDOW_PROTOCOLS[name](d)
    times = [t for t in range(2, 17) if t >= low[t % 2]]
    for t1 in times:
        for t2 in times:
            for seed in (0, 1, 7):
                yield (sample_snapshot(proto, t1, derive_seed(seed, t1, t2, 0)),
                       sample_snapshot(proto, t2, derive_seed(seed, t1, t2, 1)))


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(WINDOW_PROTOCOLS))
def test_path_window_and_two_obs_path_equal_the_per_vertex_reference(name, d):
    for s1, s2 in window_pairs(name, d, (2, 3)):
        vs1, vs2 = s1.virtual_sources(), s2.virtual_sources()
        a, b = reference_closest_pair(vs1, vs2)
        interior = path_between(a, b)[1:-1]
        # no virtual source lies inside the closest pair's path, so the
        # estimator needs no known-vertex filter there
        assert not set(interior) & (set(vs1) | set(vs2)), (s1, s2)
        window = _path_window(a, b, s1.radius, s2.radius, lcp_len(a, b))
        assert window == reference_feasible_interior(a, b, s1, s2), (s1, s2)
        cands, diagnostics = two_obs_path_candidates(s1.d, lab(s1), lab(s2))
        assert (cands.members, diagnostics) == reference_two_obs_path_candidates(s1, s2)


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(WINDOW_PROTOCOLS))
def test_cases_path_picks_equal_the_per_vertex_reference(name, d):
    picked = 0
    for s1, s2 in window_pairs(name, d, (4, 5)):
        cands, diagnostics = uniform_mle_cases_candidates(s1.d, lab(s1), lab(s2))
        reference = reference_path_case(diagnostics["case"], s1, s2)
        if reference is not None:
            picked += 1
            assert cands.members == reference, (diagnostics, s1, s2)
    assert picked > 0


def test_path_window_is_the_two_radius_filter_of_any_path():
    # the window itself, for any labels: the interior vertices within ra of
    # a and rb of b, or only the one nearest a (position 0) or b
    rng = random.Random(5)
    for _ in range(3_000):
        a, b = (tuple(rng.randrange(2) for _ in range(rng.randrange(7))) for _ in "ab")
        ra, rb = rng.randrange(8), rng.randrange(8)
        k = lcp_len(a, b)
        path = path_between(a, b)
        expected = [(i, v) for i, v in enumerate(path[1:-1], 1)
                    if i <= ra and len(path) - 1 - i <= rb]
        for twice, kept in ((None, expected), (0, expected[:1]),
                            (2 * (len(path) - 1), expected[-1:])):
            window = _path_window(a, b, ra, rb, k, twice)
            assert [(distance(a, v), v) for v in window] == kept, (a, b, ra, rb, twice)


def test_path_window_peak_is_the_argmax_of_a_concave_score():
    # the scored cases build only the window positions nearest the peak of
    # their score, odd-odd-3's at (t1 - t2 + 2L) / 4 and odd-odd-10's at
    # L / 2; on random windows that is the brute-force argmax of the score
    # over every position, including windows of one and two positions and
    # two-way ties
    rng = random.Random(29)
    seen = Counter()
    for _ in range(4_000):
        a, b = (tuple(rng.randrange(2) for _ in range(rng.randrange(8))) for _ in "ab")
        ra, rb = rng.randrange(8), rng.randrange(8)
        k, gap = lcp_len(a, b), distance(a, b)
        t1, t2 = (2 * rng.randrange(8) + 1 for _ in "12")
        window = _path_window(a, b, ra, rb, k)
        for twice, score in (((t1 - t2) // 2 + gap,
                              lambda i: (t1 + 1 - 2 * i) * (t2 + 1 - 2 * (gap - i))),
                             (gap, lambda i: i * (gap - i))):
            scores = [score(distance(a, v)) for v in window]
            want = [v for v, sc in zip(window, scores) if sc == max(scores)]
            assert _path_window(a, b, ra, rb, k, twice) == want, (a, b, ra, rb, t1, t2)
            seen[len(window), len(want)] += 1
    assert all(seen[n, m] for n, m in ((0, 0), (1, 1), (2, 1), (2, 2), (5, 1), (5, 2))), seen


# ---------------------------------------------------------------------------
# the two-snapshot cores against a frozen copy of their per-call geometry
# ---------------------------------------------------------------------------


def frozen_closest_pair(set1, set2):
    return min((distance(x, y), x, y) for x in set1 for y in set2)


def frozen_nbrs_minus(d, centers, minus=()):
    out = {w for c in centers for w in neighbors(d, c)}
    return frozenset(out - set(minus) - set(centers))


def frozen_path_window(a, b, ra, rb):
    k = lcp_len(a, b)
    up = len(a) - k
    length = up + len(b) - k
    lo, hi = max(1, length - rb), min(length - 1, ra)
    below = len(b) - length
    return lo, [a[: len(a) - i] if i <= up else b[: below + i] for i in range(lo, hi + 1)]


def frozen_two_obs_path_candidates(s1, s2):
    """The path core as it stood with a closest pair of distance calls, a
    second lcp in the window and a fringe from neighbour lists: the
    reference for the one-lcp geometry of ``two_obs_path_candidates``."""
    d = _check_common([s1, s2])
    vs1, vs2 = s1.virtual_sources(), s2.virtual_sources()
    _, x, y = frozen_closest_pair(vs1, vs2)
    _, s_set = frozen_path_window(x, y, s1.radius, s2.radius)
    if s_set:
        return frozenset(s_set), {"S_size": len(s_set), "fallback": False}
    return frozen_nbrs_minus(d, vs1 + vs2), {"S_size": 0, "fallback": True}


def frozen_cases_candidates(s1, s2):
    """The closed-form case split as it stood, its d = 3 bands read off
    ``bfs_depths``: the reference for ``uniform_mle_cases_candidates``."""
    d = _check_common([s1, s2])
    for s in (s1, s2):
        low = 4 if s.t % 2 == 0 else 5
        if s.t < low:
            raise ValueError(
                f"case dispatch needs t >= {low} at {'even' if low == 4 else 'odd'} times, got t={s.t}"
            )
    k1 = s1.t % 2 + (s1.vs_prev != s1.vs_now)
    k2 = s2.t % 2 + (s2.vs_prev != s2.vs_now)
    swapped = k1 > k2
    if swapped:
        s1, s2, k1, k2 = s2, s1, k2, k1
    e1, e2 = s1.virtual_sources(), s2.virtual_sources()
    gap, a, b = frozen_closest_pair(e1, e2)
    window = frozen_path_window(a, b, s1.radius, s2.radius)
    if (k1, k2) == (2, 2):
        union = set(e1) | set(e2)
        if gap == 0 and set(e1) == set(e2):
            if d >= 4:
                members, case = frozen_nbrs_minus(d, e1), "odd-odd-7"
            else:
                members = {v for v, r in bfs_depths(d, e1, 2).items() if r in (1, 2)}
                case = "odd-odd-7(d=3)"
        elif gap == 0:
            (shared,) = set(e1) & set(e2)
            if d >= 4:
                members, case = frozen_nbrs_minus(d, [shared], union), "odd-odd-8"
            else:
                members = {v for v, r in bfs_depths(d, [shared], 2).items()
                           if r in (1, 2) and v not in union}
                case = "odd-odd-8(d=3)"
        elif gap == 1:
            members, case = frozen_nbrs_minus(d, [a, b], union), "odd-odd-9"
        elif d == 3 and gap == 2:
            _, (mid,) = frozen_path_window(a, b, 1, 1)
            (w2,) = [w for w in neighbors(d, mid) if w not in (a, b)]
            members, case = (mid, w2), "odd-odd-10(d=3,gap=2)"
        else:
            lo, feas = window
            scores = [i * (gap - i) for i in range(lo, lo + len(feas))]
            best = max(scores, default=None)
            members = [v for v, sc in zip(feas, scores) if sc == best]
            case = "odd-odd-10"
    elif k2 == 2:  # a ball against a moved pair
        tags = ("odd-odd-4", "odd-odd-5", "odd-odd-6") if s1.t % 2 else (
            "even-odd-2", "even-odd-4", "even-odd-6")
        if gap <= 1:
            members, case = frozen_nbrs_minus(d, [a], e2), tags[gap]
        else:
            members, case = window[1][:1], tags[2]
    else:  # two balls
        name = {(0, 0): "even-even", (0, 1): "even-odd", (1, 1): "odd-odd"}[k1, k2]
        t1, t2 = s1.t, s2.t
        if gap == 0:
            members, case = frozen_nbrs_minus(d, [a]), f"{name}-1"
        elif gap == 1 and k1 == k2 == 0:
            members, case = frozen_nbrs_minus(d, [a, b]), "even-even-2"
        elif gap == 1 and k1 == 0:
            members, case = frozen_nbrs_minus(d, [b], [a]), "even-odd-3"
        elif gap == 1:
            centers = [a, b] if t1 == t2 else [b] if t1 > t2 else [a]
            members, case = frozen_nbrs_minus(d, centers, [a, b]), "odd-odd-2"
        elif k2 == 0:
            members, case = window[1], "even-even-3"
        elif k1 == 0:
            members, case = window[1][-1:], "even-odd-5"
        else:
            lo, feas = window
            scores = [(t1 + 1 - 2 * i) * (t2 + 1 - 2 * (gap - i))
                      for i in range(lo, lo + len(feas))]
            best = max(scores, default=None)
            members = [v for v, sc in zip(feas, scores) if sc == best]
            case = "odd-odd-3"
    if not members:
        raise ValueError(f"inconsistent snapshot pair: empty candidate set in case {case}")
    return frozenset(members), {"case": case + "-swapped" if swapped else case}


def _members_or_refusal(core, *args):
    try:
        cands, diagnostics = core(*args)
    except ValueError as err:
        return "ValueError", str(err)
    return getattr(cands, "members", cands), diagnostics


def test_two_snapshot_cores_equal_the_frozen_reference_on_every_orbit():
    # every canonical joint outcome the exact oracle visits at d in {3, 4}
    # and 2 <= t1, t2 <= 11, in both orders, then the hand-built pairs (a
    # moved pair stored deep end first, windows left empty): the same
    # members and diagnostics, or the same refusal; the frozen cores read
    # Snapshots, the cores their labels
    pairs = []
    for d in (3, 4):
        proto = uniform_protocol(d)
        for times in itertools.product(range(2, 12), repeat=2):
            laws = [oracle._law(proto, t) for t in times]
            oracle._orbits(d, times, laws, lambda labels, _: pairs.append(
                tuple(Snapshot(d, *label) for label in labels)))
    pairs += RARE_CASE_PAIRS + [(s1, s2) for _, s1, s2 in EMPTY_CASE_PAIRS]
    cores = [(two_obs_path_candidates, frozen_two_obs_path_candidates),
             (uniform_mle_cases_candidates, frozen_cases_candidates)]
    refused = Counter()
    for s1, s2 in pairs:
        for pair in ((s1, s2), (s2, s1)):
            for core, frozen in cores:
                got = _members_or_refusal(core, s1.d, *labs(pair))
                assert got == _members_or_refusal(frozen, *pair), (core.__name__, pair)
                refused[core.__name__, got[0] == "ValueError"] += 1
    assert len(pairs) > 11_000
    assert refused[two_obs_path_candidates.__name__, True] == 0
    assert refused[uniform_mle_cases_candidates.__name__, True] > 0


# ---------------------------------------------------------------------------
# relabelling invariance
# ---------------------------------------------------------------------------


def _map_snapshot(phi, s):
    return Snapshot(d=s.d, t=s.t, vs_prev=phi(s.vs_prev), vs_now=phi(s.vs_now))


def _assert_shells_correspond(phi, a, b):
    assert {phi(c) for c in a.centers} == set(b.centers)
    assert a.radii == b.radii and a.size() == b.size()
    assert a.contains(SOURCE) == b.contains(SOURCE)


def test_relabelling_invariance_of_candidate_sets():
    # applying a child-index automorphism to every snapshot maps each
    # explicit candidate set exactly, and preserves the symbolic shells;
    # hence hit probabilities 1{origin in C}/|C| are invariant, which the
    # oracle's sum over orbits of joint outcomes rests on
    for trial in range(40):
        d = (3, 4)[trial % 2]
        proto = uniform_protocol(d)
        phi = make_automorphism(d, seed=trial)
        t1 = (4, 5, 8, 9)[trial % 4]
        t2 = (6, 7, 10, 12)[(trial + 1) % 4]
        s1 = simulate(proto, t1, seed=derive_seed(7, trial, 0)).snapshot_at(t1)
        s2 = simulate(proto, t2, seed=derive_seed(7, trial, 1)).snapshot_at(t2)
        m1, m2 = _map_snapshot(phi, s1), _map_snapshot(phi, s2)

        a, _ = uniform_mle_cases_candidates(s1.d, lab(s1), lab(s2))
        b, _ = uniform_mle_cases_candidates(m1.d, lab(m1), lab(m2))
        assert {phi(v) for v in a.members} == b.members

        a, _ = two_obs_path_candidates(s1.d, lab(s1), lab(s2))
        b, _ = two_obs_path_candidates(m1.d, lab(m1), lab(m2))
        assert {phi(v) for v in a.members} == b.members

        a, _ = generic_mle_candidates(proto.d, labs([s1, s2]), proto)
        b, _ = generic_mle_candidates(proto.d, labs([m1, m2]), proto)
        assert {phi(v) for v in a.members} == b.members

        sh_a, da = single_mle_candidates(s1.d, lab(s1), proto)
        sh_b, db = single_mle_candidates(m1.d, lab(m1), proto)
        assert da["h_star"] == db["h_star"]
        assert sh_a.size() == sh_b.size()
        assert sh_a.contains(SOURCE) == sh_b.contains(SOURCE)

        ka, _ = k_obs_candidates(d, [s1.virtual_sources()[0], s2.virtual_sources()[0]])
        kb, _ = k_obs_candidates(d, [m1.virtual_sources()[0], m2.virtual_sources()[0]])
        assert {phi(v) for v in ka.members} == kb.members

        more = [sample_snapshot(proto, t, derive_seed(7, trial, i))
                for i, t in ((2, 3 + trial % 5), (3, 8), (4, 11))]
        vs = [s.virtual_sources()[-1] for s in [s1, s2] + more]
        for k in (3, 4, 5):  # k = 3 is the three-snapshot estimator's core
            ka, _ = k_obs_candidates(d, vs[:k])
            kb, _ = k_obs_candidates(d, [phi(v) for v in vs[:k]])
            assert {phi(v) for v in ka.members} == kb.members

        for other in (perfect_protocol(d), local_spreading_protocol(d, 0.5)):
            o1, o2 = (sample_snapshot(other, t, derive_seed(9, trial, i))
                      for i, t in enumerate((t1, t2)))
            n1, n2 = _map_snapshot(phi, o1), _map_snapshot(phi, o2)
            a, _ = generic_mle_candidates(other.d, labs([o1, o2]), other)
            b, _ = generic_mle_candidates(other.d, labs([n1, n2]), other)
            assert {phi(v) for v in a.members} == b.members
            for o, n in ((o1, n1), (o2, n2)):
                _assert_shells_correspond(
                    phi,
                    single_mle_candidates(o.d, lab(o), other)[0],
                    single_mle_candidates(n.d, lab(n), other)[0],
                )


def _member_multiset(sets):
    """A list of candidate sets as a sorted list of their sorted members."""
    out = []
    for c in sets:
        if isinstance(c, ShellCandidates):
            members = set().union(*(shell_members(c.d, c.centers, r) for r in c.radii))
        else:
            members = c.members
        out.append(sorted(members))
    return sorted(out)


# (d, t, (vs_prev, vs_now) per snapshot): the first two snapshots form the
# named case, the third extends it to three snapshots
EQUAL_TIME_CASES = [
    (3, 5, [((0,), (0, 1))] * 3),  # identical edges
    (3, 5, [((0,), (0, 1)), ((0,), (0, 0)), ((1,), (1, 0))]),  # edges sharing vs_prev
    (4, 7, [((0,), (0, 1)), ((0, 1), (0, 1, 2)), ((0,), (0, 1))]),  # sharing a vertex, end to end
    (3, 5, [((0,), (0,)), ((0,), (0, 1)), ((0, 1), (0, 1))]),  # balls inside an edge
    (4, 7, [((0, 1), (0, 1, 2)), ((0, 1), (0, 1)), ((3,), (3,))]),  # a ball inside an edge
    (3, 6, [((0, 1), (0, 1)), ((0, 1), (0, 1)), ((0,), (0,))]),  # identical even balls
]


def _possible(protocol, s):
    """Whether the walk under ``protocol`` can produce snapshot ``s``."""
    row = (len(s.vs_now), s.vs_prev != s.vs_now)
    return row in {(h, moved) for h, moved, _ in oracle._law(protocol, s.t)}


def _equal_time_snapshots(protocol):
    """Joint snapshots whose times repeat, each one the walk can produce: the
    named cases, every canonical outcome ``oracle._orbits`` visits and
    seeded walks."""
    d = protocol.d
    for cd, t, pairs in EQUAL_TIME_CASES:
        snaps = [snap(cd, t, *pair) for pair in pairs]
        if cd == d and all(_possible(protocol, s) for s in snaps):
            yield snaps
    for times in ((4, 4), (5, 5), (7, 7), (5, 4, 5), (5, 5, 5)):
        seen = []
        laws = [oracle._law(protocol, t) for t in times]
        oracle._orbits(d, times, laws, lambda labels, _: seen.append(
            [Snapshot(d, *label) for label in labels]))
        yield from seen
    for i, times in enumerate(((9, 9), (10, 10), (8, 8, 8), (9, 9, 9))):
        for trial in range(10):
            yield [sample_snapshot(protocol, t, derive_seed(11, i, trial, j))
                   for j, t in enumerate(times)]


@pytest.mark.parametrize("d", [3, 4])
def test_candidates_ignore_the_order_of_equal_time_snapshots(d):
    # the exact oracle sums each sorted row tuple of equal-time snapshots
    # once; that is exact only if permuting equal-time snapshots leaves every
    # core's candidate sets unchanged as a multiset (the EstimatorInfo contract)
    checked = {name: 0 for name in ESTIMATORS}
    for protocol in (uniform_protocol(d), perfect_protocol(d), local_spreading_protocol(d, "1/2")):
        for snaps in _equal_time_snapshots(protocol):
            for k in range(1, len(snaps) + 1):
                part = snaps[:k]
                times = [s.t for s in part]
                orders = [order for order in itertools.permutations(range(k))
                          if [times[j] for j in order] == times]
                for name, info in ESTIMATORS.items():
                    if info.arity not in (None, k) or info.uniform_only and protocol.name != "uniform":
                        continue
                    want = _member_multiset(candidate_sets(info, d, labs(part), protocol))
                    for order in orders:
                        got = candidate_sets(info, d, labs([part[j] for j in order]), protocol)
                        assert _member_multiset(got) == want, (name, protocol.name, part, order)
                    checked[name] += 1
    assert min(checked.values()) > 0, checked


def test_estimate_json_shape():
    s1 = snap(3, 8, (0,), (0,))
    s2 = snap(3, 8, (1, 0), (1, 0))
    est = two_obs_path(s1, s2, random.Random(0))
    import json

    obj = json.loads(est.to_json())
    assert obj["method"] == "two_obs_path"
    assert obj["ties"] == est.tie_count()
    assert obj["chosen"].startswith("/")
    assert isinstance(obj["diagnostics"], dict)


def test_public_estimators_refuse_no_snapshots():
    # the k-snapshot estimators take a list, which may be empty
    with pytest.raises(ValueError, match="at least one snapshot required"):
        k_obs_subtree([], random.Random(0))
    with pytest.raises(ValueError, match="at least one snapshot required"):
        generic_mle([], UNI3, random.Random(0))


class RecordingRandom(random.Random):
    """A generator that lists the arguments of every ``randrange`` call."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def randrange(self, *args):
        self.calls.append(args)
        return super().randrange(*args)


PUBLIC = {  # each registry entry's public estimator, on a snapshot list
    "single_mle": lambda snaps, protocol, rng: single_mle(*snaps, protocol, rng),
    "two_obs_path": lambda snaps, protocol, rng: two_obs_path(*snaps, rng),
    "three_obs_intersection": lambda snaps, protocol, rng: three_obs_intersection(*snaps, rng),
    "k_obs_subtree": lambda snaps, protocol, rng: k_obs_subtree(snaps, rng),
    "generic_mle": lambda snaps, protocol, rng: generic_mle(snaps, protocol, rng),
    "uniform_mle_cases": lambda snaps, protocol, rng: uniform_mle_cases(*snaps, rng),
}
DRAW_TIMES = {  # arity -> observation times, odd ones for moved pairs
    1: [(5,), (6,), (9,)],
    2: [(5, 5), (7, 9), (6, 5), (8, 8)],
    3: [(5, 5, 5), (7, 6, 9)],
    None: [(5,), (5, 7), (6, 6), (5, 5, 5, 5), (7, 6, 7, 6)],
}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_each_entry_draws_what_its_public_estimator_draws(name):
    # "tie_break": one randrange(size); "coins": one randrange(2) per moved
    # pair, then randrange(size); "shell": first randrange(size).
    # candidate_sets lists one set per equally likely coin choice
    info = ESTIMATORS[name]
    moved_seen = multi_seen = 0
    for d in (3, 4):
        protocol = uniform_protocol(d)
        for i, times in enumerate(DRAW_TIMES[info.arity]):
            for trial in range(30):
                snaps = [sample_snapshot(protocol, t, derive_seed(71, d, i, trial, j))
                         for j, t in enumerate(times)]
                rng = RecordingRandom(trial)
                est = PUBLIC[name](snaps, protocol, rng)
                assert est.method == name
                moved, size = sum(not s.is_ball for s in snaps), est.tie_count()
                if info.draws == "tie_break":
                    assert rng.calls == [(size,)]
                elif info.draws == "coins":
                    assert rng.calls == [(2,)] * moved + [(size,)]
                else:
                    assert info.draws == "shell" and rng.calls[0] == (size,)
                sets = candidate_sets(info, d, labs(snaps), protocol)
                assert len(sets) == (2 ** moved if info.draws == "coins" else 1)
                moved_seen += moved > 0
                multi_seen += size > 1
    assert moved_seen
    assert multi_seen or name == "three_obs_intersection"  # the median is unique


REIMPORT = """
import gc, sys, weakref
classes = []
for _ in range(5):
    for name in [m for m in sys.modules if m == "adl" or m.startswith("adl.")]:
        del sys.modules[name]
    import adl.estimators
    classes.append(weakref.ref(adl.estimators.ExplicitCandidates))
gc.collect()
print(sum(ref() is not None for ref in classes))
"""


def test_a_purged_package_copy_is_freed():
    # the Candidates alias must not pin each imported copy of the package
    # (typing's subscription cache would, through ExplicitCandidates and its
    # functions' globals); run in a child so this process's modules stay put
    package_root = str(pathlib.Path(oracle.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", REIMPORT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1"]
