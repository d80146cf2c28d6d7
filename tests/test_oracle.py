import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from adl import closed_form as cf
from adl import oracle
from adl.diffusion import Snapshot, simulate
from adl.estimators import ESTIMATORS, estimator_for, three_obs_intersection, uniform_mle_cases
from adl.experiments import derive_seed
from adl.protocol import (
    constant_protocol,
    hop_distribution,
    local_spreading_protocol,
    perfect_protocol,
    uniform_protocol,
)
from adl.tree import SOURCE, labels_at_depth, sphere_size
from conftest import assert_stored_equals_checked, nondyadic_table, walk_law

UNI3 = uniform_protocol(3)


def brute_force_success(estimator, protocol, times):
    """The reference for ``exact_success``: the estimator core run on every
    joint outcome of the full product, each weighted by its probability, with
    the tie-break and the virtual-source draws integrated per outcome.  The
    single-diffusion law comes from stepping the walk (``walk_law``), not
    from the hop table or the oracle's law, so a fault there shows here."""
    info = estimator_for(estimator, len(times), protocol)
    exact = protocol.exact

    def success_fraction(snaps):
        # P(chosen = origin | these snapshots)
        def hit(cands):
            if not cands.contains(SOURCE):
                return Fraction(0) if exact else 0.0
            return Fraction(1, cands.size()) if exact else 1.0 / cands.size()

        sets = info.candidates(snaps, protocol)
        if len(sets) == 1:  # no virtual-source draw to average over
            return hit(sets[0])
        w = Fraction(1, len(sets)) if exact else 1.0 / len(sets)
        total = Fraction(0) if exact else 0.0
        for cands in sets:
            total += w * hit(cands)
        return total

    singles = [
        [(Snapshot(d=protocol.d, t=t, vs_prev=prev, vs_now=now), p)
         for (prev, now), p in walk_law(protocol, t).items()]
        for t in times
    ]
    total = Fraction(0) if exact else 0.0
    for combo in itertools.product(*singles):
        weight = math.prod(p for _, p in combo)
        total += weight * success_fraction([s for s, _ in combo])
    return total


def law_outcomes(protocol, t):
    """``oracle._law`` expanded to one entry per single outcome,
    {(vs_prev, vs_now): probability}."""
    return {(v[:-1] if moved else v, v): p
            for h, moved, p in oracle._law(protocol, t)
            for v in labels_at_depth(protocol.d, h)}


def test_law_is_the_walk_law():
    # the oracle's law, expanded over every label at each depth, is the law
    # the walk itself gives: so the first step is uniform, the mass is 1, the
    # hop marginals are p(t, h) and the odd-time split is p alpha / p (1 - alpha)
    for d in (3, 4):
        table = nondyadic_table(d)
        cases = [(proto, range(1, 10)) for proto in (
            uniform_protocol(d), perfect_protocol(d),
            local_spreading_protocol(d, "1/2"), constant_protocol(d, 0))]
        cases.append((table, range(1, table.t_max + 2)))
        for protocol, ts in cases:
            for t in ts:
                got = law_outcomes(protocol, t)
                want = walk_law(protocol, t)
                case = (protocol.name, d, t)
                if protocol.exact:
                    assert got == want and sum(want.values()) == 1, case
                else:
                    assert got.keys() == want.keys(), case
                    assert all(math.isclose(got[k], w, rel_tol=1e-12)
                               for k, w in want.items()), case


def test_enumerate_first_step_is_uniform():
    outs = law_outcomes(UNI3, 2)
    assert len(outs) == 3
    assert all(p == Fraction(1, 3) for p in outs.values())
    assert {now for _, now in outs} == {(0,), (1,), (2,)}


def test_enumerate_always_move_t4():
    outs = law_outcomes(constant_protocol(3, 0), 4)
    assert len(outs) == 6
    assert all(p == Fraction(1, 6) for p in outs.values())
    assert all(len(now) == 2 and prev == now for prev, now in outs)


def test_enumerate_mass_is_one():
    for proto in (UNI3, perfect_protocol(3), uniform_protocol(4)):
        for t in (1, 2, 5, 6, 9):
            assert sum(law_outcomes(proto, t).values()) == 1


def test_enumerate_marginal_reproduces_hop_distribution():
    hop = hop_distribution(UNI3, 6)
    marg = {}
    for (_, now), p in law_outcomes(UNI3, 6).items():
        marg[len(now)] = marg.get(len(now), 0) + p
    assert marg == dict(enumerate(hop[6], 1))
    assert marg == {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)}


def test_enumerate_odd_time_split():
    # odd outcomes split into stayed (ball) and moved (edge) configurations
    outs = law_outcomes(UNI3, 5)
    ball = {k: p for k, p in outs.items() if k[0] == k[1]}
    edge = {k: p for k, p in outs.items() if k[0] != k[1]}
    assert sum(ball.values()) == Fraction(1, 2)  # uniform stay probability
    assert sum(edge.values()) == Fraction(1, 2)
    assert all(now[:-1] == prev for prev, now in edge)


def test_exact_success_on_a_reused_protocol_equals_a_fresh_ones():
    # a protocol used before for other times and estimators keeps hop rows,
    # score rows and MLE hit rates; a later call must still give the value
    # a fresh protocol gives
    for make in (uniform_protocol, perfect_protocol, nondyadic_table):
        used = make(3)
        for est, times in (("single_mle", (4,)), ("generic_mle", (5, 6)), ("single_mle", (7,))):
            oracle.exact_success(est, used, times)
        for est, times in (("single_mle", (6,)), ("generic_mle", (4, 7)), ("single_mle", (5,)),
                           ("two_obs_path", (6, 6))):
            assert oracle.exact_success(est, used, times) == oracle.exact_success(
                est, make(3), times), (used.name, est, times)


def test_exact_success_even_even_is_41_over_72():
    assert oracle.exact_success("uniform_mle_cases", UNI3, (4, 4)) == Fraction(41, 72)


def test_exact_success_even_even_matches_closed_form_more():
    for d, t1, t2 in ((3, 4, 6), (3, 6, 6), (4, 4, 4), (4, 4, 6), (5, 4, 4)):
        got = oracle.exact_success("uniform_mle_cases", uniform_protocol(d), (t1, t2))
        assert got == cf.even_even_mle_exact(d, t1, t2).exact_value


def test_exact_success_even_odd_matches_closed_form():
    for d, te, to in ((3, 4, 5), (3, 6, 5), (3, 4, 7), (4, 4, 5)):
        got = oracle.exact_success("uniform_mle_cases", uniform_protocol(d), (te, to))
        assert got == cf.even_odd_mle_exact(d, te, to).exact_value
        swapped = oracle.exact_success("uniform_mle_cases", uniform_protocol(d), (to, te))
        assert swapped == got


def test_exact_success_odd_odd_below_upper_bound():
    for d, t1, t2 in ((3, 5, 5), (3, 5, 7), (4, 5, 5)):
        got = oracle.exact_success("uniform_mle_cases", uniform_protocol(d), (t1, t2))
        assert 0 < got <= cf.odd_odd_mle_upper(d, t1, t2).exact_value


def test_exact_success_generic_equals_cases():
    for times in ((4, 4), (4, 5), (5, 5)):
        a = oracle.exact_success("generic_mle", UNI3, times)
        b = oracle.exact_success("uniform_mle_cases", UNI3, times)
        assert a == b


def test_exact_success_generic_is_the_untruncated_argmax():
    # uniform: the even-even closed form; perfect: every feasible vertex ties,
    # which a search truncated 3 hops off the core (5794/14415) misses
    want = cf.even_even_mle_exact(3, 8, 8).exact_value
    assert oracle.exact_success("generic_mle", UNI3, (8, 8)) == want == Fraction(89, 288)
    got = oracle.exact_success("generic_mle", perfect_protocol(3), (9, 10))
    assert got == Fraction(17383, 43245)


def test_exact_success_three_obs_t2_is_split_probability():
    # with three radius-1 balls the estimator wins exactly when all first
    # steps differ: 3!/27 = 2/9, the same as the general lower bound
    assert oracle.exact_success("three_obs_intersection", UNI3, (2, 2, 2)) == Fraction(2, 9)
    assert oracle.exact_success(
        "three_obs_intersection", uniform_protocol(4), (2, 2, 2)
    ) == Fraction(6, 16)


def test_exact_success_three_obs_floor_is_tight_at_any_times():
    # the path medians only meet at the origin when the first steps split,
    # so the (d-1)(d-2)/d^2 floor is attained exactly, whatever the times
    for times in ((4, 4, 4), (4, 6, 8), (5, 6, 7)):
        assert oracle.exact_success("three_obs_intersection", UNI3, times) == Fraction(2, 9)
    assert oracle.exact_success(
        "three_obs_intersection", uniform_protocol(4), (4, 5, 6)
    ) == Fraction(6, 16)


def test_exact_success_single_mle_perfect_is_uniform_guess():
    per = perfect_protocol(3)
    for t in (2, 4, 6):
        n_t = 3 * (2 ** (t // 2) - 1) + 1
        got = oracle.exact_success("single_mle", per, (t,))
        assert got == Fraction(1, n_t - 1)


def test_exact_success_single_mle_uniform():
    # argmax sits at hop 1: success = (2/t) / d
    for t in (4, 6, 10):
        got = oracle.exact_success("single_mle", UNI3, (t,))
        assert got == Fraction(2, 3 * t)


def test_exact_success_two_obs_lower_bound_holds():
    for times in ((4, 4), (4, 5), (6, 6)):
        got = oracle.exact_success("two_obs_path", UNI3, times)
        floor = Fraction(2, 3) * Fraction(2, min(times))
        assert got >= floor


def test_exact_success_two_obs_at_acceptance_times():
    # the exact values behind the t = (12, 12) acceptance jobs
    got = oracle.exact_success("two_obs_path", UNI3, (12, 12))
    assert got >= Fraction(1, 9)
    # at even-even times the path estimator's fallback coincides with the
    # closed-form MLE cases, so the success probabilities agree exactly
    assert got == cf.even_even_mle_exact(3, 12, 12).exact_value
    per = oracle.exact_success("two_obs_path", perfect_protocol(3), (12, 12))
    assert per >= Fraction(1, 9)


# times per number of snapshots: t = 1, odd, even and unequal times
CROSS_CHECK_TIMES = {
    1: [(1,), (4,), (5,), (7,), (2,)],
    2: [(1, 4), (4, 5), (3, 3), (5, 3), (6, 3), (4, 4), (5, 5)],
    3: [(1, 2, 3), (3, 4, 2), (5, 2, 1), (2, 3, 3), (4, 2, 4)],
    4: [(2, 3, 1, 2), (2, 3, 3, 2), (2, 2, 2, 2), (3, 2, 3, 2)],
}


@pytest.mark.parametrize("name, times", [
    ("k_obs_subtree", (1, 1, 1)),
    ("three_obs_intersection", (1, 1, 1)),
    ("k_obs_subtree", (1, 4, 4)),
    ("k_obs_subtree", (1,)),
    ("single_mle", (1,)),
])
def test_exact_success_refuses_t1_as_the_estimators_do(name, times):
    # the cores the oracle runs refuse a t = 1 snapshot with the message the
    # public estimators (Monte Carlo and adl estimate) give
    with pytest.raises(ValueError, match="estimators require observation times t >= 2"):
        oracle.exact_success(name, UNI3, times)


@pytest.mark.parametrize("times", [(1,), (2, 3), (5, 4, 5), (7, 6)])
def test_orbit_snapshots_equal_checked_ones(times):
    # _orbits stores its canonical outcomes without checking them again;
    # each is the snapshot Snapshot(...) builds
    for d in (3, 4, 5):
        laws = [oracle._law(uniform_protocol(d), t) for t in times]
        seen = {}
        oracle._orbits(d, times, laws, lambda snaps, _: seen.update((id(s), s) for s in snaps))
        assert seen
        for s in seen.values():
            assert_stored_equals_checked(s)


def test_orbits_sum_each_sorted_row_tuple_of_equal_times_once():
    # equal-time snapshots pick their law rows in non-decreasing order, and
    # the weight counts the orderings of that row tuple: fewer leaves, the
    # same total mass
    # (the automorphisms alone give 348, 231 and 170; (2, 3, 3, 2) checks the mass)
    for times, leaves in (((4, 4, 4, 4), 124), ((6, 6, 6), 94), ((10, 11), 170),
                          ((2, 3, 3, 2), None)):
        laws = [oracle._law(UNI3, t) for t in times]
        weights = []
        oracle._orbits(3, times, laws, lambda snaps, w: weights.append(w))
        assert leaves is None or len(weights) == leaves, times
        assert sum(weights) == 1 and all(type(w) is Fraction for w in weights), times


def one_level_orbits(d, times, laws, visit):
    """The orbit walk written one label level per call, with the orderings
    factor counted afresh at every pick: the reference for the order, the
    outcomes and the weights ``oracle._orbits`` gives."""
    k = len(laws)
    used = {}
    snaps = [None] * k
    rows = [0] * k
    same = {}
    prev = []
    for i, t in enumerate(times):
        prev.append(same[t][-1] if t in same else None)
        same.setdefault(t, []).append(i)
    closes = [None] * k
    for ps in same.values():
        if len(ps) > 1:
            closes[ps[-1]] = ps

    def pick(i, weight):
        if i == k:
            visit(snaps, weight)
            return
        start = 0 if prev[i] is None else rows[prev[i]]
        for r in range(start, len(laws[i])):
            depth, moved, p = laws[i][r]
            rows[i] = r
            w = weight * p
            if closes[i]:
                runs = Counter(rows[j] for j in closes[i]).values()
                w *= math.factorial(len(closes[i])) // math.prod(map(math.factorial, runs))
            descend(i, SOURCE, depth, moved, w)

    def descend(i, v, depth, moved, weight):
        if len(v) == depth:
            snaps[i] = Snapshot(d=d, t=times[i], vs_prev=v[:-1] if moved else v, vs_now=v)
            pick(i + 1, weight)
            return
        m = used.get(v, 0)
        for c in range(m):
            descend(i, v + (c,), depth, moved, weight)
        n = d - 1 if v else d
        if m < n:
            used[v] = m + 1
            descend(i, v + (m,), depth, moved, weight * (n - m))
            used[v] = m

    pick(0, 1)


def orbit_visits(walk, d, times, laws):
    # each call's (t, vs_prev, vs_now) per snapshot, copied because the walk
    # reuses its list, and the weight
    seen = []
    walk(d, times, laws, lambda snaps, w: seen.append(
        ([(s.t, s.vs_prev, s.vs_now) for s in snaps], w)))
    return seen


@pytest.mark.parametrize("times", [(1,), (2, 3), (4, 4), (5, 5), (9, 9), (10, 11), (4, 2, 4),
                                   (3, 2, 3, 2), (2, 2, 2, 2)])
def test_orbits_visit_what_the_one_level_walk_visits(times):
    # the forced tails built in one step and the orderings counted once per
    # row tuple give the same calls, in the same order, with the same
    # weights: integers on the oracle's rescaled laws, and floats multiplied
    # in the same order on a table's
    for d in (3, 4, 5):
        protocols = [uniform_protocol(d)]
        if max(times) <= nondyadic_table(d).t_max + 1:
            protocols.append(nondyadic_table(d))
        for protocol in protocols:
            laws = [oracle._law(protocol, t) for t in times]
            got = orbit_visits(oracle._orbits, d, times, laws)
            assert got and got == orbit_visits(one_level_orbits, d, times, laws), (d, times)
            assert all(type(w) is type(laws[0][0][2]) for _, w in got)


def test_the_benchmark_instances_walk_646_orbits(monkeypatch):
    # the eight oracle_exact instances of benchmarks/run.py, one core call
    # per orbit: 646 per pass
    instances = [
        ("uniform_mle_cases", uniform_protocol(3), (10, 10), 50),
        ("uniform_mle_cases", uniform_protocol(3), (10, 11), 170),
        ("uniform_mle_cases", uniform_protocol(3), (9, 9), 122),
        ("two_obs_path", perfect_protocol(3), (10, 10), 50),
        ("generic_mle", uniform_protocol(3), (8, 8), 30),
        ("single_mle", perfect_protocol(4), (12,), 6),
        ("three_obs_intersection", uniform_protocol(3), (6, 6, 6), 94),
        ("k_obs_subtree", uniform_protocol(3), (4, 4, 4, 4), 124),
    ]
    walk = oracle._orbits
    counts = []

    def counting(d, times, laws, visit):
        counts.append(0)

        def counted(snaps, weight):
            counts[-1] += 1
            visit(snaps, weight)

        walk(d, times, laws, counted)

    monkeypatch.setattr(oracle, "_orbits", counting)
    for name, protocol, times, _ in instances:
        oracle.exact_success(name, protocol, times)
    assert counts == [orbits for *_, orbits in instances]
    assert sum(counts) == 646


def test_exact_success_result_types():
    # a built-in protocol gives a Fraction and a table a float, also when no
    # candidate set ever holds the origin (one radius-1 ball: the core picks
    # its center, never the origin)
    got = oracle.exact_success("k_obs_subtree", UNI3, (2,))
    assert type(got) is Fraction and got == 0
    got = oracle.exact_success("k_obs_subtree", nondyadic_table(3), (2,))
    assert type(got) is float and got == 0.0
    got = oracle.exact_success("k_obs_subtree", nondyadic_table(3), (4, 5, 6))
    assert type(got) is float and got > 0


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def test_exact_success_equals_brute_force():
    # the orbit sum must give what the full product gives: the same Fraction
    # for a built-in protocol, the same float up to rounding for a table,
    # and a ValueError exactly where the product raises one
    compared = 0
    for d in (3, 4):
        protocols = (uniform_protocol(d), perfect_protocol(d),
                     local_spreading_protocol(d, "1/2"), nondyadic_table(d))
        for name, info in ESTIMATORS.items():
            if info.arity:
                arities = [info.arity]
            else:
                arities = [1, 2, 3, 4] if name == "k_obs_subtree" else [1, 2, 3]
            for protocol, k in itertools.product(protocols, arities):
                for times in CROSS_CHECK_TIMES[k]:
                    want = _value_or_error(brute_force_success, name, protocol, times)
                    got = _value_or_error(oracle.exact_success, name, protocol, times)
                    case = (name, protocol.name, d, times)
                    if want is ValueError or protocol.exact:
                        assert got == want, case
                    else:
                        assert got is not ValueError and math.isclose(got, want, rel_tol=1e-12), case
                    compared += want is not ValueError
    assert compared > 200


def test_exact_success_at_large_times():
    # certifications far past brute-force reach (9.4M outcomes at d=3, (20,20);
    # 4.1M at d=4, (8,8,8)), each inside the default budget
    uni4 = uniform_protocol(4)
    got = oracle.exact_success("uniform_mle_cases", UNI3, (20, 20))
    assert got == cf.even_even_mle_exact(3, 20, 20).exact_value == Fraction(233, 1800)
    want = cf.even_odd_mle_exact(3, 20, 17).exact_value
    assert want == Fraction(2641, 12960)
    assert oracle.exact_success("uniform_mle_cases", UNI3, (20, 17)) == want
    assert oracle.exact_success("uniform_mle_cases", UNI3, (17, 20)) == want
    got = oracle.exact_success("uniform_mle_cases", UNI3, (17, 17))
    assert got == Fraction(86663, 373248) <= cf.odd_odd_mle_upper(3, 17, 17).exact_value
    got = oracle.exact_success("uniform_mle_cases", uni4, (12, 12))
    assert got == oracle.exact_success("generic_mle", uni4, (12, 12)) == Fraction(403, 1728)
    assert got == cf.even_even_mle_exact(4, 12, 12).exact_value
    got = oracle.exact_success("three_obs_intersection", uni4, (8, 8, 8))
    assert got == cf.three_obs_lower(4).exact_value == Fraction(3, 8)
    got = oracle.exact_success("two_obs_path", perfect_protocol(4), (12, 12))
    assert got >= cf.two_obs_detection_lower(4, 12, 12).exact_value


def test_exact_success_certifies_t40():
    # far past the default budget (8.9e13 nominal joint outcomes at d=3,
    # (41,41), 7.8e20 at d=4); the orbit sum stays polynomial in t
    for d in (3, 4):
        uni = uniform_protocol(d)

        def run(times):
            return oracle.exact_success("uniform_mle_cases", uni, times, budget=10**40)

        assert run((40, 40)) == cf.even_even_mle_exact(d, 40, 40).exact_value
        want = cf.even_odd_mle_exact(d, 40, 41).exact_value
        assert run((40, 41)) == want
        assert run((41, 40)) == want
        assert 0 <= run((41, 41)) <= cf.odd_odd_mle_upper(d, 41, 41).exact_value


def outcome_count_by_loop(d, t):
    """The reference for ``outcome_count``: the count summed hop by hop."""
    if t == 1:
        return d
    if t % 2 == 0:
        return sum(sphere_size(d, h) for h in range(1, t // 2 + 1))
    # odd: every ball center, plus every (parent, child) central edge
    return sum(sphere_size(d, h) * d for h in range(1, (t - 1) // 2 + 1))


def test_outcome_count_equals_the_hop_by_hop_sum():
    for d in (3, 4, 5, 9, 1000):
        for t in range(1, 200):
            assert oracle.outcome_count(d, t) == outcome_count_by_loop(d, t), (d, t)


def test_exact_success_refuses_huge_times_by_its_budget():
    # the count has about 15,000 digits; the refusal never formats it
    with pytest.raises(ValueError, match="needs more outcomes than the budget of 10000000$"):
        oracle.exact_success("uniform_mle_cases", UNI3, (10**5, 10**5))
    with pytest.raises(ValueError, match="observation time must be >= 1, got -4"):
        oracle.exact_success("uniform_mle_cases", UNI3, (10**5, -4))


def test_exact_success_respects_budget_and_arity():
    with pytest.raises(ValueError):
        oracle.exact_success("uniform_mle_cases", UNI3, (4, 4), budget=10)
    with pytest.raises(ValueError):
        oracle.exact_success("three_obs_intersection", UNI3, (2, 2))
    with pytest.raises(ValueError):
        oracle.exact_success("uniform_mle_cases", perfect_protocol(3), (4, 4))
    with pytest.raises(ValueError):
        oracle.exact_success("made_up", UNI3, (4, 4))


def test_exact_success_matches_monte_carlo_three_sigma():
    # oracle value vs sampled frequency for two estimator/protocol pairs
    n = 4000
    exact = oracle.exact_success("uniform_mle_cases", UNI3, (4, 5))
    hits = 0
    for trial in range(n):
        s1 = simulate(UNI3, 4, seed=derive_seed(50, trial, 0)).snapshot_at(4)
        s2 = simulate(UNI3, 5, seed=derive_seed(50, trial, 1)).snapshot_at(5)
        rng = random.Random(derive_seed(50, trial, 2))
        hits += uniform_mle_cases(s1, s2, rng).chosen == ()
    sigma = math.sqrt(float(exact) * (1 - float(exact)) / n)
    assert abs(hits / n - float(exact)) <= 3 * sigma

    exact = oracle.exact_success("three_obs_intersection", UNI3, (5, 6, 7))
    hits = 0
    for trial in range(n):
        snaps = [
            simulate(UNI3, t, seed=derive_seed(51, trial, i)).snapshot_at(t)
            for i, t in enumerate((5, 6, 7))
        ]
        rng = random.Random(derive_seed(51, trial, 3))
        hits += three_obs_intersection(*snaps, rng).chosen == ()
    sigma = math.sqrt(float(exact) * (1 - float(exact)) / n)
    assert abs(hits / n - float(exact)) <= 3 * sigma

