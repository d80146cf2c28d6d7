import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from adl import closed_form as cf
from adl import estimators, oracle
from adl.diffusion import Snapshot, simulate
from adl.estimators import (
    ESTIMATORS,
    candidate_sets,
    estimator_for,
    three_obs_intersection,
    uniform_mle_cases,
)
from adl.experiments import derive_seed
from adl.protocol import (
    constant_protocol,
    hop_distribution,
    local_spreading_protocol,
    perfect_protocol,
    uniform_protocol,
)
from adl.tree import SOURCE, labels_at_depth, sphere_size
from conftest import nondyadic_table, walk_law

UNI3 = uniform_protocol(3)


def brute_force_success(estimator, protocol, times):
    """The reference for ``exact_success``: the estimator core run on every
    joint outcome of the full product, each weighted by its probability, with
    the tie-break and the virtual-source draws integrated per outcome.  The
    single-diffusion law comes from stepping the walk (``walk_law``), not
    from the hop table or the oracle's law, so a fault there shows here."""
    info = estimator_for(estimator, len(times), protocol)
    exact = protocol.exact

    def success_fraction(labels):
        # P(chosen = origin | these snapshots)
        def hit(cands):
            if not cands.contains(SOURCE):
                return Fraction(0) if exact else 0.0
            return Fraction(1, cands.size()) if exact else 1.0 / cands.size()

        sets = candidate_sets(info, protocol.d, labels, protocol)
        if len(sets) == 1:  # no virtual-source draw to average over
            return hit(sets[0])
        w = Fraction(1, len(sets)) if exact else 1.0 / len(sets)
        total = Fraction(0) if exact else 0.0
        for cands in sets:
            total += w * hit(cands)
        return total

    singles = [[((t, prev, now), p) for (prev, now), p in walk_law(protocol, t).items()]
               for t in times]
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


# times per number of snapshots: t = 1, odd, even and unequal times, and
# blocks of equal rows below depth 1; (4, 4, 4, 4) is checked at d = 3 only,
# its full product at d = 4 (65,536 outcomes per case) tripling the test
CROSS_CHECK_TIMES = {
    1: [(1,), (4,), (5,), (7,), (2,)],
    2: [(1, 4), (4, 5), (3, 3), (5, 3), (6, 3), (4, 4), (5, 5)],
    3: [(1, 2, 3), (3, 4, 2), (5, 2, 1), (2, 3, 3), (4, 2, 4), (4, 4, 4)],
    4: [(2, 3, 1, 2), (2, 3, 3, 2), (2, 2, 2, 2), (3, 2, 3, 2), (4, 4, 4, 4)],
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
    # _orbits hands over its canonical outcomes' labels without checking
    # them; each is a snapshot Snapshot.from_dict accepts, one a walk produces
    for d in (3, 4, 5):
        laws = [oracle._law(uniform_protocol(d), t) for t in times]
        seen = set()
        oracle._orbits(d, times, laws, lambda labels, _: seen.update(labels))
        assert seen
        for t, prev, now in seen:
            s = Snapshot(d=d, t=t, vs_prev=prev, vs_now=now)
            assert Snapshot.from_dict(s.to_dict()) == s


def test_orbits_sum_each_sorted_row_tuple_of_equal_times_once():
    # equal-time snapshots pick their law rows in non-decreasing order, the
    # weight counts the orderings of that row tuple, and the snapshots of one
    # type are interchangeable: fewer leaves, the same total mass
    # (the automorphisms alone give 348, 231 and 170, and sorting the rows
    # alone 124, 94 and 170; (2, 3, 3, 2) checks the mass)
    for times, leaves in (((4, 4, 4, 4), 43), ((6, 6, 6), 64), ((10, 11), 170),
                          ((2, 3, 3, 2), None)):
        laws = [oracle._law(UNI3, t) for t in times]
        weights = []
        oracle._orbits(3, times, laws, lambda snaps, w: weights.append(w))
        assert leaves is None or len(weights) == leaves, times
        assert sum(weights) == 1 and all(type(w) is Fraction for w in weights), times


def one_level_orbits(d, times, laws, visit):
    """The orbit walk of the automorphisms, with the rows of equal-time
    snapshots sorted, written one label level per call and with the
    orderings factor counted afresh at every pick: it reaches several
    orderings of snapshots of one type, so it is the reference the orbits of
    ``oracle._orbits`` are grouped from."""
    k = len(laws)
    used = {}
    labels = [None] * k
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
            visit(labels, weight)
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
            labels[i] = (times[i], v[:-1] if moved else v, v)
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
    walk(d, times, laws, lambda labels, w: seen.append((list(labels), w)))
    return seen


def orbit_form(labels, times):
    """The brute-force canonical form of a joint outcome under the
    origin-fixing automorphisms times the permutations of equal-time
    snapshots: child indices relabelled in first-use order, then the least
    such form over those permutations."""
    groups = {}
    for i, t in enumerate(times):
        groups.setdefault(t, []).append(i)
    forms = []
    for perms in itertools.product(*map(itertools.permutations, groups.values())):
        order = [None] * len(times)
        for slots, picked in zip(groups.values(), perms):
            for slot, i in zip(slots, picked):
                order[slot] = i
        names, children, form = {(): ()}, {}, []
        for i in order:
            t, prev, now = labels[i]
            for j in range(1, len(now) + 1):
                if now[:j] not in names:
                    parent = now[:j - 1]
                    children[parent] = children.get(parent, 0) + 1
                    names[now[:j]] = names[parent] + (children[parent] - 1,)
            form.append((t, prev != now, names[now]))
        forms.append(tuple(form))
    return min(forms)


# the orbits of oracle._orbits at d = 3 (and at d = 4 and 5 where given), pinned;
# (5, 5, 5) and (3, 3, 3, 3) send three or more copies of one moved odd-time
# row down as one share
ORBIT_COUNTS = {(4, 4, 4, 4): {3: 43}, (6, 6, 6): {3: 64}, (4, 2, 4): {3: 15},
                (2, 2, 2, 2): {3: 4, 4: 5}, (9, 9): {3: 122}, (10, 11): {3: 170},
                (5, 5, 5): {3: 139, 4: 150, 5: 150}, (3, 3, 3, 3): {3: 43, 4: 52, 5: 53},
                (4, 4, 4, 4, 4): {3: 92, 4: 123, 5: 133}}


def brute_force_splits(counts, d):
    """{the non-increasing tuple of a split's blocks, each its count per
    type: the number of ways to send the share's copies, as distinct
    individuals, to d distinct children that makes that split}, by trying
    every way."""
    kinds = [t for t, c in enumerate(counts) for _ in range(c)]
    ways = Counter()
    for children in itertools.product(range(d), repeat=len(kinds)):
        blocks = [[0] * len(counts) for _ in range(d)]
        for kd, child in zip(kinds, children):
            blocks[child][kd] += 1
        ways[tuple(sorted((tuple(b) for b in blocks if any(b)), reverse=True))] += 1
    return ways


@pytest.mark.parametrize("d", [3, 4])
def test_splits_are_every_split_once_with_its_factor(d):
    # every count pattern of at most 5 copies of at most 3 types: each split
    # into two or more blocks in non-increasing block order, listed once, its
    # factor times the embeddings n!/(n - c)! the number of assignments that
    # make it, its blocks the copies' indices in type order; the one-block
    # split, which the walk takes as the chain to child 0, is not listed
    patterns = [p for m in range(1, 4) for p in itertools.product(range(1, 6), repeat=m)
                if sum(p) <= 5]
    for counts in patterns:
        kinds = [t for t, c in enumerate(counts) for _ in range(c)]
        got = {(tuple(counts),): d}  # the one-block split, on any of d children
        for c, factor, singles, multis in oracle._splits(counts, d):
            assert c > 1, counts
            blocks = [None] * c
            for child, x in singles:
                blocks[child] = (x,)
            for children, run in multis:
                for child, block in zip(children, run):
                    blocks[child] = tuple(block)
            assert sorted(x for b in blocks for x in b) == list(range(len(kinds))), counts
            form = tuple(tuple(sum(kinds[x] == t for x in b) for t in range(len(counts)))
                         for b in blocks)
            assert list(form) == sorted(form, reverse=True), (counts, form)
            for children, _ in multis:  # a run holds equal blocks only
                assert len({form[child] for child in children}) == 1, (counts, form)
            assert form not in got, (counts, form)
            got[form] = math.perm(d, c) * factor
        assert got == brute_force_splits(counts, d), counts


@pytest.mark.parametrize("times", [(1,), (2, 3), (4, 4), (5, 5), (9, 9), (10, 11), (4, 2, 4),
                                   (3, 2, 3, 2), (2, 2, 2, 2), (4, 4, 4, 4), (6, 6, 6),
                                   (4, 4, 4, 4, 4), (5, 5, 5), (3, 3, 3, 3)])
def test_orbits_visit_what_the_one_level_walk_visits(times):
    # the reference walk reaches some orbits more than once; _orbits reaches
    # each of them once, with the summed weight of the reference's visits in
    # it: exactly on the oracle's rescaled integer laws, and to 1e-12 on a
    # table's floats, which it sums in another order
    for d in (3, 4, 5):
        protocols = [uniform_protocol(d)]
        if max(times) <= nondyadic_table(d).t_max + 1:
            protocols.append(nondyadic_table(d))
        for protocol in protocols:
            laws = [oracle._law(protocol, t) for t in times]
            want = {}
            for labels, w in orbit_visits(one_level_orbits, d, times, laws):
                form = orbit_form(labels, times)
                want[form] = want.get(form, 0) + w
            got = orbit_visits(oracle._orbits, d, times, laws)
            forms = [orbit_form(labels, times) for labels, _ in got]
            case = (protocol.name, d, times)
            assert len(set(forms)) == len(forms) == len(want), case
            assert ORBIT_COUNTS.get(times, {}).get(d, len(got)) == len(got), case
            for form, (_, w) in zip(forms, got):
                assert type(w) is type(laws[0][0][2]), case
                if protocol.exact:
                    assert w == want[form], case
                else:
                    assert math.isclose(w, want[form], rel_tol=1e-12), case


# the eight oracle_exact instances of benchmarks/run.py: (estimator, protocol,
# times, orbits, the Fraction the benchmark checks)
BENCHMARK_INSTANCES = [
    ("uniform_mle_cases", uniform_protocol(3), (10, 10), 50, Fraction(113, 450)),
    ("uniform_mle_cases", uniform_protocol(3), (10, 11), 170, Fraction(437, 1350)),
    ("uniform_mle_cases", uniform_protocol(3), (9, 9), 122, Fraction(11543, 28800)),
    ("two_obs_path", perfect_protocol(3), (10, 10), 50, Fraction(3070, 8649)),
    ("generic_mle", uniform_protocol(3), (8, 8), 30, Fraction(89, 288)),
    ("single_mle", perfect_protocol(4), (12,), 6, Fraction(1, 1456)),
    ("three_obs_intersection", uniform_protocol(3), (6, 6, 6), 64, Fraction(2, 9)),
    ("k_obs_subtree", uniform_protocol(3), (4, 4, 4, 4), 43, Fraction(2441, 8640)),
]


def test_the_benchmark_instances_walk_535_orbits(monkeypatch):
    # one core call per orbit: 535 per pass, and each value the Fraction the
    # benchmark checks
    instances = BENCHMARK_INSTANCES
    walk = oracle._orbits
    counts = []

    def counting(d, times, laws, visit):
        counts.append(0)

        def counted(labels, weight):
            counts[-1] += 1
            visit(labels, weight)

        walk(d, times, laws, counted)

    monkeypatch.setattr(oracle, "_orbits", counting)
    values = [oracle.exact_success(name, protocol, times) for name, protocol, times, *_ in instances]
    assert counts == [orbits for *_, orbits, _ in instances]
    assert sum(counts) == 535
    for got, (*_, want) in zip(values, instances):
        assert type(got) is Fraction and got == want


def test_the_benchmark_instances_make_535_core_calls(monkeypatch):
    # each *_candidates function wrapped where the benchmark's tracer wraps
    # it, on the module: a core call that bypasses that lookup at call time
    # goes uncounted.  k_obs_label_candidates calls k_obs_candidates through
    # the module too, so a call is counted when no other core is running
    calls, running = [], []

    def wrap(name, core):
        def counted(*args):
            if not running:
                calls[-1] += 1
            running.append(name)
            try:
                return core(*args)
            finally:
                running.pop()
        return counted

    for name in dir(estimators):
        if name.endswith("_candidates"):
            monkeypatch.setattr(estimators, name, wrap(name, getattr(estimators, name)))
    for name, protocol, times, orbits, want in BENCHMARK_INSTANCES:
        calls.append(0)
        assert oracle.exact_success(name, protocol, times) == want
        assert calls[-1] == orbits, (name, times)
    assert sum(calls) == 535


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
                    if d > 3 and times == (4, 4, 4, 4):
                        continue
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

