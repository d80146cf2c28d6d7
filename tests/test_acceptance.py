"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The Monte Carlo criteria 05-08 are the shipped ``configs/*.json``: each runs
its configs through ``experiments.run`` at full trials, asserts every 3-sigma
``verdict()`` and checks the report body against its digest in
``tests/config_body_digests.json``.  Exact criteria run in rational
arithmetic with zero tolerance.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from adl import closed_form as cf
from adl import oracle
from adl.diffusion import local_radius, sample_snapshot, simulate
from adl.estimators import generic_mle_candidates, uniform_mle_cases_candidates
from adl.experiments import ExperimentConfig, derive_seed, run
from adl.protocol import (
    hop_distribution,
    infected_count_even,
    local_hop_target,
    local_spreading_protocol,
    perfect_protocol,
    stay_probability_at,
    uniform_protocol,
)
from adl.tree import SOURCE, bfs_depths
from conftest import BODY_DIGESTS, CONFIG_DIR, body_digest


def report(tag: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}" + (f" ({detail})" if detail else ""))
    return ok


def test_criterion_01_uniform_hop_law():
    ok = True
    for d in (3, 4, 5):
        exact = hop_distribution(uniform_protocol(d), 60)
        approx = hop_distribution(replace(uniform_protocol(d), exact=False), 60)
        for t in range(2, 61, 2):
            for p, q in zip(exact[t], approx[t]):
                ok &= p == Fraction(2, t)
                ok &= abs(q - 2 / t) <= 1e-12
    assert report("1. uniform hop law p(t,h) = 2/t, t <= 60, d in {3,4,5}", ok)


def test_criterion_02_perfect_obfuscation():
    ok = True
    for d in (3, 4, 5):
        proto = perfect_protocol(d)
        hop = hop_distribution(proto, 30)
        for t in range(2, 31, 2):
            n_t = infected_count_even(d, t)
            for h, p in enumerate(hop[t], 1):
                ok &= p * (n_t - 1) == d * (d - 1) ** (h - 1)
            ok &= proto.mle_success_probability(t) == Fraction(1, n_t - 1)
    assert report(
        "2. perfect protocol: p(t,h)(N_t - 1) = d(d-1)^(h-1) and MLE = 1/(N_t-1), t <= 30", ok
    )


def test_criterion_03_stay_probability_half():
    uni = uniform_protocol(3)
    ok = all(
        stay_probability_at(uni, t_odd) == Fraction(1, 2)
        for t_odd in range(5, 42, 2)
    )
    assert report("3. uniform stay probability = 1/2 exactly, odd t in 5..41", ok)


def test_criterion_04_path_sum_identity():
    ok = all(
        cf.path_fraction_sum(s, t) == s + t - 1
        for s in range(1, 31)
        for t in range(s, 31)
    )
    assert report("4. path fraction sum = s + t - 1 exactly, 1 <= s <= t <= 30", ok)


def run_shipped(name: str):
    """Run ``configs/<name>.json`` at its full trial count; also return whether
    the report body hashes to the digest recorded for it."""
    report = run(ExperimentConfig.from_json((CONFIG_DIR / f"{name}.json").read_text()))
    return report, body_digest(report) == BODY_DIGESTS[f"{name}.json"]


# the shipped configs the Monte Carlo criteria 05-08 run; each test id names
# the config's degree or protocol and its seed
THREE_OBS_FLOORS = [
    pytest.param("three_obs_floor_d3", id="3-1005"),
    pytest.param("three_obs_floor_d4", id="4-1006"),
]
K_OBS_FLOOR = "k_obs_floor_d4_k50"
TWO_OBS_FLOORS = [
    pytest.param("two_obs_floor_uniform", id="uniform_protocol-1008"),
    pytest.param("two_obs_floor_perfect", id="perfect_protocol-1009"),
]
MLE_EXACT = "uniform_mle_exact_t12"


def test_the_criteria_run_every_shipped_config():
    # a config added to configs/ must join a criterion, or it would go unrun
    ran = {p.values[0] for p in THREE_OBS_FLOORS + TWO_OBS_FLOORS} | {K_OBS_FLOOR, MLE_EXACT}
    assert ran == {path.stem for path in CONFIG_DIR.glob("*.json")}


@pytest.mark.parametrize("name", THREE_OBS_FLOORS)
def test_criterion_05_three_obs_constant_floor(name):
    rep, pinned = run_shipped(name)
    (res,) = rep.results
    assert report(
        f"5. three-snapshot intersection floor, d={rep.d}",
        res.verdict() == "pass" and pinned,
        f"freq={res.frequency:.5f} vs {res.target.value:.5f} - 3s",
    )


def test_criterion_06_k_obs_exponential_floor():
    rep, pinned = run_shipped(K_OBS_FLOOR)
    (res,) = rep.results
    assert report(
        "6. subtree-count estimator floor, d=4, k=50",
        res.verdict() == "pass" and pinned,
        f"freq={res.frequency:.5f} vs {res.target.value:.5f} - 3s",
    )


@pytest.mark.parametrize("name", TWO_OBS_FLOORS)
def test_criterion_07_two_obs_floor_any_protocol(name):
    rep, pinned = run_shipped(name)
    (res,) = rep.results
    assert report(
        f"7. two-snapshot path floor, {rep.protocol} protocol",
        res.verdict() == "pass" and pinned,
        f"freq={res.frequency:.5f} vs {res.target.value:.5f} - 3s",
    )


def test_criterion_08_uniform_mle_exact_value_and_cap():
    rep, pinned = run_shipped(MLE_EXACT)
    exact, capped = rep.results
    # the cap also holds on the sample that matched the exact value
    own_cap = replace(exact, target=capped.target)
    ok = pinned and all(r.verdict() == "pass" for r in (exact, capped, own_cap))
    assert report(
        "8. uniform MLE at t=(12,12): matches 0.211420 within 3s and stays below 7/18",
        ok,
        f"freq={exact.frequency:.5f} vs {exact.target.value:.6f}",
    )


def test_criterion_09_oracle_equalities():
    uni = uniform_protocol(3)
    ee = oracle.exact_success("uniform_mle_cases", uni, (4, 4))
    ok1 = ee == Fraction(41, 72)
    eo = oracle.exact_success("uniform_mle_cases", uni, (4, 5))
    want = cf.even_odd_mle_exact(3, 4, 5)
    ok2 = abs(float(eo) - want.value) <= 1e-12 and eo == want.exact_value
    oo = oracle.exact_success("uniform_mle_cases", uni, (5, 5))
    ok3 = oo <= cf.odd_odd_mle_upper(3, 5, 5).exact_value
    report("9a. oracle even-even (4,4) = 41/72 exactly", ok1, str(ee))
    report("9b. oracle even-odd (4,5) = closed form within 1e-12", ok2, str(eo))
    report("9c. oracle odd-odd (5,5) <= closed-form cap", ok3, str(oo))
    assert ok1 and ok2 and ok3


def test_criterion_10_generic_mle_equals_case_dispatch():
    per_parity = 10_000
    rng = random.Random(314159)
    protos = {d: uniform_protocol(d) for d in (3, 4, 5)}
    even_times = [4, 6, 8, 10, 12]
    odd_times = [5, 7, 9, 11, 13]
    mismatches = 0
    for parity_idx, (r1, r2) in enumerate(
        [(even_times, even_times), (even_times, odd_times), (odd_times, even_times), (odd_times, odd_times)]
    ):
        for n in range(per_parity):
            d = rng.choice((3, 4, 5))
            t1, t2 = rng.choice(r1), rng.choice(r2)
            s1 = sample_snapshot(protos[d], t1, derive_seed(1011, parity_idx, n, 0))
            s2 = sample_snapshot(protos[d], t2, derive_seed(1011, parity_idx, n, 1))
            labels = [(s.t, s.vs_prev, s.vs_now) for s in (s1, s2)]
            a, _ = generic_mle_candidates(d, labels, protos[d])
            b, _ = uniform_mle_cases_candidates(d, *labels)
            mismatches += a.members != b.members
    assert report(
        "10. generic MLE candidate sets == case dispatch on 4x10^4 instances",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_11_local_spreading_protocol():
    d, gamma = 3, 0.5
    proto = local_spreading_protocol(d, gamma)
    ok_h = True
    for seed in range(200):
        tr = simulate(proto, 40, seed=derive_seed(1012, seed))
        for t in range(6, 41, 2):
            ok_h &= tr.h(t) == local_hop_target(gamma, t)
            ok_h &= local_radius(tr, t) == t // 2 - local_hop_target(gamma, t)
    ok_r = all(
        40 // 2 >= t // 2 - local_hop_target(gamma, t) >= (1 - gamma) * t / 2
        for t in range(6, 41, 2)
    )
    ok_mle = True
    for t in range(6, 41, 2):
        h_t = local_hop_target(gamma, t)
        p_mle = proto.mle_success_probability(t)
        ok_mle &= p_mle == Fraction(1, d * (d - 1) ** (h_t - 1))
        ok_mle &= float(p_mle) <= 2 * (d - 1) / infected_count_even(d, t) ** gamma
    report("11a. local protocol: h_t = floor(gamma t/2) on every trajectory", ok_h)
    report("11b. local protocol: R_t >= (1-gamma) t/2 for t > 2/gamma", ok_r)
    report("11c. local protocol: MLE = 1/(d(d-1)^(h_t-1)) <= 2(d-1)/N_t^gamma", ok_mle)
    assert ok_h and ok_r and ok_mle


def test_criterion_12_radius_bound_from_dp():
    ok = True
    for d in (3, 4):
        protos = [
            uniform_protocol(d),
            perfect_protocol(d),
            local_spreading_protocol(d, 0.5),
        ]
        for proto in protos:
            hop = hop_distribution(proto, 40)
            gammas = (0.25, 0.5, 0.75) if not proto.name.startswith("local") else (0.5,)
            for gamma in gammas:
                for t in range(2, 41, 2):
                    p_mle = float(proto.mle_success_probability(t))
                    c_tight = p_mle * infected_count_even(d, t) ** gamma
                    bound = cf.radius_upper_from_obfuscation(d, t, gamma, c_tight).value
                    mean_radius = t / 2 - float(sum(h * p for h, p in enumerate(hop[t], 1)))
                    ok &= mean_radius <= bound + 1e-9
    assert report(
        "12. E[R_t] <= (1-gamma)t/2 + log(C t)/log(d-1) + 2 with the tightest per-t C", ok
    )


def test_criterion_13_local_radius_identity_brute_force():
    ok = True
    checked = 0
    for d in (3, 4):
        proto = uniform_protocol(d)
        balls = {t: bfs_depths(d, [SOURCE], t // 2) for t in (4, 8, 12)}
        level_sizes = {
            t: {r: sum(1 for x in ball.values() if x == r) for r in range(t // 2 + 1)}
            for t, ball in balls.items()
        }
        for seed in range(500):
            tr = simulate(proto, 12, seed=derive_seed(1013, d, seed))
            for t in (4, 8, 12):
                s = tr.snapshot_at(t)
                infected_at = {}
                for v, r in balls[t].items():
                    infected_at[r] = infected_at.get(r, 0) + s.contains(v)
                brute = -1
                for r in range(t // 2 + 1):
                    if infected_at.get(r, 0) == level_sizes[t][r]:
                        brute = r
                    else:
                        break
                ok &= brute == local_radius(tr, t)
                checked += 1
    assert report(
        "13. brute-force largest infected ball radius = t/2 - h_t", ok, f"{checked} snapshots"
    )
