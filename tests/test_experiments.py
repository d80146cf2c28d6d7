import json
import math
import random

import pytest

from adl import estimators, experiments, oracle
from adl.diffusion import Snapshot, sample_snapshot, simulate
from adl.estimators import ESTIMATORS, candidate_sets, estimate
from adl.experiments import (
    ESTIMATOR_STREAM,
    MAX_WALKS,
    ConfigError,
    EstimatorResult,
    ExperimentConfig,
    ExperimentReport,
    derive_seed,
    orbit_key,
    run,
    wilson_interval,
)
from adl.protocol import perfect_protocol, uniform_protocol
from adl.tree import SOURCE
from conftest import BODY_DIGESTS, CONFIG_DIR


def config_dict(**overrides):
    base = {
        "d": 3,
        "protocol": {"name": "uniform"},
        "times": [8, 8],
        "trials": 200,
        "seed": 4242,
        "estimators": [
            {
                "method": "two_obs_path",
                "target": {"formula": "two_obs_detection_lower"},
            }
        ],
    }
    base.update(overrides)
    return base


def test_seed_derivation_is_stable():
    # frozen values: the determinism contract pins them forever
    assert derive_seed(0) == 16294208416658607535
    assert derive_seed(42, 5, 1) == 7524658408578082646
    assert derive_seed(1, 2, 3) == 12403509836393295216
    assert derive_seed(1, 3, 2) == 1342905658647373320  # stream order matters


def test_wilson_interval_basics():
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == pytest.approx(1.0)
    low95, high95 = wilson_interval(210, 1000)
    assert high95 - low95 < 0.06


def test_config_smoke_single_trial():
    config = ExperimentConfig.from_dict(config_dict(trials=1))
    report = run(config)
    assert report.trials == 1
    assert report.results[0].trials == 1
    assert report.results[0].successes in (0, 1)


def test_config_validation_collects_all_problems():
    bad = {
        "d": 2,
        "protocol": {"name": "nope"},
        "times": [],
        "trials": 0,
        "seed": "x",
        "estimators": [{"method": "unknown_method"}],
    }
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(bad)
    text = str(err.value)
    for token in ("d must be", "trials must be", "seed must be", "times must be",
                  "unknown protocol", "unknown method"):
        assert token in text
    assert len(err.value.problems) >= 6


def test_config_scalar_times_with_k():
    config = ExperimentConfig.from_dict(
        config_dict(times=10, k=5, estimators=[{"method": "k_obs_subtree"}])
    )
    assert config.times == (10,) * 5


@pytest.mark.parametrize("times, estimator", [([8, 8], "two_obs_path"), ([8], "single_mle")])
def test_config_trials_are_capped_by_the_walk_count(times, estimator):
    # a config asks for trials * len(times) walks; MAX_WALKS is the most it
    # may ask for, and the check only parses the config, it runs nothing
    at_cap = MAX_WALKS // len(times)
    assert at_cap * len(times) == MAX_WALKS
    doc = config_dict(times=times, estimators=[{"method": estimator}])
    assert ExperimentConfig.from_dict({**doc, "trials": at_cap}).trials == at_cap
    for trials in (at_cap + 1, 10**400):
        with pytest.raises(ConfigError, match=f"at most {MAX_WALKS} walks") as err:
            ExperimentConfig.from_dict({**doc, "trials": trials})
        assert f"at most {at_cap} trials" in str(err.value)


def test_config_arity_mismatch_is_reported():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            config_dict(times=[8, 8, 8])  # two_obs_path wants exactly 2
        )


def test_report_json_and_csv_round_trip():
    config = ExperimentConfig.from_dict(config_dict(trials=50))
    report = run(config)
    obj = json.loads(report.to_json())
    assert obj["results"][0]["method"] == "two_obs_path"
    assert "wall_time_s" in obj
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0].startswith("method,successes")
    assert "two_obs_path" in csv_text


def test_exact_target_verdict_against_oracle_value():
    # tiny even-even MLE job, judged against the exact oracle probability
    exact = float(oracle.exact_success("uniform_mle_cases", uniform_protocol(3), (4, 4)))
    config = ExperimentConfig.from_dict(
        config_dict(
            times=[4, 4],
            trials=4000,
            estimators=[
                {
                    "method": "uniform_mle_cases",
                    "target": {"formula": "even_even_mle_exact"},
                }
            ],
        )
    )
    report = run(config)
    res = report.results[0]
    assert res.target.value == pytest.approx(exact)
    sigma = math.sqrt(exact * (1 - exact) / res.trials)
    assert abs(res.frequency - exact) <= 3 * sigma
    assert res.verdict() == "pass"
    assert not report.any_fail


def test_bound_verdicts():
    r = run(
        ExperimentConfig.from_dict(
            config_dict(
                trials=500,
                estimators=[
                    {
                        "method": "two_obs_path",
                        "target": {"kind": "lower_bound", "value": 0.99},
                    }
                ],
            )
        )
    )
    assert r.results[0].verdict() == "fail"
    assert r.any_fail
    r = run(
        ExperimentConfig.from_dict(
            config_dict(
                trials=500,
                estimators=[
                    {"method": "two_obs_path", "target": {"kind": "upper_bound", "value": 0.99}}
                ],
            )
        )
    )
    assert r.results[0].verdict() == "pass"


def test_informational_without_target():
    r = run(ExperimentConfig.from_dict(config_dict(trials=20, estimators=[{"method": "two_obs_path"}])))
    assert r.results[0].verdict() == "informational"


def test_precondition_failures_are_counted_not_skipped():
    # t = 2 violates the case dispatch minimum: every trial fails, none hides
    config = ExperimentConfig.from_dict(
        config_dict(times=[2, 2], trials=25, estimators=[{"method": "uniform_mle_cases"}])
    )
    report = run(config)
    assert report.results[0].failures == 25
    assert report.results[0].successes == 0


def test_shipped_acceptance_configs_are_valid():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) >= 6
    for path in paths:
        config = ExperimentConfig.from_json(path.read_text())
        assert config.trials >= 10_000
        assert config.trials * len(config.times) <= 10**6 < MAX_WALKS  # well inside the cap
        assert all(s.target is not None for s in config.estimators)


def test_every_shipped_config_has_a_recorded_digest():
    # acceptance criteria 05-08 check each config's body against its digest
    assert sorted(path.name for path in CONFIG_DIR.glob("*.json")) == sorted(BODY_DIGESTS)


# every shipped config but k_obs_floor_d4_k50, whose 50 snapshots at t = 10 are
# far past the oracle's budget (its floor is checked by Monte Carlo only), and
# the even-odd target in both time orders
ORACLE_CHECKED_CONFIGS = {
    **{path.stem: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))
       if path.stem != "k_obs_floor_d4_k50"},
    **{f"even_odd_t{t1}_{t2}": config_dict(times=[t1, t2], estimators=[
        {"method": "uniform_mle_cases", "target": {"formula": "even_odd_mle_exact"}}])
       for t1, t2 in ((5, 6), (6, 5))},
}


@pytest.mark.parametrize("name", sorted(ORACLE_CHECKED_CONFIGS))
def test_config_targets_hold_for_the_exact_oracle(name):
    # an exact target equals the oracle; a bound holds on its side
    config = ExperimentConfig.from_dict(ORACLE_CHECKED_CONFIGS[name])
    for spec in config.estimators:
        target = spec.target
        value = target.value if target.exact_value is None else target.exact_value
        got = oracle.exact_success(spec.method, config.protocol, config.times)
        if target.kind == "exact":
            assert got == value
        elif target.kind == "lower_bound":
            assert got >= value
        else:
            assert got <= value


def test_generic_mle_rejects_search_depth_param():
    # the exact MLE has no search depth; an empty params object stays legal
    doc = config_dict(times=[6, 7], trials=40,
                      estimators=[{"method": "generic_mle", "params": {"search_depth": 2}}])
    with pytest.raises(ConfigError, match="generic_mle accepts no param 'search_depth'"):
        ExperimentConfig.from_dict(doc)
    doc["estimators"][0]["params"] = {}
    report = run(ExperimentConfig.from_dict(doc))
    assert report.body_dict()["results"][0]["params"] == {}
    assert report.results[0].failures == 0


def test_table_protocol_config(tmp_path):
    path = tmp_path / "proto.csv"
    path.write_text("t,h,alpha\n2,1,0.5\n4,1,0.5\n4,2,0.3333333\n6,1,0.5\n6,2,0.4\n6,3,0.25\n")
    config = ExperimentConfig.from_dict(
        config_dict(
            protocol={"name": "table", "table": str(path)},
            times=[7, 7],
            trials=10,
            estimators=[{"method": "two_obs_path"}],
        )
    )
    report = run(config)
    assert report.protocol == "table"
    assert report.results[0].successes + report.results[0].failures <= 10


def trial_snapshots(config, n):
    """The snapshots of trial n, each walked from a fresh generator."""
    return [sample_snapshot(config.protocol, t, derive_seed(config.seed, n, i))
            for i, t in enumerate(config.times)]


def labels_of(snaps):
    """Each snapshot's labels (t, vs_prev, vs_now), as ``run`` keeps them."""
    return [(s.t, s.vs_prev, s.vs_now) for s in snaps]


def reference_report(config):
    """The trial loop with a fresh ``random.Random(seed)`` for every walk and
    every estimator stream, and how often it saw an odd snapshot whose virtual
    source moved (a resolution draw) and a tie set of more than one vertex."""
    protocol = config.protocol
    tallies = [[0, 0] for _ in config.estimators]
    moved = ties = 0
    for n in range(config.trials):
        snaps = trial_snapshots(config, n)
        moved += sum(not s.is_ball for s in snaps)
        for j, spec in enumerate(config.estimators):
            rng = random.Random(derive_seed(config.seed, n, ESTIMATOR_STREAM + j))
            try:
                est = estimate(spec.method, snaps, protocol, rng)
            except ValueError:
                tallies[j][1] += 1
                continue
            ties += est.tie_count() > 1
            tallies[j][0] += est.chosen == SOURCE
    results = [
        EstimatorResult(method=spec.method, successes=hits, failures=fails,
                        trials=config.trials, target=spec.target)
        for spec, (hits, fails) in zip(config.estimators, tallies)
    ]
    report = ExperimentReport(d=protocol.d, protocol=protocol.name, times=config.times,
                              trials=config.trials, seed=config.seed, results=results,
                              wall_time_s=0.0)
    return report.body_dict(), moved, ties


TABLE_D4 = "t,h,alpha\n" + "".join(
    f"{t},{h},{((7 * t + 5 * h) % 11) / 10!r}\n" for t in (2, 4, 6) for h in range(1, t // 2 + 1)
)


# jobs of one or two times, whose tie-break-only estimators run from a memo
MEMO_DOCS = [
    # (12,12) at d=3 has 77 orbits, so most trials repeat one
    {"d": 3, "protocol": {"name": "uniform"}, "times": [12, 12], "trials": 600,
     "estimators": [{"method": "two_obs_path"}, {"method": "uniform_mle_cases"},
                    {"method": "generic_mle"}, {"method": "k_obs_subtree"}]},
    # t=3 is below the case dispatch's minimum: every trial is refused
    {"d": 3, "protocol": {"name": "uniform"}, "times": [3, 6],
     "estimators": [{"method": "uniform_mle_cases"}, {"method": "two_obs_path"}]},
    {"d": 4, "protocol": {"name": "uniform"}, "times": [9],
     "estimators": [{"method": "generic_mle"}]},
    # float likelihoods
    {"d": 4, "protocol": {"name": "table", "table_csv": TABLE_D4}, "times": [7, 8],
     "estimators": [{"method": "generic_mle"}, {"method": "two_obs_path"}]},
    # equal times: an orbit's trials come in both orders of a moved pair and a
    # ball; 300 trials see 71 orbits
    {"d": 4, "protocol": {"name": "uniform"}, "times": [9, 9], "trials": 300,
     "estimators": [{"method": "two_obs_path"}, {"method": "uniform_mle_cases"},
                    {"method": "generic_mle"}]},
    {"d": 4, "protocol": {"name": "table", "table_csv": TABLE_D4}, "times": [7, 7],
     "estimators": [{"method": "generic_mle"}, {"method": "two_obs_path"}]},
]
MEMO_IDS = ["orbits", "refused", "one-time", "table-two", "equal-times", "table-equal"]


@pytest.mark.parametrize("doc", [
    {"d": 3, "protocol": {"name": "local", "gamma": 0.5}, "times": [5, 7, 6, 9],
     "estimators": [{"method": "k_obs_subtree"}, {"method": "generic_mle"}]},
    {"d": 4, "protocol": {"name": "table", "table_csv": TABLE_D4}, "times": 7, "k": 6,
     "estimators": [{"method": "k_obs_subtree"}, {"method": "generic_mle"}]},
    {"d": 3, "protocol": {"name": "uniform"}, "times": [6, 5],
     "estimators": [{"method": "uniform_mle_cases"}, {"method": "two_obs_path"},
                    {"method": "generic_mle"}]},
    {"d": 5, "protocol": {"name": "perfect"}, "times": [7, 9, 7],
     "estimators": [{"method": "three_obs_intersection"}]},
    {"d": 4, "protocol": {"name": "uniform"}, "times": [8],
     "estimators": [{"method": "single_mle"}]},
    # t=1: vs_prev is the origin and every estimator refuses the snapshot;
    # t=2: no even step; t=17: a long odd walk.  Without t=1 the draws reach
    # the counts.
    {"d": 3, "protocol": {"name": "uniform"}, "times": [1, 2, 3, 17],
     "estimators": [{"method": "k_obs_subtree"}, {"method": "generic_mle"}]},
    {"d": 3, "protocol": {"name": "uniform"}, "times": [2, 3, 17],
     "estimators": [{"method": "k_obs_subtree"}, {"method": "generic_mle"}]},
    # the mc_kobs benchmark's shape: a one-member set and no coin, so a trial
    # draws nothing from its estimator stream
    {"d": 4, "protocol": {"name": "uniform"}, "times": 10, "k": 50, "trials": 20,
     "estimators": [{"method": "k_obs_subtree"}]},
    # the shipped three-snapshot configs' shape
    {"d": 3, "protocol": {"name": "uniform"}, "times": [8, 8, 8],
     "estimators": [{"method": "three_obs_intersection"}]},
    *MEMO_DOCS,
    # odd times: the coin estimator between memoized ones draws its coins and
    # its tie-break from one stream, while the others score from their memos
    {"d": 3, "protocol": {"name": "uniform"}, "times": [7, 9],
     "estimators": [{"method": "two_obs_path"}, {"method": "k_obs_subtree"},
                    {"method": "uniform_mle_cases"}, {"method": "generic_mle"}]},
], ids=["local", "table", "uniform", "perfect", "single", "edges", "short", "mc-kobs",
        "three-obs", *MEMO_IDS, "coins-among-memos"])
def test_run_matches_a_fresh_generator_per_stream(doc):
    # run() reseeds one generator for every stream and scores a repeated
    # orbit from its memo; the report body must be the one a fresh
    # random.Random(seed) per walk and per estimator gives
    config = ExperimentConfig.from_dict({"trials": 150, "seed": 77, **doc})
    body, moved, ties = reference_report(config)
    assert run(config).body_dict() == body
    if 1 in config.times:  # every trial is a counted precondition failure
        assert all(r["failures"] == r["trials"] for r in body["results"])
    elif len(config.times) == 50:  # the mc_kobs shape draws nothing
        assert ties == moved == 0
    else:
        assert ties > 0 or len(config.times) % 2  # even k ties
    for r in body["results"]:
        if r["method"] == "uniform_mle_cases" and min(config.times) < 4:
            assert r["failures"] == r["trials"]  # the case dispatch refuses t < 4
    assert moved > 0 or all(t % 2 == 0 for t in config.times)


# the eight exact_success instances of the oracle_exact benchmark workload
ORACLE_INSTANCES = [
    ("uniform_mle_cases", uniform_protocol(3), (10, 10)),
    ("uniform_mle_cases", uniform_protocol(3), (10, 11)),
    ("uniform_mle_cases", uniform_protocol(3), (9, 9)),
    ("two_obs_path", perfect_protocol(3), (10, 10)),
    ("generic_mle", uniform_protocol(3), (8, 8)),
    ("single_mle", perfect_protocol(4), (12,)),
    ("three_obs_intersection", uniform_protocol(3), (6, 6, 6)),
    ("k_obs_subtree", uniform_protocol(3), (4, 4, 4, 4)),
]


@pytest.mark.parametrize("cap", [0, experiments.MEMO_CAP])
def test_no_snapshot_is_built_by_the_oracle_or_the_trial_loop(cap, monkeypatch):
    # every core reads label triples: neither the exact oracle nor run(), on
    # every estimator in one-, two- and many-time jobs, builds a Snapshot
    # (Snapshot.__post_init__, which every construction runs)
    calls = []
    checked = Snapshot.__post_init__

    def counted_checked(self):
        calls.append("Snapshot")
        checked(self)

    monkeypatch.setattr(Snapshot, "__post_init__", counted_checked)
    monkeypatch.setattr(experiments, "MEMO_CAP", cap)
    for name, protocol, times in ORACLE_INSTANCES:
        oracle.exact_success(name, protocol, times)
    docs = [
        MEMO_DOCS[0],  # two times: the three memoized estimators and k_obs_subtree
        MEMO_DOCS[1],  # every trial refused
        {"d": 4, "protocol": {"name": "uniform"}, "times": [9],
         "estimators": [{"method": "single_mle"}, {"method": "generic_mle"},
                        {"method": "k_obs_subtree"}]},
        {"d": 3, "protocol": {"name": "uniform"}, "times": [7, 8, 9],
         "estimators": [{"method": "three_obs_intersection"}, {"method": "generic_mle"}]},
        {"d": 4, "protocol": {"name": "uniform"}, "times": 9, "k": 6,
         "estimators": [{"method": "k_obs_subtree"}, {"method": "generic_mle"}]},
    ]
    methods = set()
    for doc in docs:
        report = run(ExperimentConfig.from_dict({"trials": 100, "seed": 5, **doc}))
        methods.update(r.method for r in report.results)
    assert methods == set(ESTIMATORS)
    assert calls == []
    # the spy sees a Snapshot made from a trajectory and one made directly
    simulate(uniform_protocol(3), 4, 0).snapshot_at(4)
    Snapshot(d=3, t=4, vs_prev=(0,), vs_now=(0,))
    assert calls == ["Snapshot", "Snapshot"]


@pytest.mark.parametrize("doc", MEMO_DOCS, ids=MEMO_IDS)
@pytest.mark.parametrize("cap", [0, 1, 5])
def test_memo_cap_leaves_the_report_unchanged(doc, cap, monkeypatch):
    # a memo that stores nothing, one orbit or a few scores every trial as
    # the default cap does
    config = ExperimentConfig.from_dict({"trials": 150, "seed": 77, **doc})
    body = run(config).body_dict()
    monkeypatch.setattr(experiments, "MEMO_CAP", cap)
    assert run(config).body_dict() == body


@pytest.mark.parametrize("cap", [0, 1, 7, experiments.MEMO_CAP])
def test_memo_stores_at_most_the_cap(cap, monkeypatch):
    # the memo keeps the first `cap` orbits in trial order and no more: a
    # trial runs generic_mle's core unless an earlier trial stored its orbit
    config = ExperimentConfig.from_dict({**MEMO_DOCS[0], "trials": 300, "seed": 5})
    keys = [orbit_key(labels_of(trial_snapshots(config, n))) for n in range(config.trials)]
    stored, expected = set(), 0
    for key in keys:
        if key not in stored:
            expected += 1
            if len(stored) < cap:
                stored.add(key)
    assert len(set(keys)) > 7  # enough orbits to fill the small caps
    assert expected < config.trials if cap else expected == config.trials
    calls = []
    real = estimators.generic_mle_candidates

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(experiments, "MEMO_CAP", cap)
    monkeypatch.setattr(estimators, "generic_mle_candidates", counted)
    run(config)
    assert len(calls) == expected


def test_orbit_key_ignores_the_order_of_equal_times():
    # a moved pair and a ball: one key in both orders at equal times, two
    # keys when the times differ
    moved = Snapshot(d=3, t=7, vs_prev=(0,), vs_now=(0, 1))
    ball = Snapshot(d=3, t=7, vs_prev=(1, 0), vs_now=(1, 0))
    assert orbit_key(labels_of([moved, ball])) == orbit_key(labels_of([ball, moved]))
    even = Snapshot(d=3, t=6, vs_prev=(1, 0), vs_now=(1, 0))
    assert orbit_key(labels_of([even, moved])) != orbit_key(labels_of([moved, even]))
    assert orbit_key(labels_of([even, moved]))[:2] == (False, 2)


@pytest.mark.parametrize("d, times", [(3, [12, 12]), (4, [9, 9]), (3, [6, 7]), (3, [7, 6])])
def test_orbit_key_counts_the_oracle_orbits(d, times):
    # one key per orbit the oracle walks, which permutes equal-time
    # snapshots: (12, 12) at d = 3 has 77, and every outcome of an orbit,
    # reversed ones at equal times among them, falls on its key
    protocol = uniform_protocol(d)
    laws = [oracle._law(protocol, t) for t in times]
    keys, reversed_keys = [], set()

    def visit(labels, _):
        keys.append(orbit_key(labels))
        reversed_keys.add(orbit_key(labels[::-1]))

    oracle._orbits(d, times, laws, visit)
    assert len(set(keys)) == len(keys)
    if times == [12, 12] and d == 3:
        assert len(keys) == 77
    assert (reversed_keys == set(keys)) == (times[0] == times[1])


@pytest.mark.parametrize("doc", MEMO_DOCS, ids=MEMO_IDS)
def test_an_orbit_decides_what_the_memo_stores(doc):
    # the memo rests on the EstimatorInfo contract: trials whose snapshots
    # share an orbit key agree on refusal, origin membership and set size
    config = ExperimentConfig.from_dict({"trials": 150, "seed": 77, **doc})
    seen = {}
    for n in range(config.trials):
        snaps = trial_snapshots(config, n)
        for spec in config.estimators:
            info = ESTIMATORS[spec.method]
            if info.draws != "tie_break":
                continue
            try:
                cands = candidate_sets(info, config.protocol.d, labels_of(snaps),
                                       config.protocol)[0]
                outcome = (cands.contains(SOURCE), cands.size())
            except ValueError:
                outcome = None
            assert seen.setdefault((spec.method, orbit_key(labels_of(snaps))), outcome) == outcome
    assert len(seen) < config.trials  # orbits repeat
