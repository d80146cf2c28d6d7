"""Malformed input is rejected where it enters: snapshot and trajectory JSON,
experiment configs, CLI flags.  Every rejection is exit code 2 with a
message, never a traceback; the uniform-only precondition of the case
dispatch holds at every entry point."""

import contextlib
import copy
import io
import json
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from adl import closed_form, oracle
from adl.cli import main
from adl.diffusion import Snapshot, Trajectory, local_radius, simulate
from adl.estimators import ESTIMATORS, single_mle_candidates
from adl.experiments import ConfigError, ExperimentConfig, wilson_interval
from adl.protocol import (
    Protocol,
    constant_protocol,
    infected_count_even,
    load_protocol_table,
    local_hop_target,
    local_spreading_protocol,
    perfect_protocol,
    stay_probability_at,
    uniform_protocol,
)
from adl.tree import ball_size, bfs_depths, labels_at_depth, sphere_size

TABLE_CSV = "t,h,alpha\n2,1,0.5\n4,1,0.5\n4,2,0.3333333\n6,1,0.5\n6,2,0.4\n6,3,0.25\n"

SNAPSHOTS = [
    {"d": 3, "t": 6, "vs_prev": "/0/0", "vs_now": "/0/0"},
    {"d": 3, "t": 7, "vs_prev": "/0/1", "vs_now": "/0/1/0"},
]

CONFIGS = [
    {
        "d": 3, "protocol": {"name": "local", "gamma": 0.5}, "times": 6, "k": 3,
        "trials": 3, "seed": 1,
        "estimators": [
            {"method": "k_obs_subtree",
             "target": {"formula": "multi_obs_lower", "params": {"k": 3}}},
            {"method": "generic_mle"},
        ],
    },
    {
        "d": 3, "protocol": {"name": "table", "table_csv": TABLE_CSV}, "times": [6, 7],
        "trials": 3, "seed": 2,
        "estimators": [
            {"method": "two_obs_path",
             "target": {"kind": "lower_bound", "value": 0.1, "provenance": "inline"}},
            {"method": "generic_mle", "params": {},
             "target": {"formula": "two_obs_obfuscation_upper"}},
        ],
    },
    {
        "d": 3, "protocol": {"name": "uniform"}, "times": [6, 5], "trials": 3, "seed": 3,
        "estimators": [
            {"method": "uniform_mle_cases", "target": {"formula": "even_odd_mle_exact"}},
            {"method": "two_obs_path"},
        ],
    },
]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected a flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def estimate(doc, method="two-obs-path", protocol=("--protocol", "uniform")):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snaps.json"
        path.write_text(json.dumps(doc))
        return run_main(["estimate", "--d", "3", *protocol, "--snapshots", str(path),
                         "--method", method])


def experiment(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        return run_main(["experiment", "--config", str(path)])


def assert_usage_error(result, token):
    code, out, err = result
    assert code == 2
    assert out == ""
    assert token in err
    assert "Traceback" not in err


DELETE = object()


def with_snapshot(**changes):
    snap = dict(SNAPSHOTS[0])
    for key, value in changes.items():
        if value is DELETE:
            del snap[key]
        else:
            snap[key] = value
    return snap


# ---------------------------------------------------------------------------
# snapshots and trajectories
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("snap, token", [
    (with_snapshot(d=DELETE), "missing key 'd'"),
    (with_snapshot(vs_now=DELETE), "missing key 'vs_now'"),
    (with_snapshot(t="5"), "'t' must be of type int"),
    (with_snapshot(t=True), "'t' must be of type int"),
    (with_snapshot(d=3.0), "'d' must be of type int"),
    (with_snapshot(vs_prev=5), "'vs_prev' must be of type str"),
    (with_snapshot(vs_now=["/0"]), "'vs_now' must be of type str"),
    (1, "must be a JSON object"),
    ([SNAPSHOTS[0]], "must be a JSON object"),
    (with_snapshot(d=2), "degree must be >= 3"),
    (with_snapshot(vs_now="/3"), "out of range for d=3"),
    # a huge degree is well formed but a neighbour list is built whole: it is capped
    (with_snapshot(d=10 ** 8), "degree must be at most 1000, got 100000000"),
])
def test_snapshot_from_dict_rejects_malformed_fields(snap, token):
    with pytest.raises(ValueError, match=token):
        Snapshot.from_dict(snap)


@pytest.mark.parametrize("doc, token", [
    ([with_snapshot(d=DELETE), SNAPSHOTS[1]], "missing key 'd'"),
    ([with_snapshot(t="5"), SNAPSHOTS[1]], "'t' must be of type int"),
    ([1, 2], "must be a JSON object"),
    ([with_snapshot(vs_prev=5), SNAPSHOTS[1]], "'vs_prev' must be of type str"),
    ({"snapshots": SNAPSHOTS}, "must hold a JSON array"),
    ([with_snapshot(t=-4), SNAPSHOTS[1]], "observation time"),
    ([with_snapshot(vs_prev="/ 0/+0", vs_now="/0/0_0"), SNAPSHOTS[1]], "malformed label text"),
    ([with_snapshot(d=2), SNAPSHOTS[1]], "degree must be >= 3"),
    ([with_snapshot(vs_now="/3"), SNAPSHOTS[1]], "out of range for d=3"),
    # a huge time is well formed but asks for unbounded work: it is capped
    ([with_snapshot(t=10 ** 12), SNAPSHOTS[1]], "snapshot time must be at most 1000, got 10"),
    ([with_snapshot(t=10 ** 400), SNAPSHOTS[1]], "snapshot time must be at most 1000, got 10"),
    ([with_snapshot(d=10 ** 8), SNAPSHOTS[1]], "degree must be at most 1000, got 100000000"),
    ([with_snapshot(d=4), SNAPSHOTS[1]], "snapshot degree 4 disagrees with --d 3"),
    # more snapshots than a config may list: refused before any is read, so
    # before the estimator's own count check
    ([SNAPSHOTS[0]] * 10_001, "may list at most 10000 snapshots, got 10001"),
])
def test_estimate_rejects_malformed_snapshot_file(doc, token):
    assert_usage_error(estimate(doc), token)


@pytest.mark.parametrize("snap, token", [
    # well-formed labels, but no walk puts vs_4 at depth 20,000
    (with_snapshot(t=4, vs_prev="/0" * 20_000, vs_now="/0" * 20_000),
     "no walk reaches depth 20000"),
    (with_snapshot(t=7, vs_prev="/0/1/0", vs_now="/0/1"), "vs_prev must be the parent of vs_now"),
])
def test_snapshot_no_walk_can_produce_is_a_usage_error(snap, token):
    for method in ("two-obs-path", "cases", "mle"):
        start = time.perf_counter()
        assert_usage_error(estimate([snap, SNAPSHOTS[1]], method), token)
        assert time.perf_counter() - start < 1.0


# well-formed pairs that no walk produces: a stayed odd snapshot sits at depth
# at most (t-1)/2, and at t=1 every walk has moved from the origin to a child
IMPOSSIBLE_SNAPSHOTS = [
    ({"d": 3, "t": 5, "vs_prev": "/0/1/0", "vs_now": "/0/1/0"},
     "no walk reaches depth 3 by t=5 and holds still there"),
    ({"d": 3, "t": 3, "vs_prev": "/2/0", "vs_now": "/2/0"},
     "no walk reaches depth 2 by t=3 and holds still there"),
    ({"d": 3, "t": 1, "vs_prev": "/0", "vs_now": "/0"},
     "no walk reaches depth 1 by t=1 and holds still there"),
    ({"d": 3, "t": 1, "vs_prev": "/", "vs_now": "/"},
     "vs_now is the origin, but every walk steps to a child of it at t=1"),
    # a moved pair reaches depth at most (t+1)//2
    ({"d": 3, "t": 3, "vs_prev": "/0/0", "vs_now": "/0/0/0"}, "no walk reaches depth 3 by t=3"),
]


@pytest.mark.parametrize("snap, token", IMPOSSIBLE_SNAPSHOTS)
def test_snapshot_from_dict_refuses_pairs_no_walk_produces(snap, token):
    with pytest.raises(ValueError, match=token):
        Snapshot.from_dict(snap)


@pytest.mark.parametrize("snap, token", IMPOSSIBLE_SNAPSHOTS)
@pytest.mark.parametrize("method", ["mle", "cases", "two-obs-path", "k-obs", "single-mle"])
def test_estimate_refuses_pairs_no_walk_produces(snap, token, method):
    doc = [snap] if method == "single-mle" else [snap, SNAPSHOTS[0]]
    assert_usage_error(estimate(doc, method), token)


# under local(gamma=1/2) at d=4 the only t=7 outcome is a moved pair with
# vs_now at depth 2: the ball weights are [0, 0, 0] and the moved ones
# [1, 0, 0], so only the first pair below is possible
LOCAL_D4_T7 = [
    {"d": 4, "t": 7, "vs_prev": "/0", "vs_now": "/0/1"},
    {"d": 4, "t": 7, "vs_prev": "/0/1", "vs_now": "/0/1/2"},
    {"d": 4, "t": 7, "vs_prev": "/0/1", "vs_now": "/0/1"},
    {"d": 4, "t": 7, "vs_prev": "/3", "vs_now": "/3"},
]


@pytest.mark.parametrize("order, named", [
    ((1, 2, 3), "snapshot 0 (t=7, vs_prev=/0/1, vs_now=/0/1/2)"),
    ((3, 1, 2), "snapshot 0 (t=7, vs_prev=/3, vs_now=/3)"),
    ((0, 2), "snapshot 1 (t=7, vs_prev=/0/1, vs_now=/0/1)"),
])
@pytest.mark.parametrize("method", ["mle", "k-obs"])
def test_estimate_refuses_snapshots_the_protocol_never_produces(order, named, method):
    local = ("--protocol", "local", "--gamma", "0.5")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snaps.json"
        path.write_text(json.dumps([LOCAL_D4_T7[i] for i in order]))
        argv = ["estimate", "--d", "4", *local, "--snapshots", str(path), "--method"]
        assert_usage_error(run_main([*argv, method]), f"{named} has probability zero")
        path.write_text(json.dumps([LOCAL_D4_T7[0]] * 3))
        assert run_main([*argv, method])[0] == 0


@pytest.mark.parametrize("method", ["mle", "cases", "two-obs-path", "k-obs", "single-mle"])
def test_estimate_refuses_a_time_one_snapshot(method):
    # a t=1 snapshot is a walk's first step; every estimator needs t >= 2
    first_step = {"d": 3, "t": 1, "vs_prev": "/", "vs_now": "/0"}
    doc = [first_step] if method == "single-mle" else [first_step, SNAPSHOTS[0]]
    assert_usage_error(estimate(doc, method), "estimators require observation times t >= 2")


@pytest.mark.parametrize("method", ["mle", "k-obs"])
def test_estimate_refuses_an_empty_snapshot_file(method):
    # the estimators that take any number of snapshots still need one
    assert_usage_error(estimate([], method), "at least one snapshot required")


@pytest.mark.parametrize("method", ["mle", "k-obs"])
def test_estimate_refuses_more_snapshots_than_a_config_may_list(method):
    # the estimators that take any number of snapshots are capped as a
    # config's k is; a file at the cap is still read
    doc = [with_snapshot(t=10, vs_prev="/0/0/0", vs_now="/0/0/0")] * 10_001
    assert_usage_error(estimate(doc, method), "may list at most 10000 snapshots, got 10001")
    assert estimate(doc[1:], method)[0] == 0


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("proto", [uniform_protocol, perfect_protocol,
                                   lambda d: local_spreading_protocol(d, Fraction(1, 3))],
                         ids=["uniform", "perfect", "local"])
def test_every_simulated_snapshot_round_trips_through_its_dict(proto, d):
    protocol = proto(d)
    for seed in range(40):
        for T in range(1, 14):
            trajectory = simulate(protocol, T, seed)
            for t in range(1, T + 1):
                s = trajectory.snapshot_at(t)
                assert Snapshot.from_dict(s.to_dict()) == s, (protocol.name, seed, T, t)


def test_deeply_nested_snapshot_file_is_a_usage_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    result = run_main(["estimate", "--d", "3", "--protocol", "uniform",
                       "--snapshots", str(path), "--method", "k-obs"])
    assert_usage_error(result, "recursion")


@pytest.mark.parametrize("argv, token", [
    (["protocol-dump", "--d", "3", "--protocol", "uniform", "-T", "-4"],
     "horizon must be an even integer >= 2"),
    (["protocol-dump", "--d", "3", "--protocol", "uniform", "-T", "3"],
     "horizon must be an even integer >= 2"),
    (["hopdist", "--d", "3", "--protocol", "uniform", "-T", "3"],
     "horizon must be an even integer >= 2"),
    (["estimate", "--d", "3", "--protocol", "uniform", "--snapshots", "snaps.json",
      "--method", "mle", "--search-depth", "3"], "unrecognized arguments: --search-depth"),
    (["simulate", "--d", "3", "--protocol", "uniform", "-t", str(10 ** 12)],
     "-t must be at most 1000, got 1000000000000"),
    (["simulate", "--d", "3", "--protocol", "uniform", "-t", "1001"],
     "-t must be at most 1000, got 1001"),
    (["hopdist", "--d", "3", "--protocol", "uniform", "-T", str(10 ** 400)],
     "-T must be at most 1000, got 10"),
    (["protocol-dump", "--d", "3", "--protocol", "uniform", "-T", str(10 ** 12)],
     "-T must be at most 1000, got 1000000000000"),
    # a huge degree asks for one label per neighbour of a vertex: it is capped
    (["simulate", "--d", str(10 ** 8), "--protocol", "uniform", "-t", "2"],
     "degree must be at most 1000, got 100000000"),
    (["estimate", "--d", str(10 ** 8), "--protocol", "uniform", "--snapshots", "snaps.json",
      "--method", "two-obs-path"], "degree must be at most 1000, got 100000000"),
    # a protocol flag the named protocol never reads is refused, as in configs
    (["hopdist", "--d", "3", "--protocol", "uniform", "--gamma", "0.5", "-T", "4"],
     "--gamma is not read by --protocol uniform"),
    (["simulate", "--d", "3", "--protocol", "perfect", "--table", "/nonexistent.csv", "-t", "4",
      "--seed", "1"], "--table is not read by --protocol perfect"),
])
def test_cli_rejects_malformed_flags(argv, token):
    assert_usage_error(run_main(argv), token)


def test_cli_accepts_a_time_at_the_cap():
    code, out, _ = run_main(["simulate", "--d", "3", "--protocol", "uniform", "-t", "1000"])
    assert code == 0 and len(json.loads(out)["vs"]) == 1001


def test_cli_accepts_a_degree_at_the_cap():
    code, out, _ = run_main(["simulate", "--d", "1000", "--protocol", "uniform", "-t", "4"])
    assert code == 0 and len(json.loads(out)["vs"]) == 5


def test_trajectory_from_json_validates_fields():
    good = {"d": 3, "protocol": "uniform", "seed": 7, "vs": ["/", "/2", "/2"]}
    assert Trajectory.from_json(json.dumps(good)).T == 2
    for bad in (
        [good],
        {**good, "seed": True},
        {**good, "d": "3"},
        {**good, "protocol": 1},
        {**good, "vs": "/,/2"},
        {**good, "vs": ["/", 2]},
        {k: v for k, v in good.items() if k != "vs"},
        {**good, "vs": ["/", "/02", "/02"]},
    ):
        with pytest.raises(ValueError):
            Trajectory.from_json(json.dumps(bad))
    with pytest.raises(ValueError, match="vs_1 must be a neighbor of the origin"):
        Trajectory.from_json(json.dumps({**good, "vs": ["/", "/2/0", "/2/0"]}))


@pytest.mark.parametrize("table, token", [
    ("t,h,a\n2,1,0.5\n", "expected header 't,h,alpha', got ['t', 'h', 'a']"),
    ("", "expected header 't,h,alpha', got None"),
    ("t,h,alpha\n", "protocol table is empty"),
    ("t,h,alpha\n2,1\n", "line 2: expected 3 fields, got 2"),
    ("t,h,alpha\n2,1,x\n", "line 2: malformed row ['2', '1', 'x']"),
    # csv itself refuses these; each is one ValueError naming the line, not a
    # _csv.Error traceback.  Python 3.11+ reads a NUL into the field, which
    # then fails as a malformed row; 3.10's csv refuses the line
    ("t,h,alpha\n2,1,0.5\r7\n", "line 2: new-line character seen in unquoted field"),
    ("t,h,alpha\n2,1," + "0" * 131_073 + "\n", "line 2: field larger than field limit"),
    ("t,h,alpha\n2,1,0.5\0\n", "invalid protocol table: line 2: "),
], ids=["wrong-header", "empty-file", "no-rows", "two-fields", "non-numeric-alpha",
        "lone-carriage-return", "field-past-csv-limit", "nul-byte"])
def test_hopdist_rejects_malformed_protocol_table(table, token, tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(table)
    argv = ["hopdist", "--d", "3", "--protocol", "table", "--table", str(path), "-T", "4"]
    assert_usage_error(run_main(argv), token)


def test_hopdist_skips_blank_table_lines(tmp_path):
    outputs = []
    for text in ("t,h,alpha\n2,1,0.5\n\n4,1,0.5\n\n4,2,0.25\n\n",
                 "t,h,alpha\n2,1,0.5\n4,1,0.5\n4,2,0.25\n"):
        path = tmp_path / "table.csv"
        path.write_text(text)
        code, out, _ = run_main(["hopdist", "--d", "3", "--protocol", "table",
                                 "--table", str(path), "-T", "4"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] and outputs[0].startswith("t,h,p\n")


# ---------------------------------------------------------------------------
# experiment configs
# ---------------------------------------------------------------------------


def config_with(**changes):
    doc = copy.deepcopy(CONFIGS[2])
    doc.update(changes)
    return doc


def cases_with(**entry):
    return config_with(estimators=[{"method": "uniform_mle_cases", **entry}])


@pytest.mark.parametrize("doc, token", [
    ([], "config must be a JSON object"),
    (config_with(trials=True), "trials must be an integer"),
    (config_with(seed=False), "seed must be an integer"),
    (config_with(times=[True, 2]), "every observation time"),
    (config_with(times=True, k=2), "times must be an int or a nonempty list"),
    (config_with(times=6, k=True), "k must be an integer"),
    (cases_with(params="x"), "params must be an object"),
    (cases_with(params={"search_depth": 2}), "accepts no param 'search_depth'"),
    (config_with(estimators=[{"method": "generic_mle", "params": {"search_depth": "2"}}]),
     "accepts no param 'search_depth'"),
    (config_with(estimators=[{"method": "generic_mle", "params": {"search_depth": -1}}]),
     "accepts no param 'search_depth'"),
    (config_with(estimators=[{"method": "generic_mle", "params": {"depth": 2}}]),
     "accepts no param 'depth'"),
    (config_with(estimators=[{"method": ["two_obs_path"]}]), "unknown method"),
    (cases_with(target=5), "target: must be an object"),
    (cases_with(target={"formula": ["x"]}), "unknown formula"),
    (cases_with(target={"kind": "exact", "value": [0.5]}), "target value must be a number"),
    (config_with(times=[6], estimators=[
        {"method": "single_mle", "target": {"formula": "two_obs_detection_lower"}}]),
     "needs two observation times"),
    (config_with(estimators=[
        {"method": "k_obs_subtree", "target": {"formula": "multi_obs_lower", "params": "x"}}]),
     "formula params must be an object"),
    (config_with(protocol={"name": "local", "gamma": [0.5]}), "numeric 'gamma'"),
    (config_with(protocol={"name": "local", "gamma": None}), "numeric 'gamma'"),
    (config_with(protocol={"name": "table", "table": 3}), "table protocol needs"),
    (config_with(times=4, k=100_000_000_000), "k must be an integer in 1..10000"),
    (config_with(times=4, k=10 ** 21), "k must be an integer in 1..10000"),
    (config_with(times=[4] * 10_001), "at most 10000 observations"),
    # a k past a float disagrees with the config's count before the formula reads it
    (config_with(times=6, k=3, estimators=[{"method": "k_obs_subtree", "target": {
        "formula": "multi_obs_lower", "params": {"k": 10 ** 400}}}]),
     "formula 'multi_obs_lower' reads k=10{400}, but the config takes 3 snapshots"),
    (cases_with(target={"kind": "lower_bound", "value": 10 ** 400}),
     "target value is too large for a float"),
    # a formula param the formula never reads is named, not ignored
    (config_with(times=6, k=5, estimators=[{"method": "k_obs_subtree", "target": {
        "formula": "multi_obs_lower", "params": {"K": 500}}}]),
     "formula 'multi_obs_lower' takes no param 'K'"),
    (cases_with(target={"formula": "even_even_mle_exact", "params": {"x": 1}}),
     "formula 'even_even_mle_exact' takes no param 'x'"),
    (cases_with(target={"kind": "exact", "value": 0.5, "provenance": {"nested": [1, 2]}}),
     "target provenance must be a string"),
    # a huge time is well formed but asks for unbounded work: it is capped
    (config_with(times=[10 ** 12, 10 ** 12]), "observation time must be an integer in 1..1000"),
    (config_with(times=[10 ** 400, 6]), "observation time must be an integer in 1..1000"),
    (config_with(times=1001, k=2), "observation time must be an integer in 1..1000"),
    # so is a huge trial count: at most 10**8 walks, trials * len(times)
    (config_with(trials=10 ** 400), "must be at most 100000000 walks"),
    (config_with(trials=10 ** 8 // 2 + 1), "2 times allow at most 50000000 trials"),
    # and so is a huge degree
    (config_with(d=10 ** 8), "d must be an integer in 3..1000, got 100000000"),
    (config_with(d=1001), "d must be an integer in 3..1000, got 1001"),
    (config_with(k=3), r"k=3 disagrees with len\(times\)=2"),
    # a two-time formula refuses three times; it used to read the first two
    *[(config_with(times=[4, 6, 8], estimators=[
        {"method": "generic_mle", "target": {"formula": formula}}]),
       f"formula '{formula}' needs two observation times, got 3")
      for formula in ("two_obs_detection_lower", "two_obs_obfuscation_upper",
                      "even_even_mle_exact", "even_odd_mle_exact", "odd_odd_mle_upper")],
    # a formula for another snapshot count refuses the config's count; both
    # used to be accepted on two times
    (config_with(estimators=[
        {"method": "two_obs_path", "target": {"formula": "three_obs_lower"}}]),
     "formula 'three_obs_lower' needs three observation times, got 2"),
    (config_with(estimators=[
        {"method": "k_obs_subtree", "target": {"formula": "three_obs_lower"}}]),
     "formula 'three_obs_lower' needs three observation times, got 2"),
    (config_with(estimators=[{"method": "generic_mle", "target": {
        "formula": "multi_obs_lower", "params": {"k": 50}}}]),
     "formula 'multi_obs_lower' reads k=50, but the config takes 2 snapshots"),
    # an inline table csv itself refuses is a config error, not a traceback
    (config_with(protocol={"name": "table", "table_csv": "t,h,alpha\n2,1,0.5\r7\n"}),
     "protocol: invalid protocol table: line 2: new-line character seen in unquoted field"),
    (config_with(protocol={"name": "table", "table_csv": "t,h,alpha\n2,1," + "0" * 131_073}),
     "protocol: invalid protocol table: line 2: field larger than field limit"),
    (config_with(protocol={"name": "table", "table_csv": "t,h,alpha\n2,1,0.5\0\n"}),
     "protocol: invalid protocol table: line 2: "),
    # a key no reader reads is named, not ignored: a misspelt seed used to run
    # seed 0, a misspelt target to lose its verdict, and gamma on uniform to vanish
    (config_with(sed=7), "config: unknown key 'sed'"),
    (config_with(sed=7, draw_contract=2), "config: unknown keys 'sed', 'draw_contract'"),
    (cases_with(traget={"formula": "even_even_mle_exact"}),
     r"estimators\[0\]: unknown key 'traget'"),
    (config_with(protocol={"name": "uniform", "gamma": 0.5}), "protocol: unknown key 'gamma'"),
    (config_with(protocol={"name": "perfect", "table": "t.csv"}), "protocol: unknown key 'table'"),
    (config_with(protocol={"name": "local", "gamma": 0.5, "table_csv": ""}),
     "protocol: unknown key 'table_csv'"),
    (cases_with(target={"formula": "even_even_mle_exact", "kind": "exact"}),
     r"estimators\[0\]\.target: unknown key 'kind'"),
    (cases_with(target={"kind": "exact", "value": 0.5, "params": {}}),
     r"estimators\[0\]\.target: unknown key 'params'"),
])
def test_experiment_rejects_malformed_config(doc, token):
    with pytest.raises(ConfigError, match=token):
        ExperimentConfig.from_dict(doc)
    assert_usage_error(experiment(doc), "config error: ")


def test_experiment_rejects_times_past_the_table_horizon():
    # a time-t walk reads alpha up to even_floor(t - 1): t=8 needs the t=6
    # row and runs; t=9 needs a t=8 row the table lacks and is reported with
    # the config's other problems, before any trial runs
    doc = config_with(protocol={"name": "table", "table_csv": TABLE_CSV},
                      estimators=[{"method": "two_obs_path"}, {"method": "generic_mle"}])
    assert experiment({**doc, "times": [8, 3]})[0] == 0
    doc["estimators"].append({"method": "no_such_method"})
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({**doc, "times": [9, 3]})
    assert err.value.problems[0] == "times: T=9 needs alpha at t=8 but the protocol stops at 6"
    assert "unknown method 'no_such_method'" in err.value.problems[1]
    code, out, msg = experiment({**doc, "times": [9, 3]})
    assert code == 2 and out == ""
    assert "T=9 needs alpha at t=8" in msg and "unknown method" in msg


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_experiment_checks_its_output_paths_before_any_trial(flag, tmp_path, monkeypatch):
    # a report path in a missing directory exits 2 with a message before a
    # single trial runs (it used to run them all first, and a bad --csv lost
    # the verdict's exit code after the JSON was out)
    calls = []
    monkeypatch.setattr("adl.cli.run", calls.append)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[2]))
    missing = tmp_path / "missing" / "report"
    result = run_main(["experiment", "--config", str(config), flag, str(missing)])
    assert_usage_error(result, f"No such file or directory: '{missing}'")
    assert calls == []


@pytest.mark.parametrize("t_max", [10 ** 8, 10 ** 18])
def test_protocol_table_with_a_far_row_is_rejected_at_once(t_max, tmp_path):
    # the gap check counts rows before it lists any missing pair, and lists
    # at most ten, so a huge t costs nothing
    table = tmp_path / "table.csv"
    table.write_text(f"t,h,alpha\n2,1,0.5\n{t_max},1,0.5\n")
    missing = (t_max // 2) * (t_max // 2 + 1) // 2 - 2
    result = run_main(["protocol-dump", "--d", "3", "--protocol", "table",
                       "--table", str(table), "-T", "4"])
    assert_usage_error(result, f"protocol table has gaps: {missing} pairs missing, the first "
                               "[(4, 1), (4, 2), (6, 1), (6, 2), (6, 3), (8, 1), (8, 2), (8, 3), "
                               "(8, 4), (10, 1)]")


# a table that stops at t=4: a time-9 snapshot needs alpha at t=8
TABLE_TO_4 = "t,h,alpha\n2,1,0.5\n4,1,0.5\n4,2,0.3333333\n"
PAST_HORIZON = [
    {"d": 3, "t": 9, "vs_prev": "/0/1", "vs_now": "/0/1/0"},
    {"d": 3, "t": 8, "vs_prev": "/1/0", "vs_now": "/1/0"},
]


@pytest.mark.parametrize("T", [6, 8])
@pytest.mark.parametrize("exact", [[], ["--exact"]])
def test_protocol_dump_past_the_table_is_a_usage_error(T, exact, tmp_path):
    # a dump up to -T needs alpha rows up to T itself; the horizon is
    # checked before exactness, as hopdist does
    table = tmp_path / "table.csv"
    table.write_text(TABLE_TO_4)
    dump = ["protocol-dump", "--d", "3", "--protocol", "table", "--table", str(table)]
    assert run_main([*dump, "-T", "4"])[0] == 0  # the table's last row is served
    assert_usage_error(run_main([*dump, "-T", str(T), *exact]),
                       f"-T {T} is past the alpha table, which stops at t=4")


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_snapshots_past_the_table_horizon_are_rejected(name, tmp_path):
    # the horizon rule of a walk holds for every snapshot an estimator
    # reads, before its arity or protocol is checked
    table = tmp_path / "table.csv"
    table.write_text(TABLE_TO_4)
    result = estimate(PAST_HORIZON, method=ESTIMATORS[name].alias,
                      protocol=("--protocol", "table", "--table", str(table)))
    assert_usage_error(result, "T=9 needs alpha at t=8 but the protocol stops at 4")
    if not ESTIMATORS[name].uniform_only:
        times = [9, 8, 8][:ESTIMATORS[name].arity or 2]
        with pytest.raises(ValueError, match="T=9 needs alpha at t=8 but the protocol stops at 4"):
            oracle.exact_success(name, load_protocol_table(TABLE_TO_4, 3), times)


# ---------------------------------------------------------------------------
# the case dispatch is valid only under the uniform protocol
# ---------------------------------------------------------------------------

NON_UNIFORM = {
    "perfect": ({"name": "perfect"}, ("--protocol", "perfect"), perfect_protocol(3)),
    "local": ({"name": "local", "gamma": 0.5}, ("--protocol", "local", "--gamma", "0.5"),
              local_spreading_protocol(3, 0.5)),
    "table": ({"name": "table", "table_csv": TABLE_CSV}, None,
              load_protocol_table(TABLE_CSV, 3)),
}


@pytest.mark.parametrize("name", sorted(NON_UNIFORM))
def test_cases_rejected_for_non_uniform_config(name):
    doc = config_with(protocol=NON_UNIFORM[name][0])
    with pytest.raises(ConfigError, match="valid only under the uniform protocol"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("name", sorted(NON_UNIFORM))
def test_cases_rejected_for_non_uniform_estimate(name, tmp_path):
    flags = NON_UNIFORM[name][1]
    if flags is None:
        table = tmp_path / "table.csv"
        table.write_text(TABLE_CSV)
        flags = ("--protocol", "table", "--table", str(table))
    result = estimate(SNAPSHOTS, method="cases", protocol=flags)
    assert_usage_error(result, "valid only under the uniform protocol")


# the gate reads the protocol's name; a constant protocol is named const(<value>)
NON_UNIFORM_ORACLE = {**{name: spec[2] for name, spec in NON_UNIFORM.items()},
                      "const0": constant_protocol(3, 0),
                      "const1/2": constant_protocol(3, Fraction(1, 2))}


@pytest.mark.parametrize("name", sorted(NON_UNIFORM_ORACLE))
def test_cases_rejected_for_non_uniform_oracle(name):
    with pytest.raises(ValueError, match="valid only under the uniform protocol"):
        oracle.exact_success("uniform_mle_cases", NON_UNIFORM_ORACLE[name], (4, 5))


# ---------------------------------------------------------------------------
# public functions refuse arguments outside their domain, by name
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("call, token", [
    (lambda: closed_form.two_obs_obfuscation_upper(3, 0, 4), "requires t1, t2 >= 1"),
    (lambda: closed_form.even_odd_mle_exact(3, 4, 6), "requires odd t_odd >= 5"),
    (lambda: closed_form.multi_obs_lower(3, 0), "requires k >= 1"),
    (lambda: closed_form.radius_upper_from_obfuscation(3, 4, 1.5, 1.0),
     r"gamma must lie in \(0, 1\)"),
    (lambda: closed_form.radius_upper_from_obfuscation(3, 4, 0.5, 0.0), "C must be positive"),
    (lambda: closed_form.local_protocol_targets(3, 5, 0.5), "requires even t >= 2"),
    (lambda: local_hop_target(0.5, 5), "even t >= 2 required, got 5"),
    (lambda: Protocol(d=3, name="bad", _alpha=lambda t, h: 2).alpha(2, 1),
     r"alpha\(2,1\) = 2 outside \[0, 1\]"),
    (lambda: uniform_protocol(3).hop_row(5), "hop distribution is defined at even t >= 2"),
    (lambda: uniform_protocol(3).snapshot_weights(1, True), "t=1 is too early"),
    (lambda: constant_protocol(3, 2), r"alpha must lie in \[0, 1\], got 2"),
    (lambda: stay_probability_at(uniform_protocol(3), 4), "odd t >= 3 required, got 4"),
    (lambda: infected_count_even(3, 5), "even t >= 0 required, got 5"),
    (lambda: bfs_depths(3, [()], -1), "depth must be >= 0"),
    (lambda: bfs_depths(3, [], 2), "core must be nonempty"),
    (lambda: ball_size(3, -1), "radius must be >= 0"),
    (lambda: sphere_size(3, -1), "radius must be >= 0"),
    (lambda: list(labels_at_depth(3, -1)), "depth must be >= 0"),
    (lambda: wilson_interval(0, 0), "trials must be positive"),
    (lambda: oracle.exact_success("generic_mle", uniform_protocol(3), ()),
     "at least one observation time required"),
    (lambda: local_radius(simulate(uniform_protocol(3), 4, 0), 6), r"t must be in 0\.\.4, got 6"),
    # constant 0 never stays, so an odd-time ball has weight zero at every hop
    (lambda: single_mle_candidates(3, (5, (0,), (0,)), constant_protocol(3, 0)),
     "all hop likelihoods are zero"),
])
def test_public_function_refuses_out_of_domain_arguments(call, token):
    with pytest.raises(ValueError, match=token):
        call()


# ---------------------------------------------------------------------------
# fuzzing: one field of a valid document mutated
# ---------------------------------------------------------------------------

WRONG_VALUES = [None, "x", 1.5, True, False, -3, [], [1, 2], {}, {"a": 1}]


def _paths(doc, prefix=()):
    """The path of every entry inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutants(draw, docs):
    """A copy of one of ``docs`` with one entry deleted or replaced by a
    value of the wrong type (the whole document is one of the entries)."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    path = draw(st.sampled_from([(), *_paths(doc)]))
    value = draw(st.sampled_from(WRONG_VALUES if not path else [DELETE, *WRONG_VALUES]))
    if not path:
        return value
    *parents, last = path
    owner = doc
    for key in parents:
        owner = owner[key]
    if value is DELETE:
        del owner[last]
    else:
        owner[last] = value
    return doc


@settings(max_examples=150, deadline=None)
@given(mutants([SNAPSHOTS]))
def test_fuzzed_snapshot_file_is_a_usage_error(doc):
    # every mutant breaks the two-snapshot input, so each one must exit 2
    code, out, err = estimate(doc)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=150, deadline=None)
@given(mutants(CONFIGS))
def test_fuzzed_config_never_crashes(doc):
    code, out, err = experiment(doc)
    if code == 2:
        assert out == "" and err.startswith(("config error: ", "error: "))
    else:
        assert code in (0, 1) and json.loads(out)["trials"] == doc["trials"]
