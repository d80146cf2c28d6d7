"""Golden digests of deterministic outputs.

Each digest is the sha256 of a report body (sorted-key JSON) or of the
``estimate`` stdout, recorded before the estimator/protocol dispatch was
consolidated.  Two were re-recorded when the generic MLE became exact: its
report body (the config lost ``"params": {"search_depth": 2}``; the body
differs only in that ``params`` entry) and the ``mle`` output (same chosen
vertex and tie count, without the removed search-domain diagnostics).  The
``three-obs`` output was re-recorded when the three-snapshot estimator began
running the k-snapshot core at k = 3: same chosen vertex and tie count, with
the core's diagnostics (``k``, ``min_max_subtree_count``, ``well_defined``)
in place of ``intersection_size``.  Any change to simulation, seeding,
dispatch, tie-breaking or report layout shows up here as a digest mismatch.
The ``hopdist`` digests pin the hop-law CSV bytes, float and ``--exact``,
as recorded before the CSV writer moved from ``protocol`` into the CLI.
"""

import hashlib
import json

import pytest

from adl.cli import main
from adl.experiments import ExperimentConfig, run

TABLE_CSV = "t,h,alpha\n2,1,0.5\n4,1,0.5\n4,2,0.3333333\n"

# one small config per estimator, covering every protocol constructor
CONFIGS = {
    "single_mle": {
        "d": 3, "protocol": {"name": "table", "table_csv": TABLE_CSV},
        "times": [6], "trials": 200, "seed": 11,
        "estimators": [{"method": "single_mle"}],
    },
    "two_obs_path": {
        "d": 3, "protocol": {"name": "perfect"}, "times": [8, 9], "trials": 200, "seed": 12,
        "estimators": [{"method": "two_obs_path",
                        "target": {"formula": "two_obs_detection_lower"}}],
    },
    "three_obs_intersection": {
        "d": 4, "protocol": {"name": "uniform"}, "times": [6, 7, 6], "trials": 200, "seed": 13,
        "estimators": [{"method": "three_obs_intersection",
                        "target": {"formula": "three_obs_lower"}}],
    },
    "k_obs_subtree": {
        "d": 3, "protocol": {"name": "local", "gamma": 0.5}, "times": 8, "k": 5,
        "trials": 100, "seed": 14,
        "estimators": [{"method": "k_obs_subtree", "target": {"formula": "multi_obs_lower"}}],
    },
    "generic_mle": {
        "d": 3, "protocol": {"name": "uniform"}, "times": [6, 7], "trials": 100, "seed": 15,
        "estimators": [{"method": "generic_mle",
                        "target": {"kind": "upper_bound", "value": 0.5}}],
    },
    "uniform_mle_cases": {
        "d": 3, "protocol": {"name": "uniform"}, "times": [6, 5], "trials": 200, "seed": 16,
        "estimators": [{"method": "uniform_mle_cases",
                        "target": {"formula": "even_odd_mle_exact"}}],
    },
}

REPORT_DIGESTS = {
    "single_mle": "121c46aeb9f300be38a7fea808605240d9d89f57413490176d7f1aa0d3fb6645",
    "two_obs_path": "b34df44856056bb01b610f073bbe7ed23155d44d2e9e44cb32fe22f2433c4a8d",
    "three_obs_intersection": "abc03b99a297fb895c3d2368c3b1b104340aacd21e8c6ac50b2afba8da8a144b",
    "k_obs_subtree": "fba2e2fc94cc29b2d83b3caa7f79e50b7367b30933d019b36c32e19ca7ec7654",
    "generic_mle": "06deecbe58417ce46a150c93319ccee6666c4252fe100d1e5f26442c4bcfb9d1",
    "uniform_mle_cases": "735e03745d99c32d64b86cae9c22c854cd95956b306d3086314cda2512318445",
}

# alias -> (protocol flags, snapshots, seed)
ESTIMATES = {
    "mle": (["--protocol", "uniform"], [
        {"d": 3, "t": 6, "vs_prev": "/0/0", "vs_now": "/0/0"},
        {"d": 3, "t": 7, "vs_prev": "/0/1", "vs_now": "/0/1"},
    ], 3),
    "single-mle": (["--protocol", "perfect"], [
        {"d": 3, "t": 7, "vs_prev": "/0/0/1", "vs_now": "/0/0/1/0"},
    ], 4),
    "two-obs-path": (["--protocol", "perfect"], [
        {"d": 3, "t": 8, "vs_prev": "/0/0", "vs_now": "/0/0"},
        {"d": 3, "t": 9, "vs_prev": "/2/0/0", "vs_now": "/2/0/0/0"},
    ], 5),
    "three-obs": (["--protocol", "local", "--gamma", "0.5"], [
        {"d": 3, "t": 8, "vs_prev": "/1/1", "vs_now": "/1/1"},
        {"d": 3, "t": 8, "vs_prev": "/2", "vs_now": "/2"},
        {"d": 3, "t": 7, "vs_prev": "/0/1", "vs_now": "/0/1/0"},
    ], 6),
    "k-obs": (["--protocol", "uniform"], [
        {"d": 3, "t": 8, "vs_prev": "/1/1", "vs_now": "/1/1"},
        {"d": 3, "t": 8, "vs_prev": "/2", "vs_now": "/2"},
        {"d": 3, "t": 8, "vs_prev": "/1/1/0", "vs_now": "/1/1/0"},
        {"d": 3, "t": 7, "vs_prev": "/0/1", "vs_now": "/0/1/0"},
    ], 7),
    "cases": (["--protocol", "uniform"], [
        {"d": 3, "t": 5, "vs_prev": "/1", "vs_now": "/1"},
        {"d": 3, "t": 6, "vs_prev": "/0/0", "vs_now": "/0/0"},
    ], 8),
}

ESTIMATE_DIGESTS = {
    "mle": "13d809ec15d44306f12d6baaa2769150f847d53d50a1664e7fa0d779061d2c9f",
    "single-mle": "af63fc7c5bfd9cbc41672252635171f9d5806b15d7bcf7e7615d6217bea4681f",
    "two-obs-path": "edbfd35d3ed7926646e27ef7c5fde1aa8381341d233f7857992be1c1e3851a31",
    "three-obs": "151e9b17ac0d66262a0d808c87d362b19776b2f0bcf75e784c51c905f1bd04b5",
    "k-obs": "1d4833fbca234a68e0a39375b5ff0d13398ec487a30a666fe4e81dcc889d34aa",
    "cases": "e2f185458523925606ba5a70e4b495dab81b1e27be8fe88220f163ca81ccdadd",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("method", sorted(CONFIGS))
def test_report_body_digest(method):
    body = run(ExperimentConfig.from_dict(CONFIGS[method])).body_dict()
    assert sha256(json.dumps(body, sort_keys=True)) == REPORT_DIGESTS[method]


@pytest.mark.parametrize("alias", sorted(ESTIMATES))
def test_estimate_output_digest(alias, capsys, tmp_path):
    flags, snaps, seed = ESTIMATES[alias]
    path = tmp_path / "snaps.json"
    path.write_text(json.dumps(snaps))
    code = main(["estimate", "--d", "3", *flags, "--snapshots", str(path),
                 "--method", alias, "--seed", str(seed)])
    assert code == 0
    assert sha256(capsys.readouterr().out) == ESTIMATE_DIGESTS[alias]


# case -> (hopdist flags, sha256 of stdout); the table stops at t=4, so -T 6
HOPDIST = {
    "uniform-d3": (["--d", "3", "--protocol", "uniform", "-T", "60"],
                   "051f93edf1449b83bb17d4742c37325c5a1c3d36a94ac614ad70973d26d34496"),
    "uniform-d3-exact": (["--d", "3", "--protocol", "uniform", "-T", "60", "--exact"],
                         "1cf074fa3530361f420fbeea30e889a51992db8f8b1b15e12831ba59003f90db"),
    "uniform-d4": (["--d", "4", "--protocol", "uniform", "-T", "60"],
                   "051f93edf1449b83bb17d4742c37325c5a1c3d36a94ac614ad70973d26d34496"),
    "uniform-d4-exact": (["--d", "4", "--protocol", "uniform", "-T", "60", "--exact"],
                         "1cf074fa3530361f420fbeea30e889a51992db8f8b1b15e12831ba59003f90db"),
    "perfect-d3": (["--d", "3", "--protocol", "perfect", "-T", "60"],
                   "5b0027b13f9be15ea60d9f272edfdaae779f24e3246f137267dffc49adacb19e"),
    "perfect-d3-exact": (["--d", "3", "--protocol", "perfect", "-T", "60", "--exact"],
                         "a54e1fa3333a0d4628a4ee7d29dccab6827d0b4ff677620f2d915f75f9cd1f46"),
    "perfect-d4": (["--d", "4", "--protocol", "perfect", "-T", "60"],
                   "1f941c1686849ef662fe1b8843e0a319385c39784d5b9d2f91b2936835107622"),
    "perfect-d4-exact": (["--d", "4", "--protocol", "perfect", "-T", "60", "--exact"],
                         "5f7e162f9339979022c928a06defb60bab955d9970e8ffa9d0cafd4f2e58bf72"),
    "local-d3": (["--d", "3", "--protocol", "local", "--gamma", "1/3", "-T", "60"],
                 "2e68d85a79622d86028c41b621e895e44e1b65b92d3cc6e27477a5a8158197dc"),
    "local-d3-exact": (["--d", "3", "--protocol", "local", "--gamma", "1/3", "-T", "60",
                        "--exact"],
                       "46699e003919737bae0e35da6b35ba0869e1b29ff80e7c14a565e93de2e001ad"),
    "local-d4": (["--d", "4", "--protocol", "local", "--gamma", "1/3", "-T", "60"],
                 "2e68d85a79622d86028c41b621e895e44e1b65b92d3cc6e27477a5a8158197dc"),
    "local-d4-exact": (["--d", "4", "--protocol", "local", "--gamma", "1/3", "-T", "60",
                        "--exact"],
                       "46699e003919737bae0e35da6b35ba0869e1b29ff80e7c14a565e93de2e001ad"),
    "table-d3": (["--d", "3", "--protocol", "table", "--table", "TABLE", "-T", "6"],
                 "7eb1dbcc23ceace732c46c595f50969617f4696fd0b54a0f9d58dee3f78f88ff"),
}


@pytest.mark.parametrize("case", sorted(HOPDIST))
def test_hopdist_output_digest(case, capsys, tmp_path):
    flags, digest = HOPDIST[case]
    table = tmp_path / "table.csv"
    table.write_text(TABLE_CSV)
    assert main(["hopdist", *(str(table) if f == "TABLE" else f for f in flags)]) == 0
    assert sha256(capsys.readouterr().out) == digest
