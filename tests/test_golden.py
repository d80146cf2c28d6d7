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
import random

import pytest

from adl.cli import main
from adl.diffusion import sample_snapshot
from adl.estimators import two_obs_path_candidates, uniform_mle_cases_candidates
from adl.experiments import ExperimentConfig, run
from adl.protocol import perfect_protocol, uniform_protocol
from adl.tree import format_label

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
    "three-obs": (["--protocol", "uniform"], [
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


# ``simulate`` stdout, seed 7, recorded before the walk's draw loop was
# written once for both the whole path and the Monte Carlo snapshots.  A case
# is protocol-d<d>-t<T>, with "-json" for the pretty-printed form; the table
# stops at t=4, so it is pinned only at times its walk can serve (t <= 5).
SIMULATE_PROTOCOLS = {
    "uniform": ["--protocol", "uniform"],
    "perfect": ["--protocol", "perfect"],
    "local": ["--protocol", "local", "--gamma", "1/3"],
    "table": ["--protocol", "table", "--table", "TABLE"],
}

SIMULATE_DIGESTS = {
    "uniform-d3-t0": "3c0236d6d36d2b98894adb6fec96a6eb014ef7c34989c0b5c4fef23ac2f12ff0",
    "perfect-d3-t0": "71301e3579804a60c4358fb428fcddb4323d7f1aa5fc5d437fb3e00b72329f5b",
    "local-d3-t0": "bb519eb9abf8357018cd3b56c32f3fb49300c16e5f6865465a180a0e2ff3387b",
    "uniform-d3-t1": "0efa925d0cec0c71aac277d2d72fb982f95c464c8e586d167c395321e3e04e3f",
    "perfect-d3-t1": "ce18774fd439ad1016b95e2af1b35e42d0bebf8012657698130817b8e9567a02",
    "local-d3-t1": "6536fc4bd1a438733889d38ce1b45619f0741c1588f3ed28effc751dbcf52078",
    "uniform-d3-t2": "56872c1bcbcb3fd6e2aa5d1e8e48d8fb45101f8d577dd60db21c6ae54e0d8913",
    "perfect-d3-t2": "8a483e587eee381bb150a0819a3e08a86b5a02c36041dfb9c2cd02a61f3a26d5",
    "local-d3-t2": "6fbbd0b8289f12314aa0581912877771f428461b212dc6aadac88ada30df3b8e",
    "uniform-d3-t9": "6fbfc46f266f08e7d5045d6bde10c90c3ff6cefc09a3134ec72908bea7c1f5ab",
    "perfect-d3-t9": "96288496bc8176cee44977faadf37fc0d6ce094ae26617eb3344b0b448b4ea09",
    "local-d3-t9": "11b2822cb5b2d2561fa52f0b67678f9dc0b9164fe5686d903ca1fc62a230c6a7",
    "uniform-d3-t10": "bfa502d7fa4f19e66e061ac930b761f08758d9b6b9e8646641175d8155c7d513",
    "perfect-d3-t10": "683ce60d1b521574a60b128509e6e270ec6327de73e5cc8e6cd2d523c85b5692",
    "local-d3-t10": "a269a175e4db7eef5fb03125af33456820b442ddb058255a19245427d41c153c",
    "uniform-d3-t40": "71a592fefa684dd5e27ed97fb8d447317617bf9d5ba2c6520acc8655822773a5",
    "perfect-d3-t40": "754d556fef6d9537227b337df6ae6a7605f7ca086f638d2e5849da7cce38f2ed",
    "local-d3-t40": "cb5667bcc00059581dba6d0b94ad5ae1da48371fd1facbc9823f8bb3811774fb",
    "table-d3-t0": "b17841a4f6737b11fcec107e2708104b2794bf398e864acb328fc45a2b2e0116",
    "table-d3-t1": "deddc419696847ff6b5ad50a1de74dfaf487f89645ccc262e731ffdd93cacae5",
    "table-d3-t2": "9e376ed33648b927df51056b223858159989847523d9609d869e85cc67cebfd7",
    "table-d3-t5": "49879f5debca5f524581789c8d8a650d5b3cbe0c56e5516357a5fb943ad80c16",
    "uniform-d4-t0": "2868b6f6710bf55a8fb2ba27e14954a36430ed9994d5b4733283797c9b917ea4",
    "perfect-d4-t0": "b991e039e65a1f3cd093810d57c9b36c25abb4ff994abf752f8795cce38d31b5",
    "local-d4-t0": "fc87a744576b416fa40adb0e6c9bcfb2c278d243ce8d4577ca0e1915fdf67746",
    "uniform-d4-t1": "c3d1c5d31cb4de870085c7e3664d4f96d76dad1bcb46c39815d916ca14616de9",
    "perfect-d4-t1": "46b515342be76629277032997944ace617c36c802a2afcf320ed4e5723700c3d",
    "local-d4-t1": "429b6832c59ec9fc0d81cb2a1848e275a0d173f0496374678469dd9fe700b635",
    "uniform-d4-t2": "d45258423fcd38daa27f4e0821b78626ccfe87196e83619af04ab84c5d42c046",
    "perfect-d4-t2": "e6fa7d1b094d411838ac1c9163a676bb9179ceb24fa7567d7c874bb331ccd82e",
    "local-d4-t2": "b2a3f2249fc377a97a42a91852fc9c01a4eae75abc26996aaafdae47eaf45327",
    "uniform-d4-t9": "4402484958a8f9fd2887771ef59d6787c109cb7842f13b7f0e928d439dc333b5",
    "perfect-d4-t9": "c7a46f0aa885b1d4ebc13d00458b6fb194028ba10be87ce03109ec4cced958ed",
    "local-d4-t9": "6792f7388b251829d93864d5fe0f77381b26ad872f7dee34daa3cce157aaa7a3",
    "uniform-d4-t10": "7dd720316482cf415b9dfecdee340aef0e363d80961a868eef6e5a3452ebc7fd",
    "perfect-d4-t10": "93a20b97fdd065bdcb979934e4081bd402c7eebde48f0b4d916474c891f75d01",
    "local-d4-t10": "6a4fabf634843bacbaa2eaf60e5594dd495bca90d4bbd8621a2229de11b569f5",
    "uniform-d4-t40": "609407f673cdef908132c8a918920d39e00fa332bcfbb02060fbffd6e4bb13f6",
    "perfect-d4-t40": "8d5037c4695cb4886b0cb960c19e31e1dea09be2ea41ea413dbe6581049d09d9",
    "local-d4-t40": "e08196f69e4d6181097893ce4a8087ef7f5d1246804f83b3468e1abcc1e1e875",
    "table-d4-t0": "fc4b96b57d9b9cc4ee64e4db2b2aae96c38985559dc84fceb855a768318089c3",
    "table-d4-t1": "062652ae9aef82f42f3bd9827356e519a7cb3ddefa09be4410c57d1bcedc0a47",
    "table-d4-t2": "8092b3c5b425c1eb971acafbfd3e606be2ee7bf14a57e508e9f42855ec3b5a2a",
    "table-d4-t5": "4ef2a77b0678cedc6af6a48f6385ac6e6e83cce45d610d37a8fc2931c200a54a",
    "uniform-d3-t10-json": "728dea46527461a6ea661348f767fa6f995246776dd101518ea6551ab9e7aed1",
}


@pytest.mark.parametrize("case", sorted(SIMULATE_DIGESTS))
def test_simulate_output_digest(case, capsys, tmp_path):
    name, d, T, *json_flag = case.split("-")
    table = tmp_path / "table.csv"
    table.write_text(TABLE_CSV)
    flags = [str(table) if f == "TABLE" else f for f in SIMULATE_PROTOCOLS[name]]
    argv = ["simulate", "--d", d[1:], *flags, "-t", T[1:], "--seed", "7"]
    assert main(argv + ["--json"] * len(json_flag)) == 0
    assert sha256(capsys.readouterr().out) == SIMULATE_DIGESTS[case]


# Candidate sets of the two path-reading two-snapshot cores, recorded before
# their feasible path was read by position instead of vertex by vertex: per
# estimator, one sha256 over the sorted candidate labels and the diagnostics
# of a seeded sample of 2,000 pairs (d in {3, 4}, each of the four parity
# pairs, times up to 13).  The Monte Carlo bodies see only whether the chosen
# vertex is the origin, so a changed candidate set could pass them.
def _core_pairs(name, d):
    """250 pairs per parity pair of independent walks from one origin."""
    if name == "two_obs_path":
        protos, low = [uniform_protocol(d), perfect_protocol(d)], {0: 2, 1: 3}
    else:
        protos, low = [uniform_protocol(d)], {0: 4, 1: 5}
    rng = random.Random(f"{name}-{d}")
    for p1, p2 in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        for _ in range(250):
            proto = rng.choice(protos)
            t1 = rng.randrange(low[p1], 14, 2)
            t2 = rng.randrange(low[p2], 14, 2)
            yield (sample_snapshot(proto, t1, rng.getrandbits(32)),
                   sample_snapshot(proto, t2, rng.getrandbits(32)))


CORE_DIGESTS = {
    "two_obs_path": "fb90ad6f5e91940e7961abba8b6ab6abee37cdd82eb79ba07fa6d8ce9e277dc9",
    "uniform_mle_cases": "a2d434191e479b93694a548b33f1630f59d714765fe6fbc886c2109b008c3142",
}


@pytest.mark.parametrize("name", sorted(CORE_DIGESTS))
def test_two_snapshot_core_candidate_digest(name):
    core = {"two_obs_path": two_obs_path_candidates,
            "uniform_mle_cases": uniform_mle_cases_candidates}[name]
    lines = []
    for d in (3, 4):
        for s1, s2 in _core_pairs(name, d):
            cands, diagnostics = core(d, *[(s.t, s.vs_prev, s.vs_now) for s in (s1, s2)])
            labels = sorted(format_label(v) for v in cands.members)
            lines.append(json.dumps([labels, diagnostics], sort_keys=True))
    assert len(lines) == 2_000
    assert sha256("\n".join(lines)) == CORE_DIGESTS[name]
