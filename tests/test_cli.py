import hashlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from adl import cli
from adl.cli import main
from adl.protocol import alpha_perfect, load_protocol_table
from adl.tree import parse_label


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_outputs_trajectory_json(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--d", "3", "--protocol", "uniform", "-t", "10", "--seed", "7"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["d"] == 3 and obj["protocol"] == "uniform" and obj["seed"] == 7
    assert len(obj["vs"]) == 11
    assert obj["vs"][0] == "/"
    parse_label(obj["vs"][-1])


def test_simulate_local_protocol(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--d", "3", "--protocol", "local", "--gamma", "0.5",
        "-t", "10", "--seed", "1", "--json",
    )
    assert code == 0
    assert len(parse_label(json.loads(out)["vs"][10])) == 2  # h_10 = floor(0.5*5)


def test_simulate_table_protocol(capsys, tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("t,h,alpha\n2,1,0.5\n4,1,0.5\n4,2,0.3333333\n")
    code, out, _ = run_cli(
        capsys,
        "simulate", "--d", "3", "--protocol", "table", "--table", str(path),
        "-t", "5", "--seed", "3",
    )
    assert code == 0
    assert len(json.loads(out)["vs"]) == 6


def test_hopdist_uniform_rows(capsys):
    code, out, _ = run_cli(
        capsys, "hopdist", "--d", "3", "--protocol", "uniform", "-T", "6", "--exact"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,h,p"
    assert "6,1,1/3" in lines and "6,3,1/3" in lines


def test_hopdist_perfect_identity(capsys):
    code, out, _ = run_cli(
        capsys, "hopdist", "--d", "3", "--protocol", "perfect", "-T", "4", "--exact"
    )
    assert code == 0
    rows = dict()
    for line in out.strip().splitlines()[1:]:
        t, h, p = line.split(",")
        rows[(int(t), int(h))] = p
    # p(4,h) * (N_4 - 1) = 3 * 2^(h-1) with N_4 = 10
    assert rows[(4, 1)] == "1/3" and rows[(4, 2)] == "2/3"


def test_hopdist_local_reads_gamma_as_written(capsys):
    # --gamma is text: 0.3 is 3/10 (h_20 = 3), the same table as "3/10"
    outs = []
    for gamma in ("0.3", "3/10"):
        code, out, _ = run_cli(
            capsys, "hopdist", "--d", "3", "--protocol", "local", "--gamma", gamma,
            "-T", "20", "--exact",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert "20,3,1" in outs[0].splitlines()


def test_estimate_three_obs_hits_source(capsys, tmp_path):
    snaps = [
        {"d": 3, "t": 4, "vs_prev": "/0", "vs_now": "/0"},
        {"d": 3, "t": 4, "vs_prev": "/1/0", "vs_now": "/1/0"},
        {"d": 3, "t": 4, "vs_prev": "/2/1", "vs_now": "/2/1"},
    ]
    path = tmp_path / "snaps.json"
    path.write_text(json.dumps(snaps))
    code, out, _ = run_cli(
        capsys,
        "estimate", "--d", "3", "--protocol", "uniform",
        "--snapshots", str(path), "--method", "three-obs", "--seed", "0",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["chosen"] == "/" and obj["ties"] == 1


def test_estimate_mle_k1_matches_single(capsys, tmp_path):
    snaps = [{"d": 3, "t": 8, "vs_prev": "/0/1", "vs_now": "/0/1"}]
    path = tmp_path / "one.json"
    path.write_text(json.dumps(snaps))
    code, out_generic, _ = run_cli(
        capsys,
        "estimate", "--d", "3", "--protocol", "uniform",
        "--snapshots", str(path), "--method", "mle", "--seed", "5",
    )
    assert code == 0
    obj = json.loads(out_generic)
    # uniform single-snapshot argmax is the hop-1 shell: the d neighbors
    assert obj["ties"] == 3
    code, out_single, _ = run_cli(
        capsys,
        "estimate", "--d", "3", "--protocol", "uniform",
        "--snapshots", str(path), "--method", "single-mle", "--seed", "5",
    )
    assert code == 0
    assert json.loads(out_single)["ties"] == 3


def test_estimate_cases_reports_case_tag(capsys, tmp_path):
    snaps = [
        {"d": 3, "t": 5, "vs_prev": "/0", "vs_now": "/0/0"},
        {"d": 3, "t": 5, "vs_prev": "/0", "vs_now": "/0/0"},
    ]
    path = tmp_path / "oo.json"
    path.write_text(json.dumps(snaps))
    code, out, _ = run_cli(
        capsys,
        "estimate", "--d", "3", "--protocol", "uniform",
        "--snapshots", str(path), "--method", "cases", "--seed", "2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["diagnostics"]["case"] == "odd-odd-7(d=3)"
    assert obj["ties"] == 12


def test_experiment_runs_and_writes_report(capsys, tmp_path):
    config = {
        "d": 3,
        "protocol": {"name": "uniform"},
        "times": [6, 6],
        "trials": 60,
        "seed": 99,
        "estimators": [
            {"method": "two_obs_path", "target": {"formula": "two_obs_detection_lower"}}
        ],
    }
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config))
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys,
        "experiment", "--config", str(cpath), "--out", str(out_path), "--csv", str(csv_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["results"][0]["verdict"] == "pass"
    assert csv_path.read_text().startswith("method,")


def test_experiment_invalid_config_lists_problems(capsys, tmp_path):
    cpath = tmp_path / "bad.json"
    cpath.write_text(json.dumps({"d": 1, "trials": -3}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cpath))
    assert code == 2
    assert err.count("config error:") >= 3


def test_experiment_stdout_when_no_out(capsys, tmp_path):
    config = {
        "d": 3,
        "protocol": {"name": "uniform"},
        "times": [4],
        "trials": 5,
        "seed": 1,
        "estimators": [{"method": "single_mle"}],
    }
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cpath))
    assert code == 0
    assert json.loads(out)["trials"] == 5


def test_verify_identities_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities")
    assert code == 0
    assert "[PASS]" in out and "FAIL" not in out
    assert "path-fraction-sum" in out


def test_verify_oracle_even_even_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle-even-even")
    assert code == 0
    assert "41/72" in out


def test_verify_oracle_large_t_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle-large-t")
    assert code == 0
    assert out.count("[PASS]") == 8 and "FAIL" not in out


# sha256 of each suite's stdout, pinned so a refactor that changes any check's
# label or order, or adds or drops one, shows up here
VERIFY_SHA256 = {
    "identities": "e60e71f2fd7c413f455894b608f619694bead1f935d584a65117b7e54055e34e",
    "dp-perfect": "5cd26f7cef540a06642f1d4c645372a07dd85e70afd8a9a38c83a058a7773ef1",
    "oracle-even-even": "3cfebcff1c494768282cec2800aa81b392a1caf1dc6a78ed3e828023c1a456f6",
    "oracle-even-odd": "6db751e3f7c5158903b97d68130ee7ccb7c637d32f840bccf490a7e1b597f981",
    "oracle-odd-odd": "dcee9d1609c0dec00933b44bce9b25f92959d320fc75cbc401c0b69e1329482a",
    "oracle-large-t": "50438cb4c9ece48a6db608d1cd4d4f08db8c45d82ac172ef89310e093affe82f",
    "generic-vs-cases": "250431f885cb201dc9577b6e6e346e156a77e060fbd563ef97c6e2b80b7de94b",
    "all": "716400ecc8f564ed88d05f60757e679e1131987bf9e8563bfea78be452282fe9",
}


@pytest.mark.parametrize("suite, passes", [
    ("dp-perfect", 45),
    ("oracle-even-odd", 2),
    ("oracle-odd-odd", 2),
    ("generic-vs-cases", 2),
    ("identities", 472),
    ("oracle-even-even", 3),
    ("oracle-large-t", 8),
    ("all", 534),
])
def test_verify_suite_passes_every_check(capsys, suite, passes):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0
    assert out.count("[PASS]") == passes and "FAIL" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[suite]


def test_verify_exits_1_on_a_failing_check(capsys, monkeypatch):
    monkeypatch.setitem(cli._SUITES, "failing", lambda: [("holds", True), ("does not hold", False)])
    code, out, _ = run_cli(capsys, "verify", "--suite", "failing")
    assert code == 1
    assert out == ("[PASS] failing: holds\n[FAIL] failing: does not hold\n"
                   "FAILED (1 failing checks)\n")


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert "identities" in err  # the error lists what exists


def test_hopdist_exact_rejected_for_table_protocols(capsys, tmp_path):
    # both subcommands that take --exact refuse it for a float-only table,
    # in the same words
    path = tmp_path / "table.csv"
    path.write_text("t,h,alpha\n2,1,0.5\n")
    for command in ("hopdist", "protocol-dump"):
        code, out, err = run_cli(
            capsys,
            command, "--d", "3", "--protocol", "table", "--table", str(path),
            "-T", "2", "--exact",
        )
        assert code == 2
        assert out == ""
        assert "protocol 'table' cannot provide exact alphas" in err


def test_protocol_dump_round_trips(capsys, tmp_path):
    out_path = tmp_path / "uniform.csv"
    code, _, _ = run_cli(
        capsys,
        "protocol-dump", "--d", "3", "--protocol", "uniform", "-T", "8",
        "--out", str(out_path),
    )
    assert code == 0
    proto = load_protocol_table(out_path.read_text(), 3)
    assert proto.t_max == 8
    assert proto.alpha(8, 4) == pytest.approx(2 / 10)


def test_protocol_dump_exact_perfect_rows(capsys, tmp_path):
    out_path = tmp_path / "perfect.csv"
    code, _, _ = run_cli(
        capsys,
        "protocol-dump", "--d", "3", "--protocol", "perfect", "-T", "8", "--exact",
        "--out", str(out_path),
    )
    assert code == 0
    header, *rows = out_path.read_text().splitlines()
    assert header == "t,h,alpha"
    parsed = [(int(t), int(h), Fraction(a)) for t, h, a in (row.split(",") for row in rows)]
    assert parsed == [
        (t, h, alpha_perfect(3, t, h)) for t in range(2, 9, 2) for h in range(1, t // 2 + 1)
    ]


def run_module(*argv):
    """Run ``python -m adl.cli`` in a child process, as a shell would, on the
    package these tests import."""
    package_root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "adl.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


def test_module_entry_point_exit_codes(tmp_path):
    # 0 when every check passes, 1 for a failing verdict with its report still
    # written, 2 for a malformed config with a one-line message
    assert run_module("verify", "--suite", "oracle-odd-odd").returncode == 0

    config = {
        "d": 3, "protocol": {"name": "uniform"}, "times": [6, 6], "trials": 50, "seed": 1,
        "estimators": [{"method": "two_obs_path",
                        "target": {"kind": "exact", "value": 0.9, "provenance": "inline"}}],
    }
    config_path, report_path = tmp_path / "config.json", tmp_path / "report.json"
    config_path.write_text(json.dumps(config))
    done = run_module("experiment", "--config", str(config_path), "--out", str(report_path))
    assert done.returncode == 1
    assert [r["verdict"] for r in json.loads(report_path.read_text())["results"]] == ["fail"]

    config_path.write_text(json.dumps({**config, "trials": True}))
    done = run_module("experiment", "--config", str(config_path))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("config error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--d", "3"])  # missing required flags
    assert exc.value.code == 2
