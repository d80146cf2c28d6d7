#!/usr/bin/env python3
"""Self-test of the benchmark's own checks and tracer.

    python3 benchmarks/selftest.py

Runs two recorded default-seed chunks of mc_two_obs, first with the
recorded digests and then with one digest corrupted, and requires failed_frac
to rise from 0 to 1/2.  Also requires a wrong oracle reference and a violated
pooled bound to be reported, an absent trace target to be reported rather
than raised, the tracer to restore every function it wrapped, and
BENCHMARK.json to name the metrics run.py prints.  Exits 0 when every check
holds.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import run
from spans import Tracer
from speed import SpeedGauge


def digests_raise_failed_frac(adl, reference) -> bool:
    digests = reference["mc"]["mc_two_obs"]["digests"][:2]
    fracs = []
    for recorded in (digests, [digests[0], "0" * 16]):
        workload = run.MonteCarlo("mc_two_obs", recorded)
        tally, gauge = run.Tally(), SpeedGauge()
        for index in range(2):
            run.run_op(adl, workload, run.DEFAULT_SEED, index, tally, False, gauge)
        fracs.append(tally.failed / tally.attempted)
    return fracs == [0.0, 0.5]


def wrong_oracle_value_fails(adl) -> bool:
    workload = run.OracleExact()
    workload.prepare(adl, run.DEFAULT_SEED)
    good = run.ORACLE_WARMUP
    bad = (*good[:4], good[4] + Fraction(1, 10**9))
    _, value = workload.call(adl, good)
    return not workload.check(good, value) and bool(workload.check(bad, value))


def pooled_bound_violation_fails() -> bool:
    workload = run.MonteCarlo("mc_two_obs", None)
    clean = workload.pooled_problems() == []
    workload.pooled["two_obs_path"] = [0, 10_000]
    return clean and len(workload.pooled_problems()) == 1


def tracer_survives_absent_target(adl) -> bool:
    original = adl.tree.steiner_tree
    tracer = Tracer()
    tracer.install([
        ("adl.tree", "no_such_function", "tree.no_such_function", "span"),
        ("adl.tree", "steiner_tree", "tree.steiner_tree", "span"),
    ])
    try:
        ctx = adl.tree.TreeContext(3)
        adl.estimators.k_obs_candidates(3, [(0,), (1,), (2,)])
        adl.tree.steiner_tree(ctx, [(0,), (1,)])
    finally:
        tracer.uninstall()
    spans = tracer.analyse().durations_us("tree.steiner_tree")
    restored = adl.tree.steiner_tree is original and adl.estimators.steiner_tree is original
    return tracer.absent == ["tree.no_such_function"] and len(spans) == 2 and restored


def benchmark_json_matches() -> bool:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    workloads = [w["name"] for w in bench["workloads"]]
    return (e2e == run.END_TO_END and layers == run.PER_LAYER
            and workloads == list(run.WORKLOAD_NAMES))


def main() -> int:
    adl, _ = run.fresh_import()
    reference = run.load_reference()
    checks = [
        ("one wrong digest raises failed_frac", digests_raise_failed_frac(adl, reference)),
        ("a wrong oracle reference fails its check", wrong_oracle_value_fails(adl)),
        ("a violated pooled bound is reported", pooled_bound_violation_fails()),
        ("an absent trace target is reported, not raised", tracer_survives_absent_target(adl)),
        ("BENCHMARK.json names the printed metrics", benchmark_json_matches()),
    ]
    for label, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
