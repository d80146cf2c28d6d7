"""Command-line entry point.

Subcommands: simulate, hopdist, estimate, experiment, verify, protocol-dump.
Exit codes: 0 = success / all checks pass, 1 = a verdict or check failed,
2 = usage or validation error, for any input, always with a message on
stderr.  Every subcommand is deterministic given its flags; only the
experiment report's wall-time field varies between runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
from fractions import Fraction

from adl import closed_form, oracle
from adl.diffusion import Snapshot, sample_snapshot, simulate
from adl.estimators import ESTIMATORS, estimate, estimator_for
from adl.experiments import MAX_TIME, ConfigError, ExperimentConfig, run
from adl.protocol import (
    PROTOCOLS,
    SPEC_KEYS,
    Protocol,
    check_horizon,
    hop_distribution,
    infected_count_even,
    perfect_protocol,
    protocol_from_spec,
    stay_probability_at,
    uniform_protocol,
    walk_horizon,
)
from adl.tree import MAX_DEGREE, format_label


def _add_protocol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, required=True, help=f"tree degree (3..{MAX_DEGREE})")
    p.add_argument(
        "--protocol",
        required=True,
        choices=PROTOCOLS,
        help="protocol family",
    )
    p.add_argument("--gamma", help="gamma for --protocol local: a decimal or a ratio such as 1/3")
    p.add_argument("--table", help="CSV path for --protocol table")


def _protocol(args: argparse.Namespace) -> Protocol:
    spec = {k: v for k, v in (("gamma", args.gamma), ("table", args.table)) if v is not None}
    for key in sorted(spec.keys() - SPEC_KEYS[args.protocol]):  # a flag it never reads
        raise ValueError(f"--{key} is not read by --protocol {args.protocol}")
    return protocol_from_spec(args.d, {"name": args.protocol, **spec})


def _check_time(t: int, what: str) -> None:
    """Reject a time past MAX_TIME: the walk and the hop DP grow with it."""
    if t > MAX_TIME:
        raise ValueError(f"{what} must be at most {MAX_TIME}, got {t}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    _check_time(args.t, "-t")
    protocol = _protocol(args)
    tr = simulate(protocol, args.t, args.seed)
    if args.json:
        print(json.dumps(json.loads(tr.to_json()), indent=2))
    else:
        print(tr.to_json())
    return 0


def _check_exact(protocol: Protocol, exact: bool) -> None:
    """Reject ``--exact`` for a protocol whose alphas are floats only."""
    if exact and not protocol.exact:
        raise ValueError(f"protocol {protocol.name!r} cannot provide exact alphas")


def _write_csv(column: str, rows, exact: bool, out: str | None = None) -> None:
    """Write the ``t,h,<column>`` CSV of ``(t, row)`` pairs, entry h - 1 of a row
    at h, as exact text or float repr, to the path ``out`` or stdout."""
    lines = [f"t,h,{column}"]
    for t, row in rows:
        for h, value in enumerate(row, 1):
            lines.append(f"{t},{h},{str(value) if exact else repr(float(value))}")
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_hopdist(args: argparse.Namespace) -> int:
    _check_time(args.T, "-T")
    protocol = _protocol(args)
    hop = hop_distribution(protocol, args.T)
    _check_exact(protocol, args.exact)
    _write_csv("p", hop.items(), args.exact)
    return 0


def _check_possible(protocol: Protocol, s: Snapshot, n: int) -> None:
    """Reject a snapshot the protocol never produces: its single-snapshot
    weight, at hop len(vs_now) for a ball and one less for a moved pair,
    is zero (the mapping of ``oracle._law``).  Times below 2 are left to the
    estimators, which refuse them."""
    if s.t < 2:
        return
    hop = len(s.vs_now) - (not s.is_ball)
    if not protocol.snapshot_weights(s.t, s.is_ball)[hop - 1]:
        raise ValueError(
            f"snapshot {n} (t={s.t}, vs_prev={format_label(s.vs_prev)}, "
            f"vs_now={format_label(s.vs_now)}) has probability zero under "
            f"protocol {protocol.name}: no walk of it produces this snapshot"
        )


def _cmd_estimate(args: argparse.Namespace) -> int:
    protocol = _protocol(args)
    with open(args.snapshots, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError(f"the snapshots file must hold a JSON array, got {type(raw).__name__}")
    snaps = [Snapshot.from_dict(obj) for obj in raw]
    for s in snaps:
        if s.d != args.d:
            raise ValueError(f"snapshot degree {s.d} disagrees with --d {args.d}")
        _check_time(s.t, "snapshot time")
        walk_horizon(protocol, s.t)
    name = next(n for n, info in ESTIMATORS.items() if info.alias == args.method)
    estimator_for(name, len(snaps), protocol)
    for n, s in enumerate(snaps):
        _check_possible(protocol, s, n)
    print(estimate(name, snaps, protocol, random.Random(args.seed)).to_json())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = ExperimentConfig.from_json(fh.read())
    with contextlib.ExitStack() as stack:
        # open the outputs first: a bad path exits 2 before any trial runs
        out = stack.enter_context(open(args.out, "w", encoding="utf-8")) if args.out else None
        csv = stack.enter_context(open(args.csv, "w", encoding="utf-8")) if args.csv else None
        report = run(config)
        text = report.to_json()
        if out:
            out.write(text + "\n")
        else:
            print(text)
        if csv:
            csv.write(report.to_csv())
    return 1 if report.any_fail else 0


# ---------------------------------------------------------------------------
# verify: exact, Monte-Carlo-free check suites
# ---------------------------------------------------------------------------


def _suite_identities():
    """Path-sum collapse, uniform hop law, stay probability, DP normalization."""
    for s in range(1, 31):
        for t in range(s, 31):
            yield (
                f"path-fraction-sum(s={s},t={t}) == s+t-1",
                closed_form.path_fraction_sum(s, t) == s + t - 1,
            )
    for d in (3, 4, 5):
        hop = hop_distribution(uniform_protocol(d), 60)
        ok = all(p == Fraction(2, t) for t, row in hop.items() for p in row)
        yield f"uniform hop law p(t,h) == 2/t, d={d}, t <= 60", ok
        norm = all(sum(row) == 1 for row in hop.values())
        yield f"hop normalization sum_h p(t,h) == 1, d={d}, t <= 60", norm
    uni = uniform_protocol(3)
    ok = all(
        stay_probability_at(uni, t_odd) == Fraction(1, 2)
        for t_odd in range(5, 42, 2)
    )
    yield "uniform stay probability == 1/2 for odd t in 5..41", ok


def _suite_dp_perfect():
    """Equal-likelihood identity p(t,h) (N_t - 1) == d (d-1)^(h-1)."""
    for d in (3, 4, 5):
        hop = hop_distribution(perfect_protocol(d), 30)
        for t, row in hop.items():
            n_t = infected_count_even(d, t)
            ok = all(p * (n_t - 1) == d * (d - 1) ** (h - 1) for h, p in enumerate(row, 1))
            yield f"perfect protocol equal likelihood, d={d}, t={t}", ok


def _suite_oracle_even_even():
    uni = uniform_protocol(3)
    got = oracle.exact_success("uniform_mle_cases", uni, (4, 4))
    yield "oracle even-even MLE (d=3, t=(4,4)) == 41/72", got == Fraction(41, 72)
    want = closed_form.even_even_mle_exact(3, 4, 6).exact_value
    got = oracle.exact_success("uniform_mle_cases", uni, (4, 6))
    yield "oracle even-even MLE (d=3, t=(4,6)) == closed form", got == want
    uni4 = uniform_protocol(4)
    want = closed_form.even_even_mle_exact(4, 4, 4).exact_value
    got = oracle.exact_success("uniform_mle_cases", uni4, (4, 4))
    yield "oracle even-even MLE (d=4, t=(4,4)) == closed form", got == want


def _suite_oracle_even_odd():
    uni = uniform_protocol(3)
    want = closed_form.even_odd_mle_exact(3, 4, 5).exact_value
    got = oracle.exact_success("uniform_mle_cases", uni, (4, 5))
    yield "oracle even-odd MLE (d=3, t=(4,5)) == closed form", got == want
    got = oracle.exact_success("uniform_mle_cases", uni, (5, 4))
    yield "oracle even-odd MLE (d=3, t=(5,4)) == closed form", got == want


def _suite_oracle_odd_odd():
    uni = uniform_protocol(3)
    got = oracle.exact_success("uniform_mle_cases", uni, (5, 5))
    cap = closed_form.odd_odd_mle_upper(3, 5, 5).exact_value
    yield "oracle odd-odd MLE (d=3, t=(5,5)) <= closed-form cap", got <= cap
    yield "oracle odd-odd MLE (d=3, t=(5,5)) is a probability", 0 <= got <= 1


def _suite_oracle_large_t():
    """Certifications far past brute-force reach; the oracle sums over orbits."""
    uni3, uni4 = uniform_protocol(3), uniform_protocol(4)
    got = oracle.exact_success("uniform_mle_cases", uni3, (20, 20))
    want = closed_form.even_even_mle_exact(3, 20, 20).exact_value
    yield "oracle even-even MLE (d=3, t=(20,20)) == closed form", got == want
    want = closed_form.even_odd_mle_exact(3, 20, 17).exact_value
    for t1, t2 in ((20, 17), (17, 20)):
        got = oracle.exact_success("uniform_mle_cases", uni3, (t1, t2))
        yield f"oracle even-odd MLE (d=3, t=({t1},{t2})) == closed form", got == want
    got = oracle.exact_success("uniform_mle_cases", uni3, (17, 17))
    cap = closed_form.odd_odd_mle_upper(3, 17, 17).exact_value
    yield "oracle odd-odd MLE (d=3, t=(17,17)) <= closed-form cap", 0 <= got <= cap
    got = oracle.exact_success("uniform_mle_cases", uni4, (12, 12))
    want = closed_form.even_even_mle_exact(4, 12, 12).exact_value
    yield "oracle even-even MLE (d=4, t=(12,12)) == closed form", got == want
    got = oracle.exact_success("generic_mle", uni4, (12, 12))
    yield "oracle generic MLE (d=4, t=(12,12)) == closed form", got == want
    got = oracle.exact_success("three_obs_intersection", uni4, (8, 8, 8))
    want = closed_form.three_obs_lower(4).exact_value
    yield "oracle three-obs (d=4, t=(8,8,8)) == (d-1)(d-2)/d^2", got == want
    got = oracle.exact_success("two_obs_path", perfect_protocol(4), (12, 12))
    floor = closed_form.two_obs_detection_lower(4, 12, 12).exact_value
    yield "oracle two-obs path, perfect (d=4, t=(12,12)) >= detection floor", got >= floor


def _suite_generic_vs_cases():
    """Candidate-set equality of the generic MLE and the case dispatch on a
    small deterministic sweep (the full randomized sweep lives in the tests)."""
    from adl.estimators import generic_mle_candidates, uniform_mle_cases_candidates
    from adl.experiments import derive_seed

    for d in (3, 4):
        proto = uniform_protocol(d)
        mismatches = 0
        checked = 0
        for t1, t2 in ((4, 4), (4, 5), (5, 4), (5, 5), (6, 7), (7, 7), (8, 9), (9, 9)):
            for n in range(150):
                snaps = [
                    sample_snapshot(proto, t, derive_seed(20_000 + d, n, i))
                    for i, t in enumerate((t1, t2))
                ]
                labels = [(s.t, s.vs_prev, s.vs_now) for s in snaps]
                a, _ = generic_mle_candidates(d, labels, proto)
                b, _ = uniform_mle_cases_candidates(d, *labels)
                checked += 1
                if a.members != b.members:
                    mismatches += 1
        yield f"generic MLE == case dispatch on {checked} instances, d={d}", mismatches == 0


_SUITES = {
    "identities": _suite_identities,
    "dp-perfect": _suite_dp_perfect,
    "oracle-even-even": _suite_oracle_even_even,
    "oracle-even-odd": _suite_oracle_even_odd,
    "oracle-odd-odd": _suite_oracle_odd_odd,
    "oracle-large-t": _suite_oracle_large_t,
    "generic-vs-cases": _suite_generic_vs_cases,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    if any(n not in _SUITES for n in names):
        print(
            f"unknown suite {args.suite!r}; available: {', '.join(list(_SUITES) + ['all'])}",
            file=sys.stderr,
        )
        return 2
    failures = 0
    for name in names:
        for label, ok in _SUITES[name]():
            failures += 0 if ok else 1
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {label}")
    print(f"{'OK' if failures == 0 else 'FAILED'} ({failures} failing checks)")
    return 0 if failures == 0 else 1


def _cmd_protocol_dump(args: argparse.Namespace) -> int:
    _check_time(args.T, "-T")
    protocol = _protocol(args)
    check_horizon(args.T)
    if protocol.t_max is not None and args.T > protocol.t_max:
        raise ValueError(f"-T {args.T} is past the alpha table, which stops at t={protocol.t_max}")
    _check_exact(protocol, args.exact)
    alpha = protocol.alpha_exact if args.exact else protocol.alpha
    rows = ((t, [alpha(t, h) for h in range(1, t // 2 + 1)]) for t in range(2, args.T + 1, 2))
    _write_csv("alpha", rows, args.exact, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adl",
        description="Adaptive diffusion on the d-regular tree: simulate, infer, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a virtual-source trajectory")
    _add_protocol_flags(p)
    p.add_argument("-t", type=int, required=True, help="number of steps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="pretty-print the JSON")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("hopdist", help="dump the hop distribution as CSV")
    _add_protocol_flags(p)
    p.add_argument("-T", type=int, required=True, help="even horizon")
    p.add_argument("--exact", action="store_true", help="rational p values")
    p.set_defaults(fn=_cmd_hopdist)

    p = sub.add_parser("estimate", help="run one estimator on a snapshots file")
    _add_protocol_flags(p)
    p.add_argument("--snapshots", required=True, help="JSON array of snapshot objects")
    p.add_argument(
        "--method", required=True, choices=sorted(info.alias for info in ESTIMATORS.values())
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--csv", help="also write a CSV summary here")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("verify", help="run an exact (non-Monte-Carlo) check suite")
    p.add_argument("--suite", required=True, help=f"one of: {', '.join(list(_SUITES) + ['all'])}")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("protocol-dump", help="dump a protocol's alpha table as CSV")
    _add_protocol_flags(p)
    p.add_argument("-T", type=int, required=True, help="even horizon")
    p.add_argument("--exact", action="store_true", help="rational alpha values")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_protocol_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RecursionError) as exc:  # RecursionError: too deeply nested JSON
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
