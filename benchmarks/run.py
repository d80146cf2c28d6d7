#!/usr/bin/env python3
"""Layered benchmark for adl: Monte Carlo throughput and exact-oracle time.

    python3 benchmarks/run.py --workload mc_kobs --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  The load comes from one caller in one process with no extra
threads (``ADL_THREADS`` is removed from the environment): a closed loop in
which the next op starts when the last one returns.  The package is driven
only through public calls: ``ExperimentConfig.from_dict``,
``experiments.run``, ``oracle.exact_success``, the built-in protocol
constructors and the ``closed_form`` formulas.

Workloads
  mc_kobs       d=4 uniform, T=10, k=50, k_obs_subtree.  One op is one
                ``run()`` on a fixed number of trials (its chunk_trials).  50
                ``simulate`` calls per trial and a light estimator: the
                simulator-bound workload.
  mc_two_obs    d=3 uniform, times [12, 12], uniform_mle_cases, two_obs_path
                and generic_mle, chunked the same way.  2 ``simulate`` calls
                per trial: the estimator-bound contrast.
  oracle_exact  one op is one pass of ``exact_success`` over ORACLE_INSTANCES
                (order shuffled by the seed).  No simulation and no RNG:
                exact ``Fraction`` enumeration, one ``Snapshot`` per snapshot
                of each joint outcome.

``--trace 0`` times ops for ``--seconds`` and prints the end-to-end metrics.
Their times are in reference seconds (see speed.py): each op's wall time is
scaled by the speed of a fixed calibration loop measured next to it, which
cancels the host's speed swings; the wall-clock figures are on the detail
line.
``--trace 1`` runs a fixed op list (its length depends on ``--seconds`` only)
untraced and then traced, prints the per-layer metrics and writes the spans
to ``.bench_out/spans-<workload>.csv.gz``.  Each output is checked:
  * MC chunk bodies at DEFAULT_SEED must hash to the digests recorded in
    reference.json.  Every run also replays one recorded chunk before timing.
  * On every seed, chunk bodies are checked for shape, and the pooled
    frequencies over the run are checked against one-sided closed-form bounds
    that the true values clear by many standard errors.
  * Every oracle value must equal its recorded exact Fraction.
The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; a line before it gives the run environment.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from spans import Tracer
from speed import SpeedGauge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 25
TRACE_CHUNKS_PER_SECOND = 2
THREE_SIGMA = 3.0

# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

MC_WORKLOADS = {
    "mc_kobs": {
        "config": {
            "d": 4,
            "protocol": {"name": "uniform"},
            "times": 10,
            "k": 50,
            "estimators": [
                {"method": "k_obs_subtree", "target": {"formula": "multi_obs_lower"}},
            ],
        },
        "chunk_trials": 40,
        # method -> (target kind, target value); one-sided kinds are checked on
        # pooled counts of every seed.  1 - d exp(-(d-2)^2 k / (2 d^2)) at d=4,
        # k=50 is 0.9923; the observed rate is 1.0 to four digits.
        "targets": {"k_obs_subtree": ("lower_bound", 1.0 - 4.0 * math.exp(-6.25))},
    },
    "mc_two_obs": {
        "config": {
            "d": 3,
            "protocol": {"name": "uniform"},
            "times": [12, 12],
            "estimators": [
                {"method": "uniform_mle_cases", "target": {"formula": "even_even_mle_exact"}},
                {"method": "two_obs_path", "target": {"formula": "two_obs_detection_lower"}},
                {"method": "generic_mle", "target": {"formula": "two_obs_obfuscation_upper"}},
            ],
        },
        "chunk_trials": 150,
        # (d-1)/d * 2/12 = 1/9 below two_obs_path (about 0.21); (d-1)/d * 7/12
        # = 7/18 above generic_mle (about 0.21).  The exact target 137/648 of
        # uniform_mle_cases is only checked through the default-seed digests.
        "targets": {
            "uniform_mle_cases": ("exact", float(Fraction(137, 648))),
            "two_obs_path": ("lower_bound", float(Fraction(1, 9))),
            "generic_mle": ("upper_bound", float(Fraction(7, 18))),
        },
    },
}

# (estimator, protocol, d, times, exact value, closed-form name or None).
# Values were computed by exact_success at the commit that added this file;
# where a closed form exists the value equals it (checked at set-up), and the
# odd-odd pair stays at or below its cap.
ORACLE_INSTANCES = [
    ("uniform_mle_cases", "uniform", 3, (10, 10), Fraction(113, 450), "even_even_mle_exact"),
    ("uniform_mle_cases", "uniform", 3, (10, 11), Fraction(437, 1350), "even_odd_mle_exact"),
    ("uniform_mle_cases", "uniform", 3, (9, 9), Fraction(11543, 28800), "odd_odd_mle_upper"),
    ("two_obs_path", "perfect", 3, (10, 10), Fraction(3070, 8649), None),
    ("generic_mle", "uniform", 3, (8, 8), Fraction(89, 288), "even_even_mle_exact"),
    ("single_mle", "perfect", 4, (12,), Fraction(1, 1456), None),
    ("three_obs_intersection", "uniform", 3, (6, 6, 6), Fraction(2, 9), "three_obs_lower"),
    ("k_obs_subtree", "uniform", 3, (4, 4, 4, 4), Fraction(2441, 8640), None),
]
ORACLE_WARMUP = ("uniform_mle_cases", "uniform", 3, (4, 4), Fraction(41, 72))

WORKLOAD_NAMES = (*MC_WORKLOADS, "oracle_exact")

# ---------------------------------------------------------------------------
# tracing targets and per-layer metrics
# ---------------------------------------------------------------------------

ESTIMATORS = ("single_mle", "two_obs_path", "three_obs_intersection",
              "k_obs_subtree", "generic_mle", "uniform_mle_cases")
CORES = ("single_mle_candidates", "two_obs_path_candidates", "three_obs_candidates",
         "k_obs_candidates", "generic_mle_candidates", "uniform_mle_cases_candidates")
CLOSED_FORMS = ("two_obs_detection_lower", "two_obs_obfuscation_upper",
                "even_even_mle_exact", "even_odd_mle_exact", "odd_odd_mle_upper",
                "three_obs_lower", "multi_obs_lower")

TRACE_TARGETS = [
    ("adl.experiments", "run", "experiments.run", "span"),
    ("adl.oracle", "exact_success", "oracle.exact_success", "span"),
    ("adl.oracle", "enumerate_single", "oracle.enumerate_single", "span"),
    ("adl.diffusion", "simulate", "diffusion.simulate", "span"),
    ("adl.diffusion", "Snapshot.__init__", "diffusion.snapshot", "span"),
    ("adl.protocol", "hop_distribution", "protocol.hop_distribution", "span"),
    ("adl.protocol", "Protocol.alpha", "protocol.alpha", "count"),
    ("adl.tree", "steiner_tree", "tree.steiner_tree", "span"),
    ("adl.tree", "bfs_depths", "tree.bfs_depths", "span"),
    ("adl.tree", "check_label", "tree.check_label", "count"),
    *[("adl.estimators", m, f"estimators.{m}", "observe") for m in ESTIMATORS],
    *[("adl.estimators", c, f"estimators.core.{c}", "span") for c in CORES],
]
SETUP_TRACE_TARGETS = [
    ("adl.closed_form", f, f"closed_form.{f}", "span") for f in CLOSED_FORMS
]

MC_METHODS = ("k_obs_subtree", "uniform_mle_cases", "two_obs_path", "generic_mle")
MODULES = ("experiments", "diffusion", "protocol", "tree", "estimators", "oracle",
           "closed_form", "bench")

END_TO_END = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("diffusion.simulate.calls_per_trial", "count"),
    ("diffusion.simulate.us_p50", "us"),
    ("diffusion.simulate.us_p90", "us"),
    ("diffusion.simulate.share", "frac"),
    ("protocol.alpha.calls_per_trial", "count"),
    ("diffusion.snapshot.us_p50", "us"),
    ("diffusion.snapshot.calls_per_op", "count"),
    ("tree.check_label.calls_per_op", "count"),
    ("tree.steiner_tree.us_p50", "us"),
    ("tree.bfs_depths.us_p50", "us"),
    *[(f"estimators.{m}.{k}", u) for m in MC_METHODS for k, u in (
        ("us_p50", "us"), ("us_p90", "us"), ("share", "frac"), ("ties_mean", "count"),
        ("fallback_frac", "frac"), ("precondition_fail_frac", "frac"))],
    ("oracle.core_calls", "count"),
    ("oracle.core.us_p50", "us"),
    ("oracle.enumerate_single.ms", "ms"),
    ("protocol.hop_distribution.ms", "ms"),
    ("experiments.self_us_per_trial", "us"),
    ("closed_form.targets.ms", "ms"),
    ("cli.import_ms", "ms"),
    *[(f"{m}.self_share", "frac") for m in MODULES],
    ("trace.overhead_frac", "frac"),
    ("trace.accounted_frac", "frac"),
    ("failed_frac", "frac"),
    ("machine.calibration_ms", "ms"),
]


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad arguments)."""


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def chunk_seed(workload: str, seed: int, index: int) -> int:
    """Master seed of chunk ``index``: a pure function of (workload, seed, index)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:7], "big")


BODY_KEYS = ("d", "protocol", "times", "trials", "seed")
RESULT_KEYS = ("method", "params", "successes", "failures", "trials", "frequency",
               "wilson_95", "verdict", "target")


def body_digest(body: dict) -> str:
    """SHA-256 of the report body restricted to the keys it has at the
    reference commit, so that keys added later do not break the digest."""
    kept = {k: body[k] for k in BODY_KEYS}
    kept["results"] = [{k: r.get(k) for k in RESULT_KEYS} for r in body["results"]]
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()[:16]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def fresh_import():
    """Import ``adl.cli`` (and so the whole package) from the checkout's
    ``src/``, dropping any copy already imported; returns (package, seconds)."""
    if not (SRC / "adl" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC / 'adl'}; run from a source checkout")
    for name in [m for m in sys.modules if m == "adl" or m.startswith("adl.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    importlib.import_module("adl.cli")
    elapsed = time.perf_counter() - start
    adl = sys.modules["adl"]
    if Path(adl.__file__).resolve().parent != (SRC / "adl").resolve():
        raise BenchError(f"imported adl from {adl.__file__}, not from {SRC}")
    importlib.import_module("adl.experiments")
    importlib.import_module("adl.oracle")
    importlib.import_module("adl.closed_form")
    return adl, elapsed


def run_environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "commit": checkout_commit(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def checkout_commit() -> str:
    """HEAD of the checkout read from .git without running git; "unknown" if
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Checked operations and the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return not problems


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


class MonteCarlo:
    units_per_op_label = "trials"

    def __init__(self, name: str, digests: list[str] | None):
        spec = MC_WORKLOADS[name]
        self.name = name
        self.config = spec["config"]
        self.chunk_trials = spec["chunk_trials"]
        self.targets = spec["targets"]
        self.methods = [e["method"] for e in self.config["estimators"]]
        self.digests = digests or []
        self.pooled = {m: [0, 0] for m in self.methods}

    def units_per_op(self) -> int:
        return self.chunk_trials

    def prepare(self, adl, seed: int) -> list[str]:
        """Set-up step: validate the config and build its protocol and targets."""
        config = adl.experiments.ExperimentConfig.from_dict(self._chunk_dict(seed, 0))
        return [] if config.trials == self.chunk_trials else ["config trials mismatch"]

    def _chunk_dict(self, seed: int, index: int) -> dict:
        return dict(self.config, seed=chunk_seed(self.name, seed, index),
                    trials=self.chunk_trials)

    def op(self, adl, seed: int, index: int):
        """One timed op: validate the chunk's config and run it; returns
        (seconds, report body)."""
        as_dict = self._chunk_dict(seed, index)
        start = time.perf_counter()
        config = adl.experiments.ExperimentConfig.from_dict(as_dict)
        body = adl.experiments.run(config).body_dict()
        return time.perf_counter() - start, body

    def check(self, body: dict, seed: int, index: int, pool: bool) -> list[str]:
        problems = []
        where = f"{self.name} seed={seed} chunk={index}"
        if body.get("trials") != self.chunk_trials:
            problems.append(f"{where}: trials {body.get('trials')} != {self.chunk_trials}")
        if body.get("seed") != chunk_seed(self.name, seed, index):
            problems.append(f"{where}: seed not echoed")
        results = body.get("results", [])
        if [r.get("method") for r in results] != self.methods:
            return problems + [f"{where}: methods {[r.get('method') for r in results]}"]
        for r in results:
            method = r["method"]
            if not 0 <= r["successes"] <= self.chunk_trials or r["trials"] != self.chunk_trials:
                problems.append(f"{where}: {method} counts out of range")
            if r["failures"] != 0:
                problems.append(f"{where}: {method} had {r['failures']} estimator failures")
            kind, value = self.targets[method]
            target = r.get("target") or {}
            if target.get("kind") != kind or not math.isclose(
                target.get("value", -1.0), value, rel_tol=1e-12
            ):
                problems.append(f"{where}: {method} target {target} != {kind} {value}")
            if pool:
                self.pooled[method][0] += r["successes"]
                self.pooled[method][1] += r["trials"]
        if seed == DEFAULT_SEED and index < len(self.digests):
            got = body_digest(body)
            if got != self.digests[index]:
                problems.append(f"{where}: body digest {got} != recorded {self.digests[index]}")
        return problems

    def canary(self, seed: int) -> int:
        """Index of the recorded default-seed chunk replayed before timing."""
        return seed % len(self.digests) if self.digests else 0

    def pooled_problems(self) -> list[str]:
        """One-sided bounds on the pooled frequencies; exact targets are left
        to the default-seed digests."""
        problems = []
        for method, (successes, trials) in self.pooled.items():
            kind, value = self.targets[method]
            if trials == 0 or kind == "exact":
                continue
            f = successes / trials
            slack = THREE_SIGMA * math.sqrt(f * (1.0 - f) / trials)
            if (kind == "lower_bound" and f < value - slack) or (
                kind == "upper_bound" and f > value + slack
            ):
                problems.append(f"{self.name}: pooled {method} {f:.5f} over {trials} "
                                f"trials violates {kind} {value:.5f}")
        return problems


# ---------------------------------------------------------------------------
# exact oracle workload
# ---------------------------------------------------------------------------


class OracleExact:
    name = "oracle_exact"
    units_per_op_label = "nominal joint outcomes"

    def __init__(self):
        self.protocols: dict = {}
        self.nominal = 0
        self.caps: dict = {}

    def units_per_op(self) -> int:
        return self.nominal

    def prepare(self, adl, seed: int) -> list[str]:
        """Set-up step: build the protocols, the closed-form references and
        the nominal outcome count of a pass."""
        problems = []
        builders = {"uniform": adl.uniform_protocol, "perfect": adl.perfect_protocol}
        self.protocols = {}
        self.nominal = 0
        for est, proto, d, times, expected, formula in ORACLE_INSTANCES:
            self.protocols.setdefault((proto, d), builders[proto](d))
            self.nominal += math.prod(adl.oracle.outcome_count(d, t) for t in times)
            if formula is None:
                continue
            args = (d,) if formula == "three_obs_lower" else (d, *times)
            target = getattr(adl.closed_form, formula)(*args)
            if target.kind == "upper_bound":
                self.caps[(est, times)] = target.exact_value
            elif target.exact_value != expected:
                problems.append(f"closed form {formula}{args} = {target.exact_value}, "
                                f"recorded {expected}")
        return problems

    def pass_order(self, seed: int, index: int) -> list[int]:
        order = list(range(len(ORACLE_INSTANCES)))
        random.Random(f"{seed}:{index}").shuffle(order)
        return order

    def call(self, adl, instance) -> tuple[float, object]:
        est, proto, d, times = instance[:4]
        protocol = self.protocols[(proto, d)]
        start = time.perf_counter()
        value = adl.oracle.exact_success(est, protocol, times)
        return time.perf_counter() - start, value

    def check(self, instance, value) -> list[str]:
        est, proto, d, times, expected = instance[:5]
        problems = []
        if value != expected:
            problems.append(f"exact_success({est}, {proto} d={d}, {times}) = {value}, "
                            f"recorded {expected}")
        cap = self.caps.get((est, times))
        if cap is not None and not value <= cap:
            problems.append(f"exact_success({est}, {times}) = {value} above its cap {cap}")
        return problems


# ---------------------------------------------------------------------------
# driving one run
# ---------------------------------------------------------------------------


def make_workload(name: str, reference: dict):
    if name in MC_WORKLOADS:
        ref = reference["mc"][name]
        if ref["chunk_trials"] != MC_WORKLOADS[name]["chunk_trials"]:
            raise BenchError(f"reference digests of {name} were recorded at another chunk size")
        return MonteCarlo(name, ref["digests"])
    return OracleExact()


def timed_setup(workload, seed: int, tally: Tally, gauge: SpeedGauge):
    """Import plus the workload's set-up step, SETUP_REPEATS times; returns
    the package and, per repeat, set-up wall seconds, set-up reference
    seconds and import wall seconds."""
    setups, scaled, imports = [], [], []
    problems: list[str] = []
    for _ in range(SETUP_REPEATS):
        since = gauge.mark()
        start = time.perf_counter()
        adl, import_s = fresh_import()
        problems = workload.prepare(adl, seed)
        setups.append(time.perf_counter() - start)
        gauge.sample()
        scaled.append(gauge.scale(setups[-1], since))
        imports.append(import_s)
    tally.record(problems)
    return adl, setups, scaled, imports


def run_op(adl, workload, seed: int, index: int, tally: Tally, pool: bool,
           gauge: SpeedGauge):
    """Run and check op ``index``: one chunk for MC, one pass (each call
    checked) for the oracle.  Returns (wall seconds, reference seconds), or
    None if the op failed."""
    since = gauge.mark()
    if isinstance(workload, MonteCarlo):
        try:
            seconds, body = workload.op(adl, seed, index)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            gauge.sample()
            tally.record([f"{workload.name} chunk {index}: {type(exc).__name__}: {exc}"])
            return None
        gauge.sample()
        if not tally.record(workload.check(body, seed, index, pool)):
            return None
        return seconds, gauge.scale(seconds, since)
    total, ok = 0.0, True
    for j in workload.pass_order(seed, index):
        seconds = oracle_call(adl, workload, ORACLE_INSTANCES[j], tally)
        gauge.sample()
        ok &= seconds is not None
        total += seconds or 0.0
    return (total, gauge.scale(total, since)) if ok else None


def oracle_call(adl, workload, instance, tally: Tally):
    """Run and check one ``exact_success`` call; its seconds, or None if it failed."""
    try:
        seconds, value = workload.call(adl, instance)
    except Exception as exc:  # same boundary as in run_op
        tally.record([f"exact_success{instance[:4]}: {type(exc).__name__}: {exc}"])
        return None
    return seconds if tally.record(workload.check(instance, value)) else None


def warm_up(adl, workload, seed: int, tally: Tally, gauge: SpeedGauge) -> None:
    """Untimed first op that also fills lazy caches: a recorded default-seed
    chunk for MC, a small exact instance for the oracle."""
    if isinstance(workload, MonteCarlo):
        run_op(adl, workload, DEFAULT_SEED, workload.canary(seed), tally, False, gauge)
    else:
        oracle_call(adl, workload, ORACLE_WARMUP, tally)


def measure(workload, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    tally = Tally()
    gauge = SpeedGauge()
    adl, setups, setups_ref, _ = timed_setup(workload, seed, tally, gauge)
    warm_up(adl, workload, seed, tally, gauge)
    wall, ref = [], []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        timed = run_op(adl, workload, seed, index, tally, True, gauge)
        if timed is not None:
            wall.append(timed[0])
            ref.append(timed[1])
        index += 1
    if isinstance(workload, MonteCarlo):
        tally.problems.extend(workload.pooled_problems())
    units = workload.units_per_op()

    def times(setup, ops):
        return {
            "setup_s": statistics.median(setup),
            "work_per_s": units * len(ops) / sum(ops) if ops else 0.0,
            "op_ms_p50": statistics.median(ops) * 1e3 if ops else 0.0,
        }

    metrics = times(setups_ref, ref)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {"ops_timed": len(ref), "ops_started": index, "units_per_op": units,
              "unit": workload.units_per_op_label, "setup_repeats": SETUP_REPEATS,
              "wall": times(setups, wall),
              "calibration_ms_p50": statistics.median(gauge.samples) * 1e3}
    return tally, metrics, detail


def measure_traced(workload, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    tally = Tally()
    gauge = SpeedGauge()
    adl, _, _, imports = timed_setup(workload, seed, tally, gauge)

    setup_ms = []
    for _ in range(SETUP_REPEATS):
        tracer = Tracer()
        tracer.install(SETUP_TRACE_TARGETS)
        try:
            workload.prepare(adl, seed)
        finally:
            tracer.uninstall()
        setup_ms.append(sum(tracer.analyse().durations_prefix_us("closed_form.")) / 1e3)

    warm_up(adl, workload, seed, tally, gauge)
    is_mc = isinstance(workload, MonteCarlo)
    n_ops = max(10, round(TRACE_CHUNKS_PER_SECOND * seconds)) if is_mc else 1

    def run_all(pool: bool, tracer=None) -> float:
        """Reference seconds of the op list."""
        total = 0.0
        for index in range(n_ops):
            if tracer is not None:
                tracer.op = index
            timed = run_op(adl, workload, seed, index, tally, pool, gauge)
            total += timed[1] if timed else 0.0
        return total

    untraced = run_all(pool=True)
    tracer = Tracer()
    tracer.install(TRACE_TARGETS)
    start, spent = time.perf_counter(), gauge.spent
    try:
        traced = run_all(pool=False, tracer=tracer)
    finally:
        wall_ns = (time.perf_counter() - start - (gauge.spent - spent)) * 1e9
        tracer.uninstall()
    if is_mc:
        tally.problems.extend(workload.pooled_problems())

    trials = n_ops * workload.chunk_trials if is_mc else 0
    metrics = per_layer_metrics(tracer, n_ops, trials, wall_ns)
    metrics["closed_form.targets.ms"] = statistics.median(setup_ms)
    metrics["cli.import_ms"] = statistics.median(imports) * 1e3
    metrics["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    metrics["failed_frac"] = tally.failed / tally.attempted
    metrics["machine.calibration_ms"] = statistics.median(gauge.samples) * 1e3
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}.csv.gz")
    called = {tracer.names[i] for i in set(tracer.name_col)}
    called.update(name for name, n in tracer.counts.items() if n)
    detail = {"ops_traced": n_ops, "spans": len(tracer.starts), "absent": tracer.absent,
              "uncalled": sorted({n for _, _, n, _ in TRACE_TARGETS}
                                 - called - set(tracer.absent))}
    return tally, metrics, detail


def per_layer_metrics(tracer: Tracer, n_ops: int, trials: int, wall_ns: float) -> dict:
    table = tracer.analyse()
    per_trial = (lambda x: x / trials) if trials else (lambda x: 0.0)
    wall_us = wall_ns / 1e3

    def share(us_values) -> float:
        return sum(us_values) / wall_us

    sim = table.durations_us("diffusion.simulate")
    m = {
        "diffusion.simulate.calls_per_trial": per_trial(len(sim)),
        "diffusion.simulate.us_p50": percentile(sim, 0.5),
        "diffusion.simulate.us_p90": percentile(sim, 0.9),
        "diffusion.simulate.share": share(sim),
        "protocol.alpha.calls_per_trial": per_trial(tracer.counts.get("protocol.alpha", 0)),
        "diffusion.snapshot.us_p50": percentile(table.durations_us("diffusion.snapshot"), 0.5),
        "diffusion.snapshot.calls_per_op":
            len(table.durations_us("diffusion.snapshot")) / n_ops,
        "tree.check_label.calls_per_op": tracer.counts.get("tree.check_label", 0) / n_ops,
        "tree.steiner_tree.us_p50": percentile(table.durations_us("tree.steiner_tree"), 0.5),
        "tree.bfs_depths.us_p50": percentile(table.durations_us("tree.bfs_depths"), 0.5),
    }
    for method in MC_METHODS:
        name = f"estimators.{method}"
        # oracle calls reach the candidate cores only; the public estimators
        # run under experiments.run
        us = table.durations_us(name, under="experiments.run")
        stats = tracer.observed.get(name, {})
        calls = stats.get("calls", 0)
        m[f"{name}.us_p50"] = percentile(us, 0.5)
        m[f"{name}.us_p90"] = percentile(us, 0.9)
        m[f"{name}.share"] = share(us)
        m[f"{name}.ties_mean"] = stats.get("ties", 0) / calls if calls else 0.0
        m[f"{name}.fallback_frac"] = stats.get("fallback", 0) / calls if calls else 0.0
        m[f"{name}.precondition_fail_frac"] = (
            stats.get("precondition_fail", 0) / calls if calls else 0.0)
    cores = table.durations_prefix_us("estimators.core.", under="oracle.exact_success")
    m["oracle.core_calls"] = len(cores) / n_ops
    m["oracle.core.us_p50"] = percentile(cores, 0.5)
    m["oracle.enumerate_single.ms"] = percentile(
        table.durations_us("oracle.enumerate_single"), 0.5) / 1e3
    m["protocol.hop_distribution.ms"] = percentile(
        table.durations_us("protocol.hop_distribution"), 0.5) / 1e3
    self_us = {k: v / 1e3 for k, v in table.self_by_module.items()}
    m["experiments.self_us_per_trial"] = per_trial(self_us.get("experiments", 0.0))
    accounted = sum(self_us.values()) / wall_us
    for module in MODULES:
        if module == "bench":
            m["bench.self_share"] = 1.0 - accounted
        else:
            m[f"{module}.self_share"] = self_us.get(module, 0.0) / wall_us
    m["trace.accounted_frac"] = accounted
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("ADL_THREADS", None)
    try:
        workload = make_workload(args.workload, load_reference())
        measure_fn = measure_traced if args.trace else measure
        tally, metrics, detail = measure_fn(workload, args.seed, args.seconds)
        env = run_environment()
    except (BenchError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
