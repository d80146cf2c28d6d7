"""Monte Carlo experiment harness.

A job = (protocol, observation times, estimator list, trial count, master
seed).  Each trial simulates the k diffusions from a shared origin, scores
every estimator on the same snapshots, and counts exact hits (chosen equals
the origin label, which the estimators themselves never see).  Frequencies are
compared against closed-form targets with 3-sigma verdict bands and reported
with Wilson 95% intervals.

Determinism: the seed of diffusion i in trial n is derive_seed(master, n, i);
estimator j in trial n draws from derive_seed(master, n, ESTIMATOR_STREAM+j).
derive_seed is a splitmix64 chain, so any scheduling or chunking of trials
yields bit-identical reports (aggregation is a commutative sum).  The job
builds one ``diffusion.walker`` per observation time and keeps one
``random.Random``, reseeded for every stream through its C-level ``seed``,
which draws exactly what a fresh ``random.Random(seed)`` would; a time-t
snapshot's labels (t, vs_prev, vs_now) are read from the walk's stages
t // 2 and (t + 1) // 2.  An estimator's stream is seeded at its first draw,
and a stream that draws nothing is never seeded.

Every estimator is scored from the labels by one call of its core
(``EstimatorInfo.core``), so no Snapshot is built; the core draws the
coins of a ``"coins"`` estimator from its stream.  A ``"shell"`` set is
then sampled, as the public estimator does; any other set is scored by
whether it holds the origin and its size, and the tie-break by
``estimators.sample_is_origin``.  For a ``"tie_break"`` estimator that
score and a refusal depend only on the orbit of a trial's snapshots under
the automorphisms fixing the origin and the swaps of equal-time snapshots
(the ``EstimatorInfo`` contract), and with one or two observation times
orbits repeat ((12, 12) at d = 3 has 77), so such a job keeps a memo per
estimator keyed by ``orbit_key`` and calls the core only when it misses.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from adl import closed_form
from adl.diffusion import is_int, walker
from adl.estimators import ESTIMATORS, estimator_for, sample_is_origin
from adl.protocol import SPEC_KEYS, Protocol, protocol_from_spec, uniform_protocol, walk_horizon
from adl.tree import MAX_DEGREE, SOURCE, lcp_len

_MASK64 = (1 << 64) - 1
ESTIMATOR_STREAM = 1_000_000
MAX_SNAPSHOTS = 10_000  # largest k (or len(times)) a config may ask for
MAX_TIME = 1_000  # largest observation time or horizon a config or the CLI may ask for
MAX_WALKS = 10**8  # largest trials * len(times), the diffusion walks a config may ask for
MEMO_CAP = 1 << 16  # most orbits one estimator's memo stores in a job
_REFUSED = ()  # the memo's outcome of an orbit the estimator refuses


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _fold(x: int, s: int) -> int:
    """One link of the derive_seed chain: mix stream index ``s`` into ``x``."""
    return _splitmix64(x ^ ((s & _MASK64) * 0x9E3779B97F4A7C15 & _MASK64))


def derive_seed(master: int, *stream: int) -> int:
    """Counter-mix seed derivation: fold each stream index into a splitmix64
    chain.  Pure function of (master, stream), independent of call order."""
    x = _splitmix64(master & _MASK64)
    for s in stream:
        x = _fold(x, s)
    return x


def wilson_interval(successes: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# closed_form formulas a config may name as a target, each with the number of
# observation times it reads; None reads any number, as k.  A formula is looked
# up on the module when it runs, so a wrapper installed there is seen
_FORMULAS = {
    "two_obs_detection_lower": 2,
    "two_obs_obfuscation_upper": 2,
    "even_even_mle_exact": 2,
    "even_odd_mle_exact": 2,
    "odd_odd_mle_upper": 2,
    "three_obs_lower": 3,
    "multi_obs_lower": None,
}


CONFIG_KEYS = {"d", "trials", "seed", "times", "k", "protocol", "estimators"}
ESTIMATOR_KEYS = {"method", "params", "target"}


def _unread(where: str, obj: dict, known) -> list:
    """The problem naming every key of ``obj`` that is not in ``known``, if any."""
    extra = [key for key in obj if key not in known]
    if not extra:
        return []
    return [f"{where}: unknown key{'s' * (len(extra) > 1)} {', '.join(map(repr, extra))}"]


class ConfigError(ValueError):
    """Raised with every validation violation collected, not just the first."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("invalid experiment config: " + "; ".join(self.problems))


@dataclass(frozen=True)
class EstimatorSpec:
    method: str
    target: Optional[closed_form.Target] = None


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: Protocol
    times: tuple
    trials: int
    seed: int
    estimators: tuple  # tuple[EstimatorSpec, ...]

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        """Validate a parsed config; every problem found goes into one ConfigError."""
        if not isinstance(obj, dict):
            raise ConfigError([f"config must be a JSON object, got {obj!r}"])
        problems = _unread("config", obj, CONFIG_KEYS)

        d = obj.get("d")
        if not is_int(d) or not 3 <= d <= MAX_DEGREE:
            problems.append(f"d must be an integer in 3..{MAX_DEGREE}, got {d!r}")
            d = 3

        trials = obj.get("trials")
        if not is_int(trials) or trials < 1:
            problems.append(f"trials must be an integer >= 1, got {trials!r}")
            trials = 1

        seed = obj.get("seed", 0)
        if not is_int(seed):
            problems.append(f"seed must be an integer, got {seed!r}")
            seed = 0

        times_raw = obj.get("times")
        k = obj.get("k")
        if k is not None and not (is_int(k) and 1 <= k <= MAX_SNAPSHOTS):
            problems.append(f"k must be an integer in 1..{MAX_SNAPSHOTS}, got {k!r}")
            k = None
        if is_int(times_raw):
            times = [times_raw] * (k or 1)
            if k is None:
                problems.append("scalar 'times' needs an explicit 'k'")
        elif isinstance(times_raw, list) and times_raw:
            times = list(times_raw)
            if len(times) > MAX_SNAPSHOTS:
                problems.append(f"times may list at most {MAX_SNAPSHOTS} observations, "
                                f"got {len(times)}")
            elif k is not None and k != len(times):
                problems.append(f"k={k} disagrees with len(times)={len(times)}")
        else:
            problems.append(f"times must be an int or a nonempty list, got {times_raw!r}")
            times = [2]
        if trials * len(times) > MAX_WALKS:
            problems.append(f"trials times the number of observation times must be at most "
                            f"{MAX_WALKS} walks: {len(times)} times allow at most "
                            f"{MAX_WALKS // len(times)} trials")
        times_ok = True
        for t in times:
            if not is_int(t) or not 1 <= t <= MAX_TIME:
                problems.append(f"every observation time must be an integer in 1..{MAX_TIME}, "
                                f"got {t!r}")
                times_ok = False

        protocol = None
        spec = obj.get("protocol")
        if not isinstance(spec, dict) or "name" not in spec:
            problems.append(f"protocol must be an object with a 'name', got {spec!r}")
        else:
            known = SPEC_KEYS.get(spec["name"]) if isinstance(spec["name"], str) else None
            if known:
                problems += _unread("protocol", spec, known)
            try:
                protocol = protocol_from_spec(d, spec)
            except (ValueError, OSError) as exc:
                problems.append(f"protocol: {exc}")
        if protocol is None:
            protocol = uniform_protocol(d)
        elif times_ok:
            try:
                walk_horizon(protocol, max(times))  # a table may stop short of the times
            except ValueError as exc:
                problems.append(f"times: {exc}")

        est_raw = obj.get("estimators")
        specs: list[EstimatorSpec] = []
        if not isinstance(est_raw, list) or not est_raw:
            problems.append("estimators must be a nonempty list")
        else:
            for idx, e in enumerate(est_raw):
                if not isinstance(e, dict) or "method" not in e:
                    problems.append(f"estimators[{idx}] must be an object with a 'method'")
                    continue
                problems += _unread(f"estimators[{idx}]", e, ESTIMATOR_KEYS)
                if isinstance(e.get("target"), dict):  # the keys _build_target reads
                    known = {"formula", "params"} if "formula" in e["target"] else {
                        "kind", "value", "provenance"}
                    problems += _unread(f"estimators[{idx}].target", e["target"], known)
                params = e.get("params", {})
                if not isinstance(params, dict):
                    problems.append(f"estimators[{idx}].params must be an object, got {params!r}")
                    continue
                if params:
                    problems.append(f"estimators[{idx}]: {e['method']} accepts no param "
                                    f"{next(iter(params))!r}")
                    continue
                try:
                    estimator_for(e["method"], len(times), protocol)
                except ValueError as exc:
                    problems.append(f"estimators[{idx}]: {exc}")
                    continue
                target = None
                if e.get("target") is not None and times_ok:
                    try:
                        target = _build_target(e["target"], d, times)
                    except ValueError as exc:
                        problems.append(f"estimators[{idx}].target: {exc}")
                specs.append(EstimatorSpec(method=e["method"], target=target))

        if problems:
            raise ConfigError(problems)
        return cls(
            protocol=protocol,
            times=tuple(times),
            trials=trials,
            seed=seed,
            estimators=tuple(specs),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def _build_target(spec, d: int, times: Sequence[int]) -> closed_form.Target:
    if not isinstance(spec, dict):
        raise ValueError(f"must be an object, got {spec!r}")
    if "formula" in spec:
        name = spec["formula"]
        if not isinstance(name, str) or name not in _FORMULAS:
            raise ValueError(f"unknown formula {name!r} (known: {sorted(_FORMULAS)})")
        params = spec.get("params", {})
        if not isinstance(params, dict) or not all(is_int(v) for v in params.values()):
            raise ValueError(f"formula params must be an object of integers, got {params!r}")
        arity, n = _FORMULAS[name], len(times)
        unread = [key for key in params if key != "k" or arity is not None]
        if unread:
            raise ValueError(f"formula {name!r} takes no param {unread[0]!r}")
        if arity not in (None, n):
            raise ValueError(f"formula {name!r} needs {('two', 'three')[arity - 2]} "
                             f"observation times, got {n}")
        if params.get("k", n) != n:
            raise ValueError(f"formula {name!r} reads k={params['k']}, but the config takes "
                             f"{n} snapshots")
        formula = getattr(closed_form, name)
        if name == "even_odd_mle_exact":  # its even time first, in either order
            times = sorted(times, key=lambda t: t % 2)
        if arity == 2:
            return formula(d, *times)
        return formula(d) if arity == 3 else formula(d, n)
    if "kind" in spec and "value" in spec:
        value = spec["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError(f"target value must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError("target value is too large for a float") from None
        provenance = spec.get("provenance", "inline")
        if not isinstance(provenance, str):
            raise ValueError(f"target provenance must be a string, got {provenance!r}")
        return closed_form.Target(kind=spec["kind"], value=value, provenance=provenance)
    raise ValueError("target needs either 'formula' or ('kind' and 'value')")


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

@dataclass
class EstimatorResult:
    method: str
    successes: int
    failures: int
    trials: int
    target: Optional[closed_form.Target]

    @property
    def frequency(self) -> float:
        return self.successes / self.trials

    def verdict(self) -> str:
        """3-sigma band: sigma from the target for exact values, from the
        empirical frequency for one-sided bounds."""
        t = self.target
        if t is None:
            return "informational"
        f, n = self.frequency, self.trials
        if t.kind == "exact":
            sigma = math.sqrt(t.value * (1.0 - t.value) / n)
            return "pass" if abs(f - t.value) <= 3.0 * sigma else "fail"
        sigma = math.sqrt(f * (1.0 - f) / n)
        if t.kind == "lower_bound":
            return "pass" if f >= t.value - 3.0 * sigma else "fail"
        return "pass" if f <= t.value + 3.0 * sigma else "fail"

    def to_dict(self) -> dict:
        low, high = wilson_interval(self.successes, self.trials)
        out = {
            "method": self.method,
            "params": {},  # no estimator takes params; the report layout keeps the key
            "successes": self.successes,
            "failures": self.failures,
            "trials": self.trials,
            "frequency": self.frequency,
            "wilson_95": [low, high],
            "verdict": self.verdict(),
        }
        if self.target is not None:
            out["target"] = {
                "kind": self.target.kind,
                "value": self.target.value,
                "provenance": self.target.provenance,
                "vacuous": self.target.vacuous,
            }
        return out


@dataclass
class ExperimentReport:
    d: int
    protocol: str
    times: tuple
    trials: int
    seed: int
    results: list  # list[EstimatorResult]
    wall_time_s: float

    @property
    def any_fail(self) -> bool:
        return any(r.verdict() == "fail" for r in self.results)

    def body_dict(self) -> dict:
        """Everything except wall time; the determinism contract covers this."""
        return {
            "d": self.d,
            "protocol": self.protocol,
            "times": list(self.times),
            "trials": self.trials,
            "seed": self.seed,
            "results": [r.to_dict() for r in self.results],
        }

    def to_dict(self) -> dict:
        out = self.body_dict()
        out["wall_time_s"] = self.wall_time_s
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_csv(self) -> str:
        lines = ["method,successes,failures,trials,frequency,wilson_low,wilson_high,target_kind,target_value,verdict"]
        for r in self.results:
            low, high = wilson_interval(r.successes, r.trials)
            tk = r.target.kind if r.target else ""
            tv = repr(r.target.value) if r.target else ""
            lines.append(
                f"{r.method},{r.successes},{r.failures},{r.trials},"
                f"{r.frequency!r},{low!r},{high!r},{tk},{tv},{r.verdict()}"
            )
        return "\n".join(lines) + "\n"


def orbit_key(labels: Sequence[tuple]) -> tuple:
    """The orbit of a trial's one or two snapshots, each given by its labels
    (t, vs_prev, vs_now) at a job's fixed times, under the automorphisms
    fixing the origin and the swap of equal times.

    A one-time job passes its one snapshot as both.  The key is each
    snapshot's (virtual source moved, depth of ``vs_now``), sorted when the
    times are equal, and the length of the two ``vs_now``'s common prefix.
    It is a complete invariant: a moved pair's ``vs_prev`` is the parent of
    its ``vs_now``, and two labels are carried onto two others by such an
    automorphism exactly when their depths and common prefix length agree.
    """
    (t1, p, u), (t2, q, v) = labels[0], labels[-1]
    a, b = (p != u, len(u)), (q != v, len(v))
    if b < a and t1 == t2:
        a, b = b, a
    return *a, *b, lcp_len(u, v)


def run(config: ExperimentConfig) -> ExperimentReport:
    """Execute the job: every trial walks each diffusion once, keeps the
    walk's labels (t, vs_prev, vs_now) and scores every estimator from them
    by one core call, or a memo hit.

    An estimator's outcome is (origin in the candidate set, set size), or
    ``_REFUSED`` for a precondition failure; a ``"shell"`` estimator's is
    (its sample is the origin, 1).  A ``"tie_break"`` estimator in a job of
    one or two times keeps a memo from :func:`orbit_key` to the outcome,
    filled by the orbit's first trial; it stores at most ``MEMO_CAP`` orbits,
    and later new orbits are scored unstored.  No Snapshot is built.
    """
    start = time.perf_counter()
    infos = [ESTIMATORS[s.method] for s in config.estimators]
    tallies = [[0, 0] for _ in config.estimators]
    memos = [{} if info.draws == "tie_break" and len(config.times) <= 2 else None
             for info in infos]
    keyed = any(memo is not None for memo in memos)
    protocol = config.protocol
    d = protocol.d
    walkers = {t: walker(protocol, t) for t in set(config.times)}
    # walk i's seed _fold(trial, i) is _splitmix64(trial ^ stream_i); stream_i once per job
    walks = [(walkers[t], t, t // 2, (t + 1) // 2, i * 0x9E3779B97F4A7C15 & _MASK64)
             for i, t in enumerate(config.times)]
    root = derive_seed(config.seed)
    rng = random.Random()
    # rng.seed(int) less its reset of gauss_next, which no draw here reads
    reseed = super(random.Random, rng).seed

    def stream(trial: int, j: int) -> Callable[[], random.Random]:
        """A function returning the generator of estimator j's stream in
        ``trial``, seeded at the first call only."""
        unseeded = [trial]

        def seeded() -> random.Random:
            if unseeded:
                reseed(_fold(unseeded.pop(), ESTIMATOR_STREAM + j))
            return rng

        return seeded

    for n in range(config.trials):
        trial = _fold(root, n)  # derive_seed(seed, n), extended below
        labels = []
        for walk, t, prev, now, walk_stream in walks:
            reseed(_splitmix64(trial ^ walk_stream))
            states = walk(rng)
            labels.append((t, states[prev], states[now]))
        key = orbit_key(labels) if keyed else None
        for j, (info, memo) in enumerate(zip(infos, memos)):
            seeded = stream(trial, j)
            outcome = None if memo is None else memo.get(key)
            if outcome is None:
                try:
                    cands = info.core(d, labels, protocol, lambda: seeded().randrange(2))[0]
                except ValueError:
                    outcome = _REFUSED
                else:
                    outcome = ((cands.sample(seeded()) == SOURCE, 1) if info.draws == "shell"
                               else (cands.contains(SOURCE), cands.size()))
                if memo is not None and len(memo) < MEMO_CAP:
                    memo[key] = outcome
            if outcome is _REFUSED:
                tallies[j][1] += 1
            elif sample_is_origin(*outcome, seeded):
                tallies[j][0] += 1

    results = [
        EstimatorResult(
            method=spec.method,
            successes=successes,
            failures=failures,
            trials=config.trials,
            target=spec.target,
        )
        for spec, (successes, failures) in zip(config.estimators, tallies)
    ]
    return ExperimentReport(
        d=d,
        protocol=config.protocol.name,
        times=config.times,
        trials=config.trials,
        seed=config.seed,
        results=results,
        wall_time_s=time.perf_counter() - start,
    )
