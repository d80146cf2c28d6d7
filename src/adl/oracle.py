"""Exhaustive small-instance oracle for exact detection probabilities.

Instead of sampling the virtual-source chain, enumerate every reachable
snapshot endpoint pair (vs_{t-1}, vs_t) with its exact probability, run an
estimator's deterministic candidate core on every joint combination, and
integrate the uniform tie-break analytically (a candidate set C contributes
[origin in C] / |C|).  With a built-in protocol everything is a Fraction, so
identities can be certified exactly; table protocols fall back to floats.

Outcome counts grow like (d-1)^(t/2) per snapshot, so this is a desk-scale
instrument; joint enumerations are capped by an outcome budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence, Union

from adl.diffusion import Snapshot
from adl.estimators import estimator_for
from adl.protocol import Protocol, even_floor, hop_distribution, hop_horizon
from adl.tree import SOURCE, labels_at_depth, sphere_size

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class WeightedOutcome:
    """One reachable (vs_{t-1}, vs_t) endpoint pair and its probability."""

    vs_prev: tuple
    vs_now: tuple
    prob: Union[Fraction, float]


def outcome_count(d: int, t: int) -> int:
    """Number of distinct endpoint pairs a time-t snapshot can take."""
    if t == 1:
        return d
    if t % 2 == 0:
        return sum(sphere_size(d, h) for h in range(1, t // 2 + 1))
    # odd: every ball center, plus every (parent, child) central edge
    return sum(sphere_size(d, h) * d for h in range(1, (t - 1) // 2 + 1))


def enumerate_single(
    protocol: Protocol, t: int, budget: int = DEFAULT_BUDGET
) -> list[WeightedOutcome]:
    """All endpoint pairs of one diffusion observed at time t, with exact
    probabilities (Fractions for built-in protocols).

    Distinct move timings that land on the same pair are merged: the pair
    determines the geometry, and its mass is p(t, h) split evenly over the
    d (d-1)^(h-1) positions at hop h (times the move/stay factor at odd t).
    """
    if t < 1:
        raise ValueError(f"observation time must be >= 1, got {t}")
    n = outcome_count(protocol.d, t)
    if n > budget:
        raise ValueError(f"enumeration needs {n} outcomes, over the budget of {budget}")
    d = protocol.d
    exact = protocol.exact
    one = Fraction(1) if exact else 1.0

    if t == 1:
        return [
            WeightedOutcome(SOURCE, (i,), one / d) for i in range(d)
        ]

    t_eff = even_floor(t)
    hop = hop_distribution(protocol, t_eff, exact=exact)
    p = hop.p_exact if exact else hop.p
    out: list[WeightedOutcome] = []
    if t % 2 == 0:
        for h in hop.support(t):
            per_vertex = p(t, h) / sphere_size(d, h)
            if per_vertex:
                out.extend(WeightedOutcome(v, v, per_vertex) for v in labels_at_depth(d, h))
        return out
    a = protocol.alpha_exact if exact else protocol.alpha
    for h in hop.support(t_eff):
        stay = p(t_eff, h) * a(t_eff, h) / sphere_size(d, h)
        move = p(t_eff, h) * (one - a(t_eff, h)) / (sphere_size(d, h) * (d - 1))
        for v in labels_at_depth(d, h):
            if stay:
                out.append(WeightedOutcome(v, v, stay))
            if move:
                out.extend(
                    WeightedOutcome(v, v + (j,), move) for j in range(d - 1)
                )
    return out


def _success_fraction(info, snaps, hop, protocol, exact):
    """P(chosen = origin | these snapshots), with the tie-break and the
    estimator's virtual-source draws integrated out."""

    def hit(cands):
        if not cands.contains(SOURCE):
            return Fraction(0) if exact else 0.0
        return Fraction(1, cands.size()) if exact else 1.0 / cands.size()

    sets = info.candidates(snaps, hop, protocol)
    if len(sets) == 1:  # no virtual-source draw to average over
        return hit(sets[0])
    w = Fraction(1, len(sets)) if exact else 1.0 / len(sets)
    total = Fraction(0) if exact else 0.0
    for cands in sets:
        total += w * hit(cands)
    return total


def exact_success(
    estimator: str,
    protocol: Protocol,
    times: Sequence[int],
    *,
    budget: int = DEFAULT_BUDGET,
):
    """Exact probability that the estimator's pick equals the origin.

    Sums over the full joint enumeration of the independent diffusions;
    every source of estimator randomness (tie-break, odd-snapshot
    virtual-source disambiguation) is integrated analytically, so the result
    carries no sampling noise at all.
    """
    times = list(times)
    if not times:
        raise ValueError("at least one observation time required")
    info = estimator_for(estimator, len(times), protocol)

    combos = prod(outcome_count(protocol.d, t) for t in times)
    if combos > budget:
        raise ValueError(f"joint enumeration needs {combos} outcomes, over the budget of {budget}")

    exact = protocol.exact
    # Snapshots are built once per single outcome and shared across joint combinations
    singles = [
        [
            (Snapshot(d=protocol.d, t=t, vs_prev=o.vs_prev, vs_now=o.vs_now), o.prob)
            for o in enumerate_single(protocol, t, budget)
        ]
        for t in times
    ]
    hop = hop_distribution(protocol, hop_horizon(times), exact=exact) if info.needs_hop else None

    total = Fraction(0) if exact else 0.0
    for combo in itertools.product(*singles):
        snaps = [s for s, _ in combo]
        weight = prod(p for _, p in combo)
        total += weight * _success_fraction(info, snaps, hop, protocol, exact)
    return total


def total_mass(outcomes: Sequence[WeightedOutcome]):
    return sum(o.prob for o in outcomes)


def outcomes_to_csv(outcomes: Sequence[WeightedOutcome]) -> str:
    """Debug dump: ``vs_prev,vs_now,prob`` rows."""
    from adl.tree import format_label

    lines = ["vs_prev,vs_now,prob"]
    for o in outcomes:
        lines.append(f"{format_label(o.vs_prev)},{format_label(o.vs_now)},{o.prob}")
    return "\n".join(lines) + "\n"
