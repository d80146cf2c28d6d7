"""Registry of closed-form detection probabilities, bounds, and identities.

Every value the Monte Carlo harness or the exhaustive oracle is checked
against lives here as a pure formula, evaluated in exact rational arithmetic
wherever the expression is rational (float only for exp/log/power terms).
Probability targets are clipped to [0, 1]; a clipped bound is flagged
``vacuous`` since it constrains nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from adl.protocol import gamma_fraction, infected_count_even
from adl.tree import check_degree

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class Target:
    """A reference value with its direction (exact / lower / upper bound)."""

    kind: str  # "exact" | "lower_bound" | "upper_bound"
    value: float
    provenance: str
    exact_value: Optional[Fraction] = None  # set when the formula is rational
    is_probability: bool = True
    vacuous: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "lower_bound", "upper_bound"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.is_probability and not 0.0 <= self.value <= 1.0:
            raise ValueError(f"probability target out of range: {self.value}")


def _prob_target(kind: str, raw: Number, provenance: str) -> Target:
    """Clip a probability target into [0, 1], flagging vacuous bounds."""
    x = float(raw)
    clipped = min(1.0, max(0.0, x))
    return Target(
        kind=kind,
        value=clipped,
        provenance=provenance,
        exact_value=Fraction(raw) if isinstance(raw, (int, Fraction)) else None,
        vacuous=clipped != x,
    )


def two_obs_detection_lower(d: int, t1: int, t2: int) -> Target:
    """Protocol-agnostic success floor of the two-snapshot path estimator:
    (d-1)/d * 2/min(t1, t2)."""
    check_degree(d)
    if min(t1, t2) < 2:
        raise ValueError("requires t1, t2 >= 2")
    raw = Fraction(d - 1, d) * Fraction(2, min(t1, t2))
    return _prob_target("lower_bound", raw, f"(d-1)/d * 2/min(t1,t2) at d={d}, t=({t1},{t2})")


def two_obs_obfuscation_upper(d: int, t1: int, t2: int) -> Target:
    """Success ceiling of the best two-snapshot obfuscator:
    (d-1)/d * 7/min(t1, t2)."""
    check_degree(d)
    if min(t1, t2) < 1:
        raise ValueError("requires t1, t2 >= 1")
    raw = Fraction(d - 1, d) * Fraction(7, min(t1, t2))
    return _prob_target("upper_bound", raw, f"(d-1)/d * 7/min(t1,t2) at d={d}, t=({t1},{t2})")


def even_even_mle_split_part(d: int, t1: int, t2: int) -> Fraction:
    """Conditional success given the two first steps differ:
    (2 t1 + 2 t2 - 4) / (t1 t2)."""
    return Fraction(2 * t1 + 2 * t2 - 4, t1 * t2)


def even_even_mle_coincide_part(d: int, t1: int, t2: int) -> Fraction:
    """Conditional success given the first steps coincide:
    4/(t1 t2) * (1/d + 1/(d-1))."""
    return Fraction(4, t1 * t2) * (Fraction(1, d) + Fraction(1, d - 1))


def even_even_mle_exact(d: int, t1: int, t2: int) -> Target:
    """Exact success probability of the uniform-protocol MLE, both times even:
    (d-1)/d * split_part + 1/d * coincide_part."""
    check_degree(d)
    if t1 % 2 or t2 % 2 or min(t1, t2) < 4:
        raise ValueError("requires even t1, t2 >= 4")
    raw = Fraction(d - 1, d) * even_even_mle_split_part(d, t1, t2) + Fraction(
        1, d
    ) * even_even_mle_coincide_part(d, t1, t2)
    return _prob_target("exact", raw, f"uniform two-snapshot MLE, even-even, d={d}, t=({t1},{t2})")


def even_odd_mle_exact(d: int, t_even: int, t_odd: int) -> Target:
    """Exact success probability of the uniform-protocol MLE, one even and one
    odd time:

    (d-1)/d * (2/te + 4/(to+1) - 8/(te (to+1)))
      + 1/d * 4/(te (to+1)) * (1/d + 1/(d-1) + 6/((to-1)(d-1))).
    """
    check_degree(d)
    if t_even % 2 or t_even < 4:
        raise ValueError("requires even t_even >= 4")
    if t_odd % 2 == 0 or t_odd < 5:
        raise ValueError("requires odd t_odd >= 5")
    te, to = t_even, t_odd
    split = Fraction(2, te) + Fraction(4, to + 1) - Fraction(8, te * (to + 1))
    coincide = Fraction(4, te * (to + 1)) * (
        Fraction(1, d) + Fraction(1, d - 1) + Fraction(6, (to - 1) * (d - 1))
    )
    raw = Fraction(d - 1, d) * split + Fraction(1, d) * coincide
    return _prob_target("exact", raw, f"uniform two-snapshot MLE, even-odd, d={d}, t=({te},{to})")


def odd_odd_mle_upper(d: int, t1: int, t2: int) -> Target:
    """Upper bound for the uniform-protocol MLE, both times odd:
    (d-1)/d * (6 + 2/3) / (min(t1, t2) + 1)."""
    check_degree(d)
    if t1 % 2 == 0 or t2 % 2 == 0 or min(t1, t2) < 5:
        raise ValueError("requires odd t1, t2 >= 5")
    raw = Fraction(d - 1, d) * Fraction(20, 3) / (min(t1, t2) + 1)
    return _prob_target(
        "upper_bound", raw, f"uniform two-snapshot MLE cap, odd-odd, d={d}, t=({t1},{t2})"
    )


def three_obs_lower(d: int) -> Target:
    """Protocol-agnostic floor of the three-path intersection estimator:
    (d-1)(d-2)/d^2 (the three first steps all differ)."""
    check_degree(d)
    raw = Fraction((d - 1) * (d - 2), d * d)
    return _prob_target("lower_bound", raw, f"(d-1)(d-2)/d^2 at d={d}")


def multi_obs_lower(d: int, k: int) -> Target:
    """Protocol-agnostic floor of the k-snapshot subtree-count estimator:
    1 - d exp(-(d-2)^2 k / (2 d^2))."""
    check_degree(d)
    if k < 1:
        raise ValueError("requires k >= 1")
    raw = 1.0 - d * math.exp(-((d - 2) ** 2) * k / (2.0 * d * d))
    return _prob_target(
        "lower_bound", raw, f"1 - d*exp(-(d-2)^2 k/(2 d^2)) at d={d}, k={k}"
    )


def radius_upper_from_obfuscation(d: int, t: int, gamma: float, C: float) -> Target:
    """If the single-snapshot MLE succeeds with probability <= C / N_t^gamma,
    the mean fully-infected radius obeys
    E[R_t] <= (1 - gamma) t/2 + log(C t)/log(d-1) + 2."""
    check_degree(d)
    if t < 2 or t % 2:
        raise ValueError("requires even t >= 2")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if C <= 0:
        raise ValueError("C must be positive")
    value = (1 - gamma) * t / 2 + math.log(C * t) / math.log(d - 1) + 2
    return Target(
        kind="upper_bound",
        value=value,
        provenance=f"(1-gamma)t/2 + log(C t)/log(d-1) + 2 at d={d}, t={t}, gamma={gamma}, C={C}",
        is_probability=False,
    )


def local_protocol_targets(d: int, t: int, gamma: float) -> tuple[Target, Target]:
    """Guarantees of the gamma local-spreading protocol at even t: a bound on
    E[R_t] (equality t/2 - 1 while t <= 2/gamma, floor (1-gamma) t/2 after)
    and the MLE success ceiling 2(d-1)/N_t^gamma."""
    check_degree(d)
    if t < 2 or t % 2:
        raise ValueError("requires even t >= 2")
    g = gamma_fraction(gamma)
    if t * g <= 2:
        radius = Target(
            kind="exact",
            value=t / 2 - 1,
            provenance=f"E[R_t] = t/2 - 1 while t <= 2/gamma (t={t}, gamma={gamma})",
            exact_value=Fraction(t, 2) - 1,
            is_probability=False,
        )
    else:
        radius = Target(
            kind="lower_bound",
            value=float((1 - g) * t / 2),
            provenance=f"E[R_t] >= (1-gamma) t/2 (t={t}, gamma={gamma})",
            exact_value=(1 - g) * Fraction(t, 2),
            is_probability=False,
        )
    n_t = infected_count_even(d, t)
    mle = _prob_target(
        "upper_bound",
        2 * (d - 1) / n_t ** float(g),
        f"2(d-1)/N_t^gamma at d={d}, t={t}, gamma={gamma}",
    )
    return radius, mle


def path_fraction_sum(s: int, t: int) -> Fraction:
    """sum_(j=1..s) sum_(l=1..t) 1/(1 + min(j-1, t-l) + min(l-1, s-j)).

    Collapses to s + t - 1 for every 1 <= s <= t; the double loop is kept as
    the independent check of that identity.
    """
    if not 1 <= s <= t:
        raise ValueError("requires 1 <= s <= t")
    total = Fraction(0)
    for j in range(1, s + 1):
        for el in range(1, t + 1):
            total += Fraction(1, 1 + min(j - 1, t - el) + min(el - 1, s - j))
    return total
