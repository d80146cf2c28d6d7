"""Exhaustive oracle for exact detection probabilities.

Instead of sampling the virtual-source chain, enumerate every reachable
snapshot endpoint pair (vs_{t-1}, vs_t) with its exact probability, run an
estimator's deterministic candidate core on the joint outcomes, and
integrate the uniform tie-break analytically (a candidate set C contributes
[origin in C] / |C|).  With a built-in protocol the sum runs in integers
and ends in one exact Fraction; table protocols fall back to floats.  The
probability of each single outcome is read from the protocol's
single-snapshot law (``Protocol.snapshot_weights``); the oracle only
spreads it over the labels at each hop.  The protocol keeps its hop rows
and their stayed/moved splits, so a protocol reused across calls runs the
hop recurrence once, and a call builds each distinct time's law once.

An outcome's probability depends only on its hop and on whether the virtual
source stayed or moved, and every estimator core is equivariant under
relabelling of child indices.  Snapshots taken at equal times are
independent draws from one law, and every core's candidate sets, as a
multiset, do not depend on their order (the ``EstimatorInfo`` contract).
So the joint sum runs over the orbits of a larger group, the automorphisms
that fix the origin times the permutations of equal-time snapshots: one
canonical joint outcome per orbit, weighted by the orbit's size and reached
by callback.  The orbit count grows polynomially in t, not like
(d-1)^(t/2) per snapshot; the budget still caps the nominal number of joint
outcomes the sum stands for.  Below a child first opened by an outcome every
step is forced, so the walk builds that tail of a label in one step.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, fsum, lcm, prod
from operator import itemgetter
from typing import Sequence

from adl.diffusion import stored_snapshot
from adl.estimators import estimator_for
from adl.protocol import Protocol, walk_horizon
from adl.tree import SOURCE, ball_size, sphere_size

DEFAULT_BUDGET = 10_000_000


def outcome_count(d: int, t: int) -> int:
    """Number of distinct endpoint pairs a time-t snapshot can take: every
    vertex at hop 1..t/2 at even t; at odd t, every ball center and every
    (parent, child) central edge, d per vertex at hop 1..(t-1)/2."""
    if t == 1:
        return d
    inner = ball_size(d, t // 2) - 1
    return inner if t % 2 == 0 else d * inner


def _check_time(t: int) -> None:
    if t < 1:
        raise ValueError(f"observation time must be >= 1, got {t}")


def _law(protocol: Protocol, t: int) -> list:
    """The law of one diffusion observed at time t, as rows (depth, moved,
    probability of each single outcome at that depth).

    An outcome is identified by the label of vs_t; when the virtual source
    moved, vs_{t-1} is that label's parent (at t = 1, the origin).  Each row
    spreads a ``protocol.snapshot_weights`` entry evenly over the d (d-1)^(h-1)
    labels at its depth; at odd t the stayed row at hop h comes before the
    moved row at h + 1.  Rows of probability zero are left out.
    """
    d = protocol.d
    if t == 1:
        return [(1, True, (Fraction(1) if protocol.exact else 1.0) / d)]
    stayed = protocol.snapshot_weights(t, ball=True)
    moved = protocol.snapshot_weights(t, ball=False) if t % 2 else [0] * len(stayed)
    rows = []
    for h, (s, m) in enumerate(zip(stayed, moved), start=1):
        rows += [(h, False, s / sphere_size(d, h)), (h + 1, True, m / sphere_size(d, h + 1))]
    return [row for row in rows if row[2]]


def _orbits(d: int, times: Sequence[int], laws: Sequence[list], visit) -> None:
    """Call ``visit(snaps, weight)`` once per orbit of the origin-fixing
    automorphisms times the permutations of equal-time snapshots, with one
    canonical joint outcome (one Snapshot per time) and the orbit's size
    times the product of its row weights.  Equal times must come with equal
    laws.

    In canonical form, the snapshots at one time pick their law rows in
    non-decreasing row index, in position order; the weight carries the
    number of distinct orderings of that row tuple, (positions)! / prod over
    rows of (positions on the row)!, taken once the last position of the time
    has picked and computed once per row tuple in a call.  Permuting those
    positions maps the outcomes of one ordering one-to-one onto those of
    another, with equal weights and candidate sets.  The children used at
    each vertex across snapshots 1..k are numbered in first-use order.  A
    label is built from the origin down: at a vertex that already uses m
    children it either steps into one of them or opens child m, which has
    n - m images under the automorphisms (n = d at the origin, d - 1
    elsewhere).  No child below an opened one is in use, so every deeper
    step takes child 0, with d - 1 images: the label's whole tail is built
    in one step, and marked in use only while a later position picks.  Each
    Snapshot is built once and shared by every outcome that extends it;
    ``visit`` must not keep ``snaps``.
    """
    k = len(laws)
    used: dict = {}  # vertex -> number of its children in use
    snaps: list = [None] * k
    rows = [0] * k  # the law row each position picked
    same: dict = {}  # time -> its positions, in order
    prev = []  # the position before i with i's time, or None
    for i, t in enumerate(times):
        prev.append(same[t][-1] if t in same else None)
        same.setdefault(t, []).append(i)
    closes: list = [None] * k  # at the last of 2+ positions sharing a time: their rows' getter
    for ps in same.values():
        if len(ps) > 1:
            closes[ps[-1]] = itemgetter(*ps)
    orderings: dict = {}  # row tuple of one time's positions -> its distinct orderings

    def pick(i, weight):
        if i == k:
            visit(snaps, weight)
            return
        start = 0 if prev[i] is None else rows[prev[i]]
        for r in range(start, len(laws[i])):
            depth, moved, p = laws[i][r]
            rows[i] = r
            w = weight * p
            if closes[i]:
                key = closes[i](rows)
                n = orderings.get(key)
                if n is None:
                    runs = Counter(key).values()
                    n = orderings[key] = factorial(len(key)) // prod(map(factorial, runs))
                w *= n
            descend(i, SOURCE, depth, moved, w)

    def descend(i, v, depth, moved, weight):
        if len(v) == depth:
            snaps[i] = stored_snapshot(d, times[i], v[:-1] if moved else v, v)
            pick(i + 1, weight)
            return
        m = used.get(v, 0)
        for c in range(m):
            descend(i, v + (c,), depth, moved, weight)
        n = d - 1 if v else d
        if m == n:
            return
        weight *= n - m
        tail = range(len(v) + 1, depth)  # lengths of the vertices the forced steps leave
        for _ in tail:
            weight *= d - 1
        u = v + (m,) + (0,) * len(tail)
        snaps[i] = stored_snapshot(d, times[i], u[:-1] if moved else u, u)
        if i + 1 == k:  # no later position reads the marks
            visit(snaps, weight)
            return
        used[v] = m + 1
        for j in tail:
            used[u[:j]] = 1
        pick(i + 1, weight)
        for j in tail:
            used[u[:j]] = 0
        used[v] = m

    pick(0, 1)


def exact_success(
    estimator: str,
    protocol: Protocol,
    times: Sequence[int],
    *,
    budget: int = DEFAULT_BUDGET,
):
    """Exact probability that the estimator's pick equals the origin.

    Sums over the orbits of the joint outcomes of the independent diffusions
    under the origin-fixing automorphisms times the permutations of
    equal-time snapshots (see the module docstring); the budget caps the
    number of joint outcomes that sum stands for.  Every source of estimator
    randomness (tie-break, odd-snapshot virtual-source disambiguation) is
    integrated analytically, so the result carries no sampling noise at all:
    an orbit's weight goes to hits[q], q = L |C|, for each of the core's L
    candidate sets C holding the origin, and the result is sum_q hits[q] / q
    over the laws' denominators.
    """
    times = list(times)
    if not times:
        raise ValueError("at least one observation time required")
    info = estimator_for(estimator, len(times), protocol)
    for t in times:
        _check_time(t)
        walk_horizon(protocol, t)

    if prod(outcome_count(protocol.d, t) for t in times) > budget:
        raise ValueError(f"joint enumeration needs more outcomes than the budget of {budget}")

    exact = protocol.exact
    law_of = {t: _law(protocol, t) for t in dict.fromkeys(times)}  # once per distinct time
    den_of: dict = {}
    if exact:  # integer numerators over each law's common denominator
        for t, law in law_of.items():
            den = den_of[t] = lcm(*(p.denominator for _, _, p in law))
            law_of[t] = [(h, moved, p.numerator * (den // p.denominator)) for h, moved, p in law]
    laws = [law_of[t] for t in times]

    hits: dict = {}  # q -> summed weight of the candidate sets with 1/q mass on the origin

    def visit(snaps, weight):
        sets = info.candidates(snaps, protocol)
        for cands in sets:
            if cands.contains(SOURCE):
                q = len(sets) * cands.size()
                hits[q] = hits.get(q, 0) + weight

    _orbits(protocol.d, times, laws, visit)
    if not exact:
        return fsum(w / q for q, w in hits.items())
    scale = lcm(*hits)
    return Fraction(sum(w * (scale // q) for q, w in hits.items()),
                    scale * prod(den_of[t] for t in times))

