"""Source-detection estimators over infected-set snapshots.

Every estimator consumes snapshots (and, for likelihood-based ones, the
protocol, whose ``snapshot_weights`` give the single-snapshot law they
score) and produces an :class:`Estimate`: the full argmax/candidate set plus
one uniformly chosen representative.  Estimators never see the true origin;
they interact with vertices only through tree operations, so their output
distribution is invariant under relabelling of child indices.

Tie-breaking policy: uniform at random over the candidate set, always, with
the caller-supplied RNG.  The two underspecified corners (empty path set in
the two-snapshot estimator, ill-defined minimum in the subtree-count
estimator) follow the same policy and flag themselves in diagnostics.

Each public estimator has a deterministic ``*_candidates`` core (used by the
exhaustive oracle, which integrates the tie-break analytically instead of
sampling it).  The three-snapshot path intersection has none of its own: on
a tree the meet of the three pairwise paths is the median, the k-snapshot
subtree-count core's unique winner at k = 3, so it runs that core.  No
estimator takes a tuning parameter: the likelihood-based ones score their
whole feasible set, so each returns the true argmax.

The path-based two-snapshot cores (``two_obs_path`` and the path cases of
``uniform_mle_cases``) read the feasible path by position.  With (a, b) the
closest pair of virtual sources, a from the first snapshot and b from the
second, and L = distance(a, b), the vertex i steps from a lies exactly i from
the first virtual-source set and L - i from the second, so the path interior
infected in both snapshots is the window
max(1, L - floor(t2/2)) <= i <= min(L - 1, floor(t1/2)), and no virtual
source lies inside it.  No vertex is tested for membership.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import sub
from typing import Callable, Optional, Sequence, Union

from adl.diffusion import Snapshot
from adl.protocol import Protocol
from adl.tree import (
    Label,
    bfs_depths,
    distance,
    format_label,
    lcp_len,
    neighbors,
    steiner_tree,
)

_REL_TOL = 1e-12  # float-mode tie grouping for log-likelihood comparisons


# ---------------------------------------------------------------------------
# candidate sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitCandidates:
    """A small, fully enumerated candidate set."""

    members: frozenset

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("candidate set must be nonempty")

    def size(self) -> int:
        return len(self.members)

    def contains(self, v: Label) -> bool:
        return v in self.members

    def sample(self, rng: random.Random) -> Label:
        ordered = sorted(self.members)
        return ordered[rng.randrange(len(ordered))]


def sample_is_origin(origin_in: bool, size: int, seeded: Callable[[], random.Random]) -> bool:
    """Whether :meth:`ExplicitCandidates.sample` returns the origin from a
    set of ``size`` members that holds it iff ``origin_in``, drawing from the
    generator ``seeded()`` returns.

    The origin ``()`` sorts before every other label, so ``sample`` returns
    it exactly when its ``randrange(size)`` draw is 0.  ``seeded`` is called
    only when that draw decides: the origin is in the set and is not alone.
    """
    if not origin_in:
        return False
    return size == 1 or seeded().randrange(size) == 0


@dataclass(frozen=True)
class ShellCandidates:
    """Union of equal-score distance shells around a center or a center edge.

    A shell at radius r holds every vertex whose distance to the center set
    is exactly r: d(d-1)^(r-1) vertices around a single center, 2(d-1)^r
    around an adjacent pair.  Used where the candidate set is exponentially
    large (single-snapshot MLE), so membership stays symbolic.
    """

    d: int
    centers: tuple  # one label, or two adjacent labels
    radii: tuple  # strictly increasing radii >= 1

    def _shell_size(self, r: int) -> int:
        if len(self.centers) == 1:
            return self.d * (self.d - 1) ** (r - 1)
        return 2 * (self.d - 1) ** r

    def size(self) -> int:
        return sum(self._shell_size(r) for r in self.radii)

    def _set_distance(self, v: Label) -> int:
        return min(distance(v, c) for c in self.centers)

    def contains(self, v: Label) -> bool:
        return self._set_distance(v) in self.radii

    def sample(self, rng: random.Random) -> Label:
        # shell proportional to its size, then an outward non-backtracking walk
        total = self.size()
        pick = rng.randrange(total)
        for r in self.radii:
            s = self._shell_size(r)
            if pick < s:
                break
            pick -= s
        if len(self.centers) == 1:
            prev, cur = self.centers[0], None
            options = neighbors(self.d, prev)
        else:
            a, b = self.centers
            prev = a if rng.randrange(2) == 0 else b
            other = b if prev == a else a
            options = [w for w in neighbors(self.d, prev) if w != other]
        cur = options[rng.randrange(len(options))]
        for _ in range(r - 1):
            options = [w for w in neighbors(self.d, cur) if w != prev]
            prev, cur = cur, options[rng.randrange(len(options))]
        return cur


Candidates = Union[ExplicitCandidates, ShellCandidates]


@dataclass(frozen=True)
class Estimate:
    """Candidate set, the uniformly chosen representative, and diagnostics."""

    method: str
    chosen: Label
    candidates: Candidates
    diagnostics: dict = field(default_factory=dict)

    def tie_count(self) -> int:
        return self.candidates.size()

    def to_json(self) -> str:
        return json.dumps(
            {
                "method": self.method,
                "chosen": format_label(self.chosen),
                "ties": self.tie_count(),
                "diagnostics": self.diagnostics,
            }
        )


def _finish(method: str, cands: Candidates, diagnostics: dict, rng: random.Random) -> Estimate:
    return Estimate(
        method=method, chosen=cands.sample(rng), candidates=cands, diagnostics=diagnostics
    )


def _check_common(snaps: Sequence[Snapshot]) -> int:
    """The snapshots' degree, which every entry point has checked they share."""
    if not snaps:
        raise ValueError("at least one snapshot required")
    for s in snaps:
        if s.t < 2:
            raise ValueError("estimators require observation times t >= 2")
    return snaps[0].d


def _resolve_vs(s: Snapshot, rng: random.Random) -> Label:
    """One virtual source per snapshot; uniform over the pair at odd non-ball."""
    vs = s.virtual_sources()
    return vs[0] if len(vs) == 1 else vs[rng.randrange(2)]


# ---------------------------------------------------------------------------
# single-snapshot maximum likelihood
# ---------------------------------------------------------------------------


def _hop_scores(s: Snapshot, protocol: Protocol) -> list:
    """Per-hop likelihood row of one snapshot: entry x - 1 scores each
    vertex at hop x from the virtual-source set.

    weight(x) is entry x - 1 of ``protocol.snapshot_weights``, the
    single-snapshot law.  Exact: integers proportional to
    weight(x) / (d (d-1)^(x-1)), all scaled by the lcm of their
    denominators, so products of rows order and tie exactly as the rational
    products do.  Float: log weight(x) - (x-1) log(d-1), None where
    weight(x) <= 0.  A row depends only on (t, ball), so it is built once
    and kept on the protocol.  The snapshot is on the protocol's tree, as
    every entry point checks.
    """
    key = (s.t, s.is_ball)
    row = protocol._scores.get(key)
    if row is None:
        d = protocol.d
        weights = protocol.snapshot_weights(s.t, s.is_ball)
        if protocol.exact:
            scores = [Fraction(w, d * (d - 1) ** h) for h, w in enumerate(weights)]
            scale = math.lcm(*(sc.denominator for sc in scores))
            row = [sc.numerator * (scale // sc.denominator) for sc in scores]
        else:
            row = [
                None if w <= 0.0 else math.log(w) - h * math.log(d - 1)
                for h, w in enumerate(weights)
            ]
        protocol._scores[key] = row
    return row


def single_mle_candidates(s: Snapshot, protocol: Protocol) -> tuple[Candidates, dict]:
    """Hops h (1-based) maximizing weight(h) / (d (d-1)^(h-1)), as shells."""
    d = _check_common([s])
    if protocol.exact:
        scores = _hop_scores(s, protocol)
        best = max(scores)
        h_star = [h + 1 for h, sc in enumerate(scores) if sc == best]
    else:
        weights = protocol.snapshot_weights(s.t, s.is_ball)
        scores = [w / (d * (d - 1) ** h) for h, w in enumerate(weights)]
        best = max(scores)
        h_star = [
            h + 1
            for h, sc in enumerate(scores)
            if math.isclose(sc, best, rel_tol=_REL_TOL, abs_tol=0.0)
        ]
    if best <= 0:
        raise ValueError("all hop likelihoods are zero for this snapshot")
    cands = ShellCandidates(d=d, centers=s.virtual_sources(), radii=tuple(h_star))
    diagnostics = {"h_star": h_star, "ball": s.is_ball, "candidate_count": cands.size()}
    if s.t % 2 == 0:
        diagnostics["success_probability"] = float(protocol.mle_success_probability(s.t))
    return cands, diagnostics


def single_mle(s: Snapshot, protocol: Protocol, rng: random.Random) -> Estimate:
    """Likelihood argmax for one snapshot.

    The likelihood of a non-excluded vertex depends only on its hop distance
    X(v) to the virtual-source set, so the argmax is taken over hops and the
    candidate set is the union of the maximizing distance shells; the
    representative is sampled by walking a uniform outward path.  At even t
    the diagnostics carry the exact success probability
    max_h p(t, h) / (d (d-1)^(h-1)).
    """
    cands, diagnostics = single_mle_candidates(s, protocol)
    return _finish("single_mle", cands, diagnostics, rng)


# ---------------------------------------------------------------------------
# two snapshots: path estimator
# ---------------------------------------------------------------------------


def _closest_pair(set1: Sequence[Label], set2: Sequence[Label]) -> tuple:
    """(distance, x, y) for the closest x in set1 and y in set2; equal
    distances go to the smaller labels."""
    return min((distance(x, y), x, y) for x in set1 for y in set2)


def _nbrs_minus(d: int, centers: Sequence[Label], minus: Sequence[Label] = ()) -> frozenset:
    """The neighbours of ``centers`` that are neither centers nor in ``minus``."""
    out = {w for c in centers for w in neighbors(d, c)}
    return frozenset(out - set(minus) - set(centers))


def _path_window(a: Label, b: Label, ra: int, rb: int) -> tuple[int, list]:
    """The interior vertices of the a-b path within ``ra`` of a and ``rb`` of
    b, in a-to-b order, with the position (distance from a) of the first.

    The vertex i steps from a is a[:len(a) - i] up to the meet and
    b[:len(b) - (L - i)] below it, L = distance(a, b), so the window
    max(1, L - rb) <= i <= min(L - 1, ra) is sliced off.  For the closest
    pair of two snapshots' virtual sources and their radii it is the path
    interior infected in both: the other end of a moved snapshot hangs off
    a (or b) away from the path, or the pair would not be closest.
    """
    k = lcp_len(a, b)
    up = len(a) - k  # the meet's position
    length = up + len(b) - k
    lo, hi = max(1, length - rb), min(length - 1, ra)
    below = len(b) - length
    return lo, [a[: len(a) - i] if i <= up else b[: below + i] for i in range(lo, hi + 1)]


def two_obs_path_candidates(s1: Snapshot, s2: Snapshot) -> tuple[Candidates, dict]:
    d = _check_common([s1, s2])
    vs1, vs2 = s1.virtual_sources(), s2.virtual_sources()
    _, x, y = _closest_pair(vs1, vs2)
    _, s_set = _path_window(x, y, s1.radius, s2.radius)
    if s_set:
        return ExplicitCandidates(frozenset(s_set)), {"S_size": len(s_set), "fallback": False}
    # the connecting path has no interior (virtual sources coincide or touch):
    # fall back to a uniform pick among the fringe of the known virtual sources
    return ExplicitCandidates(_nbrs_minus(d, vs1 + vs2)), {"S_size": 0, "fallback": True}


def two_obs_path(s1: Snapshot, s2: Snapshot, rng: random.Random) -> Estimate:
    """Uniform pick from S = (path between the virtual-source sets, interior
    only) intersected with both infected sets.

    S is the closest-pair window: the interior vertices i steps from the
    first snapshot's nearer virtual source with
    max(1, L - floor(t2/2)) <= i <= min(L - 1, floor(t1/2)).  When S is empty
    the pick falls back to the fringe of the virtual sources.
    """
    cands, diagnostics = two_obs_path_candidates(s1, s2)
    return _finish("two_obs_path", cands, diagnostics, rng)


# ---------------------------------------------------------------------------
# k snapshots: subtree-count minimax (the median at k = 3)
# ---------------------------------------------------------------------------


def k_obs_candidates(d: int, resolved: Sequence[Label]) -> tuple[Candidates, dict]:
    """argmin_v max_(w ~ v) #(virtual sources in the subtree behind w).

    The minimax subtree count is a weighted tree centroid (Shah and Zaman,
    "Rumors in a Network: Who's the Culprit?", 2011).  From the top of the
    virtual sources' spanning subtree, step into a child holding more than
    k/2 of them while there is one.  Where this stops, at c, no child holds
    more than k/2 and the side above holds less, so c scores at most k/2,
    while any other vertex has at least k/2 behind its neighbour toward c.
    So c wins, alone unless it scores exactly k/2.  Then v ties when all k/2
    virtual sources of a branch of c lie behind v: each child of c holding
    k/2, and the path down from it through vertices that are not virtual
    sources and have one child in the spanning subtree.

    In sorted order a subtree's labels are one run, from its root up to the
    next sibling, so a count is two bisections.  A child holding more than
    k/2 holds the sorted median, so each step tests that one child; where
    the descent stops, the runs of c's children give its score and the tie
    children.  The spanning subtree comes from one :func:`steiner_tree`
    call, whose span the benchmark self-test counts; the tie path walks its
    children.  A virtual source at v is in no subtree of v, so at k = 1 it
    wins with score 0.  The labels, at least one, are taken as given.
    """
    k = len(resolved)
    domain = steiner_tree(d, resolved)
    terms = sorted(resolved)
    median = terms[k // 2]
    c = terms[0][: lcp_len(terms[0], terms[-1])]  # the Steiner top
    lo, hi = 0, k  # c's subtree is terms[lo:hi]
    while len(median) > len(c):
        j = median[len(c)]
        a = bisect_left(terms, c + (j,), lo, hi)
        b = bisect_left(terms, c + (j + 1,), a, hi)
        if 2 * (b - a) <= k:
            break
        c, lo, hi = c + (j,), a, b
    n = len(c)
    runs = []  # (child of c, the virtual sources behind it), in child order
    a = bisect_left(terms, c + (0,), lo, hi)  # past the virtual sources at c
    while a < hi:
        j = terms[a][n]
        b = bisect_left(terms, c + (j + 1,), a, hi)
        runs.append((j, b - a))
        a = b
    best = max([k - (hi - lo)] + [count for _, count in runs])
    ties = {c}
    if 2 * best == k:  # then best is a child's count, not the side above c
        sources = set(terms[lo:hi])
        for w in [c + (j,) for j, count in runs if count == best]:
            ties.add(w)
            while w not in sources:
                below = [w + (j,) for j in range(d - 1) if w + (j,) in domain]
                if len(below) != 1:
                    break
                w = below[0]
                ties.add(w)
    diagnostics = {"k": k, "min_max_subtree_count": best, "well_defined": len(ties) == 1}
    return ExplicitCandidates(frozenset(ties)), diagnostics


def k_obs_subtree(snaps: Sequence[Snapshot], rng: random.Random) -> Estimate:
    d = _check_common(snaps)
    resolved = [_resolve_vs(s, rng) for s in snaps]
    cands, diagnostics = k_obs_candidates(d, resolved)
    return _finish("k_obs_subtree", cands, diagnostics, rng)


def three_obs_intersection(
    s1: Snapshot, s2: Snapshot, s3: Snapshot, rng: random.Random
) -> Estimate:
    """The paper's three-snapshot estimator: the meet of the three pairwise
    virtual-source paths.

    On a tree that meet is the median of the three virtual sources, which is
    the unique minimax-subtree vertex at k = 3, so this is
    :func:`k_obs_subtree` on three snapshots, reported under its own name.
    Odd non-ball snapshots contribute a uniformly chosen element of their
    virtual-source pair.
    """
    return replace(k_obs_subtree([s1, s2, s3], rng), method="three_obs_intersection")


# ---------------------------------------------------------------------------
# generic multi-snapshot maximum likelihood
# ---------------------------------------------------------------------------


def generic_mle_candidates(
    snaps: Sequence[Snapshot], protocol: Protocol
) -> tuple[Candidates, dict]:
    d = _check_common(snaps)
    exact = protocol.exact

    # The core, the Steiner tree of the virtual sources, is every prefix of
    # a virtual source at least as long as their common prefix.  Each core
    # vertex u[:l] is visited once, on the first terminal u it is a prefix
    # of, and everything about it comes from prefix lengths.
    terms = sorted({v for s in snaps for v in s.virtual_sources()})
    n = len(terms)
    index = {v: j for j, v in enumerate(terms)}
    lens = [len(v) for v in terms]
    lcps = [lens[:] for _ in terms]  # lcp(u, u) = len(u), and the table is symmetric
    for i, j in itertools.combinations(range(n), 2):
        lcps[i][j] = lcps[j][i] = lcp_len(terms[i], terms[j])
    top = lcps[0][-1]
    ends = [(index[s.vs_prev], index[s.vs_now]) for s in snaps]  # one index twice for a ball
    rows = [_hop_scores(s, protocol) for s in snaps]
    sizes = [len(row) for row in rows]

    # A vertex at outward depth r from core vertex c has hop vector x(c) + r,
    # so each piece (c, r) has one likelihood, scored where it is found, and
    # no feasible vertex lies deeper than the smallest slack
    # floor(t_i/2) - x_i(c): the search over pieces is exhaustive.
    best = 1 if exact else -math.inf  # a nonzero exact score is an integer >= 1
    kept = []  # (score, terminal, level, depth) of each piece scoring at least the best so far
    feasible = 0
    for i, u in enumerate(terms):
        lcp_u = lcps[i]
        span = range(max(top, lcp_u[i - 1] + 1) if i else top, lens[i] + 1)
        # u[:l] lies |l - a| + len(v) - a from terminal v, with a = lcp(u, v),
        # and x_i is the distance to the nearer end of snapshot i
        both = [(lcp_u[p], lens[p] - lcp_u[p], lcp_u[q], lens[q] - lcp_u[q]) for p, q in ends]
        # the terminals below u[:l] follow u in sorted order; terminal m starts
        # a new child of u[:l] when lcp(u, m) = l = lcp(m - 1, m)
        splits = [lcp_u[m] for m in range(i + 1, n) if lcp_u[m] == lcps[m - 1][m]]
        for ell in span:
            x = [min(abs(ell - a) + e, abs(ell - b) + f) for a, e, b, f in both]
            last = min(map(sub, sizes, x))
            low = 0 if min(x) > 0 else 1  # a virtual source is no candidate
            if last < low:
                continue
            free = d - (ell > top) - (ell < lens[i]) - splits.count(ell)  # off-core neighbours
            if not free:  # nothing hangs off c: only c itself can be a candidate
                if low:
                    continue
                last = 0
            feasible += 1 - low + free * ((d - 1) ** last - 1) // (d - 2)
            for r in range(low, last + 1):
                if exact:
                    score = 1
                    for row, xi in zip(rows, x):
                        score *= row[xi + r - 1]
                    if score >= best:
                        kept.append((score, i, ell, r))
                        best = score
                else:
                    piece = [row[xi + r - 1] for row, xi in zip(rows, x)]
                    if None in piece:
                        continue
                    score = 0.0
                    for term in piece:  # left to right, as every Python version adds
                        score += term
                    if score >= best or math.isclose(score, best, rel_tol=_REL_TOL, abs_tol=1e-300):
                        kept.append((score, i, ell, r))
                        best = max(best, score)

    if exact:
        win = [p for p in kept if p[0] == best]
    else:
        win = [p for p in kept if math.isclose(p[0], best, rel_tol=_REL_TOL, abs_tol=1e-300)]

    diagnostics = {"feasible_count": feasible, "exact": exact, "fallback": not win}
    if not win:
        # no vertex has positive likelihood: a uniform pick among the fringe
        # of the first virtual source
        first = snaps[0].virtual_sources()[0]
        return ExplicitCandidates(_nbrs_minus(d, [first], terms)), diagnostics
    ties = []
    for _, i, ell, r in win:
        c = terms[i][:ell]
        if r == 0:
            ties.append(c)
            continue
        # leave the core at the first step, then walk outward without
        # stepping back
        on_core = {v[ell] for v, a in zip(terms, lcps[i]) if a >= ell < len(v)}
        layer = [(c, c + (j,)) for j in range(d - 1 if c else d) if j not in on_core]
        if c and len(c) == top:
            layer.append((c, c[:-1]))
        for _ in range(r - 1):
            layer = [(v, w) for prev, v in layer for w in neighbors(d, v) if w != prev]
        ties.extend(v for _, v in layer)
    return ExplicitCandidates(frozenset(ties)), diagnostics


def generic_mle(snaps: Sequence[Snapshot], protocol: Protocol, rng: random.Random) -> Estimate:
    """Joint likelihood argmax over every vertex infected in all snapshots,
    minus every virtual source.

    A vertex's likelihood depends only on its hop vector, the distances to
    each snapshot's virtual sources.  Off the Steiner core of the virtual
    sources that vector is the attaching core vertex's vector plus the
    outward depth, so the scoring runs over (core vertex, depth) pieces and
    covers the whole feasible intersection.  The core is never built: one
    walk over the sorted virtual sources visits each core vertex once, reads
    its hop vector from a table of common-prefix lengths and counts its
    children on the core from the lengths of adjacent sources.  Each piece
    is scored where it is found against a running best; only pieces at
    least that good are kept, and only the final winners are listed.
    Candidates with a zero hop probability are excluded (log 0 = -inf).  For
    the built-in protocols likelihoods are compared as exact rationals
    (integer products); for table protocols a float log-likelihood, its
    terms added left to right, with relative tie tolerance is used.

    In float mode a piece is also kept when it is close to the running best,
    and the kept pieces are filtered once against the final best B.  No tie
    is lost: every score is <= 0 (each term is log w - h log(d-1), w <= 1),
    so a piece p below the running best b <= B has |p| >= |b| >= |B| and
    |p - b| <= |p - B|: if p is close to B, it is close to b.
    """
    cands, diagnostics = generic_mle_candidates(snaps, protocol)
    return _finish("generic_mle", cands, diagnostics, rng)


# ---------------------------------------------------------------------------
# uniform-protocol two-snapshot MLE, closed-form case dispatch
# ---------------------------------------------------------------------------


def _argmax(vertices: list, scores: list) -> frozenset:
    best = max(scores, default=None)
    return frozenset(v for v, sc in zip(vertices, scores) if sc == best)


def uniform_mle_cases_candidates(s1: Snapshot, s2: Snapshot) -> tuple[Candidates, dict]:
    d = _check_common([s1, s2])
    for s in (s1, s2):
        low = 4 if s.t % 2 == 0 else 5
        if s.t < low:
            raise ValueError(
                f"case dispatch needs t >= {low} at {'even' if low == 4 else 'odd'} times, got t={s.t}"
            )
    # kind 0: even ball, 1: odd ball, 2: moved pair; the lower kind goes first
    k1 = s1.t % 2 + (s1.vs_prev != s1.vs_now)
    k2 = s2.t % 2 + (s2.vs_prev != s2.vs_now)
    swapped = k1 > k2
    if swapped:
        s1, s2, k1, k2 = s2, s1, k2, k1
    # each case returns (members, tag); a window pick slices, so an empty
    # window reaches this one check
    members, case = _CASES[k1, k2](d, s1, s2)
    if not members:
        raise ValueError(f"inconsistent snapshot pair: empty candidate set in case {case}")
    return ExplicitCandidates(frozenset(members)), {"case": case + "-swapped" if swapped else case}


def uniform_mle_cases(s1: Snapshot, s2: Snapshot, rng: random.Random) -> Estimate:
    """Two-snapshot MLE under the uniform protocol as an explicit case split.

    Mirrors the closed-form analysis case by case (all parity combinations,
    including the d = 3 specials); the matched case tag is reported in
    diagnostics.  Inputs must come from the uniform protocol and satisfy
    t >= 4 (even) / t >= 5 (odd); earlier times are refused.  Each snapshot
    has a kind, an even ball before an odd ball before a moved pair; the
    lower kind is put first, and the tag ends in ``-swapped`` exactly when
    that reordered the pair.  A ball against a moved pair follows one rule
    at either parity of the ball (even-odd-2/4/6, odd-odd-4/5/6): the
    ball center's neighbours off the pair when the pair lies within 1 of
    the center, else the window vertex nearest the center.  The cases that
    pick from the path between the closest virtual sources read the
    closest-pair window (see the module docstring) and score its positions:
    odd-odd-3 by (t1 + 1 - 2i)(t2 + 1 - 2(L - i)), odd-odd-10 by i(L - i);
    even-odd-5 takes the window's last vertex, even-odd-6 and odd-odd-6 its
    first.
    """
    cands, diagnostics = uniform_mle_cases_candidates(s1, s2)
    return _finish("uniform_mle_cases", cands, diagnostics, rng)


def _cases_even_even(d: int, s1: Snapshot, s2: Snapshot):
    v1, v2 = s1.vs_now, s2.vs_now
    gap = distance(v1, v2)
    if gap == 0:
        return _nbrs_minus(d, [v1]), "even-even-1"
    if gap == 1:
        return _nbrs_minus(d, [v1, v2]), "even-even-2"
    return _path_window(v1, v2, s1.radius, s2.radius)[1], "even-even-3"


def _cases_even_odd_balls(d: int, se: Snapshot, so: Snapshot):
    """se has even t (center v1), so odd t and a ball (center v2)."""
    v1, v2 = se.vs_now, so.vs_now
    gap = distance(v1, v2)
    if gap == 0:
        return _nbrs_minus(d, [v1]), "even-odd-1"
    if gap == 1:
        return _nbrs_minus(d, [v2], [v1]), "even-odd-3"
    # deterministic: the feasible path vertex closest to the odd center
    return _path_window(v1, v2, se.radius, so.radius)[1][-1:], "even-odd-5"


def _cases_ball_moved(d: int, sb: Snapshot, sm: Snapshot):
    """sb is a ball at either parity, sm a moved pair; the parity of sb
    only names the case."""
    if sb.t % 2:
        tags = ("odd-odd-4", "odd-odd-5", "odd-odd-6")
    else:
        tags = ("even-odd-2", "even-odd-4", "even-odd-6")
    vb = sb.vs_now
    pair = sm.virtual_sources()
    x, _, near = _closest_pair([vb], pair)
    if x <= 1:
        return _nbrs_minus(d, [vb], pair), tags[x]
    # the feasible path vertex closest to the ball's center
    return _path_window(vb, near, sb.radius, sm.radius)[1][:1], tags[2]


def _cases_odd_odd_balls(d: int, s1: Snapshot, s2: Snapshot):
    v1, v2 = s1.vs_now, s2.vs_now
    t1, t2 = s1.t, s2.t
    gap = distance(v1, v2)
    if gap == 0:
        return _nbrs_minus(d, [v1]), "odd-odd-1"
    if gap == 1:
        # the later snapshot localizes better; equal times leave both sides tied
        centers = [v1, v2] if t1 == t2 else [v2] if t1 > t2 else [v1]
        return _nbrs_minus(d, centers, [v1, v2]), "odd-odd-2"
    lo, feas = _path_window(v1, v2, s1.radius, s2.radius)
    scores = [(t1 + 1 - 2 * i) * (t2 + 1 - 2 * (gap - i)) for i in range(lo, lo + len(feas))]
    return _argmax(feas, scores), "odd-odd-3"


def _cases_moved_pairs(d: int, s1: Snapshot, s2: Snapshot):
    e1, e2 = s1.virtual_sources(), s2.virtual_sources()
    gap, a, b = _closest_pair(e1, e2)
    union = set(e1) | set(e2)
    if gap == 0:
        if set(e1) == set(e2):
            if d >= 4:
                return _nbrs_minus(d, e1), "odd-odd-7"
            band = {v for v, r in bfs_depths(d, e1, 2).items() if r in (1, 2)}
            return band, "odd-odd-7(d=3)"
        (shared,) = set(e1) & set(e2)
        if d >= 4:
            return _nbrs_minus(d, [shared], union), "odd-odd-8"
        near2 = {v for v, r in bfs_depths(d, [shared], 2).items() if r in (1, 2) and v not in union}
        return near2, "odd-odd-8(d=3)"
    if gap == 1:
        return _nbrs_minus(d, [a, b], union), "odd-odd-9"
    if d == 3 and gap == 2:
        _, (mid,) = _path_window(a, b, 1, 1)
        (w2,) = [w for w in neighbors(d, mid) if w not in (a, b)]
        return (mid, w2), "odd-odd-10(d=3,gap=2)"
    lo, feas = _path_window(a, b, s1.radius, s2.radius)
    scores = [i * (gap - i) for i in range(lo, lo + len(feas))]
    return _argmax(feas, scores), "odd-odd-10"


# (kind of the first snapshot, kind of the second), kinds in order
_CASES = {
    (0, 0): _cases_even_even,
    (0, 1): _cases_even_odd_balls,
    (0, 2): _cases_ball_moved,
    (1, 1): _cases_odd_odd_balls,
    (1, 2): _cases_ball_moved,
    (2, 2): _cases_moved_pairs,
}


# ---------------------------------------------------------------------------
# registry: what every entry point (config, CLI, oracle) knows of an estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorInfo:
    """One estimator as the config, the CLI and the oracle see it.

    ``estimate(snaps, protocol, rng)`` runs the public estimator.
    ``candidates(snaps, protocol)`` lists its deterministic core's
    candidate set once per equally likely choice of one virtual source per
    snapshot (a single set unless the estimator draws that choice).  Both
    look the estimator functions up as module attributes on every call, so a
    wrapper installed on this module is seen.

    Contract the exact oracle relies on: permuting snapshots taken at equal
    times leaves ``candidates`` unchanged as a multiset of member sets, and
    relabelling child indices maps it onto the relabelled snapshots' sets.
    So whether the origin is a candidate, how many candidates there are, and
    whether the estimator refuses the snapshots with ValueError depend only
    on the orbit of the snapshot tuple under the automorphisms fixing the
    origin.

    ``tie_break_only`` marks the estimators whose one draw is the uniform
    tie-break ``ExplicitCandidates.sample`` over a set computed from the
    snapshots alone.  By the contract, their hit or miss on a trial is
    decided by the orbit's (origin in the set, set size) and that one draw
    (:func:`sample_is_origin`), where equal-time snapshots in either order
    are one orbit.  That lets ``experiments.run`` score every trial of a
    one- or two-time job from ``candidates``, run once per orbit.
    """

    alias: str  # the CLI --method name
    arity: Optional[int]  # number of snapshots taken; None for any k >= 1
    uniform_only: bool  # valid only for snapshots of the uniform protocol
    tie_break_only: bool  # the only draw is the tie-break over an ExplicitCandidates
    estimate: Callable
    candidates: Callable


def _k_obs_cores(snaps: Sequence[Snapshot]) -> list:
    """The core on every choice of one virtual source per snapshot."""
    d = _check_common(snaps)
    resolutions = itertools.product(*(s.virtual_sources() for s in snaps))
    return [k_obs_candidates(d, vs)[0] for vs in resolutions]


ESTIMATORS = {
    "single_mle": EstimatorInfo(
        alias="single-mle", arity=1, uniform_only=False, tie_break_only=False,
        estimate=lambda snaps, protocol, rng: single_mle(*snaps, protocol, rng),
        candidates=lambda snaps, protocol: [single_mle_candidates(*snaps, protocol)[0]],
    ),
    "two_obs_path": EstimatorInfo(
        alias="two-obs-path", arity=2, uniform_only=False, tie_break_only=True,
        estimate=lambda snaps, protocol, rng: two_obs_path(*snaps, rng),
        candidates=lambda snaps, protocol: [two_obs_path_candidates(*snaps)[0]],
    ),
    "three_obs_intersection": EstimatorInfo(
        alias="three-obs", arity=3, uniform_only=False, tie_break_only=False,
        estimate=lambda snaps, protocol, rng: three_obs_intersection(*snaps, rng),
        candidates=lambda snaps, protocol: _k_obs_cores(snaps),
    ),
    "k_obs_subtree": EstimatorInfo(
        alias="k-obs", arity=None, uniform_only=False, tie_break_only=False,
        estimate=lambda snaps, protocol, rng: k_obs_subtree(snaps, rng),
        candidates=lambda snaps, protocol: _k_obs_cores(snaps),
    ),
    "generic_mle": EstimatorInfo(
        alias="mle", arity=None, uniform_only=False, tie_break_only=True,
        estimate=lambda snaps, protocol, rng: generic_mle(snaps, protocol, rng),
        candidates=lambda snaps, protocol: [generic_mle_candidates(snaps, protocol)[0]],
    ),
    "uniform_mle_cases": EstimatorInfo(
        alias="cases", arity=2, uniform_only=True, tie_break_only=True,
        estimate=lambda snaps, protocol, rng: uniform_mle_cases(*snaps, rng),
        candidates=lambda snaps, protocol: [uniform_mle_cases_candidates(*snaps)[0]],
    ),
}


def estimator_for(name, k: int, protocol: Protocol) -> EstimatorInfo:
    """The registry entry of ``name``, once it is known to accept ``k``
    snapshots of ``protocol``; ValueError otherwise."""
    info = ESTIMATORS.get(name) if isinstance(name, str) else None
    if info is None:
        raise ValueError(f"unknown method {name!r} (known: {sorted(ESTIMATORS)})")
    if info.arity is not None and k != info.arity:
        raise ValueError(f"{name} needs exactly {info.arity} snapshots, got {k}")
    if info.uniform_only and protocol.name != "uniform":
        raise ValueError(f"{name} is valid only under the uniform protocol, not {protocol.name!r}")
    return info
