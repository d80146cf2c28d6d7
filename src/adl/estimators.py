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

Each estimator is one ``ESTIMATORS`` entry: a deterministic ``*_candidates``
core and the rule its public estimator draws by (:class:`EstimatorInfo`).
A core takes the degree and each snapshot's labels (t, vs_prev, vs_now);
:func:`estimate`, behind every public estimator, reads them once off its
checked Snapshots, while the exhaustive oracle (which integrates the draws
analytically instead of sampling them, through :func:`candidate_sets`) and
the Monte Carlo loop pass the labels they build and build no Snapshot.
Every core refuses a time below 2.  The three-snapshot path intersection
has none of its own: on a tree the meet of the three pairwise paths is the
median, the k-snapshot subtree-count core's unique winner at k = 3, so it
runs that core.  No estimator takes a tuning parameter: the
likelihood-based ones score their whole feasible set, so each returns the
true argmax.

The path-based two-snapshot cores (``two_obs_path`` and ``uniform_mle_cases``)
read their geometry from one common-prefix length.  A moved pair's vs_prev is
its vs_now's parent, so with l the lcp of the two snapshots' vs_now labels, a
prefix x of one and y of the other have lcp(x, y) = min(l, |x|, |y|): one
lcp_len call per core call gives the closest pair of virtual sources (a, b),
a from the first snapshot, and every distance on the path between them.  With
L = distance(a, b), the vertex i steps from a lies exactly i from the first
virtual-source set and L - i from the second, so the path interior infected
in both snapshots is the window
max(1, L - floor(t2/2)) <= i <= min(L - 1, floor(t1/2)), and no virtual
source lies inside it.  No vertex is tested for membership.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub
from typing import Callable, Iterable, Optional, Sequence

from adl.diffusion import Snapshot
from adl.protocol import Protocol
from adl.tree import (
    Label,
    distance,
    format_label,
    lcp_len,
    neighbors,
    steiner_tree,
)

_REL_TOL = 1e-12  # float-mode tie grouping for log-likelihood comparisons
_TOO_EARLY = "estimators require observation times t >= 2"  # every core's refusal of t < 2


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

    A shell at radius r holds every vertex whose distance to the k centers
    (one, or two adjacent) is exactly r: each center has d - k + 1
    neighbours off the set, so the shell has k (d-k+1) (d-1)^(r-1)
    vertices.  Used where the candidate set is exponentially large
    (single-snapshot MLE), so membership stays symbolic.
    """

    d: int
    centers: tuple  # one label, or two adjacent labels
    radii: tuple  # strictly increasing radii >= 1

    def _shell_size(self, r: int) -> int:
        k = len(self.centers)
        return k * (self.d - k + 1) * (self.d - 1) ** (r - 1)

    def size(self) -> int:
        return sum(self._shell_size(r) for r in self.radii)

    def contains(self, v: Label) -> bool:
        return min(distance(v, c) for c in self.centers) in self.radii

    def sample(self, rng: random.Random) -> Label:
        # shell proportional to its size, then a center (a coin between two),
        # then an outward non-backtracking walk leaving the center set
        ends = list(itertools.accumulate(map(self._shell_size, self.radii)))
        r = self.radii[bisect_right(ends, rng.randrange(ends[-1]))]
        centers = self.centers
        prev = centers[rng.randrange(2) if len(centers) == 2 else 0]
        options = [w for w in neighbors(self.d, prev) if w not in centers]
        cur = options[rng.randrange(len(options))]
        for _ in range(r - 1):
            options = [w for w in neighbors(self.d, cur) if w != prev]
            prev, cur = cur, options[rng.randrange(len(options))]
        return cur


Candidates = ExplicitCandidates | ShellCandidates


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


# ---------------------------------------------------------------------------
# single-snapshot maximum likelihood
# ---------------------------------------------------------------------------


def _hop_scores(t: int, ball: bool, protocol: Protocol) -> list:
    """Per-hop likelihood row of one snapshot: entry x - 1 scores each
    vertex at hop x from the virtual-source set.

    weight(x) is entry x - 1 of ``protocol.snapshot_weights``, the
    single-snapshot law.  Exact: integers proportional to
    weight(x) / (d (d-1)^(x-1)), all scaled by the lcm of their
    denominators, so products of rows order and tie exactly as the rational
    products do.  Float: log weight(x) - (x-1) log(d-1), None where
    weight(x) <= 0.  Both likelihood cores score from these rows and tie by
    :func:`_winners`.  A row depends only on (t, ball), so it is built once
    and kept on the protocol.  The snapshot is on the protocol's tree, as
    every entry point checks.
    """
    key = (t, ball)
    row = protocol._scores.get(key)
    if row is None:
        d = protocol.d
        weights = protocol.snapshot_weights(t, ball)
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


def _winners(kept: list, best, exact: bool) -> list:
    """The entries of ``kept``, tuples led by a score, that tie with the best
    score ``best``: the one tie rule of both likelihood cores.  Exact: equal
    to it, when it is positive (0 is a zero likelihood); float (log scores):
    within relative 1e-12 of it."""
    if exact:
        return [p for p in kept if p[0] == best] if best > 0 else []
    return [p for p in kept if math.isclose(p[0], best, rel_tol=_REL_TOL, abs_tol=1e-300)]


def single_mle_candidates(d: int, label: tuple, protocol: Protocol) -> tuple[Candidates, dict]:
    """Hops h (1-based) maximizing weight(h) / (d (d-1)^(h-1)) by the joint
    MLE's rows and tie rule (:func:`_hop_scores`, :func:`_winners`), as
    shells around the virtual sources of the snapshot with labels ``label``."""
    t, prev, now = label
    if t < 2:
        raise ValueError(_TOO_EARLY)
    ball = prev == now
    scored = [(sc, h + 1) for h, sc in enumerate(_hop_scores(t, ball, protocol)) if sc is not None]
    h_star = [h for _, h in _winners(scored, max(scored, default=(None,))[0], protocol.exact)]
    if not h_star:
        raise ValueError("all hop likelihoods are zero for this snapshot")
    cands = ShellCandidates(d=d, centers=(now,) if ball else (prev, now), radii=tuple(h_star))
    diagnostics = {"h_star": h_star, "ball": ball, "candidate_count": cands.size()}
    if t % 2 == 0:
        diagnostics["success_probability"] = float(protocol.mle_success_probability(t))
    return cands, diagnostics


def single_mle(s: Snapshot, protocol: Protocol, rng: random.Random) -> Estimate:
    """Likelihood argmax for one snapshot.

    The likelihood of a non-excluded vertex depends only on its hop distance
    X(v) to the virtual-source set, so the argmax is taken over hops and the
    candidate set is the union of the maximizing distance shells; the
    representative is sampled by walking a uniform outward path.  Hops are
    scored and tied as :func:`generic_mle` scores and ties one snapshot, so
    both give the same candidate set on every protocol.  At even t the
    diagnostics carry the success probability max_h p(t, h) / (d (d-1)^(h-1)).
    """
    return estimate("single_mle", [s], protocol, rng)


# ---------------------------------------------------------------------------
# two snapshots: path estimator
# ---------------------------------------------------------------------------


def _closest_pair(s1: tuple, s2: tuple) -> tuple:
    """(distance, x, y, lcp(x, y)) for the closest x among the virtual
    sources of the first snapshot's labels and y among the second's; equal
    distances go to the smaller labels.

    A moved pair's vs_prev is its vs_now's parent, so each set is prefixes
    of its deep end u, and prefixes x of u1 and y of u2 share
    min(l, |x|, |y|) entries, l = lcp(u1, u2): one lcp_len call.  With p0,
    q0 the shallow ends' lengths and k = min(l, max(p0, q0)), the pair is
    the prefixes of lengths max(p0, k) and max(q0, k): the shortest common
    vertex when the sets meet, else the closest pair of disjoint subtrees.
    """
    (_, prev1, u), (_, prev2, v) = s1, s2
    p0, q0 = len(prev1), len(prev2)
    k = p0 if p0 > q0 else q0  # the docstring's min and max, written out on this hot path
    ell = lcp_len(u, v)
    if ell < k:
        k = ell
    p, q = (p0 if p0 > k else k), (q0 if q0 > k else k)
    return p + q - 2 * k, u[:p], v[:q], k


def _nbrs_minus(d: int, centers: Iterable[Label], minus: Iterable[Label] = ()) -> frozenset:
    """The neighbours of ``centers`` that are neither centers nor in ``minus``."""
    out = set()
    for c in centers:  # its children (d of them at the origin), then its parent
        out.update([c + (j,) for j in range(d - 1 if c else d)])
        if c:
            out.add(c[:-1])
    out.difference_update(minus, centers)
    return frozenset(out)


def _path_window(a: Label, b: Label, ra: int, rb: int, k: int,
                 twice: Optional[int] = None) -> list:
    """The interior vertices of the a-b path within ``ra`` of a and ``rb`` of
    b, in a-to-b order; with ``twice`` set, only the one nearest the position
    (distance from a) twice / 2, or two about a half-integer inside.
    ``k`` is lcp(a, b), which :func:`_closest_pair` hands over.

    The vertex i steps from a is a[:len(a) - i] up to the meet and
    b[:len(b) - (L - i)] below it, L = distance(a, b), so the window
    max(1, L - rb) <= i <= min(L - 1, ra) is sliced off.  For the closest
    pair of two snapshots' virtual sources and their radii it is the path
    interior infected in both: the other end of a moved snapshot hangs off
    a (or b) away from the path, or the pair would not be closest.  A
    concave quadratic score in i is symmetric about its peak, so its argmax
    over the window is the positions nearest the peak.
    """
    up = len(a) - k  # the meet's position
    length = up + len(b) - k
    lo = length - rb if length - rb > 1 else 1
    hi = ra if ra < length - 1 else length - 1
    below = len(b) - length
    if twice is not None and lo <= hi:  # the positions nearest twice / 2
        if twice <= 2 * lo or twice >= 2 * hi:  # one end
            i = lo if twice <= 2 * lo else hi
            return [a[: len(a) - i] if i <= up else b[: below + i]]
        lo, hi = twice // 2, (twice + 1) // 2
    return [a[: len(a) - i] if i <= up else b[: below + i] for i in range(lo, hi + 1)]


def two_obs_path_candidates(d: int, s1: tuple, s2: tuple) -> tuple[Candidates, dict]:
    if s1[0] < 2 or s2[0] < 2:
        raise ValueError(_TOO_EARLY)
    _, x, y, k = _closest_pair(s1, s2)
    s_set = _path_window(x, y, s1[0] // 2, s2[0] // 2, k)
    if s_set:
        return ExplicitCandidates(frozenset(s_set)), {"S_size": len(s_set), "fallback": False}
    # the connecting path has no interior (virtual sources coincide or touch):
    # fall back to a uniform pick among the fringe of the known virtual
    # sources, (vs_prev, vs_now) of each snapshot
    return ExplicitCandidates(_nbrs_minus(d, s1[1:] + s2[1:])), {"S_size": 0, "fallback": True}


def two_obs_path(s1: Snapshot, s2: Snapshot, rng: random.Random) -> Estimate:
    """Uniform pick from S = (path between the virtual-source sets, interior
    only) intersected with both infected sets.

    S is the closest-pair window of the module docstring.  When S is empty
    the pick falls back to the fringe of the virtual sources.
    """
    return estimate("two_obs_path", [s1, s2], None, rng)


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


def k_obs_label_candidates(
    d: int, labels: Iterable[tuple], coin: Callable[[], int]
) -> tuple[Candidates, dict]:
    """:func:`k_obs_candidates` on one virtual source per snapshot, each
    given by its labels (t, vs_prev, vs_now): vs_now for a ball; for a moved
    pair, vs_prev if ``coin()`` returns 0 and vs_now if it returns 1, one
    call per moved pair in snapshot order.  Refuses a time below 2, as every
    estimator does.  The core of both ``"coins"`` estimators.
    """
    resolved = []
    for t, prev, now in labels:
        if t < 2:
            raise ValueError(_TOO_EARLY)
        resolved.append(now if prev == now else (prev, now)[coin()])
    return k_obs_candidates(d, resolved)


def k_obs_subtree(snaps: Sequence[Snapshot], rng: random.Random) -> Estimate:
    """The minimax subtree-count vertex of one virtual source per snapshot:
    a uniform draw from an odd snapshot's moved pair, then the tie-break,
    both from ``rng``."""
    return estimate("k_obs_subtree", snaps, None, rng)


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
    return estimate("three_obs_intersection", [s1, s2, s3], None, rng)


# ---------------------------------------------------------------------------
# generic multi-snapshot maximum likelihood
# ---------------------------------------------------------------------------


def generic_mle_candidates(
    d: int, labels: Sequence[tuple], protocol: Protocol
) -> tuple[Candidates, dict]:
    if min(t for t, _, _ in labels) < 2:
        raise ValueError(_TOO_EARLY)
    exact = protocol.exact

    # The core, the Steiner tree of the virtual sources, is every prefix of
    # a virtual source at least as long as their common prefix.  Each core
    # vertex u[:l] is visited once, on the first terminal u it is a prefix
    # of, and everything about it comes from prefix lengths.
    terms = sorted({v for _, prev, now in labels for v in (prev, now)})
    n = len(terms)
    index = {v: j for j, v in enumerate(terms)}
    lens = [len(v) for v in terms]
    lcps = [lens[:] for _ in terms]  # lcp(u, u) = len(u), and the table is symmetric
    for i, j in itertools.combinations(range(n), 2):
        lcps[i][j] = lcps[j][i] = lcp_len(terms[i], terms[j])
    top = lcps[0][-1]
    ends = [(index[prev], index[now]) for _, prev, now in labels]  # one index twice for a ball
    rows = [_hop_scores(t, prev == now, protocol) for t, prev, now in labels]
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

    win = _winners(kept, best, exact)

    diagnostics = {"feasible_count": feasible, "exact": exact, "fallback": not win}
    if not win:
        # no vertex has positive likelihood: a uniform pick among the fringe
        # of the first virtual source, the first snapshot's vs_prev
        return ExplicitCandidates(_nbrs_minus(d, [labels[0][1]], terms)), diagnostics
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
    return estimate("generic_mle", snaps, protocol, rng)


# ---------------------------------------------------------------------------
# uniform-protocol two-snapshot MLE, closed-form case dispatch
# ---------------------------------------------------------------------------


def uniform_mle_cases_candidates(d: int, s1: tuple, s2: tuple) -> tuple[Candidates, dict]:
    t1, t2 = s1[0], s2[0]
    if t1 < 5 or t2 < 5:  # every check below passes from t = 5 on
        if t1 < 2 or t2 < 2:
            raise ValueError(_TOO_EARLY)
        for t in (t1, t2):
            low, parity = (5, "odd") if t % 2 else (4, "even")
            if t < low:
                raise ValueError(f"case dispatch needs t >= {low} at {parity} times, got t={t}")
    # kind 0: even ball, 1: odd ball, 2: moved pair; the lower kind goes first
    k1 = t1 % 2 + (s1[1] != s1[2])
    k2 = t2 % 2 + (s2[1] != s2[2])
    swapped = k1 > k2
    if swapped:
        s1, s2, k1, k2 = s2, s1, k2, k1
    # each case returns (members, tag) from the closest pair (gap, a, b, k); a
    # window pick slices, so an empty window reaches this one check
    members, case = _CASES[k1, k2](d, s1, s2, *_closest_pair(s1, s2))
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
    return estimate("uniform_mle_cases", [s1, s2], None, rng)


def _cases_even_even(d, s1, s2, gap, v1, v2, k):
    if gap == 0:
        return _nbrs_minus(d, (v1,)), "even-even-1"
    if gap == 1:
        return _nbrs_minus(d, (v1, v2)), "even-even-2"
    return _path_window(v1, v2, s1[0] // 2, s2[0] // 2, k), "even-even-3"


def _cases_even_odd_balls(d, se, so, gap, v1, v2, k):
    """se has even t (center v1), so odd t and a ball (center v2)."""
    if gap == 0:
        return _nbrs_minus(d, (v1,)), "even-odd-1"
    if gap == 1:
        return _nbrs_minus(d, (v2,), (v1,)), "even-odd-3"
    # deterministic: the feasible path vertex closest to the odd center
    return _path_window(v1, v2, se[0] // 2, so[0] // 2, k, 2 * gap), "even-odd-5"


def _cases_ball_moved(d, sb, sm, gap, vb, near, k):
    """sb is a ball at either parity, which only names the case; sm a moved pair."""
    tags = ("odd-odd-4", "odd-odd-5", "odd-odd-6") if sb[0] % 2 else (
        "even-odd-2", "even-odd-4", "even-odd-6")
    if gap <= 1:
        return _nbrs_minus(d, (vb,), sm[1:]), tags[gap]
    # the feasible path vertex closest to the ball's center
    return _path_window(vb, near, sb[0] // 2, sm[0] // 2, k, 0), tags[2]


def _cases_odd_odd_balls(d, s1, s2, gap, v1, v2, k):
    t1, t2 = s1[0], s2[0]
    if gap == 0:
        return _nbrs_minus(d, (v1,)), "odd-odd-1"
    if gap == 1:
        # the later snapshot localizes better; equal times leave both sides tied
        centers = (v1, v2) if t1 == t2 else (v2,) if t1 > t2 else (v1,)
        return _nbrs_minus(d, centers, (v1, v2)), "odd-odd-2"
    # the score (t1 + 1 - 2i)(t2 + 1 - 2(gap - i)) peaks at i = (t1 - t2 + 2 gap) / 4
    return _path_window(v1, v2, t1 // 2, t2 // 2, k, (t1 - t2) // 2 + gap), "odd-odd-3"


def _cases_moved_pairs(d, s1, s2, gap, a, b, k):
    e1, e2 = s1[1:], s2[1:]  # both moved: (vs_prev, vs_now)
    if gap == 0:
        # one shared edge (odd-odd-7) or vertex, then a (odd-odd-8): the
        # vertices off both pairs within 1 of it, within 2 (two rings) at d = 3
        centers = e1 if set(e1) == set(e2) else (a,)
        band = _nbrs_minus(d, centers)
        case = "odd-odd-7" if len(centers) == 2 else "odd-odd-8"
        if d == 3:
            band |= _nbrs_minus(d, band)
            case += "(d=3)"
        return band.difference(e1, e2), case
    if gap == 1:
        return _nbrs_minus(d, (a, b), e1 + e2), "odd-odd-9"
    if d == 3 and gap == 2:
        (mid,) = _path_window(a, b, 1, 1, k)  # w, and w' its third neighbour
        return _nbrs_minus(d, (mid,), (a, b)) | {mid}, "odd-odd-10(d=3,gap=2)"
    # the score i (gap - i) peaks at i = gap / 2
    return _path_window(a, b, s1[0] // 2, s2[0] // 2, k, gap), "odd-odd-10"


# (kind of the first snapshot, kind of the second), kinds in order; each case
# takes d, the two snapshots' labels (t, vs_prev, vs_now) and their closest
# pair (gap, a, b, lcp(a, b))
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
    """One estimator as every entry point (config, CLI, oracle, Monte Carlo
    loop) sees it.

    ``core(d, labels, protocol, coin)`` returns the candidate set and
    diagnostics from the degree and each snapshot's labels (t, vs_prev,
    vs_now).  A ``"coins"`` core calls ``coin()`` once per moved pair, in
    snapshot order, for 0 (vs_prev) or 1 (vs_now); no other core calls it.
    Each core is a lambda that looks its ``*_candidates`` function up as a
    module attribute on every call, so a wrapper installed on this module is
    seen.

    ``draws`` names the public estimator's draw rule, all from one
    generator: ``"tie_break"``, one ``ExplicitCandidates.sample`` over a set
    computed from the snapshots alone; ``"coins"``, one ``randrange(2)`` coin
    per moved pair, then that tie-break; ``"shell"``, one
    ``ShellCandidates.sample``, which starts with ``randrange(size)``.

    Contract the exact oracle relies on: permuting snapshots taken at equal
    times leaves :func:`candidate_sets` unchanged as a multiset of member
    sets, and relabelling child indices maps it onto the relabelled
    snapshots' sets.  So whether the origin is a candidate, how many
    candidates there are, and whether the estimator refuses the snapshots
    with ValueError depend only on the orbit of the snapshot tuple under the
    automorphisms fixing the origin.  For a ``"tie_break"`` estimator that
    orbit and the one draw (:func:`sample_is_origin`) decide a trial's hit,
    which lets ``experiments.run`` run the core once per orbit.
    """

    alias: str  # the CLI --method name
    arity: Optional[int]  # number of snapshots taken; None for any k >= 1
    uniform_only: bool  # valid only for snapshots of the uniform protocol
    draws: str  # "tie_break", "coins" or "shell"
    core: Callable


ESTIMATORS = {
    "single_mle": EstimatorInfo(
        alias="single-mle", arity=1, uniform_only=False, draws="shell",
        core=lambda d, labels, protocol, coin: single_mle_candidates(d, *labels, protocol)),
    "two_obs_path": EstimatorInfo(
        alias="two-obs-path", arity=2, uniform_only=False, draws="tie_break",
        core=lambda d, labels, protocol, coin: two_obs_path_candidates(d, *labels)),
    "three_obs_intersection": EstimatorInfo(
        alias="three-obs", arity=3, uniform_only=False, draws="coins",
        core=lambda d, labels, protocol, coin: k_obs_label_candidates(d, labels, coin)),
    "k_obs_subtree": EstimatorInfo(
        alias="k-obs", arity=None, uniform_only=False, draws="coins",
        core=lambda d, labels, protocol, coin: k_obs_label_candidates(d, labels, coin)),
    "generic_mle": EstimatorInfo(
        alias="mle", arity=None, uniform_only=False, draws="tie_break",
        core=lambda d, labels, protocol, coin: generic_mle_candidates(d, labels, protocol)),
    "uniform_mle_cases": EstimatorInfo(
        alias="cases", arity=2, uniform_only=True, draws="tie_break",
        core=lambda d, labels, protocol, coin: uniform_mle_cases_candidates(d, *labels)),
}


def estimate(name: str, snaps: Sequence[Snapshot], protocol: Optional[Protocol],
             rng: random.Random) -> Estimate:
    """Estimator ``name`` on ``snaps``: its core on their labels, with its
    coins and then its pick from the candidate set drawn from ``rng``.
    ``protocol`` is read only by the likelihood estimators and is not
    checked; the snapshot count is (:func:`estimator_for`)."""
    cands, diagnostics = estimator_for(name, len(snaps), None).core(
        snaps[0].d, [(s.t, s.vs_prev, s.vs_now) for s in snaps], protocol,
        lambda: rng.randrange(2))
    return Estimate(method=name, chosen=cands.sample(rng), candidates=cands,
                    diagnostics=diagnostics)


def candidate_sets(info: EstimatorInfo, d: int, labels: Sequence[tuple],
                   protocol: Protocol) -> list:
    """The core's candidate set once per equally likely choice of coins:
    2^moved sets for a ``"coins"`` estimator (one call with no coins when no
    snapshot moved), one set otherwise."""
    core = info.core
    moved = sum(prev != now for _, prev, now in labels) if info.draws == "coins" else 0
    if not moved:
        return [core(d, labels, protocol, None)[0]]
    return [core(d, labels, protocol, iter(coins).__next__)[0]
            for coins in itertools.product((0, 1), repeat=moved)]


def estimator_for(name, k: int, protocol: Optional[Protocol]) -> EstimatorInfo:
    """The registry entry of ``name``, once it is known to accept ``k``
    snapshots (of ``protocol``, when one is given); ValueError otherwise."""
    info = ESTIMATORS.get(name) if isinstance(name, str) else None
    if info is None:
        raise ValueError(f"unknown method {name!r} (known: {sorted(ESTIMATORS)})")
    if k < 1:
        raise ValueError("at least one snapshot required")
    if info.arity is not None and k != info.arity:
        raise ValueError(f"{name} needs exactly {info.arity} snapshots, got {k}")
    if info.uniform_only and protocol is not None and protocol.name != "uniform":
        raise ValueError(f"{name} is valid only under the uniform protocol, not {protocol.name!r}")
    return info
