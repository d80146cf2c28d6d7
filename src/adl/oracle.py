"""Exhaustive oracle for exact detection probabilities.

Instead of sampling the virtual-source chain, enumerate every reachable
snapshot endpoint pair (vs_{t-1}, vs_t) with its exact probability, run an
estimator's deterministic candidate core on the joint outcomes, and
integrate its draws analytically: each of the L equally likely coin choices
of ``estimators.candidate_sets`` (L = 2^moved for a ``"coins"`` estimator,
else 1) gives a set C contributing [origin in C] / (L |C|).  The draw rule
is read once per call: unless the estimator draws coins and a law row is a
moved pair, its core is called directly, once per orbit.  With a built-in
protocol the sum runs in integers and ends in one exact Fraction; table
protocols fall back to floats.  The probability of each single outcome is
read from the protocol's single-snapshot law (``Protocol.snapshot_weights``);
the oracle only spreads it over the labels at each hop.  The protocol keeps
its hop rows and their stayed/moved splits, so a protocol reused across
calls runs the hop recurrence once, and a call builds each time's law once.

An outcome's probability depends only on its hop and on whether the virtual
source stayed or moved, and every estimator core is equivariant under
relabelling of child indices.  Snapshots taken at equal times are
independent draws from one law, and every core's candidate sets, as a
multiset, do not depend on their order (the ``EstimatorInfo`` contract).
So the joint sum runs over the orbits of a larger group, the automorphisms
that fix the origin times the permutations of equal-time snapshots: one
canonical joint outcome per orbit, reached by callback and generated
directly (see ``_orbits``), weighted by the orbit's mass.  The orbit count
grows polynomially in t, not like (d-1)^(t/2) per snapshot; the budget still
caps the nominal number of joint outcomes the sum stands for.  The walk takes
every snapshot's law row first, then sends all the snapshots down together
as one share, split among the children of each vertex.  An outcome is
handed to the core as the labels (t, vs_prev, vs_now) of each snapshot,
which every core reads, so no Snapshot is built.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from math import comb, factorial, fsum, lcm, perm, prod
from typing import Sequence

from adl.estimators import candidate_sets, estimator_for
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


def _splits(counts: Sequence[int], d: int) -> list:
    """Every split into 2 to d blocks of a share given as its count per type,
    copies indexed in type order: (c, factor, singles, multis), its blocks in
    non-increasing order on children 0..c-1, its joint outcomes but the
    embeddings (each type's multinomial over the product of (equal blocks)!),
    its one-copy blocks as (child, copy) and its runs of equal larger blocks
    as (children, copies per block), the last first.  Built type by type: a
    call gives a block a chunk of one type, a block equal to the one before it
    so far (bit b of ties) takes no more, and the last chunk sets the factor.
    """
    fact = [factorial(a) for a in range(max(*counts, d) + 1)]
    num = prod([fact[c] for c in counts])
    ends = list(accumulate(counts))  # one past each type's last copy
    blocks, out = [], []  # the copies of each block so far; the splits

    def give(t, lo, left, ties, den, before):
        # type t's last left copies go to blocks lo on, block lo - 1 took before
        x, nb = ends[t] - left, len(blocks)
        for b in range(lo, nb + 1 if nb < d else d):
            if ties >> b & 1:
                if b > lo:  # it would take more than the empty chunk before it
                    continue
                top, bits = min(left, before), ties
            else:
                top, bits = left, ties & ~(1 << lo)  # block lo takes none of t
            least = 1 if b + 1 < d else left  # the last block takes the rest
            if top < least:
                continue
            if b == nb:
                blocks.append([])
            block = blocks[b]
            block += range(x, x + top)
            for a in range(top, least - 1, -1):  # the chunk shrinks by a copy each time
                now = bits if a == before else bits & ~(1 << b)
                if a < left:
                    give(t, b + 1, left - a, now, den * fact[a], a)
                elif t + 1 < len(counts):  # the blocks after b take none of t
                    give(t + 1, 0, counts[t + 1], now & ~(2 << b), den * fact[a], 0)
                elif len(blocks) > 1:
                    record(now & ~(2 << b), den * fact[a])
                block.pop()
            if b == nb:
                blocks.pop()
            elif least > 1:
                del block[1 - least:]

    def record(ties, den):
        singles, multis, b, c = [], [], 0, len(blocks)
        while b < c:  # a run of equal blocks
            e = b + 1
            while e < c and ties >> e & 1:
                e += 1
            den *= fact[e - b]
            if len(blocks[b]) == 1:
                singles += [(j, blocks[j][0]) for j in range(b, e)]
            else:
                multis.insert(0, (range(b, e), [block[:] for block in blocks[b:e]]))
            b = e
        out.append((c, num // den, singles, multis))

    give(0, 0, counts[0], (1 << d) - 2, 1, 0)
    return out


def _orbits(d: int, times: Sequence[int], laws: Sequence[list], visit) -> None:
    """Call ``visit(labels, weight)`` once per orbit of the origin-fixing
    automorphisms times the permutations of equal-time snapshots, with one
    canonical joint outcome, the labels (t, vs_prev, vs_now) of each of its
    snapshots, and the orbit's mass: the number of joint outcomes in it times
    the product of its row weights.  Equal times must come with equal laws;
    ``visit`` must not keep ``labels``.

    A snapshot's type is its time and its law row.  An orbit is a shape, the
    subtree its snapshots span from the origin up to relabelling children,
    each vertex marked with the types that end there; its number of joint
    outcomes is the embeddings of the shape times the assignments of
    equal-time snapshots to its slots.  The snapshots at one time take rows
    in non-decreasing order, in runs of one row, counted by C(positions
    left, run).  Every row is taken first; then all the snapshots go down
    from the origin together, as one share, split at each vertex among its
    free children as a multiset partition (``_splits``, once per call per
    count per type): blocks in non-increasing order on the first children, c
    of n (d at the origin, d - 1 elsewhere) counted by n!/(n - c)! over the
    product of (equal blocks)!, times each type's multinomial.  Below a
    block of one copy every step is forced (child 0, d - 1 images), so its
    tail is built in one step; equal blocks of more copies take a multiset
    of the orbits of one such block, each orbit listed once per call,
    counted by its arrangements.  The one-block split is the chain on which
    all of a share goes on to child 0: the walk follows it, taking every
    other split at each vertex of it, until a copy ends.
    """
    k = len(laws)
    labels: list = [None] * k
    kind = [0] * k  # a position's type: its time's first type plus its row
    depth, moved = [0] * k, [False] * k
    first: dict = {}  # time -> the type of its row 0
    for i, t in enumerate(times):
        first.setdefault(t, sum(map(len, laws[:i])))
    order = sorted(range(k), key=lambda i: (first[times[i]], i))  # by time, in first-seen order
    # the positions of order[x]'s time from x on
    left = [sum(times[j] == times[i] for j in order[x:]) for x, i in enumerate(order)]
    top = max(h for law in laws for h, _, _ in law)
    forced = [(d - 1) ** e for e in range(top + 1)]  # the images of a forced tail of e steps
    zeros = [(0,) * e for e in range(top)]  # e forced steps
    embed = {n: [perm(n, c) for c in range(n + 1)] for n in (d - 1, d)}  # n!/(n - c)!
    ways: dict = {}  # a share's count per type -> its splits
    shared: dict = {}  # (types of a share, depth) -> its orbits below a free child at that depth

    def pick(x, lo, weight):
        # order[x:] take rows, lo the least one order[x] may take; the
        # positions of one time are consecutive in order
        if x == k:
            spread(SOURCE, order, None, weight)
            return
        i, n = order[x], left[x]
        for r in range(lo, len(laws[i])):
            h, mv, p = laws[i][r]
            w = weight
            for run in range(1, n + 1):
                j = order[x + run - 1]
                kind[j], depth[j], moved[j] = first[times[i]] + r, h, mv
                w *= p
                pick(x + run, 0 if run == n else r + 1, w * comb(n, run))

    def spread(v, ps, rest, weight):
        # the copies ps reach v, in type order: end those of v's depth there,
        # share the rest among v's children, then run the pending tasks
        here = len(v)
        go = ps
        while True:
            going, counts, last = [], [], None
            for i in go:
                if depth[i] == here:
                    labels[i] = (times[i], v[:-1] if moved[i] else v, v)
                else:
                    going.append(i)
                    if kind[i] == last:
                        counts[-1] += 1
                    else:
                        counts.append(1)
                        last = kind[i]
            go = going
            if not go:
                run(rest, weight)
                return
            n = d - 1 if here else d
            if len(go) == 1:  # a lone copy: its tail is forced
                i = go[0]
                tail = depth[i] - here - 1
                u = v + (0,) + zeros[tail]
                labels[i] = (times[i], u[:-1] if moved[i] else u, u)
                run(rest, weight * n * forced[tail])
                return
            counts = tuple(counts)
            options = ways.get(counts)
            if options is None:
                options = ways[counts] = _splits(counts, d)
            stop = min([depth[i] for i in go])
            while here < stop:
                images = embed[n]
                for c, factor, singles, multis in options:  # all but the one-block split
                    if c > n:
                        continue
                    w = weight * images[c] * factor
                    for b, x in singles:
                        i = go[x]
                        tail = depth[i] - here - 1
                        u = v + (b,) + zeros[tail]
                        labels[i] = (times[i], u[:-1] if moved[i] else u, u)
                        w *= forced[tail]
                    tasks = rest
                    for children, blocks in multis:
                        tasks = ([v + (b,) for b in children],
                                 [[go[x] for x in block] for block in blocks], tasks)
                    if tasks is None:
                        visit(labels, w)
                    else:
                        run(tasks, w)
                weight *= n
                v += (0,)
                here += 1
                n = d - 1

    def run(tasks, weight):
        if tasks is None:
            visit(labels, weight)
            return
        us, pss, rest = tasks
        if len(us) == 1:
            spread(us[0], pss[0], rest, weight)
            return
        if not us:  # the end of one share's own walk: pss records its orbit
            pss(weight)
            return
        # free children with equal shares take a multiset of the orbits of
        # one share, each kept as its labels' tails below the child
        here, ps = len(us[0]), pss[0]
        key = (tuple([kind[i] for i in ps]), here)
        subs = shared.get(key)
        if subs is None:
            subs = shared[key] = []
            record = lambda w: subs.append((w, [labels[i][2][here:] for i in ps]))
            spread(us[0], ps, ((), record, None), 1)
        j = len(us)
        for chosen in combinations_with_replacement(range(len(subs)), j):
            w = weight * (factorial(j) // prod(map(factorial, Counter(chosen).values())))
            for u, ps, o in zip(us, pss, chosen):
                n, tails = subs[o]
                w *= n
                for i, tail in zip(ps, tails):
                    x = u + tail
                    labels[i] = (times[i], x[:-1] if moved[i] else x, x)
            run(rest, w)

    pick(0, 0, 1)


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
    an orbit's weight goes to hits[q], q = L |C|, for each of its L candidate
    sets C holding the origin, and the result is sum_q hits[q] / q over the
    laws' denominators.
    """
    times = list(times)
    if not times:
        raise ValueError("at least one observation time required")
    info = estimator_for(estimator, len(times), protocol)
    for t in times:
        if t < 1:
            raise ValueError(f"observation time must be >= 1, got {t}")
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
    d, core = protocol.d, info.core

    def visit(labels, weight):
        cands = core(d, labels, protocol, None)[0]
        if cands.contains(SOURCE):
            q = cands.size()
            hits[q] = hits.get(q, 0) + weight

    def visit_coins(labels, weight):
        sets = candidate_sets(info, d, labels, protocol)
        for cands in sets:
            if cands.contains(SOURCE):
                q = len(sets) * cands.size()
                hits[q] = hits.get(q, 0) + weight

    coins = info.draws == "coins" and any(mv for law in laws for _, mv, _ in law)
    _orbits(d, times, laws, visit_coins if coins else visit)
    if not exact:
        return fsum(w / q for q, w in hits.items())
    scale = lcm(*hits)
    return Fraction(sum(w * (scale // q) for q, w in hits.items()),
                    scale * prod(den_of[t] for t in times))

