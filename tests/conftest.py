"""Shared test helpers: independent infected-set construction, the
single-diffusion law by stepping the walk, a non-dyadic table protocol,
child-index relabelling automorphisms, shell enumeration, and the shipped
configs with their recorded report-body digests."""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from fractions import Fraction

import pytest

from adl.diffusion import Trajectory
from adl.experiments import derive_seed
from adl.protocol import Protocol, load_protocol_table
from adl.tree import SOURCE, bfs_depths, distance, neighbors

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"
# config file name -> sha256 of its full-trial report body (all but wall_time_s)
BODY_DIGESTS = json.loads(pathlib.Path(__file__).with_name("config_body_digests.json").read_text())


def body_digest(report) -> str:
    """The sha256 of a report body as sorted-key JSON, as BODY_DIGESTS records it."""
    return hashlib.sha256(json.dumps(report.body_dict(), sort_keys=True).encode()).hexdigest()


def stepwise_infected_set(tr: Trajectory, t: int) -> set:
    """Infected set built by the step-by-step spreading rule, independently of
    Snapshot.contains: even times take the ball around the current virtual
    source; at odd times the set either freezes (stay) or grows by the
    boundary vertices at distance (t-1)/2 from the new virtual source."""
    infected = {SOURCE}
    for s in range(1, t + 1):
        if s == 1:
            infected = {SOURCE, tr.vs[1]}
        elif s % 2 == 0:
            infected = set(bfs_depths(tr.d, [tr.vs[s]], s // 2))
        elif tr.vs[s] != tr.vs[s - 1]:
            boundary = {w for v in infected for w in neighbors(tr.d, v)} - infected
            infected |= {
                w for w in boundary if distance(w, tr.vs[s]) == (s - 1) // 2
            }
    return infected


def walk_law(protocol: Protocol, t: int) -> dict:
    """The law of the time-t snapshot pair (vs_{t-1}, vs_t), by stepping the
    virtual-source chain from the origin, independently of the hop table:
    the first step goes to a uniform child of the origin; at odd s the
    walker holds; at even s it stays with probability alpha(s, h_s) and
    otherwise steps to a uniform one of its d - 1 children.  Exact alphas
    (``alpha_exact``) for built-in protocols, floats for tables; pairs of
    probability zero are left out."""
    d = protocol.d
    alpha = protocol.alpha_exact if protocol.exact else protocol.alpha
    one = Fraction(1) if protocol.exact else 1.0
    law = {(SOURCE, (c,)): one / d for c in range(d)}
    for s in range(1, t):
        nxt: dict = {}
        for (_, cur), w in law.items():
            if s % 2:
                steps = [(cur, w)]
            else:
                a = alpha(s, len(cur))
                moved = w * (one - a) / (d - 1)
                steps = [(cur, w * a)] + [(cur + (c,), moved) for c in range(d - 1)]
            for v, p in steps:
                if p:
                    nxt[(cur, v)] = nxt.get((cur, v), 0) + p
        law = nxt
    return law


def nondyadic_table(d: int) -> Protocol:
    """A table protocol up to t = 6 with non-dyadic alphas, so float sums
    over its law really are rounded."""
    rows = [
        f"{t},{h},{(7 * t + 3 * h) % 10 / 10 + 0.05:.2f}"
        for t in (2, 4, 6)
        for h in range(1, t // 2 + 1)
    ]
    return load_protocol_table("t,h,alpha\n" + "\n".join(rows) + "\n", d)


def make_automorphism(d: int, seed: int):
    """A root-fixing tree automorphism: each vertex gets a seeded permutation
    of its child indices (first level permutes all d directions)."""
    perms: dict = {}

    def perm_for(prefix: tuple, n: int) -> list:
        if prefix not in perms:
            r = random.Random(derive_seed(seed, len(prefix), *prefix))
            p = list(range(n))
            r.shuffle(p)
            perms[prefix] = p
        return perms[prefix]

    def phi(v: tuple) -> tuple:
        out = []
        for i, step in enumerate(v):
            out.append(perm_for(v[:i], d if i == 0 else d - 1)[step])
        return tuple(out)

    return phi


def shell_members(d: int, centers, radius: int) -> set:
    """Explicit enumeration of a distance shell (for checking symbolic sets)."""
    return {v for v, r in bfs_depths(d, list(centers), radius).items() if r == radius}


@pytest.fixture
def rng():
    return random.Random(12345)
