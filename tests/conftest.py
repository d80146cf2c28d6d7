"""Shared test helpers: independent infected-set construction, child-index
relabelling automorphisms, and shell enumeration."""

from __future__ import annotations

import random

import pytest

from adl.diffusion import Trajectory
from adl.experiments import derive_seed
from adl.tree import SOURCE, bfs_depths, distance, neighbors


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
