"""Virtual-source walk simulation and infected-set snapshots.

The infected set at even t is the radius-t/2 ball around the virtual source;
at odd t it is either the previous ball (the walker stayed) or two depth
(t-1)/2 trees joined by the central edge (vs_{t-1}, vs_t) (the walker moved).
Snapshots therefore never materialize the infected set; they carry the pair
(vs_{t-1}, vs_t) and answer membership queries.

Determinism contract: a trajectory is a pure function of (protocol, T, seed).
The generator is stdlib ``random.Random`` (seeded Mersenne Twister, whose
``random()``/``getrandbits`` streams are stable across platforms and Python
versions), and the draw sequence is fixed: one ``randrange(d)`` for the first
step, then exactly one ``random()`` and one ``randrange(d-1)`` per even time,
both always drawn even when alpha is 0 or 1, so runs with different alpha
tables but equal seeds stay coupled draw-for-draw.  The walk draws
``randrange(n)`` as CPython does: ``getrandbits(n.bit_length())`` until the
value is below n.  Each step compares its ``random()`` draw with a float from
the protocol's alpha table (``Protocol.alpha_rows``), which holds exactly the
values ``Protocol.alpha`` returns.  The draw loop is written once, in
``walker(protocol, T)``: it does the per-time set-up once (horizon check,
alpha rows, draw widths) and returns a function that walks a generator the
caller seeded and lists the virtual source after each stage.
``simulate`` expands that list into the whole validated trajectory;
``sample_snapshot`` reads (vs_{t-1}, vs_t) from it, which is all a Monte
Carlo trial needs.  Both walk a fresh ``random.Random(seed)``; a Monte
Carlo job builds one walker per observation time and reseeds one generator
per walk.  The horizon check is ``protocol.walk_horizon``, the one rule for
which times a table protocol can serve, shared with hop tables and snapshot
laws.

Checks run where a pair enters: ``Snapshot(...)``, ``Snapshot.from_dict``,
``sample_snapshot`` and ``Trajectory``; ``Trajectory.snapshot_at`` builds
its pairs with ``Snapshot(...)`` too.  A Monte Carlo trial hands its walks'
labels to the estimator cores and builds no Snapshot.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from adl.protocol import Protocol, walk_horizon
from adl.tree import (
    Label,
    SOURCE,
    check_degree,
    check_label,
    distance,
    format_label,
    parse_label,
)


def is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _field(obj: dict, key: str, kind: type):
    """``obj[key]``, which must be present and a ``kind`` (a bool is no int)."""
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    value = obj[key]
    if not (is_int(value) if kind is int else isinstance(value, kind)):
        raise ValueError(f"{key!r} must be of type {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class Trajectory:
    """Virtual-source path vs_0 ... vs_T in origin-rooted coordinates.

    Construction checks the degree, every label and every step of the walk.
    """

    d: int
    protocol: str
    seed: int
    vs: tuple  # tuple[Label, ...]

    def __post_init__(self) -> None:
        check_degree(self.d)
        if not self.vs or self.vs[0] != SOURCE:
            raise ValueError("trajectory must start at the origin")
        for v in self.vs:
            check_label(self.d, v)
        if len(self.vs) > 1 and len(self.vs[1]) != 1:
            raise ValueError("vs_1 must be a neighbor of the origin")
        for t in range(1, len(self.vs) - 1):
            cur, nxt = self.vs[t], self.vs[t + 1]
            if t % 2 == 1:
                if nxt != cur:
                    raise ValueError(f"the virtual source must hold still at odd t={t}")
            elif nxt != cur and (len(nxt) != len(cur) + 1 or nxt[: len(cur)] != cur):
                raise ValueError(f"moves must step one edge away from the origin (t={t})")

    @property
    def T(self) -> int:
        return len(self.vs) - 1

    def h(self, t: int) -> int:
        """Distance of vs_t from the origin (depth of its label)."""
        return len(self.vs[t])

    def snapshot_at(self, t: int) -> "Snapshot":
        if not 1 <= t <= self.T:
            raise ValueError(f"snapshot time must be in 1..{self.T}, got {t}")
        return Snapshot(self.d, t, self.vs[t - 1], self.vs[t])

    def to_json(self) -> str:
        return json.dumps(
            {
                "d": self.d,
                "protocol": self.protocol,
                "seed": self.seed,
                "vs": [format_label(v) for v in self.vs],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Trajectory":
        """Parse and validate; any malformed field raises ValueError."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"a trajectory must be a JSON object, got {obj!r}")
        return cls(
            d=_field(obj, "d", int),
            protocol=_field(obj, "protocol", str),
            seed=_field(obj, "seed", int),
            vs=tuple(parse_label(s) for s in _field(obj, "vs", list)),
        )


def walker(protocol: Protocol, T: int) -> Callable[[random.Random], list]:
    """A function drawing a T-step walk from a caller-seeded generator.

    The set-up (horizon check, alpha rows, draw widths) is done here once.
    The function returns the virtual source after each stage: entry 0 is the
    origin and entry j is vs_{2j-1} = vs_{2j} (the walker holds still at odd
    t), so vs_s is entry ``(s + 1) // 2``.  t=0: move to a uniform neighbor
    of the origin.  Even t: stay with probability alpha(t, h_t), else append
    a uniform child entry; a stay keeps the same label object.
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    rows = protocol.alpha_rows(walk_horizon(protocol, T))
    steps = [rows[s] for s in range(2, T, 2)]
    d = protocol.d
    n_child = d - 1
    k_first, k_child = d.bit_length(), n_child.bit_length()

    def walk(rng: random.Random) -> list:
        bits, draw = rng.getrandbits, rng.random
        first = bits(k_first)
        while first >= d:
            first = bits(k_first)
        cur = (first,)
        states = [SOURCE, cur]
        for row in steps:
            u = draw()
            child = bits(k_child)  # always drawn: keeps seeds couplable
            while child >= n_child:
                child = bits(k_child)
            if u >= row[len(cur)]:
                cur = cur + (child,)
            states.append(cur)
        return states

    return walk


def simulate(protocol: Protocol, T: int, seed: int) -> Trajectory:
    """Sample the virtual-source chain for T steps as a validated trajectory."""
    states = walker(protocol, T)(random.Random(seed))
    return Trajectory(d=protocol.d, protocol=protocol.name, seed=seed,
                      vs=tuple(states[(s + 1) // 2] for s in range(T + 1)))


def sample_snapshot(protocol: Protocol, t: int, seed: int) -> "Snapshot":
    """The time-t snapshot of the walk that ``simulate(protocol, t, seed)``
    samples, built without the full trajectory: the same draws, and equal to
    ``simulate(protocol, t, seed).snapshot_at(t)``."""
    states = walker(protocol, t)(random.Random(seed))
    return Snapshot(protocol.d, t, states[t // 2], states[(t + 1) // 2])


@dataclass(frozen=True)
class Snapshot:
    """One observed infected subgraph, reduced to (t, vs_{t-1}, vs_t).

    At t = 1 the pair is (vs_0, vs_1) = (origin, first step); for every t >= 2
    neither entry can be the origin.  ``Snapshot(...)`` checks the degree and
    both labels, and that the pair is consistent (equal at even t; at odd t
    equal, or vs_prev the parent of vs_now); code past this point takes them
    as given.
    """

    d: int
    t: int
    vs_prev: Label
    vs_now: Label

    def __post_init__(self) -> None:
        check_degree(self.d)
        check_label(self.d, self.vs_prev)
        check_label(self.d, self.vs_now)
        if self.t < 1:
            raise ValueError(f"observation time must be >= 1, got {self.t}")
        if self.vs_prev != self.vs_now:
            if self.t % 2 == 0:
                raise ValueError("even-time snapshots have vs_prev == vs_now")
            if distance(self.vs_prev, self.vs_now) != 1:
                raise ValueError("a moved virtual source must be adjacent to its predecessor")
        if self.t >= 2 and (self.vs_prev == SOURCE or self.vs_now == SOURCE):
            raise ValueError("the virtual source never sits at the origin for t >= 2")
        if len(self.vs_prev) > len(self.vs_now):  # adjacent, so stored child first
            raise ValueError("a moved virtual source's vs_prev must be the parent of vs_now")

    @property
    def is_ball(self) -> bool:
        return self.t % 2 == 0 or self.vs_prev == self.vs_now

    @property
    def radius(self) -> int:
        """Ball radius: t/2 at even t, (t-1)/2 at odd t."""
        return self.t // 2

    def virtual_sources(self) -> tuple:
        """The identifiable virtual-source set: one label (ball) or two (edge)."""
        return (self.vs_now,) if self.vs_prev == self.vs_now else (self.vs_prev, self.vs_now)

    def min_vs_distance(self, v: Label) -> int:
        """min over the virtual-source set of the distance to v."""
        return min(distance(v, c) for c in self.virtual_sources())

    def contains(self, v: Label) -> bool:
        """Membership in the infected set."""
        return self.min_vs_distance(v) <= self.radius

    def infected_count(self) -> int:
        """|V_t| = k + k (d-k+1) ((d-1)^radius - 1) / (d-2) around the k
        virtual sources: each has d - k + 1 neighbours off the set, each the
        root of a (d-1)-ary tree of depth radius - 1."""
        d, k = self.d, len(self.virtual_sources())
        return k + k * (d - k + 1) * ((d - 1) ** self.radius - 1) // (d - 2)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "t": self.t,
            "vs_prev": format_label(self.vs_prev),
            "vs_now": format_label(self.vs_now),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Snapshot":
        """Parse and validate; a malformed field, or a pair no walk produces,
        raises ValueError.

        A walk leaves the origin at t=1 and never returns, so vs_t is never
        the origin.  A pair that held still (every even t, and a stay at odd
        t) sits at depth at most t//2; a moved pair steps from vs_prev to its
        child vs_t, at depth at most (t+1)//2.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"a snapshot must be a JSON object, got {obj!r}")
        s = cls(
            d=_field(obj, "d", int),
            t=_field(obj, "t", int),
            vs_prev=parse_label(_field(obj, "vs_prev", str)),
            vs_now=parse_label(_field(obj, "vs_now", str)),
        )
        depth = len(s.vs_now)
        if depth == 0:
            raise ValueError("vs_now is the origin, but every walk steps to a child of it at t=1")
        if s.vs_prev == s.vs_now:
            if depth > s.t // 2:
                raise ValueError(
                    f"no walk reaches depth {depth} by t={s.t} and holds still there: "
                    f"a snapshot with vs_prev == vs_now sits at depth at most t//2 = {s.t // 2}"
                )
        elif depth > (s.t + 1) // 2:
            raise ValueError(f"no walk reaches depth {depth} by t={s.t}")
        return s


def local_radius(trajectory: Trajectory, t: int) -> int:
    """Radius of the largest fully infected ball around the origin at even t.

    Equals t/2 - h_t.  Odd times are rejected: the identity is an even-time
    statement and no closed form is adopted for odd t.
    """
    if t % 2:
        raise ValueError("local_radius is defined at even times only")
    if not 0 <= t <= trajectory.T:
        raise ValueError(f"t must be in 0..{trajectory.T}, got {t}")
    return t // 2 - trajectory.h(t)
