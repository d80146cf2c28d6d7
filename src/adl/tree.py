"""Geometry of the infinite d-regular tree.

Vertices are addressed by their path from a distinguished origin (the true
source of a diffusion): a label is a tuple of integers where the first entry
in ``{0, ..., d-1}`` picks the edge out of the origin and every later entry in
``{0, ..., d-2}`` picks one of the remaining outward edges.  The empty tuple
``()`` is the origin itself.  The labelling is injective, so tuple equality is
vertex equality, and all metric operations reduce to prefix arithmetic.

This coordinate system exists for the benefit of simulators and exhaustive
enumerators; inference code is expected to treat labels as opaque and go
through the operations in this module only (results must be invariant under
relabelling of child indices; see the test suite).

Labels are checked once, where they enter: ``Snapshot(...)`` and
``Trajectory`` call :func:`check_degree` and :func:`check_label`.  Every
other operation here takes its labels as given.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

Label = tuple  # tuple[int, ...]; alias kept loose for 3.10-friendly hot paths

SOURCE: Label = ()

MAX_DEGREE = 1_000  # largest tree degree: a neighbour list is built whole


def check_degree(d: int) -> None:
    """Reject a tree degree below 3 or above MAX_DEGREE."""
    if d < 3:
        raise ValueError(f"degree must be >= 3, got {d}")
    if d > MAX_DEGREE:
        raise ValueError(f"degree must be at most {MAX_DEGREE}, got {d}")


@dataclass(frozen=True)
class TreeContext:
    """A checked tree degree, for code written against the earlier
    ``steiner_tree(ctx, terminals)`` call (``benchmarks/selftest.py``).

    Nothing in this package builds or reads one.
    """

    d: int

    def __post_init__(self) -> None:
        check_degree(self.d)


def check_label(d: int, v: Label) -> None:
    """Validate entry ranges for degree ``d``."""
    if v:
        if not 0 <= v[0] < d:
            raise ValueError(f"first label entry {v[0]} out of range for d={d}")
        for step in v[1:]:
            if not 0 <= step < d - 1:
                raise ValueError(f"label entry {step} out of range for d={d}")


def parse_label(text: str) -> Label:
    """Parse the text form: "/" is the origin, "/2/0/1" is the label (2, 0, 1).

    Only the canonical text that :func:`format_label` writes is accepted, so
    "/01", "/+1", "/ 1" or "/1_0" are malformed rather than read as numbers.
    """
    if not isinstance(text, str) or not text.startswith("/"):
        raise ValueError(f"label text must be a string starting with '/': {text!r}")
    try:
        v = tuple(int(part) for part in text[1:].split("/")) if text != "/" else ()
    except ValueError:
        v = None
    if v is None or format_label(v) != text:
        raise ValueError(f"malformed label text: {text!r}")
    return v


def format_label(v: Label) -> str:
    """Inverse of :func:`parse_label`."""
    return "/" + "/".join(str(step) for step in v) if v else "/"


def lcp_len(u: Label, v: Label) -> int:
    """Length of the longest common prefix of two labels."""
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return n


def distance(u: Label, v: Label) -> int:
    """Graph distance: |u| + |v| - 2 * lcp(u, v)."""
    return len(u) + len(v) - 2 * lcp_len(u, v)


def path_between(u: Label, v: Label) -> list[Label]:
    """The unique path from u to v inclusive; passes through their meet.

    Length is always distance(u, v) + 1 vertices.
    """
    k = lcp_len(u, v)
    down = [u[:i] for i in range(len(u), k, -1)]  # u ... just above the meet
    up = [v[:i] for i in range(k, len(v) + 1)]  # meet ... v
    return down + up


def neighbors(d: int, v: Label) -> list[Label]:
    """All d neighbors of ``v``: parent first (if any), then children in order."""
    if not v:
        return [(i,) for i in range(d)]
    return [v[:-1]] + [v + (j,) for j in range(d - 1)]


def steiner_tree(d, terminals: Iterable[Label]) -> set[Label]:
    """Minimal subtree spanning the terminals, as a vertex set.

    ``d`` (the degree, or a :class:`TreeContext`) is not read: the set
    follows from prefix arithmetic alone.  It stays first so that calls
    written against the earlier ``steiner_tree(ctx, terminals)`` still work.

    Equals the union of path_between over all terminal pairs.  Every such
    path climbs from one terminal to a meet no shallower than the terminals'
    common prefix and descends to the other, so the set is every prefix of a
    terminal that is at least as long as that common prefix.  In
    lexicographic order every label between two others shares their common
    prefix, so that prefix is the one of the smallest and largest terminal.
    """
    terms = set(terminals)
    if not terms:
        raise ValueError("steiner_tree requires a nonempty terminal set")
    top = lcp_len(min(terms), max(terms))
    return {t[:i] for t in terms for i in range(top, len(t) + 1)}


def bfs_depths(d: int, core: Iterable[Label], depth: int) -> dict:
    """Map every vertex within ``depth`` of the core to its distance from it."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    dist: dict = {v: 0 for v in core}
    if not dist:
        raise ValueError("core must be nonempty")
    frontier = deque(dist)
    while frontier:
        v = frontier.popleft()
        r = dist[v]
        if r == depth:
            continue
        for w in neighbors(d, v):
            if w not in dist:
                dist[w] = r + 1
                frontier.append(w)
    return dist


def ball_size(d: int, radius: int) -> int:
    """|B_r(v)| = 1 + d * ((d-1)^r - 1) / (d-2) in a d-regular tree."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return 1 + d * ((d - 1) ** radius - 1) // (d - 2)


def sphere_size(d: int, radius: int) -> int:
    """Number of vertices at distance exactly ``radius`` from a vertex."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius == 0:
        return 1
    return d * (d - 1) ** (radius - 1)


def labels_at_depth(d: int, depth: int) -> Iterator[Label]:
    """All labels at the given distance from the origin, lexicographically."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        yield ()
        return
    stack: list[Label] = [(i,) for i in range(d - 1, -1, -1)]
    while stack:
        v = stack.pop()
        if len(v) == depth:
            yield v
        else:
            stack.extend(v + (j,) for j in range(d - 2, -1, -1))
