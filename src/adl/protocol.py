"""Adaptive diffusion protocols and the hop-distance dynamic program.

A protocol is a degree d together with a table alpha(t, h) of stay
probabilities, defined for even t >= 2 and 1 <= h <= t/2: at each even time t
the virtual source stays put with probability alpha(t, h_t) and otherwise
moves one step further from the origin.  Three closed-form protocols are
built in:

* ``uniform``   -- alpha(t, h) = (t - 2h + 2) / (t + 2); makes h_t uniform on
                  {1, ..., t/2} at every even t.
* ``perfect``   -- alpha(t, h) = ((d-1)^(t/2-h+1) - 1) / ((d-1)^(t/2+1) - 1);
                  makes every infected vertex other than the virtual source
                  equally likely to be the origin.
* ``local``     -- the 0/1 gamma-indexed schedule that pins h_t to
                  floor(gamma * t / 2) once t > 2/gamma, trading obfuscation
                  for local spread around the origin.

All built-in alphas are rational, so the hop distribution p(t, h) = P(h_t = h)
can be carried both as exact fractions and as floats; table-backed protocols
(loaded from CSV) are float-only.

A protocol owns its hop law and the single-snapshot law, each written once
and kept on the instance: ``Protocol.hop_row`` runs the hop recurrence,
``Protocol._split`` divides the hop masses at even t into stayed (p alpha)
and moved (p (1 - alpha)), kept beside the hop rows, and
``Protocol.snapshot_weights`` gives a time-t snapshot's per-hop weights,
which ``stay_probability_at``, the likelihood estimators and the exact
oracle all read.  ``walk_horizon`` is the one rule for which times a table
protocol can serve; ``hop_distribution`` checks it and returns fresh copies
of the kept rows for dumps and checks.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Callable, Optional, Union

from adl.tree import ball_size, check_degree

Rational = Union[int, Fraction]


def _check_domain(t: int, h: int) -> None:
    if t < 2 or t % 2 != 0:
        raise ValueError(f"alpha is defined for even t >= 2 only, got t={t}")
    if not 1 <= h <= t // 2:
        raise ValueError(f"alpha is defined for 1 <= h <= t/2, got (t={t}, h={h})")


def alpha_uniform(t: int, h: int) -> Fraction:
    """Stay probability (t - 2h + 2) / (t + 2) of the uniform protocol."""
    _check_domain(t, h)
    return Fraction(t - 2 * h + 2, t + 2)


def alpha_perfect(d: int, t: int, h: int) -> Fraction:
    """Stay probability ((d-1)^(t/2-h+1) - 1) / ((d-1)^(t/2+1) - 1)."""
    check_degree(d)
    _check_domain(t, h)
    m = d - 1
    return Fraction(m ** (t // 2 - h + 1) - 1, m ** (t // 2 + 1) - 1)


def gamma_fraction(gamma: Union[float, str, Fraction]) -> Fraction:
    """The local-spreading parameter as an exact rational in (0, 1).

    A float is read through its shortest decimal form, so 0.3 is 3/10, the
    value that was written, not the binary float just below it.  A string
    may be a decimal or a ratio such as "1/3"; one with an exponent is read
    as a float first, so "1e-999999999" is not expanded into a huge integer.
    """
    try:
        if isinstance(gamma, str) and "e" in gamma.lower():
            gamma = float(gamma)
        g = Fraction(repr(gamma)) if isinstance(gamma, float) else Fraction(gamma)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"local protocol needs a numeric 'gamma', got {gamma!r}") from None
    if not 0 < g < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    return g


def alpha_local_spreading(gamma: Union[float, str, Fraction], t: int, h: int) -> int:
    """0/1 stay rule of the local-spreading protocol with parameter gamma:
    1 exactly when the hop target :func:`local_hop_target` (exact rational,
    so floor boundaries are unambiguous) does not advance at the next even
    time, which holds at every t <= 2/gamma."""
    g = gamma_fraction(gamma)
    _check_domain(t, h)
    return int(local_hop_target(g, t) == local_hop_target(g, t + 2))


def local_hop_target(gamma: Union[float, str, Fraction], t: int) -> int:
    """Deterministic h_t of the local-spreading protocol at even t."""
    g = gamma_fraction(gamma)
    if t < 2 or t % 2:
        raise ValueError(f"even t >= 2 required, got {t}")
    if t * g <= 2:
        return 1
    return int(g * t // 2)


@dataclass(frozen=True)
class Protocol:
    """Degree + alpha table, and the hop law the table fixes.  Query outside
    the domain (odd t, h out of range, or beyond a table's horizon) is an
    error, never a default."""

    d: int
    name: str
    _alpha: Callable[[int, int], Fraction] = field(repr=False)
    t_max: Optional[int] = None  # inclusive horizon for table-backed protocols
    exact: bool = True  # whether _alpha returns exact rationals
    # even t -> [unused, alpha(t, 1), ..., alpha(t, t/2)], filled by alpha_rows
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # entry t/2 - 1 -> [p(t, 1), ..., p(t, t/2)], filled by hop_row
    _hops: list = field(default_factory=list, init=False, repr=False, compare=False)
    # entry t/2 - 1 -> (stayed, moved) split of hop row t, kept by hop_row
    # when it builds row t + 2 from it
    _splits: list = field(default_factory=list, init=False, repr=False, compare=False)
    # (t, ball) -> per-hop likelihood row, filled by the estimators
    _scores: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # even t -> mle_success_probability(t), kept on first use
    _success: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_degree(self.d)

    def alpha(self, t: int, h: int) -> float:
        return float(self._alpha_checked(t, h))

    def alpha_rows(self, t_last: int) -> dict:
        """Float alphas ``rows[t][h] == self.alpha(t, h)`` for every even
        2 <= t <= t_last (index 0 of a row is unused).

        Rows are computed through :meth:`alpha` on first request and kept on
        this instance, so later walks read a list instead of building a
        Fraction per step.  Rows are added in increasing t, so the presence
        of the last one implies all earlier ones.
        """
        rows = self._rows
        t_last = even_floor(t_last)
        if t_last < 2 or t_last in rows:
            return rows
        for t in range(2, t_last + 1, 2):
            if t not in rows:
                rows[t] = [0.0] + [self.alpha(t, h) for h in range(1, t // 2 + 1)]
        return rows

    def alpha_exact(self, t: int, h: int) -> Fraction:
        if not self.exact:
            raise ValueError(f"protocol {self.name!r} has no exact alpha values")
        return Fraction(self._alpha_checked(t, h))

    def _alpha_checked(self, t: int, h: int):
        _check_domain(t, h)
        if self.t_max is not None and t > self.t_max:
            raise ValueError(f"t={t} beyond protocol horizon T_max={self.t_max}")
        a = self._alpha(t, h)
        if not 0 <= a <= 1:
            raise ValueError(f"alpha({t},{h}) = {a} outside [0, 1]")
        return a

    def hop_row(self, t: int) -> list:
        """p(t, h) = P(h_t = h) at even t >= 2, entry h - 1, exact when this
        protocol is.  p(2, 1) = 1 (the first step is forced) and

            p(t+2, h) = alpha(t, h) p(t, h) + (1 - alpha(t, h-1)) p(t, h-1),

        with p(t, h) = 0 outside 1 <= h <= t/2, so alpha is never queried
        outside its domain.  Rows are computed in increasing t on first
        request and kept on this instance, like :meth:`alpha_rows`, and so is
        the split of each row that built the next one; the list returned is
        the kept row itself.
        """
        if t < 2 or t % 2:
            raise ValueError(f"hop distribution is defined at even t >= 2, got {t}")
        hops = self._hops
        if not hops:
            hops.append([Fraction(1) if self.exact else 1.0])
        while len(hops) < t // 2:
            stayed, moved = self._split(hops[-1], 2 * len(hops))
            self._splits.append((stayed, moved))
            hops.append(list(map(add, stayed + [0], [0] + moved)))
        return hops[t // 2 - 1]

    def _split(self, row: list, t: int) -> tuple:
        """The hop masses ``row[h - 1] = p(t, h)`` at even t split by the step
        after t: (stayed, moved) = (p alpha(t, h), p (1 - alpha(t, h)))."""
        get_alpha = self.alpha_exact if self.exact else self.alpha
        alphas = [get_alpha(t, h) for h in range(1, len(row) + 1)]
        return [p * a for p, a in zip(row, alphas)], [p * (1 - a) for p, a in zip(row, alphas)]

    def snapshot_weights(self, t: int, ball: bool) -> list:
        """Per-hop weights of a time-t snapshot, entry h - 1 for hop h: p(t, h)
        at even t; at odd t the stayed (``ball``) or moved half of p(t-1, h),
        whose vs_t is at hop h + 1, read from the split kept beside the hop
        rows.  Exact when this protocol is; a new list on every call."""
        t_eff = even_floor(t)
        if t_eff < 2:
            raise ValueError(f"snapshot at t={t} is too early for likelihood inference")
        if t == t_eff:
            return self.hop_row(t)[:]
        self.hop_row(t + 1)  # built from row t - 1, whose split it keeps
        return self._splits[t_eff // 2 - 1][0 if ball else 1][:]

    def mle_success_probability(self, t: int):
        """max_h p(t, h) / (d (d-1)^(h-1)): single-snapshot MLE hit rate at even t."""
        value = self._success.get(t)
        if value is None:
            d = self.d
            value = self._success[t] = max(
                p / (d * (d - 1) ** h) for h, p in enumerate(self.hop_row(t))
            )
        return value


def uniform_protocol(d: int) -> Protocol:
    return Protocol(d=d, name="uniform", _alpha=lambda t, h: alpha_uniform(t, h))


def perfect_protocol(d: int) -> Protocol:
    return Protocol(d=d, name="perfect", _alpha=lambda t, h: alpha_perfect(d, t, h))


def local_spreading_protocol(d: int, gamma: Union[float, str, Fraction]) -> Protocol:
    g = gamma_fraction(gamma)
    return Protocol(
        d=d,
        name=f"local(gamma={float(g):g})",
        _alpha=lambda t, h: Fraction(alpha_local_spreading(g, t, h)),
    )


def constant_protocol(d: int, value: Rational) -> Protocol:
    """alpha == value everywhere; handy for degenerate schedules (0 or 1)."""
    v = Fraction(value)
    if not 0 <= v <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {value}")
    return Protocol(d=d, name=f"const({float(v):g})", _alpha=lambda t, h: v)


def load_protocol_table(source: Union[str, bytes], d: int) -> Protocol:
    """Build a table-backed protocol from CSV with header ``t,h,alpha``.

    The table must cover every even t from 2 up to its largest t, with every
    h in 1..t/2 present exactly once.  Violations (odd t, h out of range,
    alpha outside [0, 1], duplicates, gaps) are collected and reported; a
    gap report lists at most the first ten missing pairs.
    """
    text = source.decode("utf-8") if isinstance(source, bytes) else source
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # a lone \r, a field past csv's size limit, a NUL before 3.11
        raise ValueError(f"invalid protocol table: line {reader.line_num}: {exc}") from None
    header = rows[0] if rows else None
    if header is None or [c.strip() for c in header] != ["t", "h", "alpha"]:
        raise ValueError(f"expected header 't,h,alpha', got {header}")

    table: dict = {}
    problems: list[str] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            problems.append(f"line {lineno}: expected 3 fields, got {len(row)}")
            continue
        try:
            t, h, a = int(row[0]), int(row[1]), float(row[2])
        except ValueError:
            problems.append(f"line {lineno}: malformed row {row}")
            continue
        if t < 2 or t % 2:
            problems.append(f"line {lineno}: odd or too-small t={t}")
            continue
        if not 1 <= h <= t // 2:
            problems.append(f"line {lineno}: h={h} out of range for t={t}")
            continue
        if not 0.0 <= a <= 1.0:
            problems.append(f"line {lineno}: alpha={a} outside [0, 1]")
            continue
        if (t, h) in table:
            problems.append(f"line {lineno}: duplicate entry for (t={t}, h={h})")
            continue
        table[(t, h)] = a
    if problems:
        raise ValueError("invalid protocol table: " + "; ".join(problems))
    if not table:
        raise ValueError("protocol table is empty")
    t_max = max(t for t, _ in table)
    # rows are unique and in range, so a full table has exactly n(n+1)/2 of them
    n_missing = (t_max // 2) * (t_max // 2 + 1) // 2 - len(table)
    if n_missing:
        every_pair = ((t, h) for t in range(2, t_max + 1, 2) for h in range(1, t // 2 + 1))
        missing = list(itertools.islice((p for p in every_pair if p not in table), 10))
        if n_missing > len(missing):
            raise ValueError(f"protocol table has gaps: {n_missing} pairs missing, "
                             f"the first {missing}")
        raise ValueError(f"protocol table has gaps: missing {missing}")

    return Protocol(
        d=d,
        name="table",
        _alpha=lambda t, h: table[(t, h)],
        t_max=t_max,
        exact=False,
    )


# the spec keys protocol_from_spec reads for each protocol name
SPEC_KEYS = {"uniform": {"name"}, "perfect": {"name"}, "local": {"name", "gamma"},
             "table": {"name", "table", "table_csv"}}
PROTOCOLS = tuple(SPEC_KEYS)


def protocol_from_spec(d: int, spec: dict) -> Protocol:
    """Build a protocol from ``{"name", "gamma", "table" | "table_csv"}``.

    ``gamma`` is required by ``local``; ``table`` (a CSV path) or
    ``table_csv`` (inline CSV text) by ``table``.  A malformed spec raises
    ValueError, an unreadable table file OSError.
    """
    name = spec.get("name")
    if name == "uniform":
        return uniform_protocol(d)
    if name == "perfect":
        return perfect_protocol(d)
    if name == "local":
        return local_spreading_protocol(d, spec.get("gamma"))
    if name == "table":
        if isinstance(spec.get("table"), str):
            with open(spec["table"], "rb") as fh:
                return load_protocol_table(fh.read(), d)
        if isinstance(spec.get("table_csv"), str):
            return load_protocol_table(spec["table_csv"], d)
        raise ValueError("table protocol needs 'table' (path) or 'table_csv' (inline)")
    raise ValueError(f"unknown protocol {name!r} (known: {', '.join(PROTOCOLS)})")


def even_floor(t: int) -> int:
    """The last even time at or before t: the hop-table time a time-t
    snapshot depends on."""
    return t - t % 2


def check_horizon(T: int) -> None:
    """Reject a hop-table horizon that is not an even integer >= 2."""
    if T < 2 or T % 2:
        raise ValueError(f"horizon must be an even integer >= 2, got {T}")


def walk_horizon(protocol: Protocol, T: int) -> int:
    """The last even step of a T-step walk; raises past the protocol's table.

    A time-T snapshot's law and the hop row at even T read alpha up to this
    same step, so this is the one horizon rule for walks, snapshot laws and
    hop tables alike.
    """
    last_even = even_floor(T - 1)
    if protocol.t_max is not None and last_even >= 2 and last_even > protocol.t_max:
        raise ValueError(
            f"T={T} needs alpha at t={last_even} but the protocol stops at {protocol.t_max}"
        )
    return last_even


def hop_distribution(protocol: Protocol, T: int) -> dict:
    """The protocol's hop law up to the even horizon T as ``{t: row}`` for
    every even 2 <= t <= T, ``row[h - 1] = p(t, h)`` (:meth:`Protocol.hop_row`),
    each row a fresh list; exact when the protocol is."""
    check_horizon(T)
    walk_horizon(protocol, T)
    return {t: protocol.hop_row(t)[:] for t in range(2, T + 1, 2)}


def stay_probability_at(protocol: Protocol, t_odd: int):
    """P(the time-t_odd snapshot is a ball) = sum_h p(t_odd - 1, h) alpha(t_odd - 1, h).

    Exact when the protocol is (the uniform protocol gives exactly 1/2 for
    every odd t >= 3).
    """
    if t_odd < 3 or t_odd % 2 == 0:
        raise ValueError(f"odd t >= 3 required, got {t_odd}")
    return sum(protocol.snapshot_weights(t_odd, ball=True))


def infected_count_even(d: int, t: int) -> int:
    """N_t = d/(d-2) ((d-1)^(t/2) - 1) + 1 for even t."""
    if t < 0 or t % 2:
        raise ValueError(f"even t >= 0 required, got {t}")
    return ball_size(d, t // 2)
