"""In-memory span tracer for the benchmark's traced run.

The tracer replaces each layer's functions with a wrapper wherever the
package's callers look them up: every ``adl.*`` module attribute and every
value of a module-level dict that is the original function, or the attribute
of the class that owns a method.  A span wrapper records (name, start, end,
parent, op id) in flat arrays; a count wrapper only counts calls, for
functions called so often that a span would swamp what it measures.  A
target that no longer exists is reported as absent instead of failing, so
the traced run survives refactors that rename or remove a function.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from pathlib import Path


class Tracer:
    """Spans and call counts of one traced run; ``op`` is the id of the op
    being run, stamped on every span it opens."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.counts: dict[str, int] = {}
        self.observed: dict[str, dict] = {}
        self.op = -1
        self.absent: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name: str, observe: bool):
        name_id = self._name_id(name)
        names, starts, ends, parents, ops = (
            self.name_col, self.starts, self.ends, self.parents, self.ops)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self
        stats = self.observed.setdefault(name, {"calls": 0, "ties": 0, "fallback": 0,
                                                "precondition_fail": 0}) if observe else None

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if stats is not None:
                    stats["calls"] += 1
                    stats["precondition_fail"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if stats is not None:
                _observe_estimate(stats, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, targets) -> None:
        """``targets``: (module, attribute path, name, kind) with kind one of
        "span", "observe" (span plus Estimate statistics) or "count"."""
        for module_name, path, name, kind in targets:
            owner, attr, fn = _resolve(module_name, path)
            if fn is None:
                self.absent.append(name)
                continue
            if kind == "count":
                wrapper = self._count_wrapper(fn, name)
            else:
                wrapper = self._span_wrapper(fn, name, observe=kind == "observe")
            if isinstance(owner, type):
                self._patch_attr(owner, attr, wrapper)
            else:
                self._patch_everywhere(fn, wrapper)

    def _patch_attr(self, owner, attr, value) -> None:
        had = attr in vars(owner)
        self._patches.append(("attr", owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def _patch_everywhere(self, fn, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "adl" or mod_name.startswith("adl.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patch_attr(mod, key, wrapper)
                elif type(value) is dict:
                    for k2, v2 in list(value.items()):
                        if v2 is fn:
                            self._patches.append(("item", value, k2, v2, True))
                            value[k2] = wrapper

    def uninstall(self) -> None:
        for kind, owner, key, old, had in reversed(self._patches):
            if kind == "item":
                owner[key] = old
            elif had:
                setattr(owner, key, old)
            else:
                delattr(owner, key)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def analyse(self) -> "SpanTable":
        return SpanTable(self)

    def write(self, path: Path) -> None:
        """Spans as gzip CSV: name,start_ns,end_ns,parent,op (parent -1 = root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            names = self.names
            for i in range(len(self.starts)):
                fh.write(f"{names[self.name_col[i]]},{self.starts[i]},{self.ends[i]},"
                         f"{self.parents[i]},{self.ops[i]}\n")


def _observe_estimate(stats: dict, est) -> None:
    stats["calls"] += 1
    try:
        stats["ties"] += est.tie_count()
        stats["fallback"] += bool(est.diagnostics.get("fallback"))
    except AttributeError:
        pass


def _resolve(module_name: str, path: str):
    """(owner, attribute, object) for ``module.path``; object None if absent."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None, None, None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    return owner, attr, getattr(owner, attr, None)


class SpanTable:
    """Durations, self times and top-level ancestors of recorded spans."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        name_col, starts, ends, parents = (
            tracer.name_col, tracer.starts, tracer.ends, tracer.parents)
        n = len(starts)
        dur = [ends[i] - starts[i] for i in range(n)]
        child = [0] * n
        top = list(range(n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
                top[i] = top[p]
        self.by_name: dict[str, list[int]] = {}
        self.self_by_module: dict[str, int] = {}
        for i in range(n):
            name = self.names[name_col[i]]
            self.by_name.setdefault(name, []).append(i)
            module = name.split(".", 1)[0]
            self.self_by_module[module] = self.self_by_module.get(module, 0) + dur[i] - child[i]
        self.dur = dur
        self.top_name = [self.names[name_col[top[i]]] for i in range(n)]

    def durations_us(self, name: str, under: str | None = None) -> list[float]:
        idx = self.by_name.get(name, [])
        if under is not None:
            idx = [i for i in idx if self.top_name[i] == under]
        return [self.dur[i] / 1e3 for i in idx]

    def durations_prefix_us(self, prefix: str, under: str | None = None) -> list[float]:
        out: list[float] = []
        for name in self.by_name:
            if name.startswith(prefix):
                out.extend(self.durations_us(name, under))
        return out
