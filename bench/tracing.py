"""Outside-in tracing: spans around calls into the program's public functions.

``install`` replaces each traced function in every ``visualraag`` module
namespace that bound it by name (``dismantle`` imports ``cfs_status``,
``oracle`` imports ``check_r3``, ...), and the traced methods on their class.
Generator functions get one span per resumption, so their time is counted
across their consumption.  Spans (name, graph, parent, start, end) stay in
memory until ``write`` dumps them; ``summary`` derives self times from them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, kind); kind is "fn", "gen" (generator function) or
# "count" (calls counted without a span: too frequent for one each)
TRACED = (
    ("graphs", "has_separating_clique", "fn"),
    ("graphs", "induced_cycles", "gen"),
    ("graphs", "Graph.subgraph", "fn"),
    ("squares", "diagonal_graph", "fn"),
    ("squares", "cfs_status", "fn"),
    ("squares", "is_strongly_cfs", "fn"),
    ("dismantle", "global_search", "fn"),
    ("dismantle", "relative_search", "fn"),
    ("dismantle", "enumerate_dismantlings", "gen"),
    ("dismantle", "forbidden_cycle_check", "fn"),
    ("jsj", "find_cuts", "fn"),
    ("jsj", "graph_of_cylinders", "fn"),
    ("jsj", "uncrossed_cuts", "fn"),
    ("jsj", "assemble_lambdas", "fn"),
    ("dl", "verify_fidl", "fn"),
    ("dl", "commuting_graph", "fn"),
    ("dl", "precondition_failures", "fn"),
    ("dl", "check_r3", "fn"),
    ("dl", "check_r4", "fn"),
    ("dl", "HullOracle.hull", "count"),
    ("oracle", "naive_search", "fn"),
    ("oracle", "spanning_trees", "gen"),
    ("oracle", "spanning_tree_count", "fn"),
)

# what each traced call's return value adds to the counters
_RESULT_COUNTS = {
    "squares.diagonal_graph": ("squares.diagonal_graph.diagonals", lambda dg: len(dg.diagonals)),
    "jsj.find_cuts": ("jsj.find_cuts.cuts", len),
}
_YIELD_COUNTS = {"graphs.induced_cycles": "graphs.induced_cycles.cycles"}
_STATS_FIELDS = ("states_expanded", "removals_tried")
# the searches whose DismantleStats are read by passing ``stats=`` through
_STATS_READERS = ("dismantle.relative_search", "dismantle.enumerate_dismantlings")


class Tracer:
    """Span store plus counters; records only while ``active``."""

    def __init__(self):
        self.active = False
        self.graph = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.graph_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._reading: set[int] = set()  # ids of the stats objects being read
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.graph_of.append(self.graph)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    # -------------------------------------------------------------- wrappers

    def _wrap_fn(self, fn, name: str):
        result_count = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if result_count is not None:
                self.counts[result_count[0]] += result_count[1](out)
            return out

        return wrapper

    def _stats_reader(self, fn, stats_type):
        """Binds a search call with a ``stats`` object, passed in when the
        caller gave none (the second pass of a "no" calls
        ``enumerate_dismantlings`` with ``stats=None``); returns the bound
        arguments and a function that adds the call's counters once.  A stats
        object that an enclosing traced search already reads is not read twice."""
        signature = inspect.signature(fn)

        def bind(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            stats = bound.arguments.get("stats")
            if stats is None:
                stats = bound.arguments["stats"] = stats_type()
            if id(stats) in self._reading:
                return bound, lambda: None
            self._reading.add(id(stats))
            before = [getattr(stats, f) for f in _STATS_FIELDS]

            def done():
                self._reading.discard(id(stats))
                for f, b in zip(_STATS_FIELDS, before):
                    self.counts[f"dismantle.{f}"] += getattr(stats, f) - b

            return bound, done

        return bind

    def _wrap_search(self, fn, name: str, stats_type):
        """``relative_search`` with its counters read through ``stats=``."""
        bind = self._stats_reader(fn, stats_type)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            bound, done = bind(args, kwargs)
            i = self.open(name)
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                self.close(i)
                done()

        return wrapper

    def _wrap_gen(self, fn, name: str, stats_type=None):
        """One span per resumption; with ``stats_type``, the generator's
        search counters are read through ``stats=`` when it is closed."""
        yield_count = _YIELD_COUNTS.get(name)
        bind = self._stats_reader(fn, stats_type) if stats_type is not None else None

        def consume(it, done):
            try:
                while True:
                    i = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(i)
                    if yield_count is not None:
                        self.counts[yield_count] += 1
                    yield item
            finally:
                it.close()
                done()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if bind is None:
                return consume(fn(*args, **kwargs), lambda: None)
            bound, done = bind(args, kwargs)
            return consume(fn(*bound.args, **bound.kwargs), done)

        return wrapper

    def _wrap_count(self, fn, name: str):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced function wherever a ``visualraag`` module bound it."""
        namespaces = [
            m for k, m in sys.modules.items() if k == "visualraag" or k.startswith("visualraag.")
        ]
        stats_type = sys.modules["visualraag.dismantle"].DismantleStats
        for modname, attr, kind in TRACED:
            mod = sys.modules[f"visualraag.{modname}"]
            name = f"{modname}.{attr}"
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(mod, owner) if owner else mod
            original = getattr(holder, leaf)
            if kind == "count":
                wrapper = self._wrap_count(original, name)
            elif kind == "gen":
                wrapper = self._wrap_gen(original, name,
                                         stats_type if name in _STATS_READERS else None)
            elif name in _STATS_READERS:
                wrapper = self._wrap_search(original, name, stats_type)
            else:
                wrapper = self._wrap_fn(original, name)
            if owner:
                targets = [holder]
            else:
                targets = [ns for ns in namespaces if vars(ns).get(leaf) is original]
            for ns in targets:
                self._restore.append((ns, leaf, original))
                setattr(ns, leaf, wrapper)

    def uninstall(self):
        for ns, leaf, original in reversed(self._restore):
            setattr(ns, leaf, original)
        self._restore.clear()

    # --------------------------------------------------------------- results

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms (inclusive minus the
        time covered by its child spans)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        self_t = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_t[p] -= dur[i]
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for n in self.names
        }
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["ms"] += dur[i] * 1000
            row["self_ms"] += self_t[i] * 1000
        return out

    def inclusive_ms_under(self, names: set[str], parents: set[str]) -> float:
        """Total duration of spans named in ``names`` whose parent is named in ``parents``."""
        ids = {self._ids[n] for n in names if n in self._ids}
        pids = {self._ids[n] for n in parents if n in self._ids}
        total = 0.0
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            if nid in ids and p >= 0 and self.name[p] in pids:
                total += self.end[i] - self.start[i]
        return total * 1000

    def write(self, path: Path):
        t0 = self.start[0] if self.start else 0.0
        data = {
            "names": self.names,
            "columns": ["name", "graph", "parent", "start_us", "end_us"],
            "name": list(self.name),
            "graph": list(self.graph_of),
            "parent": list(self.parent),
            "start_us": [round((s - t0) * 1e6, 1) for s in self.start],
            "end_us": [round((e - t0) * 1e6, 1) for e in self.end],
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh)
