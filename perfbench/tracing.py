"""In-memory tracing of the program's layers, installed from outside it.

``Tracer.install`` replaces each traced function at every name it is looked
up by (the defining module, the modules that imported it by name, and the
package namespace), so nothing under ``src/`` changes.  Boundary calls
record spans (name, layer, start, end, parent); hot inner calls only bump
counters, which keeps the traced run close to the untraced one.  Spans and
counters stay in memory until ``dump``; ``layer_metrics`` turns them into
the per-layer metrics.

A layer's self time is its spans' durations minus the part of each interval
that child spans cover; spans opened on a worker thread count as children
of whatever span the main thread has open.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter

# (module, attribute, layer): boundary functions that record spans.
SPANS = (
    ("dockalloc.cli", "main", "cli"),
    ("dockalloc.demand", "load_trips_csv", "demand"),
    ("dockalloc.demand", "load_status_csv", "demand"),
    ("dockalloc.demand", "estimate_rates", "demand"),
    ("dockalloc.demand", "load_profiles", "demand"),
    ("dockalloc.udf", "LazyDailyCost._build", "udf"),
    ("dockalloc.longrun", "day_chain", "longrun"),
    ("dockalloc.allocator", "optimize", "allocator"),
    ("dockalloc.allocator", "optimize_tradeoff", "allocator"),
    ("dockalloc.allocator", "bike_optimal", "allocator"),
    ("dockalloc.scaling", "optimize_scaled", "scaling"),
    ("dockalloc.scaling", "optimize_scaled_constrained", "scaling"),
    ("dockalloc.posterior", "load_days", "posterior"),
    ("dockalloc.posterior", "posterior_report", "posterior"),
    ("dockalloc.posterior", "added_capacity_impact", "posterior"),
    ("dockalloc.posterior", "decreased_capacity_impact", "posterior"),
)
# (module, attribute, key): hot calls, counted as <key>_calls and timed as
# <key>_s without a span each.
TIMED = (
    ("dockalloc.udf", "interval_cost_poisson", "udf.interval"),
    ("dockalloc.longrun", "stationary", "longrun.stationary"),
)
# (module, attribute, counter): the hottest calls, only counted.
COUNTERS = (
    ("dockalloc.udf", "LazyDailyCost.cost", "udf.cost_evals"),
    ("dockalloc.longrun", "LongrunCost.cost", "udf.cost_evals"),
    ("dockalloc.allocator", "_Descent.apply", "allocator.moves"),
)
SOLVER_LAYERS = ("allocator", "scaling")

PER_LAYER = (
    ("demand.load_trips_s", "s"),
    ("demand.load_status_s", "s"),
    ("demand.estimate_rates_s", "s"),
    ("demand.records", "count"),
    ("demand.flagged_buckets", "count"),
    ("udf.interval_calls", "count"),
    ("udf.interval_s", "s"),
    ("udf.capacity_builds", "count"),
    ("udf.build_s", "s"),
    ("udf.cost_evals", "count"),
    ("longrun.chains", "count"),
    ("longrun.stationary_s", "s"),
    ("longrun.nonergodic", "count"),
    ("allocator.bike_optimal_s", "s"),
    ("allocator.self_s", "s"),
    ("allocator.moves", "count"),
    ("allocator.evals_per_move", "ratio"),
    ("scaling.self_s", "s"),
    ("scaling.iterations", "count"),
    ("scaling.cost_evals", "count"),
    ("posterior.resamples", "count"),
    ("posterior.resample_us", "us"),
    ("posterior.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.threads", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[list, Counter]] = []
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._patched: list[tuple[object, str, object]] = []

    # -- per-thread state ---------------------------------------------------
    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            stack = self._main_stack if threading.current_thread() is self._main else []
            st = ([], Counter(), stack)
            self._local.state = st
            with self._lock:
                self._threads.append((st[0], st[1]))
        return st

    def reset(self) -> None:
        with self._lock:
            for spans, counts in self._threads:
                spans.clear()
                counts.clear()

    # -- wrappers -----------------------------------------------------------
    def _span(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            spans, counts, stack = self._state()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            evals, moves = counts["udf.cost_evals"], counts["allocator.moves"]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            spans.append(
                {
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "evals": counts["udf.cost_evals"] - evals,
                    "moves": counts["allocator.moves"] - moves,
                    "value": _span_value(name, result),
                }
            )
            return result

        return wrapped

    def _timed(self, fn, key: str):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts = self._state()[1]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                counts[f"{key}_s"] += time.perf_counter() - start
                counts[f"{key}_calls"] += 1
            if key == "longrun.stationary" and not result[1]:
                counts["longrun.nonergodic"] += 1
            return result

        return wrapped

    def _counted(self, fn, key: str):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._state()[1][key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _thread_count(self, fn):
        @functools.wraps(fn)
        def wrapped():
            n = fn()
            counts = self._state()[1]
            counts["cli.threads"] = max(counts["cli.threads"], n)
            return n

        return wrapped

    # -- installation -------------------------------------------------------
    def _patch(self, module: str, attr: str, make):
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        replacement = make(original)
        if isinstance(owner, type):
            self._patched.append((owner, name, original))
            setattr(owner, name, replacement)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "dockalloc" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, replacement)

    def install(self) -> "Tracer":
        import dockalloc  # noqa: F401  (loads every module the patches name)
        import dockalloc.cli  # noqa: F401

        for module, attr, layer in SPANS:
            name = f"{module.rsplit('.', 1)[-1]}.{attr}"
            self._patch(module, attr, lambda fn, n=name, l=layer: self._span(fn, n, l))
        for module, attr, key in TIMED:
            self._patch(module, attr, lambda fn, k=key: self._timed(fn, k))
        for module, attr, key in COUNTERS:
            self._patch(module, attr, lambda fn, k=key: self._counted(fn, k))
        self._patch("dockalloc.cli", "_thread_count", self._thread_count)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def dump(self) -> dict:
        spans: list[dict] = []
        counts: Counter = Counter()
        with self._lock:
            for thread_spans, thread_counts in self._threads:
                spans.extend(thread_spans)
                counts.update(thread_counts)
            # Counter.update adds; the thread count is a maximum, not a sum
            counts["cli.threads"] = max((c["cli.threads"] for _, c in self._threads), default=0)
        return {"spans": spans, "counts": dict(counts)}


def _span_value(name: str, result) -> float:
    """The count a span reports besides its time."""
    if name in ("demand.load_trips_csv", "demand.load_status_csv"):
        return len(result)
    if name == "demand.estimate_rates":
        return sum(len(p.flags) for p in result)
    if name == "posterior.decreased_capacity_impact":
        return result.resamples
    if name in ("scaling.optimize_scaled", "scaling.optimize_scaled_constrained"):
        return sum(ph.iterations for ph in result.phases)
    return 0


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def raw_totals(dump: dict) -> Counter:
    """Additive per-layer totals of one traced process (or one round)."""
    spans = dump["spans"]
    counts = Counter(dump["counts"])
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def solver_rooted(s) -> bool:
        parent = by_id.get(s["parent"])
        while parent is not None:
            if parent["layer"] in SOLVER_LAYERS:
                return False
            parent = by_id.get(parent["parent"])
        return True

    out: Counter = Counter()
    for s in spans:
        dur = s["end"] - s["start"]
        kids = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        out[f"{s['layer']}.self_s"] += dur - _covered(kids)
        name = s["name"]
        if name == "demand.load_trips_csv":
            out["demand.load_trips_s"] += dur
            out["demand.records"] += s["value"]
        elif name == "demand.load_status_csv":
            out["demand.load_status_s"] += dur
            out["demand.records"] += s["value"]
        elif name == "demand.estimate_rates":
            out["demand.estimate_rates_s"] += dur
            out["demand.flagged_buckets"] += s["value"]
        elif name == "udf.LazyDailyCost._build":
            out["udf.capacity_builds"] += 1
            out["udf.build_s"] += dur
        elif name == "longrun.day_chain":
            out["longrun.chains"] += 1
        elif name == "allocator.bike_optimal":
            out["allocator.bike_optimal_s"] += dur
        elif name == "posterior.decreased_capacity_impact":
            out["posterior.resamples"] += s["value"]
            out["posterior.resample_s"] += dur
        if s["layer"] in SOLVER_LAYERS and solver_rooted(s):
            out[f"{s['layer']}.rooted_evals"] += s["evals"]
            out[f"{s['layer']}.rooted_moves"] += s["moves"]
            if s["layer"] == "scaling":
                out["scaling.iterations"] += s["value"]
    for key in ("udf.interval_calls", "udf.interval_s", "longrun.stationary_s", "longrun.nonergodic", "udf.cost_evals"):
        out[key] += counts.get(key, 0)
    out["cli.threads"] = counts.get("cli.threads", 0)
    return out


def combine(totals: list[Counter]) -> Counter:
    out: Counter = Counter()
    threads = 0
    for t in totals:
        threads = max(threads, t.get("cli.threads", 0))
        out.update(t)
    out["cli.threads"] = threads
    return out


def layer_metrics(raw: Counter) -> dict[str, float]:
    """The per-layer metrics of one round, from its combined totals."""
    moves = raw["allocator.rooted_moves"]
    resamples = raw["posterior.resamples"]
    metrics = {name: float(raw.get(name, 0)) for name, _ in PER_LAYER}
    metrics["allocator.moves"] = float(moves)
    metrics["allocator.evals_per_move"] = raw["allocator.rooted_evals"] / moves if moves else 0.0
    metrics["scaling.cost_evals"] = float(raw["scaling.rooted_evals"])
    metrics["posterior.resample_us"] = 1e6 * raw["posterior.resample_s"] / resamples if resamples else 0.0
    return metrics
