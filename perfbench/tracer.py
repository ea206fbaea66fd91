"""Span tracer that wraps the simulator's layer entry points from outside.

The benchmark never edits the program: a :class:`Tracer` replaces the
public entry points of each layer (module functions and class methods)
with timing wrappers for the length of one traced call, then puts the
originals back and checks that every one of them is back.  Untraced
runs therefore measure unpatched code.

Each wrapped call is a span: name, start, end, parent span and request
id where an argument carries one.  Spans are aggregated in memory per
``(parent, name)`` edge -- call count, total seconds and self seconds
(the span's duration minus the time its child spans cover) -- and the
first :data:`RAW_SPANS` spans are also kept verbatim, so memory stays
bounded on million-call runs.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

#: Spans kept verbatim beside the per-edge aggregates.
RAW_SPANS = 4000

#: (module, class or None, attribute, span name).  Module-level functions
#: are patched in every loaded ``repro`` module that imported them by
#: name, so ``from x import f`` call sites are traced too.
BOUNDARIES = (
    # api + report: the facade and the QoS/aggregation it reports with
    ("repro.api.facade", None, "simulate", "api.simulate"),
    ("repro.api.facade", None, "simulate_cluster", "api.simulate_cluster"),
    ("repro.api.facade", None, "find_capacity", "api.find_capacity"),
    ("repro.api.facade", None, "build_cluster_engine", "api.build_engine"),
    ("repro.serving.qos", None, "compute_qos", "report.compute_qos"),
    ("repro.cluster.report", None, "aggregate_cluster", "report.aggregate"),
    ("repro.cluster.report", "ClusterResult", "qos", "report.cluster_qos"),
    # cluster: the fleet event loop, replica advancing, snapshots, routing
    ("repro.cluster.engine", "ClusterEngine", "run", "cluster.run"),
    ("repro.cluster.engine", "ReplicaSim", "advance_to", "cluster.advance"),
    ("repro.cluster.engine", "ReplicaSim", "snapshot", "cluster.snapshot"),
    ("repro.cluster.engine", "ReplicaSim", "submit", "cluster.submit"),
    ("repro.cluster.engine", "ReplicaSim", "result", "cluster.result"),
    # serving engine: the single-endpoint loop and the decode fast-forward
    ("repro.serving.engine", "ServingEngine", "run", "engine.run"),
    ("repro.serving.engine", None, "run_decode_burst", "engine.burst"),
    # scheduler
    ("repro.serving.scheduler", "ContinuousBatchingScheduler",
     "enqueue", "scheduler.enqueue"),
    ("repro.serving.scheduler", "ContinuousBatchingScheduler",
     "plan_iteration", "scheduler.plan"),
    ("repro.serving.scheduler", "ContinuousBatchingScheduler",
     "complete_iteration", "scheduler.complete_iteration"),
    ("repro.serving.scheduler", "ContinuousBatchingScheduler",
     "complete_burst", "scheduler.complete_burst"),
    # prefix cache and paged KV allocator
    ("repro.serving.prefix_cache", "PrefixCache", "acquire", "prefix.acquire"),
    ("repro.serving.prefix_cache", "PrefixCache", "stash", "prefix.stash"),
    ("repro.serving.prefix_cache", "PrefixCache", "extend", "prefix.extend"),
    ("repro.serving.prefix_cache", "PrefixCache", "forfeit", "prefix.forfeit"),
    ("repro.serving.kv_allocator", "PagedKvAllocator", "admit", "kv.admit"),
    ("repro.serving.kv_allocator", "PagedKvAllocator", "extend", "kv.extend"),
    ("repro.serving.kv_allocator", "PagedKvAllocator", "release", "kv.release"),
    # device model: the memoizing wrapper and the analytic ADOR model
    # (core/, perf/, models/, parallel/) behind it
    ("repro.perf.cache", "CachedDeviceModel", "decode_step_time",
     "device.decode"),
    ("repro.perf.cache", "CachedDeviceModel", "prefill_time", "device.prefill"),
    ("repro.perf.cache", "CachedDeviceModel", "decode_seconds_map",
     "device.seconds_map"),
    ("repro.core.scheduling", "AdorDeviceModel", "decode_step_time",
     "device.inner_decode"),
    ("repro.core.scheduling", "AdorDeviceModel", "prefill_time",
     "device.inner_prefill"),
    # capacity search
    ("repro.serving.capacity", None, "max_capacity_under_slo",
     "capacity.search"),
    # arrival generation (materialized, templated and streamed)
    ("repro.serving.generator", "PoissonArrivalTemplate", "__init__",
     "gen.template"),
    ("repro.serving.generator", "PoissonArrivalTemplate", "requests_at",
     "gen.requests_at"),
    ("repro.serving.generator", "PoissonRequestGenerator", "generate",
     "gen.generate"),
    ("repro.serving.sessions", "MultiTurnSessionGenerator",
     "generate_stream", "gen.generate_stream"),
    ("repro.serving.stream", "RequestStream", "popleft", "gen.stream_pop"),
    ("repro.serving.stream", "RequestStream", "__getitem__", "gen.stream_peek"),
)

#: Lazy generators: every ``next()`` on the returned iterator is a span.
GENERATOR_BOUNDARIES = (
    ("repro.serving.generator", None, "iter_poisson_requests", "gen.next"),
    ("repro.serving.sessions", None, "iter_session_requests", "gen.next"),
    ("repro.serving.stream", "RequestStream", "__iter__", "gen.stream_iter"),
)

#: Router classes whose ``route`` is traced as ``cluster.route``.
ROUTER_MODULE = "repro.cluster.router"


def _request_id(args):
    for arg in args:
        request_id = getattr(arg, "request_id", None)
        if isinstance(request_id, int):
            return request_id
    return None


class Tracer:
    """Wraps the layer boundaries for one traced call (see module doc).

    Use as a context manager; ``counts`` holds the boundary counters the
    layer metrics need, ``edges`` the per-edge span aggregates, and
    ``devices`` / ``caches`` the device models and prefix caches created
    while the tracer was installed.
    """

    def __init__(self) -> None:
        self.edges: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.devices: list = []
        self.caches: list = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._last_snapshot: dict[int, object] = {}

    # ------------------------------------------------------------------ #
    # Wrappers                                                             #
    # ------------------------------------------------------------------ #

    def _timed(self, name, fn, post=None):
        stack = self._stack
        edges = self.edges
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, name]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent_name = ""
                if parent is not None:
                    parent[0] += duration
                    parent_name = parent[1]
                key = (parent_name, name)
                agg = edges.get(key)
                if agg is None:
                    agg = edges[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if len(spans) < RAW_SPANS:
                    spans.append((name, start, end, parent_name,
                                  _request_id(args)))
            if post is not None:
                post(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _timed_generator(self, name, fn):
        timed_next = self._timed(name, next)

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = timed_next(iterator)
                except StopIteration:
                    return
                yield item

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------ #
    # Boundary counters (run after the span closed)                        #
    # ------------------------------------------------------------------ #

    def _post_hooks(self):
        counts = self.counts
        last_snapshot = self._last_snapshot

        def advance_pre(fn):
            def advance(replica, *args, **kwargs):
                before = replica.iterations
                fn(replica, *args, **kwargs)
                if replica.iterations == before:
                    counts["advance_noop"] += 1
            return advance

        def snapshot(args, result):
            key = id(args[0])
            if last_snapshot.get(key) is not result:
                counts["snapshot_built"] += 1
                last_snapshot[key] = result

        def route(args, position):
            counts["routes"] += 1
            counts["queued_at_route"] += args[2][position].queued_requests

        def burst(args, result):
            steps = result[1]
            counts["ff_steps"] += steps
            counts["decode_batch_steps"] += steps * args[1].decode_batch

        def complete_iteration(args, result):
            batch = args[1].decode_batch
            if batch:
                counts["plain_decode_steps"] += 1
                counts["decode_batch_steps"] += batch

        def sim_result(result):
            counts["iterations"] += result.iterations
            counts["decode_steps"] += result.decode_steps

        def engine_run(args, result):
            sim_result(result)
            counts["engine_requests"] += len(result.finished) \
                + len(result.unfinished)

        def acquire(args, result):
            request = args[1]
            counts["acquired_prompt_tokens"] += request.input_tokens \
                + request.generated_tokens

        def generated(args, result):
            counts["generated_requests"] += len(result)

        return {
            "cluster.snapshot": snapshot,
            "cluster.route": route,
            "cluster.result": lambda args, result: sim_result(result),
            "engine.run": engine_run,
            "engine.burst": burst,
            "scheduler.complete_iteration": complete_iteration,
            "prefix.acquire": acquire,
            "gen.requests_at": generated,
            "gen.generate": generated,
            "gen.generate_stream": generated,
        }, advance_pre

    def _count_items(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts["generated_requests"] += 1
                yield item

        return counted

    # ------------------------------------------------------------------ #
    # Install / restore                                                    #
    # ------------------------------------------------------------------ #

    def _set(self, owner, attr, replacement) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _set_function(self, module_name, attr, make) -> None:
        """Patch a module function everywhere it was imported by name."""
        original = getattr(importlib.import_module(module_name), attr)
        replacement = make(original)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) \
                    and module is not None \
                    and module.__dict__.get(attr) is original:
                self._set(module, attr, replacement)

    def _target(self, module_name, class_name, attr, make) -> None:
        if class_name is None:
            self._set_function(module_name, attr, make)
            return
        owner = getattr(importlib.import_module(module_name), class_name)
        self._set(owner, attr, make(owner.__dict__[attr]))

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks, advance_pre = self._post_hooks()
        for module_name, class_name, attr, name in BOUNDARIES:
            post = hooks.get(name)
            if name == "cluster.advance":
                self._target(module_name, class_name, attr,
                             lambda fn, name=name: advance_pre(
                                 self._timed(name, fn)))
                continue
            self._target(module_name, class_name, attr,
                         lambda fn, name=name, post=post:
                         self._timed(name, fn, post))
        for module_name, class_name, attr, name in GENERATOR_BOUNDARIES:
            if class_name is None:
                # the request generators: count what they emit
                self._target(module_name, class_name, attr,
                             lambda fn, name=name: self._count_items(
                                 self._timed_generator(name, fn)))
            else:
                self._target(module_name, class_name, attr,
                             lambda fn, name=name:
                             self._timed_generator(name, fn))
        router = importlib.import_module(ROUTER_MODULE)
        for value in list(vars(router).values()):
            if isinstance(value, type) and value.__module__ == ROUTER_MODULE \
                    and "route" in value.__dict__:
                self._set(value, "route", self._timed(
                    "cluster.route", value.__dict__["route"],
                    hooks["cluster.route"]))
        self._collect_instances("repro.perf.cache", "CachedDeviceModel",
                                self.devices)
        self._collect_instances("repro.serving.prefix_cache", "PrefixCache",
                                self.caches)
        return self

    def _collect_instances(self, module_name, class_name, sink) -> None:
        owner = getattr(importlib.import_module(module_name), class_name)
        original = owner.__dict__["__init__"]

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            sink.append(obj)

        self._set(owner, "__init__", __init__)

    def restore(self) -> None:
        """Put every original back and check that each one is back."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        leftover = [f"{getattr(owner, '__name__', owner)}.{attr}"
                    for owner, attr, original in patches
                    if owner.__dict__.get(attr) is not original]
        if leftover:
            raise RuntimeError(
                f"tracer left patched attributes behind: {leftover}")

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------ #
    # Aggregates                                                           #
    # ------------------------------------------------------------------ #

    def export(self) -> dict:
        """Aggregated edges, counters and the raw span sample as JSON."""
        return {
            "edges": [
                {"parent": parent, "name": name, "calls": agg[0],
                 "total_s": agg[1], "self_s": agg[2]}
                for (parent, name), agg in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
            "spans": [
                {"name": name, "start": start, "end": end,
                 "parent": parent, "request_id": request_id}
                for name, start, end, parent, request_id in self.spans],
        }

