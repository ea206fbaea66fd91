"""Per-layer metrics from traced calls (``--trace 1``).

One traced pass calls every part of the workload under a fresh
:class:`tracer.Tracer` and sums the additive counters: boundary counts,
span self seconds, and the counters the device models and prefix caches
keep.  Counts are deterministic and must repeat exactly, which a second
traced call on the first part checks.  ``*self_s`` metrics are wall
seconds of the whole traced pass; tracing inflates them, which
``trace.overhead_share`` states.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

import workloads
from tracer import Tracer

DEVICE_STATS = ("decode_hits", "decode_misses", "prefill_hits",
                "prefill_misses")
PREFIX_STATS = ("hits", "eligible", "saved_prefill_tokens", "evictions")


def raw_counts(tracer: Tracer) -> Counter:
    """Everything additive one traced call recorded."""
    raw = Counter(tracer.counts)
    for (_, name), (calls, _, self_s) in tracer.edges.items():
        raw["calls:" + name] += calls
        raw["self:" + name] += self_s
    for model in tracer.devices:
        for key in DEVICE_STATS:
            raw["device:" + key] += getattr(model.stats, key)
    for cache in tracer.caches:
        for key in PREFIX_STATS:
            raw["prefix:" + key] += getattr(cache.stats, key)
    return raw


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _is_time(name: str) -> bool:
    return name.endswith("self_s")


def layer_metrics(raw: Counter, outcomes: list) -> dict[str, float]:
    """Every per-layer metric except the overhead, from summed counters
    over the calls that produced ``outcomes``."""
    def self_s(*prefixes: str) -> float:
        return sum((value for key, value in raw.items()
                    if key.startswith(tuple("self:" + p for p in prefixes))),
                   0.0)

    def calls(name: str) -> int:
        return raw["calls:" + name]

    is_capacity = outcomes[0].capacity_rps is not None
    requests = raw["engine_requests"] if is_capacity \
        else sum(o.attempted for o in outcomes)
    decode_steps = raw["decode_steps"]
    workloads.check(
        decode_steps == raw["ff_steps"] + raw["plain_decode_steps"],
        f"trace: {decode_steps} decode steps reported, {raw['ff_steps']} "
        f"in bursts + {raw['plain_decode_steps']} single at the boundaries")
    advances = calls("cluster.advance")
    snapshots = calls("cluster.snapshot")
    decode_evals = raw["device:decode_hits"] + raw["device:decode_misses"]
    prefill_evals = raw["device:prefill_hits"] + raw["device:prefill_misses"]
    probes = [probe for o in outcomes for probe in o.probes]
    return {
        "cluster.advance_per_req": advances / requests,
        "cluster.advance_noop_share": _share(raw["advance_noop"], advances),
        "cluster.snapshot_per_req": snapshots / requests,
        "cluster.snapshot_build_share": _share(raw["snapshot_built"],
                                               snapshots),
        "cluster.queue_at_route": _share(raw["queued_at_route"],
                                         raw["routes"]),
        "cluster.advance_self_s": self_s("cluster.advance"),
        "cluster.snapshot_self_s": self_s("cluster.snapshot"),
        "cluster.route_self_s": self_s("cluster.route"),
        "engine.iterations_per_req": raw["iterations"] / requests,
        "engine.decode_steps_per_req": decode_steps / requests,
        "engine.bursts_per_req": calls("engine.burst") / requests,
        "engine.ff_step_share": _share(raw["ff_steps"], decode_steps),
        "engine.self_s": self_s("engine.run", "engine.burst"),
        "scheduler.plan_per_req": calls("scheduler.plan") / requests,
        "scheduler.decode_batch_mean": _share(raw["decode_batch_steps"],
                                              decode_steps),
        "scheduler.preemptions": calls("prefix.forfeit"),
        "scheduler.self_s": self_s("scheduler."),
        "prefix.hit_rate": _share(raw["prefix:hits"], raw["prefix:eligible"]),
        "prefix.saved_prefill_share": _share(
            raw["prefix:saved_prefill_tokens"],
            raw["acquired_prompt_tokens"]),
        "prefix.evictions_per_req": raw["prefix:evictions"] / requests,
        "prefix.acquire_self_s": self_s("prefix.acquire"),
        "prefix.stash_self_s": self_s("prefix.stash"),
        "kv.extend_per_req": calls("kv.extend") / requests,
        "kv.extend_self_s": self_s("kv.extend"),
        "device.decode_evals_per_req": decode_evals / requests,
        "device.decode_miss_share": _share(raw["device:decode_misses"],
                                           decode_evals),
        "device.prefill_miss_share": _share(raw["device:prefill_misses"],
                                            prefill_evals),
        "device.inner_self_s": self_s("device.inner_"),
        "device.self_s": self_s("device.decode", "device.prefill",
                                "device.seconds_map"),
        "capacity.probes": len(probes),
        "capacity.aborted_share": _share(
            sum(1 for probe in probes if probe.aborted), len(probes)),
        "capacity.sim_requests": raw["engine_requests"],
        "capacity.self_s": self_s("capacity.search"),
        "capacity_rps": workloads.capacity_rps(outcomes) if is_capacity
        else 0.0,
        "gen.requests": raw["generated_requests"],
        "gen.self_s": self_s("gen."),
        "report.self_s": self_s("api.", "report."),
    }


def traced(w, outcomes: list, outputs: list, untraced_wall: float):
    """One traced pass over the parts plus a repeat of the first part;
    returns the per-layer metrics, report lines and the span export of
    the last traced call."""
    raws: list[Counter] = []
    walls: list[float] = []
    for index in list(range(len(w.parts))) + [0]:
        tracer = Tracer()
        start = time.perf_counter()
        with tracer:
            report = workloads.call(w, w.parts[index])
        walls.append(time.perf_counter() - start)
        workloads.check(workloads.output(report) == outputs[index],
                        "trace: a traced call changed the output")
        raws.append(raw_counts(tracer))
    first, repeat = raws[0], raws[-1]
    moved = sorted(key for key in set(first) | set(repeat)
                   if not key.startswith("self:")
                   and first[key] != repeat[key])
    workloads.check(not moved, f"trace: counts did not repeat: {moved}")
    total: Counter = Counter()
    for raw in raws[:-1]:
        total.update(raw)
    metrics = layer_metrics(total, outcomes)
    traced_wall = statistics.median(walls)
    metrics["trace.overhead_share"] = traced_wall / untraced_wall - 1.0
    lines = [f"trace: {len(walls)} traced calls, median wall "
             f"{traced_wall:.4f} s vs {untraced_wall:.4f} s untraced; "
             f"counts repeated; patched attributes restored",
             "  top self time (s) over the traced pass:"]
    top = sorted(((key[5:], value) for key, value in total.items()
                  if key.startswith("self:")), key=lambda item: -item[1])
    for name, seconds in top[:12]:
        lines.append(f"    {name:<28} calls={total['calls:' + name]:<9} "
                     f"self={seconds:.4f}")
    return metrics, lines, tracer.export()
