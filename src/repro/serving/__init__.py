"""Serving simulator: the ADOR Simulator of Fig. 14(b).

A discrete-event simulation of a real LLM serving endpoint: Poisson
request arrivals with trace-driven token lengths, iteration-level
continuous batching with chunked prefill, and QoS accounting (TTFT, TBT,
E2E latency, throughput).  :mod:`repro.serving.capacity` binary-searches
the maximum sustainable request rate under an SLO — the Fig. 16
experiment.

This package simulates *one* endpoint; :mod:`repro.cluster` scales it to
N replicas behind a request router (``DeploymentSpec(replicas=...,
router=...)`` in the declarative API).
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.serving.kv_allocator": ("KvBlockConfig", "PagedKvAllocator"),
    "repro.serving.prefix_cache": (
        "CachedPrefix", "PrefixCache", "PrefixCacheSpec", "PrefixCacheStats",
        "get_eviction_policy", "list_eviction_policies",
        "register_eviction_policy"),
    "repro.serving.trace_io": (
        "export_timeline", "load_requests", "save_requests"),
    "repro.serving.policies": (
        "BatchingPolicy", "simulate_policy", "get_policy", "list_policies",
        "register_policy"),
    "repro.serving.traces": ("get_trace", "list_traces", "register_trace"),
    "repro.serving.sessions": (
        "MultiTurnSessionGenerator", "SessionConfig", "SessionTurn"),
    "repro.serving.request": ("Request", "RequestState"),
    "repro.serving.dataset": ("ChatTraceConfig", "ULTRACHAT_LIKE",
                              "sample_trace"),
    "repro.serving.generator": (
        "OnOffRequestGenerator", "PoissonArrivalTemplate",
        "PoissonRequestGenerator"),
    "repro.serving.scheduler": (
        "ContinuousBatchingScheduler", "SchedulerLimits"),
    "repro.serving.engine": (
        "InstabilityMonitor", "Saturated", "ServingEngine",
        "SimulationResult"),
    "repro.serving.qos": ("QoSReport", "compute_qos"),
    "repro.serving.capacity": (
        "CapacityResult", "EndpointUnservable", "ProbeOutcome",
        "max_capacity_under_slo", "reference_capacity_search"),
    "repro.serving.utilization": ("UtilizationReport", "utilization_report"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
