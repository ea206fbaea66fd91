"""``repro.api`` — the declarative experiment surface of the framework.

One import gives the full exploration loop the ROADMAP asks for: named
registries over chips / traces / batching policies / router policies,
frozen serializable specs, and a :func:`simulate` facade returning a
unified :class:`ServingReport` — or, with ``replicas > 1``, a
:class:`ClusterReport` from the multi-replica cluster engine
(:mod:`repro.cluster`)::

    from repro.api import DeploymentSpec, WorkloadSpec, simulate

    report = simulate(
        DeploymentSpec(chip="ador", model="llama3-8b"),
        WorkloadSpec(trace="ultrachat", rate_per_s=15.0,
                     num_requests=200, seed=7),
    )
    print(report.summary())

Sweeps become data, not scripts: serialize an :class:`Experiment` to
JSON (``save_experiment``) and replay it anywhere with
``repro run experiment.json`` or :func:`run_experiment` — same seed,
identical report.

Fleets need not be homogeneous: a :class:`DeploymentSpec` carrying an
explicit :class:`FleetSpec` of weighted :class:`ReplicaGroupSpec`
groups mixes chips in one cluster (``router="hetero-aware"`` routes by
probed capability), and :func:`find_fleet_capacity` searches the
cheapest group mix meeting an SLO at a fixed demand.
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.api.specs": (
        "DeploymentSpec", "WorkloadSpec", "Experiment", "CapacitySpec",
        "FleetSpec", "ReplicaGroupSpec", "chip_to_dict", "chip_from_dict"),
    "repro.api.facade": (
        "ServingReport", "ClusterReport", "CapacityReport",
        "FleetCapacityReport", "EndpointOverloaded", "simulate",
        "simulate_cluster", "build_cluster_engine", "find_capacity",
        "find_fleet_capacity", "load_experiment", "save_experiment",
        "run_experiment"),
    "repro.cluster.report": ("GroupBreakdown",),
    "repro.cluster.router": ("get_router", "list_routers", "register_router"),
    "repro.cluster.autoscaler": (
        "AutoscaleSpec", "get_autoscaler", "list_autoscalers",
        "register_autoscaler"),
    "repro.cluster.faults": ("FaultSpec", "FaultEvent", "FaultTrace"),
    "repro.serving.prefix_cache": (
        "PrefixCacheSpec", "get_eviction_policy", "list_eviction_policies",
        "register_eviction_policy"),
    "repro.serving.sessions": ("SessionConfig",),
    "repro.hardware.registry": ("get_chip", "list_chips", "register_chip"),
    "repro.serving.traces": ("get_trace", "list_traces", "register_trace"),
    "repro.serving.policies": (
        "get_policy", "list_policies", "register_policy"),
    "repro.models.zoo": ("get_model", "list_models"),
    "repro.core.scheduling": ("device_model_for",),
    "repro.perf.scale": ("StreamStats", "ProgressReporter"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
