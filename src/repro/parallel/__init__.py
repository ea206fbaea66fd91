"""Multi-device parallelism: collectives, TP/PP mapping and overlap.

Implements the paper's Section IV-D and V-C analyses: synchronization
volumes of all-gather / all-reduce / Megatron hybrids (Fig. 7c), tensor-
parallel latency scalability (Fig. 13a), the computation-communication
overlap model that determines minimum P2P bandwidth (Fig. 13b), and the
model-parallelism mapper that shards a model across devices (Fig. 7a).
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.parallel.hybrid": ("HybridParallelPlanner", "HybridPlan"),
    "repro.parallel.collectives": (
        "SyncMethod", "all_gather_bytes_per_device",
        "all_reduce_bytes_per_device", "collective_time",
        "layer_sync_plan"),
    "repro.parallel.tensor_parallel": (
        "TpLatencyModel", "tp_scalability_curve"),
    "repro.parallel.pipeline_parallel": ("PipelineParallelModel",),
    "repro.parallel.overlap": ("OverlapModel", "minimum_p2p_bandwidth"),
    "repro.parallel.mapper": ("DeviceShard", "ModelParallelMapper"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
