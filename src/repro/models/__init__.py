"""Model zoo and workload characterization for LLM serving.

This package describes *what* has to be computed: transformer model
architectures (:mod:`repro.models.config`, :mod:`repro.models.zoo`),
the per-layer operator shapes they induce in the prefill and decoding
stages (:mod:`repro.models.layers`, :mod:`repro.models.graph`), the
key-value cache byte math that drives the paper's memory-bandwidth
analysis (:mod:`repro.models.kv_cache`), and the local-memory footprint
simulator used to size on-chip SRAM (:mod:`repro.models.footprint`).
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.models.config": ("AttentionKind", "ModelConfig"),
    "repro.models.zoo": ("get_model", "list_models", "register_model"),
    "repro.models.layers": ("Operator", "OperatorKind", "Phase"),
    "repro.models.graph": (
        "build_decode_graph", "build_prefill_graph", "operation_share"),
    "repro.models.kv_cache": (
        "kv_bytes_per_token", "kv_cache_bytes", "kv_fraction_of_traffic"),
    "repro.models.footprint": ("LocalMemoryReport", "peak_local_memory"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
