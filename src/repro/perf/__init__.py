"""Analytical performance models for every compute substrate in the paper.

* :mod:`repro.perf.effective_bandwidth` — the Fig. 10 MAC-tree bandwidth
  utilization curve (FPGA-calibrated in the paper, curve-fitted here).
* :mod:`repro.perf.systolic` — SCALE-Sim-style weight-stationary systolic
  array timing with tiling, fill/drain and DRAM-stall modelling.
* :mod:`repro.perf.mac_tree` — streaming dot-product engine timing with
  lane-level KV reuse for MHA/GQA/MQA (Fig. 11b).
* :mod:`repro.perf.vector` — vector-unit timing for softmax/norms.
* :mod:`repro.perf.roofline` — shared roofline helpers.
* :mod:`repro.perf.baselines` — device-level models for the GPU / NPU /
  TSP comparison points (Figs. 1, 4, 15).
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.perf.effective_bandwidth": (
        "EffectiveBandwidthCurve", "MT_BANDWIDTH_CURVE",
        "effective_bandwidth"),
    "repro.perf.systolic": ("SaGemmEstimate", "SystolicTimingModel"),
    "repro.perf.mac_tree": ("MacTreeTimingModel", "MtEstimate"),
    "repro.perf.vector": ("VectorTimingModel",),
    "repro.perf.roofline": ("Bound", "roofline_time"),
    "repro.perf.baselines": (
        "BaselineBreakdown", "DeviceModel", "GpuModel", "SystolicNpuModel",
        "TspModel", "baseline_for"),
    "repro.perf.cache": ("CachedDeviceModel", "CacheStats"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
