"""Hardware description layer: compute units, memories, interconnect,
process technology and the calibrated area/cost model.

:mod:`repro.hardware.presets` holds every concrete device the paper
evaluates (Table I) and every design it proposes or compares against
(Table III).
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.hardware.registry": (
        "CHIP_REGISTRY", "get_chip", "list_chips", "register_chip"),
    "repro.hardware.technology": (
        "ProcessNode", "area_scaling_factor", "normalize_area"),
    "repro.hardware.components": ("MacTree", "SystolicArray", "VectorUnit"),
    "repro.hardware.memory": ("Dram", "DramKind", "Sram"),
    "repro.hardware.interconnect": ("NocSpec", "P2pSpec"),
    "repro.hardware.chip": ("ChipSpec",),
    "repro.hardware.area": ("AreaBreakdown", "AreaModel"),
    "repro.hardware.power": ("EnergyBreakdown", "PowerModel"),
    "repro.hardware.presets": (
        "a100", "h100", "tpu_v4", "groq_tsp", "llmcompass_latency",
        "llmcompass_throughput", "ador_table3", "ader_reference_designs"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
