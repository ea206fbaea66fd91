"""Analysis helpers: metrics, table formatting and parameter sweeps."""

from repro import lazy_exports

_EXPORTS = {
    "repro.analysis.metrics": (
        "area_efficiency_gflops_mm2", "normalized_area_efficiency",
        "qos_gain"),
    "repro.analysis.pareto": (
        "dominates", "normalized_distance_to_utopia", "pareto_frontier"),
    "repro.analysis.tables": ("format_table",),
    "repro.analysis.sweep": ("sweep",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
