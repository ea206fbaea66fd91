"""ADOR core: the architecture template, HDA scheduler and DSE search.

This package is the paper's primary contribution.  The template
(:mod:`repro.core.template`) spans the design space of Section IV; the
scheduler (:mod:`repro.core.scheduling`) implements the dynamic
prefill/decode orchestration of Fig. 8 and provides the stage-latency
estimates every experiment consumes; the search
(:mod:`repro.core.search`) runs the three-step exploration loop of
Fig. 9 and emits the Table III design.
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.core.requirements": (
        "ServiceLevelObjectives", "VendorConstraints"),
    "repro.core.template": ("AdorTemplate", "TemplateKnobs"),
    "repro.core.dataflow": ("DataflowKind", "MultiCoreDataflow"),
    "repro.core.allocation": ("GemmSplit", "split_gemm_work"),
    "repro.core.scheduling": (
        "AdorDeviceModel", "HdaScheduler", "device_model_for"),
    "repro.core.design_point": ("DesignEvaluation", "DesignPoint"),
    "repro.core.search": ("AdorSearch", "SearchResult"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
