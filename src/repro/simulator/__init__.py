"""Instruction-level execution simulator (the ADOR Scheduling Sim).

Executes compiled instruction streams (:mod:`repro.compiler`) against
per-unit resource timelines — MAC tree, systolic array, vector units,
DMA/DRAM, NoC and P2P — honoring dependencies and double-buffered weight
prefetch.  It is the deeper-fidelity counterpart of the closed-form
:class:`~repro.core.scheduling.HdaScheduler`; integration tests assert
the two agree on stage latencies.
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.simulator.machine": (
        "ExecutionReport", "InstructionLevelSimulator", "UnitTimeline"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
