"""ADOR compiler stack (paper Fig. 14a).

Lowers a model's operator graph plus a parallelism plan into the two
artifacts the simulator consumes: a *model binary* (memory-mapped weight
layout across DRAM modules) and an *instruction binary* (a stream of
LOAD / GEMM / GEMV / ATTN / VOP / SYNC / COMM instructions per device).
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.compiler.instructions": ("Instruction", "Opcode", "TargetUnit"),
    "repro.compiler.binary": (
        "MemoryRegion", "ModelBinary", "build_model_binary"),
    "repro.compiler.generator": ("CompiledProgram", "InstructionGenerator"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
