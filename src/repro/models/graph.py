"""Whole-model operator graphs for the prefill and decoding stages.

A transformer forward pass is a linear chain — embedding, then every
decoder layer's operators, then (in decode) the LM head — so an
:class:`OperatorGraph` stores just the :class:`~repro.models.layers.Operator`
payloads in execution order; each node depends on the one before it.
The analytical aggregates here (:func:`total_flops`,
:func:`operation_share`) walk that chain.  The compiler
(:mod:`repro.compiler`) does not read these graphs: it builds its
instruction streams from :func:`~repro.models.layers.decoder_layer_operators`
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.config import ModelConfig
from repro.models.layers import (
    Operator,
    OperatorKind,
    Phase,
    decoder_layer_operators,
    embedding_operator,
    lm_head_operator,
)


@dataclass(frozen=True)
class OperatorGraph:
    """A model's operators for one phase, as a chain in execution order.

    ``tokens`` is the sequence length in prefill and the cached context
    length in decode.  ``nodes`` pairs a unique ``"<block>.<index>.<name>"``
    id (``embed``, ``layer0`` ... ``layer{N-1}``, ``head``) with its operator.
    """

    phase: Phase
    model: str
    batch: int
    tokens: int
    nodes: tuple[tuple[str, Operator], ...]


def _chain(ops: list[Operator], prefix: str) -> list[tuple[str, Operator]]:
    """Name ``ops`` as consecutive nodes of block ``prefix``."""
    return [(f"{prefix}.{index}.{op.name}", op) for index, op in enumerate(ops)]


def build_prefill_graph(
    config: ModelConfig,
    batch: int,
    seq_len: int,
    include_lm_head: bool = False,
) -> OperatorGraph:
    """Operator graph for prefilling ``batch`` requests of ``seq_len`` tokens.

    All ``seq_len`` tokens are processed in parallel, so GEMM ``m`` is
    ``batch * seq_len`` and the attention context equals the sequence
    length.  The LM head is normally skipped in prefill (the paper notes it
    "is only involved in the decoding stage"); enable ``include_lm_head``
    for the first generated token's logits.
    """
    nodes = _chain([embedding_operator(config, Phase.PREFILL, batch * seq_len)], "embed")
    for layer in range(config.num_layers):
        ops = decoder_layer_operators(config, Phase.PREFILL, batch, seq_len, seq_len)
        nodes += _chain(ops, f"layer{layer}")
    if include_lm_head:
        nodes += _chain([lm_head_operator(config, Phase.PREFILL, batch)], "head")
    return OperatorGraph(Phase.PREFILL, config.name, batch, seq_len, tuple(nodes))


def build_decode_graph(
    config: ModelConfig,
    batch: int,
    context_len: int,
) -> OperatorGraph:
    """Operator graph for one decode step of ``batch`` requests.

    Each request generates one token while attending to ``context_len``
    cached tokens; GEMMs have ``m == batch`` and the LM head always runs.
    """
    nodes = _chain([embedding_operator(config, Phase.DECODE, batch)], "embed")
    for layer in range(config.num_layers):
        ops = decoder_layer_operators(config, Phase.DECODE, batch, 1, context_len)
        nodes += _chain(ops, f"layer{layer}")
    nodes += _chain([lm_head_operator(config, Phase.DECODE, batch)], "head")
    return OperatorGraph(Phase.DECODE, config.name, batch, context_len, tuple(nodes))


def flatten(graph: OperatorGraph) -> list[Operator]:
    """Operators in execution order."""
    return [op for _, op in graph.nodes]


def total_flops(graph: OperatorGraph) -> float:
    """Sum of FLOPs over the whole graph."""
    return sum(op.flops for op in flatten(graph))


def total_weight_bytes(graph: OperatorGraph) -> float:
    """Sum of weight bytes streamed (counts each layer's weights once)."""
    return sum(op.weight_bytes for op in flatten(graph))


@dataclass(frozen=True)
class OperationShare:
    """Breakdown of a graph's FLOPs by operator family (paper Fig. 3b)."""

    attention: float
    mlp_and_projections: float
    other: float

    @property
    def attention_fraction(self) -> float:
        return self.attention / self.total

    @property
    def mlp_fraction(self) -> float:
        return self.mlp_and_projections / self.total

    @property
    def total(self) -> float:
        return self.attention + self.mlp_and_projections + self.other


def operation_share(
    config: ModelConfig,
    seq_len: int,
    batch: int = 1,
    phase: Phase = Phase.DECODE,
) -> OperationShare:
    """FLOP share of self-attention vs. MLP+projections at a sequence length.

    Reproduces the paper's Fig. 3(b): the attention share grows toward
    dominance as context length increases (LLaMA3-8B: roughly a quarter of
    the work at short context, three quarters at 64k) because score and
    context products scale with the context while projections stay flat.
    The paper counts operations in the decoding stage, where each new token
    attends to the full cached context — ``phase`` defaults accordingly.
    """
    if phase == Phase.DECODE:
        graph = build_decode_graph(config, batch, seq_len)
    else:
        graph = build_prefill_graph(config, batch, seq_len)
    attention = 0.0
    gemm = 0.0
    other = 0.0
    for op in flatten(graph):
        if op.kind == OperatorKind.ATTENTION:
            attention += op.flops
        elif op.kind == OperatorKind.GEMM:
            gemm += op.flops
        else:
            other += op.flops
    return OperationShare(attention=attention, mlp_and_projections=gemm, other=other)
