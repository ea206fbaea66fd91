"""Dynamic HDA scheduling: the decoder-layer latency estimator (Fig. 8).

The scheduler implements the paper's operating rules:

* **decode** — the MAC tree owns the full DRAM bandwidth, streaming
  weights and KV cache at the Fig. 10 effective bandwidth; the systolic
  array assists with batched GEMM compute and works on KV pairs already
  resident in global memory; vector units handle norms/softmax;
* **prefill** — GEMMs are split at compile time between the systolic
  array and MAC tree proportionally to their effective rates
  (:mod:`repro.core.allocation`); weights double-buffer behind tiles;
* **multi-core** — the latency dataflow's all-gather bubbles are charged
  per layer (Fig. 6d); **multi-device** TP sync is overlapped per the
  collectives model.

Every QoS experiment (Figs. 11, 15, 16, 17) consumes these estimates, so
calibration decisions live here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.allocation import hda_gemm_seconds
from repro.core.dataflow import CoreSyncMethod, DataflowKind, MultiCoreDataflow
from repro.hardware.chip import ChipKind, ChipSpec
from repro.models.config import ModelConfig
from repro.models.layers import (
    Operator,
    OperatorKind,
    Phase,
    attention_operator,
    decoder_layer_operators,
    lm_head_operator,
)
from repro.perf.baselines import BaselineBreakdown, DeviceModel, baseline_for
from repro.perf.effective_bandwidth import MT_BANDWIDTH_CURVE
from repro.perf.mac_tree import MacTreeTimingModel
from repro.perf.systolic import SystolicTimingModel
from repro.perf.vector import VectorTimingModel


@dataclass(frozen=True)
class _DecodePlan:
    """Context-independent constants of one decode operating point.

    ``entries`` holds ``(kind, name, value, compute_seconds)`` per layer
    operator: for GEMMs ``value`` is the TP-sharded weight bytes and
    ``compute_seconds`` the compute-bound floor; for vector ops ``value``
    is the finished latency; the attention slot is re-evaluated per call
    (it is the only context-dependent operator).  ``flops`` mirrors the
    operator order with ``None`` marking the attention slot, so the
    step-FLOPs sum reproduces the uncompiled order exactly.
    """

    entries: list
    flops: list
    head_seconds: float


@dataclass(frozen=True)
class SchedulerConfig:
    """Calibration constants of the HDA scheduler."""

    #: SA compute efficiency on large prefill GEMMs beyond the analytical
    #: tiling losses (bank conflicts, edge tiles)
    sa_efficiency: float = 0.92
    #: MT efficiency when assisting GEMMs (it must share DRAM streams)
    mt_gemm_efficiency: float = 0.90
    #: DRAM utilization of SA weight prefetch in decode *without* a MAC
    #: tree (the Fig. 11c ablation: SA-only GEMV exposes prefetch latency)
    sa_only_gemv_utilization: float = 0.58
    #: per-layer scheduling overhead (descriptor fetch, DMA programming)
    layer_overhead_s: float = 1.0e-6
    #: fraction of a decode step's KV that is fresh enough to still be in
    #: global memory, served to the SA without DRAM traffic (Section IV-E)
    global_memory_kv_fraction_cap: float = 1.0


class HdaScheduler:
    """Stage-latency estimator for one ADOR HDA chip."""

    def __init__(self, chip: ChipSpec, use_mac_tree: bool = True,
                 config: SchedulerConfig | None = None,
                 compiled_decode: bool = True) -> None:
        if chip.kind != ChipKind.ADOR_HDA:
            raise ValueError(f"{chip.name} is not an ADOR HDA chip")
        if chip.systolic_array is None:
            raise ValueError("HDA scheduling requires a systolic array")
        self.chip = chip
        self.use_mac_tree = use_mac_tree and chip.mac_tree is not None
        self.config = config or SchedulerConfig()
        self.systolic = SystolicTimingModel(
            array=chip.systolic_array,
            cores=chip.cores,
            frequency_hz=chip.frequency_hz,
        )
        self.mac_tree = None
        if self.use_mac_tree:
            self.mac_tree = MacTreeTimingModel(
                tree=chip.mac_tree,
                cores=chip.cores,
                frequency_hz=chip.frequency_hz,
                dram_bandwidth=chip.memory_bandwidth,
            )
        self.vector = VectorTimingModel(
            unit=chip.vector_unit,
            cores=chip.cores,
            frequency_hz=chip.frequency_hz,
        ) if chip.vector_unit is not None else None
        self.dataflow_latency = MultiCoreDataflow(chip, DataflowKind.LATENCY)
        # compiled decode-layer plans keyed (model, batch, devices): the
        # context-independent constants of a decode step, rebuilt only
        # when the operating point changes (see _build_decode_plan);
        # compiled_decode=False keeps the reference per-operator path
        self.compiled_decode = compiled_decode
        self._decode_plans: dict = {}

    # ------------------------------------------------------------------ #
    # Effective rates                                                     #
    # ------------------------------------------------------------------ #

    def _decode_utilization(self, step_flops: float) -> float:
        """DRAM utilization in decode: the Fig. 10 curve with the MAC
        tree, a derated constant without it (Fig. 11c ablation)."""
        if self.use_mac_tree:
            return MT_BANDWIDTH_CURVE.utilization(step_flops)
        return self.config.sa_only_gemv_utilization

    def _mt_rate(self) -> float:
        if self.mac_tree is None:
            return 0.0
        return self.mac_tree.peak_flops * self.config.mt_gemm_efficiency

    # ------------------------------------------------------------------ #
    # Per-operator timing                                                 #
    # ------------------------------------------------------------------ #

    def _prefill_gemm_seconds(self, op: Operator, devices: int) -> float:
        """Compile-time split GEMM on SA (+MT assist), weights sharded by TP."""
        n_shard = max(1, math.ceil(op.n / devices))
        sa_est = self.systolic.gemm(
            op.m, op.k, n_shard, self.chip.memory_bandwidth,
            double_buffered=True,
        )
        flops_shard = op.flops / devices
        sa_rate = (flops_shard / sa_est.seconds if sa_est.seconds > 0
                   else self.systolic.peak_flops) * self.config.sa_efficiency
        return hda_gemm_seconds(flops_shard, sa_rate, self._mt_rate())

    def _decode_gemm_seconds(self, op: Operator, devices: int,
                             utilization: float) -> float:
        """Weight-streamed batched GEMV: MT consumes the stream, SA assists."""
        weight_bytes = op.weight_bytes / devices
        stream = weight_bytes / (self.chip.memory_bandwidth * utilization)
        rates = self.systolic.peak_flops * self.config.sa_efficiency \
            + self._mt_rate()
        compute = (op.flops / devices) / rates
        return max(stream, compute)

    def _prefill_attention_seconds(self, op: Operator, devices: int) -> float:
        """Chunk attention on the SA against global-memory KV.

        Heads shard across devices; score and context GEMMs read KV pairs
        produced by the current chunk from global memory, so no DRAM
        stall applies (Section IV-B).
        """
        heads_per_device = max(1, op.heads // devices)
        query_len = max(1, op.m // op.batch)
        jobs = op.batch * heads_per_device
        # score: [q, d] x [d, ctx]; context: [q, ctx] x [ctx, d] — model the
        # pair as one GEMM of doubled N on the resident operand.
        est = self.systolic.gemm(
            m=query_len * jobs,
            k=op.k,
            n=2 * op.context_len,
            dram_bandwidth=self.chip.memory_bandwidth,
            double_buffered=True,
            weights_resident=True,
        )
        causal = 0.5 if query_len > 1 else 1.0
        return est.seconds * causal / self.config.sa_efficiency

    def _decode_attention_seconds(self, op: Operator, devices: int,
                                  utilization: float,
                                  dtype_bytes: int) -> float:
        """Decode attention: the MAC tree streams per-request KV."""
        kv_heads = max(1, op.heads // op.group_size)
        if self.mac_tree is not None:
            shard = self.mac_tree.decode_attention(
                batch=op.batch,
                num_heads=max(1, op.heads // devices),
                num_kv_heads=max(1, kv_heads // devices),
                head_dim=op.k,
                context_len=op.context_len,
                dtype_bytes=dtype_bytes,
            )
            return shard.seconds
        kv_bytes = op.io_bytes / devices
        return kv_bytes / (self.chip.memory_bandwidth * utilization)

    def _vector_seconds(self, op: Operator, devices: int) -> float:
        if self.vector is None:
            return 0.0
        elements = op.m * op.k / devices
        if op.name.endswith("norm"):
            return self.vector.layernorm(op.m, max(1, op.k // devices))
        return self.vector.elementwise(elements)

    def _softmax_seconds(self, op: Operator, devices: int) -> float:
        if self.vector is None or op.context_len == 0:
            return 0.0
        rows = op.m * max(1, op.heads // devices)
        return self.vector.softmax(rows, op.context_len)

    # ------------------------------------------------------------------ #
    # Layer and stage aggregation                                         #
    # ------------------------------------------------------------------ #

    def layer_breakdown(self, model: ModelConfig, phase: Phase, batch: int,
                        query_len: int, context_len: int,
                        devices: int = 1) -> dict[str, float]:
        """Per-operator seconds for one decoder layer (Fig. 11a bars)."""
        if devices < 1:
            raise ValueError("devices must be >= 1")
        if phase == Phase.DECODE and query_len == 1 and self.compiled_decode:
            # the serving hot path: thousands of near-identical decode
            # steps per simulation — reuse the compiled constants
            return self._decode_layer_breakdown(model, batch, context_len,
                                                devices)
        ops = decoder_layer_operators(model, phase, batch, query_len, context_len)
        step_flops = sum(op.flops for op in ops) * model.num_layers
        utilization = self._decode_utilization(step_flops)
        breakdown: dict[str, float] = {}
        for op in ops:
            if op.kind == OperatorKind.GEMM:
                if phase == Phase.PREFILL:
                    seconds = self._prefill_gemm_seconds(op, devices)
                else:
                    seconds = self._decode_gemm_seconds(op, devices, utilization)
            elif op.kind == OperatorKind.ATTENTION:
                if phase == Phase.PREFILL:
                    seconds = self._prefill_attention_seconds(op, devices)
                else:
                    seconds = self._decode_attention_seconds(
                        op, devices, utilization, model.dtype_bytes)
                seconds += self._softmax_seconds(op, devices)
            else:
                seconds = self._vector_seconds(op, devices)
            breakdown[op.name] = breakdown.get(op.name, 0.0) + seconds
        # multi-core all-gather bubbles: two synchronized GEMVs per layer
        rows = batch * query_len
        compute_floor = breakdown.get("out_proj", 0.0)
        bubble = self.dataflow_latency.sync_bubble(
            rows, model.hidden_size, compute_floor, CoreSyncMethod.ALL_GATHER)
        breakdown["core_sync"] = 2 * bubble.exposed_seconds \
            + self.config.layer_overhead_s
        return breakdown

    # ------------------------------------------------------------------ #
    # Compiled decode plans                                                #
    # ------------------------------------------------------------------ #
    #
    # A decode step (query_len == 1) re-derives the same per-operator
    # constants every call: only the attention operator and the
    # bandwidth-utilization point depend on the context length.  The
    # serving simulator evaluates decode_step_time thousands of times per
    # run, so the context-independent parts are compiled once per
    # (model, batch, devices) operating point.  Every arithmetic
    # expression below reproduces the general layer_breakdown() path
    # operation-for-operation, so the fast path is bit-identical — the
    # parity suite in tests/test_sim_fastpath.py holds it to that.

    def _decode_plan(self, model: ModelConfig, batch: int,
                     devices: int) -> "_DecodePlan":
        key = (model, batch, devices)
        plan = self._decode_plans.get(key)
        if plan is None:
            plan = self._build_decode_plan(model, batch, devices)
            self._decode_plans[key] = plan
        return plan

    def _build_decode_plan(self, model: ModelConfig, batch: int,
                           devices: int) -> "_DecodePlan":
        # context length 1 is a probe: every cached constant below is
        # context-independent (the attention operator is rebuilt per call)
        ops = decoder_layer_operators(model, Phase.DECODE, batch, 1, 1)
        rates = self.systolic.peak_flops * self.config.sa_efficiency \
            + self._mt_rate()
        entries: list = []
        flops: list = []
        for op in ops:
            if op.kind == OperatorKind.GEMM:
                entries.append(("gemm", op.name, op.weight_bytes / devices,
                                (op.flops / devices) / rates))
                flops.append(op.flops)
            elif op.kind == OperatorKind.ATTENTION:
                entries.append(("attn", op.name, 0.0, 0.0))
                flops.append(None)
            else:
                entries.append(("vector", op.name,
                                self._vector_seconds(op, devices), 0.0))
                flops.append(op.flops)
        head = lm_head_operator(model, Phase.DECODE, batch)
        step_flops = 2.0 * batch * model.active_params_per_token
        head_seconds = self._decode_gemm_seconds(
            head, devices, self._decode_utilization(step_flops))
        return _DecodePlan(entries=entries, flops=flops,
                           head_seconds=head_seconds)

    def _decode_layer_breakdown(self, model: ModelConfig, batch: int,
                                context_len: int,
                                devices: int) -> dict[str, float]:
        """layer_breakdown(DECODE, query_len=1) via the compiled plan."""
        plan = self._decode_plan(model, batch, devices)
        attn = attention_operator(model, Phase.DECODE, batch, 1, context_len)
        # same left-to-right order as sum(op.flops for op in ops)
        total = 0
        for f in plan.flops:
            total = total + (attn.flops if f is None else f)
        step_flops = total * model.num_layers
        utilization = self._decode_utilization(step_flops)
        bw_util = self.chip.memory_bandwidth * utilization
        breakdown: dict[str, float] = {}
        for kind, name, value, compute_seconds in plan.entries:
            if kind == "gemm":
                # value = sharded weight bytes; same expression as
                # _decode_gemm_seconds with the constants hoisted
                seconds = max(value / bw_util, compute_seconds)
            elif kind == "attn":
                seconds = self._decode_attention_seconds(
                    attn, devices, utilization, model.dtype_bytes)
                seconds += self._softmax_seconds(attn, devices)
            else:
                seconds = value  # precomputed vector-op seconds
            breakdown[name] = breakdown.get(name, 0.0) + seconds
        compute_floor = breakdown.get("out_proj", 0.0)
        bubble = self.dataflow_latency.sync_bubble(
            batch, model.hidden_size, compute_floor,
            CoreSyncMethod.ALL_GATHER)
        breakdown["core_sync"] = 2 * bubble.exposed_seconds \
            + self.config.layer_overhead_s
        return breakdown

    def _tp_sync_seconds(self, model: ModelConfig, rows: int, devices: int,
                         body_seconds: float, overlap_capacity: float) -> float:
        if devices <= 1:
            return 0.0
        from repro.parallel.collectives import (
            layer_sync_plan,
            visible_collective_time,
        )
        from repro.parallel.mapper import ModelParallelMapper

        method = ModelParallelMapper(model).choose_sync_method(devices)
        tensor_bytes = rows * model.hidden_size * model.dtype_bytes
        plan = layer_sync_plan(method, tensor_bytes, devices)
        return visible_collective_time(
            plan, self.chip.p2p, model.num_layers,
            body_seconds * overlap_capacity)

    def prefill_time(self, model: ModelConfig, batch: int, seq_len: int,
                     devices: int = 1) -> BaselineBreakdown:
        """Latency to prefill ``batch`` requests of ``seq_len`` tokens."""
        layer = self.layer_breakdown(
            model, Phase.PREFILL, batch, seq_len, seq_len, devices)
        per_layer = sum(layer.values())
        compute = per_layer * model.num_layers
        # weights must still arrive from DRAM once per layer
        weight_stream = model.active_param_bytes_per_token / devices / (
            self.chip.memory_bandwidth * self.systolic.dram_stream_utilization)
        body = max(compute, weight_stream)
        comm = self._tp_sync_seconds(model, batch * seq_len, devices,
                                     body, overlap_capacity=0.60)
        attn = layer.get("attention", 0.0) * model.num_layers
        return BaselineBreakdown(
            seconds=body + comm,
            weight_stream=weight_stream,
            attention=attn,
            compute=compute,
            communication=comm,
            overhead=layer.get("core_sync", 0.0) * model.num_layers,
        )

    def decode_step_time(self, model: ModelConfig, batch: int, context_len: int,
                         devices: int = 1) -> BaselineBreakdown:
        """One decode iteration over ``batch`` requests (TBT = 1/this)."""
        layer = self.layer_breakdown(
            model, Phase.DECODE, batch, 1, context_len, devices)
        body = sum(layer.values()) * model.num_layers
        # LM head: a weight-streamed GEMM over the vocabulary — context-
        # independent, so the compiled plan carries it precomputed
        if self.compiled_decode:
            head_seconds = self._decode_plan(model, batch, devices) \
                .head_seconds
        else:
            head = lm_head_operator(model, Phase.DECODE, batch)
            step_flops = 2.0 * batch * model.active_params_per_token
            utilization = self._decode_utilization(step_flops)
            head_seconds = self._decode_gemm_seconds(head, devices,
                                                     utilization)
        body += head_seconds
        comm = self._tp_sync_seconds(model, batch, devices, body,
                                     overlap_capacity=0.95)
        return BaselineBreakdown(
            seconds=body + comm,
            weight_stream=sum(v for k, v in layer.items()
                              if k not in ("attention", "core_sync"))
            * model.num_layers + head_seconds,
            attention=layer.get("attention", 0.0) * model.num_layers,
            communication=comm,
            overhead=layer.get("core_sync", 0.0) * model.num_layers,
        )


class AdorDeviceModel(DeviceModel):
    """:class:`DeviceModel` facade over the HDA scheduler.

    ``compiled_decode=False`` forces the scheduler's uncompiled
    per-operator decode evaluation — the reference implementation the
    compiled plans are held bit-identical to.
    """

    def __init__(self, chip: ChipSpec, use_mac_tree: bool = True,
                 config: SchedulerConfig | None = None,
                 compiled_decode: bool = True) -> None:
        super().__init__(chip)
        self.scheduler = HdaScheduler(chip, use_mac_tree=use_mac_tree,
                                      config=config,
                                      compiled_decode=compiled_decode)

    def prefill_time(self, model: ModelConfig, batch: int, seq_len: int,
                     num_devices: int = 1) -> BaselineBreakdown:
        return self.scheduler.prefill_time(model, batch, seq_len, num_devices)

    def decode_step_time(self, model: ModelConfig, batch: int, context_len: int,
                         num_devices: int = 1) -> BaselineBreakdown:
        return self.scheduler.decode_step_time(model, batch, context_len,
                                               num_devices)


def device_model_for(chip: ChipSpec, **kwargs) -> DeviceModel:
    """Performance model for any chip kind (HDA or baseline)."""
    if chip.kind == ChipKind.ADOR_HDA:
        return AdorDeviceModel(chip, **kwargs)
    return baseline_for(chip)
