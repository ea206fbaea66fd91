"""Unit tests for whole-model operator graphs."""

import pytest

from repro.models.graph import (
    build_decode_graph,
    build_prefill_graph,
    flatten,
    operation_share,
    total_flops,
    total_weight_bytes,
)
from repro.models.layers import Phase
from repro.models.zoo import get_model


@pytest.fixture
def llama3():
    return get_model("llama3-8b")


class TestGraphStructure:
    def test_chain_in_execution_order(self, llama3):
        layers = [f"layer{i}" for i in range(llama3.num_layers)]
        prefill = build_prefill_graph(llama3, 1, 64)
        decode = build_decode_graph(llama3, 4, 64)
        for graph, blocks in ((prefill, ["embed", *layers]),
                              (decode, ["embed", *layers, "head"])):
            ids = [node_id.split(".")[0] for node_id, _ in graph.nodes]
            runs = [b for i, b in enumerate(ids) if i == 0 or b != ids[i - 1]]
            assert runs == blocks
            assert graph.nodes[0][1].name == "token_embedding"
        assert decode.nodes[-1][1].name == "lm_head"

    def test_node_ids_unique(self, llama3):
        graph = build_decode_graph(llama3, 1, 16)
        assert len({node_id for node_id, _ in graph.nodes}) == len(graph.nodes)

    def test_flatten_is_topological(self, llama3):
        graph = build_decode_graph(llama3, 1, 16)
        ops = flatten(graph)
        assert len(ops) == len(graph.nodes)
        assert ops[0].name == "token_embedding"
        assert ops[-1].name == "lm_head"

    def test_decode_includes_lm_head_prefill_does_not(self, llama3):
        decode_names = [op.name for op in flatten(build_decode_graph(llama3, 1, 16))]
        prefill_names = [op.name for op in flatten(build_prefill_graph(llama3, 1, 16))]
        assert "lm_head" in decode_names
        assert "lm_head" not in prefill_names

    def test_prefill_lm_head_opt_in(self, llama3):
        graph = build_prefill_graph(llama3, 1, 16, include_lm_head=True)
        assert "lm_head" in [op.name for op in flatten(graph)]

    def test_layer_count_matches_model(self, llama3):
        graph = build_decode_graph(llama3, 1, 16)
        layers = {node_id.split(".")[0] for node_id, _ in graph.nodes
                  if node_id.startswith("layer")}
        assert len(layers) == llama3.num_layers


class TestAggregates:
    def test_decode_weight_bytes_match_active_params(self, llama3):
        graph = build_decode_graph(llama3, 8, 128)
        assert total_weight_bytes(graph) == pytest.approx(
            llama3.active_param_bytes_per_token)

    def test_prefill_flops_scale_with_seq(self, llama3):
        short = total_flops(build_prefill_graph(llama3, 1, 64))
        long = total_flops(build_prefill_graph(llama3, 1, 128))
        # slightly superlinear because of quadratic attention
        assert long > 2 * short
        assert long < 2.5 * short

    def test_decode_flops_scale_with_batch(self, llama3):
        one = total_flops(build_decode_graph(llama3, 1, 128))
        eight = total_flops(build_decode_graph(llama3, 8, 128))
        assert eight == pytest.approx(8 * one, rel=1e-6)


class TestOperationShare:
    """Fig. 3(b): attention share grows toward dominance with context."""

    def test_share_grows_with_context(self, llama3):
        shares = [operation_share(llama3, s).attention_fraction
                  for s in (4096, 8192, 65536)]
        assert shares == sorted(shares)

    def test_attention_dominates_at_64k(self, llama3):
        share = operation_share(llama3, 65536)
        assert share.attention_fraction > 0.5

    def test_attention_minor_at_4k(self, llama3):
        share = operation_share(llama3, 4096)
        assert share.attention_fraction < 0.35

    def test_fractions_sum_to_one(self, llama3):
        share = operation_share(llama3, 8192)
        total = share.attention_fraction + share.mlp_fraction \
            + share.other / share.total
        assert total == pytest.approx(1.0)

    def test_prefill_phase_option(self, llama3):
        decode = operation_share(llama3, 8192, phase=Phase.DECODE)
        prefill = operation_share(llama3, 8192, phase=Phase.PREFILL)
        # causal masking halves prefill attention relative to decode's
        # full-context reads
        assert prefill.attention_fraction < decode.attention_fraction
