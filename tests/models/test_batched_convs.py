"""The batched relational layers against their per-edge-type loop form.

``ParaGraphConv`` and ``RGCNConv`` transform every edge type's block of
the type-major merged edge list in one ``block_matmul``, run one softmax
over (edge type, destination) segments and one segment sum into the
destinations.  :mod:`tests.models.conv_oracle` computes the same layers one
type and one head at a time.  The two only sum in different orders, so
forward outputs, input gradients and every parameter gradient agree to
roundoff in float64, and to the cross-precision tolerance in float32.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.graph.builder import all_edge_type_names
from repro.graph.hetero import merge_graphs
from repro.models import GraphInputs
from repro.models import convs
from repro.models.convs import ParaGraphConv, RGCNConv
from repro.nn import Tensor
from repro.nn.plan import SegmentPlan
from repro.nn.precision import compute_dtype

from tests.models import conv_oracle

DIM = 8
#: float32 batched vs float32 loop: the float32-vs-float64 serving tolerance
FLOAT32_RTOL = 1e-3

PARAGRAPH_CONFIGS = [
    dict(num_heads=heads, group_edge_types=grouped, use_attention=attention,
         concat_skip=skip)
    for heads in (1, 4)
    for grouped in (True, False)
    for attention in (True, False)
    for skip in (True, False)
]


def _config_id(kwargs):
    return "-".join(f"{k}={int(v)}" for k, v in kwargs.items())


@pytest.fixture(scope="module")
def graphs(tiny_bundle):
    """One graph, a 6-graph mega-batch, and a graph with an empty type."""
    records = tiny_bundle.records("train")
    scaler = tiny_bundle.scaler
    single = GraphInputs.from_record(records[0], scaler)
    mega, _ = GraphInputs.merge(
        [GraphInputs.from_record(record, scaler) for record in records[:6]]
    )
    empty_type = sorted(set(all_edge_type_names()) - set(single.edges))[0]
    none = np.empty(0, dtype=np.int64)
    with_empty = GraphInputs(
        num_nodes=single.num_nodes,
        features=single.features,
        nodes_of_type=single.nodes_of_type,
        edges={**single.edges, empty_type: (none, none)},
        merged_src=single.merged_src,
        merged_dst=single.merged_dst,
    )
    return {"single": single, "mega": mega, "empty_type": with_empty}


def _run(conv, forward, inputs, dtype):
    """(output, dh, {param: grad}) of one forward + backward."""
    rng = np.random.default_rng(1)
    h = Tensor(
        rng.standard_normal((inputs.num_nodes, DIM)).astype(dtype),
        requires_grad=True,
    )
    for param in conv.parameters():
        param.zero_grad()
    out = forward(h, inputs)
    out.backward(rng.standard_normal(out.shape).astype(dtype))
    grads = {name: param.grad for name, param in conv.named_parameters()}
    return out.numpy().copy(), h.grad.copy(), grads


def _assert_close(got, want, rtol, scale, what):
    np.testing.assert_allclose(
        got, want, rtol=rtol, atol=rtol * scale, err_msg=what
    )


def _assert_parity(batched, looped, rtol):
    """Outputs and every gradient agree to *rtol*.

    A gradient that cancels to roundoff (the destination attention of a
    type whose segments all sit on one side of the leaky ReLU is exactly
    zero in exact arithmetic) is compared on the scale of the layer's
    largest gradient, not elementwise.
    """
    out, dh, grads = batched
    ref_out, ref_dh, ref_grads = looped
    _assert_close(out, ref_out, rtol, np.abs(ref_out).max(), "output")
    _assert_close(dh, ref_dh, rtol, np.abs(ref_dh).max(), "dh")
    assert grads.keys() == ref_grads.keys()
    used = {name: grad for name, grad in ref_grads.items() if grad is not None}
    assert {n for n, g in grads.items() if g is not None} == set(used)
    scale = max(np.abs(grad).max() for grad in used.values())
    for name, ref_grad in used.items():
        _assert_close(grads[name], ref_grad, rtol, scale, name)


@pytest.mark.parametrize("graph", ["single", "mega", "empty_type"])
@pytest.mark.parametrize("kwargs", PARAGRAPH_CONFIGS, ids=_config_id)
@pytest.mark.parametrize(
    "dtype,rtol", [("float64", 1e-12), ("float32", FLOAT32_RTOL)]
)
def test_paragraph_matches_loop(graphs, graph, kwargs, dtype, rtol):
    inputs = graphs[graph]
    with compute_dtype(dtype):
        conv = ParaGraphConv(
            DIM, all_edge_type_names(), np.random.default_rng(0), **kwargs
        )
        batched = _run(conv, conv.forward, inputs, dtype)
        looped = _run(
            conv,
            lambda h, i: conv_oracle.paragraph_forward(conv, h, i),
            inputs,
            dtype,
        )
    assert batched[0].dtype == np.dtype(dtype)
    _assert_parity(batched, looped, rtol)


@pytest.mark.parametrize("graph", ["single", "mega", "empty_type"])
@pytest.mark.parametrize(
    "dtype,rtol", [("float64", 1e-12), ("float32", FLOAT32_RTOL)]
)
@pytest.mark.parametrize("known", ["all", "some"])
def test_rgcn_matches_loop(graphs, graph, dtype, rtol, known):
    inputs = graphs[graph]
    edge_types = all_edge_type_names()
    if known == "some":
        # edges of the types left out are ignored, as before
        edge_types = sorted(inputs.edges)[::2] + ["nonexistent->net"]
    with compute_dtype(dtype):
        conv = RGCNConv(DIM, edge_types, np.random.default_rng(0))
        batched = _run(conv, conv.forward, inputs, dtype)
        looped = _run(
            conv, lambda h, i: conv_oracle.rgcn_forward(conv, h, i), inputs, dtype
        )
    _assert_parity(batched, looped, rtol)


@pytest.mark.parametrize("graph", ["single", "mega", "empty_type"])
@pytest.mark.parametrize("grouped", [True, False])
def test_attention_weights_match_loop(graphs, graph, grouped):
    inputs = graphs[graph]
    conv = ParaGraphConv(
        DIM, all_edge_type_names(), np.random.default_rng(0),
        num_heads=2, group_edge_types=grouped,
    )
    h = Tensor(np.random.default_rng(1).standard_normal((inputs.num_nodes, DIM)))
    weights = conv.attention_weights(h, inputs)
    expected = conv_oracle.paragraph_attention(conv, h, inputs)
    assert list(weights) == list(expected)
    for edge_type, alpha in expected.items():
        np.testing.assert_allclose(
            weights[edge_type], alpha, rtol=1e-12, atol=1e-15, err_msg=edge_type
        )


class TestKernelCalls:
    """One layer makes one softmax and one segment sum, whatever T is."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"segment_softmax": 0, "segment_sum": 0, "gather_rows": 0}
        for name in calls:
            kernel = getattr(convs, name)

            def counted(*args, _kernel=kernel, _name=name, **kwargs):
                calls[_name] += 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(convs, name, counted)
        return calls

    @pytest.mark.parametrize("num_heads", [1, 4])
    def test_paragraph_layer(self, graphs, counts, num_heads):
        inputs = graphs["mega"]
        assert len(inputs.edge_blocks()[0]) >= 10
        conv = ParaGraphConv(
            DIM, all_edge_type_names(), np.random.default_rng(0),
            num_heads=num_heads,
        )
        conv(Tensor(np.ones((inputs.num_nodes, DIM))), inputs)
        assert counts == {"segment_softmax": 1, "segment_sum": 1, "gather_rows": 2}

    def test_paragraph_without_attention(self, graphs, counts):
        inputs = graphs["mega"]
        conv = ParaGraphConv(
            DIM, all_edge_type_names(), np.random.default_rng(0),
            use_attention=False,
        )
        conv(Tensor(np.ones((inputs.num_nodes, DIM))), inputs)
        assert counts == {"segment_softmax": 0, "segment_sum": 1, "gather_rows": 1}

    def test_rgcn_layer(self, graphs, counts):
        inputs = graphs["mega"]
        conv = RGCNConv(DIM, all_edge_type_names(), np.random.default_rng(0))
        conv(Tensor(np.ones((inputs.num_nodes, DIM))), inputs)
        assert counts == {"segment_softmax": 0, "segment_sum": 1, "gather_rows": 1}


class TestEdgeBlocks:
    def test_bounds_tile_the_merged_list(self, graphs):
        for inputs in graphs.values():
            names, bounds = inputs.edge_blocks()
            assert names == [t for t in sorted(inputs.edges) if len(inputs.edges[t][0])]
            for name, lo, hi in zip(names, bounds[:-1], bounds[1:]):
                src, dst = inputs.edges[name]
                np.testing.assert_array_equal(inputs.merged_src[lo:hi], src)
                np.testing.assert_array_equal(inputs.merged_dst[lo:hi], dst)
            assert bounds[0] == 0 and bounds[-1] == len(inputs.merged_dst)

    def test_inconsistent_merged_list_rejected(self, graphs):
        single = graphs["single"]
        broken = GraphInputs(
            num_nodes=single.num_nodes,
            features=single.features,
            nodes_of_type=single.nodes_of_type,
            edges=single.edges,
            merged_src=single.merged_src[:-1],
            merged_dst=single.merged_dst[:-1],
        )
        with pytest.raises(ShapeError):
            broken.edge_blocks()

    def test_type_dst_segments_are_the_occurring_pairs(self, graphs):
        for inputs in graphs.values():
            names, bounds = inputs.edge_blocks()
            type_index = np.repeat(np.arange(len(names)), np.diff(bounds))
            pair = type_index * inputs.num_nodes + inputs.merged_dst
            _, ids = np.unique(pair, return_inverse=True)
            expected = SegmentPlan.build(ids, int(ids.max()) + 1)
            plan = inputs.type_dst_plan()
            # O(E) segments, numbered by type block then destination
            assert plan.num_segments <= len(inputs.merged_dst)
            assert plan.num_segments == expected.num_segments
            for field in ("segment_ids", "order", "starts", "present", "counts"):
                np.testing.assert_array_equal(
                    getattr(plan, field), getattr(expected, field), err_msg=field
                )
            inv = inputs.type_dst_inv_counts(np.float64)
            np.testing.assert_array_equal(
                inv.ravel(), 1.0 / expected.counts[expected.segment_ids]
            )

    def test_type_dst_plan_builds_no_source_plan(self, tiny_bundle):
        """Only destination plans feed the pair plan; the per-type source
        plans stay unbuilt until something asks for them."""
        record = tiny_bundle.records("test")[0]
        inputs = GraphInputs.from_record(record, tiny_bundle.scaler)
        inputs.type_dst_plan()
        built = {key[0] for key in inputs._cache if isinstance(key, tuple)}
        assert "edge_dst_plan" in built
        assert "edge_src_plan" not in built
        names, _ = inputs.edge_blocks()
        for edge_type in names:
            src, dst = inputs.edge_plans(edge_type)
            np.testing.assert_array_equal(src.segment_ids, inputs.edges[edge_type][0])
            np.testing.assert_array_equal(dst.segment_ids, inputs.edges[edge_type][1])

    def test_mega_batch_plan_matches_graph_merge(self, tiny_bundle):
        records = tiny_bundle.records("train")[:5]
        scaler = tiny_bundle.scaler
        mega, _ = GraphInputs.merge(
            [GraphInputs.from_record(record, scaler) for record in records]
        )
        legacy = GraphInputs.from_graph(
            merge_graphs([record.graph for record in records]), scaler
        )
        built, seeded = legacy.type_dst_plan(), mega.type_dst_plan()
        for field in ("segment_ids", "order", "starts", "present", "counts"):
            np.testing.assert_array_equal(
                getattr(seeded, field), getattr(built, field), err_msg=field
            )
