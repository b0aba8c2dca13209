"""Mega-batch parity: GraphInputs.merge_graphs vs a hetero-graph merge.

The claim of the mega-batched training path is that the disjoint-union
of per-graph ``GraphInputs`` (with stitched segment plans) is
**bit-identical** to building inputs from a pre-merged ``HeteroGraph`` —
construction, forward and backward.  The oracle (``merge_graphs`` +
``GraphInputs.from_graph``) is built in the test bodies; training only
ever takes the mega-batch path.
"""

import numpy as np
import pytest

from repro.errors import ModelError, ShapeError
from repro.graph.hetero import merge_graphs
from repro.models import GraphInputs, TargetPredictor, TrainConfig
from repro.models.inputs import MegaBatch
from repro.nn.plan import SegmentPlan


def _quick_config(**kwargs):
    defaults = dict(epochs=4, embed_dim=8, num_layers=2, run_seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def _assert_plans_equal(a: SegmentPlan, b: SegmentPlan):
    assert a.num_segments == b.num_segments
    np.testing.assert_array_equal(a.segment_ids, b.segment_ids)
    np.testing.assert_array_equal(a.order, b.order)
    np.testing.assert_array_equal(a.starts, b.starts)
    np.testing.assert_array_equal(a.present, b.present)
    np.testing.assert_array_equal(a.counts, b.counts)


class TestSegmentPlanConcat:
    def test_concat_matches_build_bitwise(self):
        rng = np.random.default_rng(0)
        sizes = [7, 1, 12, 5]
        offsets = np.cumsum([0] + sizes[:-1])
        plans, all_ids = [], []
        for size, offset in zip(sizes, offsets):
            ids = rng.integers(0, size, size=rng.integers(0, 30))
            plans.append(SegmentPlan.build(ids, size))
            all_ids.append(ids + offset)
        total = sum(sizes)
        merged = SegmentPlan.concat(plans, offsets, total)
        rebuilt = SegmentPlan.build(np.concatenate(all_ids), total)
        _assert_plans_equal(merged, rebuilt)
        values = rng.normal(size=(merged.num_items, 3))
        np.testing.assert_array_equal(
            merged.scatter_add(values), rebuilt.scatter_add(values)
        )

    def test_concat_with_empty_plan(self):
        plans = [
            SegmentPlan.build(np.array([0, 1, 1]), 2),
            SegmentPlan.build(np.empty(0, dtype=np.int64), 3),
            SegmentPlan.build(np.array([0, 2]), 4),
        ]
        merged = SegmentPlan.concat(plans, np.array([0, 2, 5]), 9)
        rebuilt = SegmentPlan.build(np.array([0, 1, 1, 5, 7]), 9)
        _assert_plans_equal(merged, rebuilt)

    def test_concat_rejects_overlapping_ranges(self):
        plans = [
            SegmentPlan.build(np.array([0]), 3),
            SegmentPlan.build(np.array([0]), 3),
        ]
        with pytest.raises(ShapeError):
            SegmentPlan.concat(plans, np.array([0, 2]), 6)

    def test_concat_rejects_out_of_range(self):
        plans = [SegmentPlan.build(np.array([0]), 5)]
        with pytest.raises(ShapeError):
            SegmentPlan.concat(plans, np.array([3]), 6)

    def test_concat_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            SegmentPlan.concat(
                [SegmentPlan.build(np.array([0]), 1)], np.array([0, 1]), 3
            )


class TestSegmentPlanInterleave:
    def test_identity_matches_build_bitwise(self):
        for n in (0, 1, 9):
            _assert_plans_equal(
                SegmentPlan.identity(n),
                SegmentPlan.build(np.arange(n, dtype=np.int64), n),
            )

    def test_interleave_matches_build_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            num_segments = int(rng.integers(1, 12))
            blocks = [
                rng.integers(0, num_segments, size=rng.integers(0, 25)).astype(
                    np.int64
                )
                for _ in range(int(rng.integers(1, 5)))
            ]
            merged = SegmentPlan.interleave(
                [SegmentPlan.build(ids, num_segments) for ids in blocks],
                num_segments,
            )
            rebuilt = SegmentPlan.build(np.concatenate(blocks), num_segments)
            _assert_plans_equal(merged, rebuilt)
            values = rng.normal(size=(merged.num_items, 2))
            np.testing.assert_array_equal(
                merged.scatter_add(values), rebuilt.scatter_add(values)
            )

    def test_interleave_with_identity_block(self):
        # the self-loop shape: merged edge plan + one loop per node
        rng = np.random.default_rng(4)
        n = 8
        ids = rng.integers(0, n, size=21).astype(np.int64)
        merged = SegmentPlan.interleave(
            [SegmentPlan.build(ids, n), SegmentPlan.identity(n)], n
        )
        rebuilt = SegmentPlan.build(
            np.concatenate([ids, np.arange(n, dtype=np.int64)]), n
        )
        _assert_plans_equal(merged, rebuilt)

    def test_interleave_rejects_segment_mismatch(self):
        with pytest.raises(ShapeError):
            SegmentPlan.interleave(
                [SegmentPlan.build(np.array([0]), 3)], 4
            )


class TestMergeGraphsConstruction:
    @pytest.fixture(scope="class")
    def both(self, tiny_bundle):
        records = tiny_bundle.records("train")
        scaler = tiny_bundle.scaler
        batch = GraphInputs.merge_graphs(
            [GraphInputs.from_record(record, scaler) for record in records]
        )
        legacy = GraphInputs.from_graph(
            merge_graphs([record.graph for record in records]), scaler
        )
        return batch, legacy

    def test_arrays_bitwise_identical(self, both):
        batch, legacy = both
        mega = batch.inputs
        assert mega.num_nodes == legacy.num_nodes
        assert set(mega.features) == set(legacy.features)
        for type_name in legacy.features:
            np.testing.assert_array_equal(
                mega.features[type_name], legacy.features[type_name]
            )
            np.testing.assert_array_equal(
                mega.nodes_of_type[type_name], legacy.nodes_of_type[type_name]
            )
        assert set(mega.edges) == set(legacy.edges)
        for edge_type in legacy.edges:
            np.testing.assert_array_equal(
                mega.edges[edge_type][0], legacy.edges[edge_type][0]
            )
            np.testing.assert_array_equal(
                mega.edges[edge_type][1], legacy.edges[edge_type][1]
            )
        np.testing.assert_array_equal(mega.merged_src, legacy.merged_src)
        np.testing.assert_array_equal(mega.merged_dst, legacy.merged_dst)

    def test_preseeded_plans_bitwise_identical(self, both):
        batch, legacy = both
        mega = batch.inputs
        for edge_type in legacy.edges:
            # seeded by merge_graphs on one side, built lazily on the other
            for seeded, built in zip(
                mega.edge_plans(edge_type), legacy.edge_plans(edge_type)
            ):
                _assert_plans_equal(seeded, built)
        for type_name, built in legacy.node_type_plans().items():
            _assert_plans_equal(mega.node_type_plans()[type_name], built)
        # type-major interleaving breaks concat, so these are stitched via
        # SegmentPlan.interleave — still seeded, still bitwise
        for key in (
            "merged_src_plan",
            "merged_dst_plan",
            "loop_src_plan",
            "loop_dst_plan",
        ):
            assert key in mega._cache
        for seeded, built in zip(mega.merged_plans(), legacy.merged_plans()):
            _assert_plans_equal(seeded, built)
        for seeded, built in zip(mega.loop_plans(), legacy.loop_plans()):
            _assert_plans_equal(seeded, built)

    def test_offsets_and_sizes(self, both, tiny_bundle):
        batch, _ = both
        records = tiny_bundle.records("train")
        assert batch.num_graphs == len(records)
        np.testing.assert_array_equal(
            batch.sizes, [r.graph.num_nodes for r in records]
        )
        np.testing.assert_array_equal(
            batch.offsets, np.cumsum([0] + [r.graph.num_nodes for r in records[:-1]])
        )
        segments = batch.graph_of_node()
        assert len(segments) == batch.inputs.num_nodes
        np.testing.assert_array_equal(np.bincount(segments), batch.sizes)
        np.testing.assert_array_equal(
            batch.global_ids(1, np.array([0, 1])),
            np.array([0, 1]) + batch.offsets[1],
        )

    def test_single_graph_short_circuit(self, tiny_bundle):
        record = tiny_bundle.records("train")[0]
        inputs = GraphInputs.from_record(record, tiny_bundle.scaler)
        batch = GraphInputs.merge_graphs([inputs])
        assert batch.inputs is inputs
        assert batch.num_graphs == 1
        np.testing.assert_array_equal(batch.offsets, [0])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            GraphInputs.merge_graphs([])

    def test_ragged_batch(self, tiny_bundle):
        # graphs of very different sizes, deliberately not sorted by size
        records = sorted(
            tiny_bundle.records("train"), key=lambda r: r.graph.num_nodes
        )
        ragged = [records[-1], records[0], records[len(records) // 2]]
        batch = GraphInputs.merge_graphs(
            [GraphInputs.from_record(r, tiny_bundle.scaler) for r in ragged]
        )
        legacy = GraphInputs.from_graph(
            merge_graphs([r.graph for r in ragged]), tiny_bundle.scaler
        )
        np.testing.assert_array_equal(batch.inputs.merged_src, legacy.merged_src)
        for edge_type in legacy.edges:
            for seeded, built in zip(
                batch.inputs.edge_plans(edge_type), legacy.edge_plans(edge_type)
            ):
                _assert_plans_equal(seeded, built)


class TestForwardBackwardParity:
    @pytest.mark.parametrize("conv", ["paragraph", "rgcn", "sage", "gcn", "gat"])
    def test_forward_and_gradients_bitwise(self, tiny_bundle, conv):
        from repro.circuits.devices import NODE_TYPES
        from repro.graph.features import feature_dim
        from repro.models import MultiTaskModel, ReadoutHead, SharedTrunk
        from repro.nn import Tensor, mse_loss
        from repro.rng import stream

        records = tiny_bundle.records("train")[:4]
        scaler = tiny_bundle.scaler
        batch = GraphInputs.merge_graphs(
            [GraphInputs.from_record(r, scaler) for r in records]
        )
        legacy = GraphInputs.from_graph(
            merge_graphs([r.graph for r in records]), scaler
        )
        ids = np.arange(0, batch.inputs.num_nodes, 7)
        targets_np = np.linspace(-1.0, 1.0, len(ids)).reshape(-1, 1)

        grads = {}
        preds = {}
        for label, inputs in (("mega", batch.inputs), ("graph", legacy)):
            rng = stream(0, "model", conv, "parity")
            trunk = SharedTrunk(
                conv=conv,
                feature_dims={t: feature_dim(t) for t in NODE_TYPES},
                rng=rng,
                embed_dim=8,
                num_layers=2,
            )
            model = MultiTaskModel(trunk, {"SA": ReadoutHead(8, 2, rng)})
            pred = model.heads["SA"](model.embed(inputs), ids)
            loss = mse_loss(pred, Tensor(targets_np))
            loss.backward()
            preds[label] = pred.numpy()
            grads[label] = {
                name: np.array(param.grad)
                for name, param in model.named_parameters()
            }
        np.testing.assert_array_equal(preds["mega"], preds["graph"])
        assert grads["mega"].keys() == grads["graph"].keys()
        for name in grads["mega"]:
            np.testing.assert_array_equal(
                grads["mega"][name], grads["graph"][name], err_msg=name
            )


class TestMergedInputsCacheKeying:
    def test_key_is_content_not_identity(self, tiny_bundle):
        from repro.data import build_bundle
        from repro.flows.runtime import MergedInputsCache

        cache = MergedInputsCache()
        records = tiny_bundle.records("train")
        cache.merged(records, tiny_bundle.scaler)
        # an identically-built bundle has different record/scaler objects
        # but identical content -> must hit
        rebuilt = build_bundle(seed=0, scale=0.1)
        rebuilt.scaler.means = tiny_bundle.scaler.means
        rebuilt.scaler.stds = tiny_bundle.scaler.stds
        cache.merged(rebuilt.records("train"), tiny_bundle.scaler)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_composition_changes_miss(self, tiny_bundle):
        from repro.flows.runtime import MergedInputsCache

        cache = MergedInputsCache()
        records = tiny_bundle.records("train")
        cache.merged(records, tiny_bundle.scaler)
        # different subset -> different mega-batch -> miss
        cache.merged(records[:-1], tiny_bundle.scaler)
        # different order -> different node offsets -> miss
        cache.merged(list(reversed(records)), tiny_bundle.scaler)
        assert cache.misses == 3
        assert cache.hits == 0

    def test_empty_target_still_errors(self, tiny_bundle):
        # a target with no samples must fail loudly under mega batching too
        predictor = TargetPredictor(
            "paragraph", "CAP", _quick_config(max_v=-1.0)
        )
        with pytest.raises(ModelError):
            predictor.fit(tiny_bundle)
