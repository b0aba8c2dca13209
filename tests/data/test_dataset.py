"""Tests for dataset assembly, target extraction and scaling."""

import numpy as np
import pytest

from repro.circuits import devices as dev
from repro.data import (
    ALL_TARGETS,
    CAP_TARGET,
    DEVICE_TARGETS,
    FeatureScaler,
    TargetScaler,
    build_bundle,
    scaler_from_std,
    target_by_name,
)
from repro.errors import DatasetError


class TestTargets:
    def test_all_targets_enumeration(self):
        """Paper Table I: CAP + 8 LDE + SA/DA/SP/DP = 13 targets."""
        assert len(ALL_TARGETS) == 13
        assert ALL_TARGETS[0].name == "CAP"
        names = {t.name for t in DEVICE_TARGETS}
        assert names == {f"LDE{i}" for i in range(1, 9)} | {"SA", "DA", "SP", "DP"}

    def test_lookup_by_name(self):
        assert target_by_name("CAP").kind == "net"
        assert target_by_name("LDE4").kind == "device"
        with pytest.raises(DatasetError):
            target_by_name("FOO")

    def test_cap_node_ids_are_net_nodes(self, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        ids = CAP_TARGET.node_ids(record.graph)
        np.testing.assert_array_equal(ids, record.graph.nodes_of_type[dev.NET])

    def test_device_node_ids_cover_both_mos_types(self, tiny_bundle):
        record = tiny_bundle.train["t2"]  # thick-gate heavy circuit
        ids = target_by_name("SA").node_ids(record.graph)
        types = {record.graph.node_type_of[i] for i in ids}
        assert types == {dev.TRANSISTOR, dev.TRANSISTOR_THICKGATE}

    def test_values_align_with_layout(self, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        ids, values = record.target_arrays(CAP_TARGET)
        for node_id, value in zip(ids[:10], values[:10]):
            net = record.graph.node_name_of[node_id]
            assert value == record.layout.cap_of(net)

    def test_every_target_array_equals_the_layout_dict(self, tiny_bundle):
        """Field and index lookups give what ``as_dict`` holds, for all 13
        targets on every circuit."""
        for record in tiny_bundle.records("train") + tiny_bundle.records("test"):
            for spec in ALL_TARGETS:
                ids, values = record.target_arrays(spec)
                names = [record.graph.node_name_of[i] for i in ids]
                expected = [
                    record.layout.cap_of(name) if spec.kind == "net"
                    else record.layout.device_params[name].as_dict()[spec.name]
                    for name in names
                ]
                np.testing.assert_array_equal(values, expected, err_msg=spec.name)

    def test_device_values_positive(self, tiny_bundle):
        record = tiny_bundle.records("train")[0]
        for name in ("LDE1", "SA", "DP"):
            _, values = record.target_arrays(target_by_name(name))
            assert (values > 0).all()


class TestBundle:
    def test_split_sizes(self, tiny_bundle):
        assert len(tiny_bundle.train) == 18
        assert len(tiny_bundle.test) == 4

    def test_records_sorted(self, tiny_bundle):
        names = [r.name for r in tiny_bundle.records("test")]
        assert names == sorted(names)

    def test_unknown_split_raises(self, tiny_bundle):
        with pytest.raises(DatasetError):
            tiny_bundle.records("validation")

    def test_table4_rows(self, tiny_bundle):
        rows = tiny_bundle.table4()
        assert len(rows) == 22
        assert rows[0]["circuit"] == "e1" or rows[0]["circuit"].startswith("t")

    def test_deterministic_rebuild(self):
        a = build_bundle(seed=3, scale=0.05)
        b = build_bundle(seed=3, scale=0.05)
        ra, rb = a.records("test")[0], b.records("test")[0]
        _, va = ra.target_arrays(CAP_TARGET)
        _, vb = rb.target_arrays(CAP_TARGET)
        np.testing.assert_array_equal(va, vb)

    def test_layout_seed_changes_targets_only(self):
        a = build_bundle(seed=3, scale=0.05, layout_seed=1)
        b = build_bundle(seed=3, scale=0.05, layout_seed=2)
        ra, rb = a.records("test")[0], b.records("test")[0]
        assert ra.graph.num_nodes == rb.graph.num_nodes
        _, va = ra.target_arrays(CAP_TARGET)
        _, vb = rb.target_arrays(CAP_TARGET)
        assert not np.array_equal(va, vb)

    def test_pooled_target(self, tiny_bundle):
        records, ids, values = tiny_bundle.pooled_target("test", CAP_TARGET)
        assert len(records) == len(ids) == len(values) == 4
        for record, node_ids in zip(records, ids):
            assert len(node_ids) == len(record.graph.nodes_of_type[dev.NET])


class TestFeatureScaler:
    def test_fit_transform_standardizes(self, tiny_bundle):
        graphs = [r.graph for r in tiny_bundle.records("train")]
        scaler = FeatureScaler().fit(graphs)
        # every graph has net nodes; not every graph has every device type
        logged = [scaler.transform(g)[dev.NET] for g in graphs]
        stacked = np.concatenate(logged, axis=0)
        np.testing.assert_allclose(stacked.mean(axis=0), 0.0, atol=1e-9)
        # near-constant features have their std floored to 1, so the
        # transformed std is in [0, 1]; varying features sit at exactly 1
        stds = stacked.std(axis=0)
        assert (stds <= 1.0 + 1e-9).all()
        assert stds.max() > 0.99  # at least one genuinely varying feature

    def test_empty_fit_raises(self):
        with pytest.raises(DatasetError):
            FeatureScaler().fit([])

    def test_unseen_type_falls_back_to_log_with_warning(self, tiny_bundle):
        scaler = FeatureScaler()
        graphs = [r.graph for r in tiny_bundle.records("train")]
        scaler.fit(graphs)
        scaler.means.pop(dev.NET, None)
        with pytest.warns(UserWarning, match="not seen when fitting"):
            out = scaler.transform(graphs[0])
        assert np.isfinite(out[dev.NET]).all()

    def test_seen_types_transform_silently(self, tiny_bundle, recwarn):
        graphs = [r.graph for r in tiny_bundle.records("train")]
        scaler = FeatureScaler().fit(graphs)
        scaler.transform(graphs[0])
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


class TestTargetScaler:
    def test_roundtrip(self):
        scaler = TargetScaler(10e-15)
        values = np.array([1e-15, 5e-15])
        np.testing.assert_allclose(scaler.inverse(scaler.transform(values)), values)

    def test_invalid_scale(self):
        with pytest.raises(DatasetError):
            TargetScaler(0.0)

    def test_scaler_from_std(self):
        values = np.array([1.0, 2.0, 3.0])
        scaler = scaler_from_std(values)
        assert scaler.scale == pytest.approx(values.std())

    def test_scaler_from_constant_values(self):
        scaler = scaler_from_std(np.array([2.0, 2.0]))
        assert scaler.scale == 2.0

    def test_scaler_from_empty_raises(self):
        with pytest.raises(DatasetError):
            scaler_from_std(np.array([]))
