"""Tests for dataset caching and the error-breakdown analysis."""

import numpy as np
import pytest

from repro.analysis.breakdown import (
    breakdown_for_predictor,
    error_breakdown,
)
from repro.data import CAP_TARGET, build_bundle, target_by_name
from repro.data.cache import load_bundle_from_cache, save_bundle
from repro.errors import DatasetError, ReproError


class TestCache:
    @pytest.fixture(scope="class")
    def saved(self, tiny_bundle, tmp_path_factory):
        directory = tmp_path_factory.mktemp("bundle_cache")
        save_bundle(tiny_bundle, directory)
        return directory, tiny_bundle

    def test_roundtrip_structure(self, saved):
        directory, original = saved
        loaded = load_bundle_from_cache(directory)
        assert set(loaded.train) == set(original.train)
        assert set(loaded.test) == set(original.test)
        assert loaded.seed == original.seed
        assert loaded.scale == original.scale

    @staticmethod
    def _named_targets(record, spec):
        ids, values = record.target_arrays(spec)
        return {
            record.graph.node_name_of[node_id]: value
            for node_id, value in zip(ids, values)
        }

    def test_roundtrip_cap_targets(self, saved):
        """Per-net values survive (node ordering may differ after reparse)."""
        directory, original = saved
        loaded = load_bundle_from_cache(directory)
        for name in ("e1", "t1"):
            rec_o = original.test.get(name) or original.train[name]
            rec_l = loaded.test.get(name) or loaded.train[name]
            a = self._named_targets(rec_o, CAP_TARGET)
            b = self._named_targets(rec_l, CAP_TARGET)
            assert set(a) == set(b)
            for net in a:
                assert b[net] == pytest.approx(a[net])

    def test_roundtrip_device_targets(self, saved):
        """Device values survive under the SPICE-normalised instance names."""
        directory, original = saved
        loaded = load_bundle_from_cache(directory)
        spec = target_by_name("SA")
        _, a = original.train["t2"].target_arrays(spec)
        _, b = loaded.train["t2"].target_arrays(spec)
        np.testing.assert_allclose(sorted(b), sorted(a))

    def test_roundtrip_res_targets(self, saved):
        directory, original = saved
        loaded = load_bundle_from_cache(directory)
        spec = target_by_name("RES")
        a = self._named_targets(original.test["e2"], spec)
        b = self._named_targets(loaded.test["e2"], spec)
        for net in a:
            assert b[net] == pytest.approx(a[net])

    def test_scaler_roundtrip(self, saved):
        directory, original = saved
        loaded = load_bundle_from_cache(directory)
        graph = original.records("test")[0].graph
        for type_name, scaled in original.scaler.transform(graph).items():
            np.testing.assert_allclose(
                loaded.scaler.transform(graph)[type_name], scaled
            )

    def test_trainable_after_reload(self, saved):
        from repro.models import TargetPredictor, TrainConfig

        directory, _ = saved
        loaded = load_bundle_from_cache(directory)
        predictor = TargetPredictor(
            "paragraph", "CAP", TrainConfig(epochs=3, embed_dim=8, num_layers=2)
        ).fit(loaded)
        assert predictor.history.final_loss < predictor.history.losses[0]

    def test_bad_directory_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            load_bundle_from_cache(tmp_path)

    def test_names_are_stored_as_text(self, saved):
        directory, _ = saved
        with np.load(directory / "test" / "e1.targets.npz") as archive:
            assert archive["net_names"].dtype.kind == "U"
            assert archive["device_names"].dtype.kind == "U"


class _Payload:
    """Pickles to a call that creates *marker* when unpickled."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return (open, (self.marker, "w"))


class TestUntrustedCache:
    """A bundle directory is data: loading one must never run code."""

    @staticmethod
    def _tamper(saved, tmp_path, names):
        import shutil

        directory = tmp_path / "bundle"
        shutil.copytree(saved[0], directory)
        path = directory / "test" / "e1.targets.npz"
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["net_names"] = names(arrays["net_names"].tolist())
        np.savez(path, **arrays)
        return directory, path

    @pytest.fixture(scope="class")
    def saved(self, tiny_bundle, tmp_path_factory):
        directory = tmp_path_factory.mktemp("bundle_cache")
        save_bundle(tiny_bundle, directory)
        return directory, tiny_bundle

    def test_pickled_payload_never_runs(self, saved, tmp_path):
        marker = tmp_path / "payload-ran"
        directory, path = self._tamper(
            saved, tmp_path,
            lambda names: np.array(names + [_Payload(str(marker))], dtype=object),
        )
        with pytest.raises(DatasetError, match="rebuild the dataset cache"):
            load_bundle_from_cache(directory)
        assert not marker.exists()

    def test_old_object_array_format_names_the_file(self, saved, tmp_path):
        directory, path = self._tamper(
            saved, tmp_path, lambda names: np.array(names, dtype=object)
        )
        with pytest.raises(DatasetError) as caught:
            load_bundle_from_cache(directory)
        assert str(path) in str(caught.value)
        assert "rebuild" in str(caught.value)

    def test_non_text_names_are_refused(self, saved, tmp_path):
        directory, _ = self._tamper(
            saved, tmp_path, lambda names: np.arange(len(names))
        )
        with pytest.raises(DatasetError, match="not text"):
            load_bundle_from_cache(directory)


class TestErrorBreakdown:
    def test_buckets_and_render(self):
        truth = np.array([1e-15, 2e-15, 5e-14, 2e-13])
        pred = truth * np.array([1.1, 0.8, 1.5, 1.0])
        fanout = np.array([2, 3, 6, 12])
        breakdown = error_breakdown(truth, pred, fanout)
        assert breakdown.by_fanout["1-2"]["n"] == 1
        assert breakdown.by_fanout["3-4"]["mape"] == pytest.approx(0.2)
        assert breakdown.by_magnitude["[1e-13, inf)"]["mape"] == pytest.approx(0.0)
        text = breakdown.render()
        assert "by fanout" in text and "magnitude" in text

    def test_validation(self):
        with pytest.raises(ReproError):
            error_breakdown(np.ones(2), np.ones(3), np.ones(2))
        with pytest.raises(ReproError):
            error_breakdown(np.zeros(2), np.ones(2), np.ones(2))

    def test_predictor_breakdown(self, tiny_bundle):
        from repro.models import TargetPredictor, TrainConfig

        predictor = TargetPredictor(
            "paragraph", "CAP", TrainConfig(epochs=3, embed_dim=8, num_layers=2)
        ).fit(tiny_bundle)
        breakdown = breakdown_for_predictor(predictor, tiny_bundle.records("test"))
        total = sum(stats["n"] for stats in breakdown.by_fanout.values())
        expected = sum(
            len(r.graph.nodes_of_type["net"]) for r in tiny_bundle.records("test")
        )
        assert total == expected
