"""ModelRegistry: discovery, content-hash versions, bit-identical loads."""

import json
import os

import numpy as np
import pytest

from repro.api import predict_one
from repro.errors import ApiError
from repro.serve import ModelRegistry, artifact_version, load_model


@pytest.fixture
def model_root(tmp_path, api_cap_predictor, api_multi_model,
               api_ensemble_model):
    """A models/ directory holding one artifact of each persisted family."""
    api_cap_predictor.save(tmp_path / "CAP.npz")
    api_multi_model.save_dir(tmp_path / "multi")
    api_ensemble_model.save_dir(tmp_path / "ens")
    return tmp_path


class TestLoadModel:
    def test_sniffs_all_three_families(self, model_root):
        from repro.ensemble import CapacitanceEnsemble
        from repro.flows.training import MultiTargetModel
        from repro.models import TargetPredictor

        assert isinstance(load_model(model_root / "CAP.npz"), TargetPredictor)
        assert isinstance(load_model(model_root / "multi"), MultiTargetModel)
        assert isinstance(load_model(model_root / "ens"), CapacitanceEnsemble)

    @pytest.fixture(scope="class")
    def shared(self, tiny_bundle):
        from repro.models import TargetPredictor, TrainConfig

        return TargetPredictor(
            "paragraph",
            targets=["CAP", "SA"],
            config=TrainConfig(epochs=2, embed_dim=8, num_layers=2),
        ).fit(tiny_bundle)

    def test_sniffs_multitask_npz(self, shared, tiny_bundle, tmp_path):
        from repro.models import TargetPredictor

        shared.save(tmp_path / "multitask.npz")
        loaded = load_model(tmp_path / "multitask.npz")
        assert isinstance(loaded, TargetPredictor)
        assert loaded.target_names == ["CAP", "SA"]
        record = tiny_bundle.records("test")[0]
        result = predict_one(loaded, record.circuit)
        assert set(result.targets) == {"CAP", "SA"}

    def test_loads_shared_trunk_output_dir(self, shared, tiny_bundle, tmp_path):
        # `repro train-all --trunk shared --out-dir D` writes D/multitask.npz;
        # loading D used to read it as a per-target artifact (KeyError)
        from repro.flows.training import MultiTargetModel

        MultiTargetModel({"CAP": shared, "SA": shared}).save_dir(tmp_path / "d")
        assert os.listdir(tmp_path / "d") == ["multitask.npz"]
        loaded = load_model(tmp_path / "d")
        assert isinstance(loaded, MultiTargetModel)
        assert loaded.predictors["CAP"] is loaded.predictors["SA"]
        record = tiny_bundle.records("test")[0]
        got = predict_one(loaded, record.circuit)
        want = predict_one(shared, record.circuit)
        for target in ("CAP", "SA"):
            np.testing.assert_array_equal(
                got.arrays(target)[1], want.arrays(target)[1]
            )

    def test_rejects_junk(self, tmp_path):
        with pytest.raises(ApiError, match="no loadable model"):
            load_model(tmp_path / "missing")
        (tmp_path / "empty").mkdir()
        with pytest.raises(ApiError, match="no loadable model"):
            load_model(tmp_path / "empty")


class TestArtifactVersion:
    def test_twelve_hex_chars(self, model_root):
        for artifact in ("CAP.npz", "multi", "ens"):
            version = artifact_version(model_root / artifact)
            assert len(version) == 12
            int(version, 16)  # parses as hex

    def test_same_bytes_same_version(self, model_root, api_cap_predictor,
                                     tmp_path):
        api_cap_predictor.save(tmp_path / "copy.npz")
        # .npz archives embed timestamps, so equality of bytes is not
        # guaranteed across saves; equality of the same file must be.
        assert artifact_version(model_root / "CAP.npz") == artifact_version(
            model_root / "CAP.npz"
        )

    def test_changed_bytes_change_version(self, model_root):
        before = artifact_version(model_root / "CAP.npz")
        with open(model_root / "CAP.npz", "ab") as handle:
            handle.write(b"x")
        assert artifact_version(model_root / "CAP.npz") != before


class TestDiscovery:
    def test_discovers_every_family(self, model_root):
        registry = ModelRegistry.discover(model_root)
        rows = {entry.name: entry for entry in registry.entries()}
        assert set(rows) == {"CAP", "multi", "ens"}
        assert rows["CAP"].family == "predictor"
        assert rows["multi"].family == "multi_target"
        assert rows["ens"].family == "ensemble"
        assert rows["multi"].targets == ("CAP", "SA")
        for entry in rows.values():
            assert len(entry.version) == 12

    def test_discover_single_artifact_root(self, model_root):
        registry = ModelRegistry.discover(model_root / "CAP.npz")
        assert registry.names() == ("CAP",)

    def test_discover_skips_non_models(self, model_root):
        (model_root / "README.md").write_text("not a model")
        (model_root / "junk_dir").mkdir()
        registry = ModelRegistry.discover(model_root)
        assert set(registry.names()) == {"CAP", "multi", "ens"}

    def test_discover_empty_root_raises(self, tmp_path):
        with pytest.raises(ApiError, match="no loadable models"):
            ModelRegistry.discover(tmp_path)
        with pytest.raises(ApiError, match="does not exist"):
            ModelRegistry.discover(tmp_path / "nope")


class TestRegistryApi:
    def test_duplicate_name_raises(self, api_cap_predictor):
        registry = ModelRegistry()
        registry.register("cap", api_cap_predictor)
        with pytest.raises(ApiError, match="already registered"):
            registry.register("cap", api_cap_predictor)

    def test_default_resolution(self, api_cap_predictor, api_sa_predictor):
        registry = ModelRegistry()
        registry.register("only", api_cap_predictor)
        assert registry.get().name == "only"
        registry.register("second", api_sa_predictor)
        with pytest.raises(ApiError, match="no default"):
            registry.get()
        with pytest.raises(ApiError, match="unknown model"):
            registry.get("nope")

    def test_describe_is_json_ready(self, model_root):
        registry = ModelRegistry.discover(model_root)
        rows = registry.describe()
        json.dumps(rows)  # must not raise
        assert {row["name"] for row in rows} == {"CAP", "multi", "ens"}
        assert all(os.path.exists(row["path"]) for row in rows)

    def test_contains_and_len(self, api_cap_predictor):
        registry = ModelRegistry()
        assert not registry and len(registry) == 0
        registry.register("cap", api_cap_predictor)
        assert "cap" in registry and "other" not in registry
        assert len(registry) == 1


class TestRoundTrip:
    """Save -> discover -> predict must be bit-identical per family.

    This is the serving guarantee: a registry serving from disk answers
    exactly what the in-memory model that produced the artifact answered.
    """

    @pytest.mark.parametrize("name", ["CAP", "multi", "ens"])
    def test_bit_identical_per_family(self, name, model_root, tiny_bundle,
                                      api_cap_predictor, api_multi_model,
                                      api_ensemble_model):
        original = {
            "CAP": api_cap_predictor,
            "multi": api_multi_model,
            "ens": api_ensemble_model,
        }[name]
        registry = ModelRegistry.discover(model_root)
        loaded = registry.get(name).model
        for record in tiny_bundle.records("test"):
            want = predict_one(original, record.circuit)
            got = predict_one(loaded, record.circuit)
            assert sorted(want.targets) == sorted(got.targets)
            for target in want.targets:
                assert np.array_equal(
                    want.targets[target].values, got.targets[target].values
                ), (name, target, record.circuit.name)
