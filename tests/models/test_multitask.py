"""Shared-trunk multi-task training: model structure, loop, persistence."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.flows.runtime import MergedInputsCache, RuntimeConfig
from repro.models import (
    MultiTaskModel,
    ReadoutHead,
    SharedTrunk,
    TargetPredictor,
    TrainConfig,
)


def _quick_config(**kwargs):
    defaults = dict(epochs=4, embed_dim=8, num_layers=2, run_seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def _quick_predictor(**kwargs):
    targets = kwargs.pop("targets", ["CAP", "SA", "LDE1"])
    return TargetPredictor(
        "paragraph", targets=targets, config=_quick_config(**kwargs)
    )


class TestModelStructure:
    def test_trunk_matches_one_head_model_embed(self, tiny_bundle):
        from repro.circuits.devices import NODE_TYPES
        from repro.graph.features import feature_dim
        from repro.models import GraphInputs
        from repro.rng import stream

        dims = {t: feature_dim(t) for t in NODE_TYPES}
        model = MultiTaskModel(
            SharedTrunk(
                conv="paragraph", feature_dims=dims,
                rng=stream(0, "trunk-test"), embed_dim=8, num_layers=2,
            ),
            {"CAP": ReadoutHead(8, 4, stream(0, "trunk-test", "head"))},
        )
        trunk = SharedTrunk(
            conv="paragraph", feature_dims=dims,
            rng=stream(1, "other"), embed_dim=8, num_layers=2,
        )
        # the trunk's parameter tree is the model's minus the heads
        trunk.load_state_dict(
            {
                name[len("trunk."):]: value
                for name, value in model.state_dict().items()
                if name.startswith("trunk.")
            }
        )
        record = tiny_bundle.records("train")[0]
        inputs = GraphInputs.from_record(record, tiny_bundle.scaler)
        np.testing.assert_array_equal(
            trunk(inputs).numpy(), model.embed(inputs).numpy()
        )

    def test_head_param_names_are_dotted(self):
        from repro.rng import stream

        trunk = SharedTrunk(
            conv="paragraph", feature_dims={"net": 4},
            rng=stream(0, "t"), embed_dim=4, num_layers=1,
        )
        heads = {
            "CAP": ReadoutHead(4, 2, stream(0, "h", "CAP")),
            "SA": ReadoutHead(4, 1, stream(0, "h", "SA")),
        }
        model = MultiTaskModel(trunk, heads)
        names = [name for name, _ in model.named_parameters()]
        assert any(name.startswith("trunk.encoder.") for name in names)
        assert any(name.startswith("heads.CAP.readout.") for name in names)
        assert any(name.startswith("heads.SA.readout.") for name in names)
        # state_dict round-trips the whole tree
        state = model.state_dict()
        model.load_state_dict(state)

    def test_unknown_head_rejected(self):
        from repro.rng import stream

        trunk = SharedTrunk(
            conv="paragraph", feature_dims={"net": 4},
            rng=stream(0, "t"), embed_dim=4, num_layers=1,
        )
        model = MultiTaskModel(
            trunk, {"CAP": ReadoutHead(4, 2, stream(0, "h"))}
        )
        with pytest.raises(ModelError):
            model(None, "SA", np.array([0]))

    def test_constructor_validation(self):
        with pytest.raises(ModelError):
            TargetPredictor("paragraph", targets=[])
        with pytest.raises(ModelError):
            TargetPredictor("paragraph", targets=["CAP", "CAP"])
        with pytest.raises(ModelError):
            TargetPredictor(
                "paragraph", targets=["CAP"], loss_weights={"SA": 2.0}
            )


class TestTraining:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_bundle):
        return _quick_predictor().fit(tiny_bundle)

    def test_one_trunk_many_heads(self, fitted):
        assert fitted.model.targets == ["CAP", "SA", "LDE1"]
        assert len(fitted.history.losses) == 4
        for name in ("CAP", "SA", "LDE1"):
            assert len(fitted.target_losses[name]) == 4
        # total loss is the sum of per-target terms (unit weights)
        np.testing.assert_allclose(
            fitted.history.losses,
            np.sum(
                [fitted.target_losses[n] for n in ("CAP", "SA", "LDE1")], axis=0
            ),
        )

    def test_cap_scaler_stays_linear(self, fitted):
        from repro.data.normalize import LogTargetScaler, TargetScaler

        assert type(fitted.target_scalers["CAP"]) is TargetScaler
        assert isinstance(fitted.target_scalers["SA"], LogTargetScaler)
        assert fitted._fc_layers["CAP"] == 4
        assert fitted._fc_layers["SA"] == 2

    def test_deterministic(self, tiny_bundle, fitted):
        again = _quick_predictor().fit(tiny_bundle)
        assert again.history.losses == fitted.history.losses
        for (name, a), (_, b) in zip(
            again.model.named_parameters(), fitted.model.named_parameters()
        ):
            np.testing.assert_array_equal(
                np.array(a.data), np.array(b.data), err_msg=name
            )

    def test_loss_weights_scale_total(self, tiny_bundle):
        weighted = TargetPredictor(
            "paragraph",
            targets=["CAP", "SA"],
            config=_quick_config(epochs=2),
            loss_weights={"CAP": 3.0},
        ).fit(tiny_bundle)
        np.testing.assert_allclose(
            weighted.history.losses,
            3.0 * np.asarray(weighted.target_losses["CAP"])
            + np.asarray(weighted.target_losses["SA"]),
        )

    def test_max_v_applies_to_cap_only(self, tiny_bundle):
        clamped = TargetPredictor(
            "paragraph",
            targets=["CAP", "SA"],
            config=_quick_config(epochs=2, max_v=1e-15),
        ).fit(tiny_bundle)
        assert clamped.target_scalers["CAP"].scale == 1e-15

    def test_predict_and_evaluate(self, fitted, tiny_bundle):
        from repro.api import collect, evaluate, predict_one
        from repro.errors import ApiError

        record = tiny_bundle.records("test")[0]
        truth, values = collect(fitted, [record], "SA")
        assert len(truth) == len(values)
        assert (values >= 0).all()
        everything = predict_one(fitted, record.graph)
        np.testing.assert_array_equal(everything.arrays("SA")[1], values)
        metrics = evaluate(fitted, tiny_bundle.records("test"), "SA")
        assert set(metrics) >= {"r2", "mae"}
        with pytest.raises(ApiError):
            collect(fitted, [record], "DA")  # no such head

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            _quick_predictor().save("/tmp/never.npz")


class TestCheckpointAndPersistence:
    def test_save_load_roundtrip(self, tiny_bundle, tmp_path):
        from repro.api import collect

        fitted = _quick_predictor().fit(tiny_bundle)
        path = tmp_path / "multitask.npz"
        fitted.save(path)
        loaded = TargetPredictor.load(path)
        assert loaded.target_names == fitted.target_names
        assert loaded._fc_layers == fitted._fc_layers
        record = tiny_bundle.records("test")[0]
        for target in fitted.target_names:
            _, a = collect(fitted, [record], target)
            _, b = collect(loaded, [record], target)
            np.testing.assert_array_equal(a, b)

    def test_checkpoint_resume_bitwise(self, tiny_bundle, tmp_path):
        rt = RuntimeConfig(checkpoint_dir=str(tmp_path), checkpoint_every=2)
        full = _quick_predictor().fit(tiny_bundle, runtime=rt)
        resumed = _quick_predictor().fit(
            tiny_bundle,
            resume_from=str(tmp_path / "paragraph-multitask-epoch00002.npz"),
        )
        assert resumed.history.resumed_from == 2
        assert resumed.history.losses == full.history.losses
        for (name, a), (_, b) in zip(
            resumed.model.named_parameters(), full.model.named_parameters()
        ):
            np.testing.assert_array_equal(
                np.array(a.data), np.array(b.data), err_msg=name
            )

    def test_checkpoint_target_mismatch_rejected(self, tiny_bundle, tmp_path):
        rt = RuntimeConfig(checkpoint_dir=str(tmp_path), checkpoint_every=2)
        _quick_predictor().fit(tiny_bundle, runtime=rt)
        other = TargetPredictor(
            "paragraph", targets=["CAP", "SA"], config=_quick_config()
        )
        with pytest.raises(ModelError):
            other.fit(
                tiny_bundle,
                resume_from=str(
                    tmp_path / "paragraph-multitask-epoch00002.npz"
                ),
            )

    def test_shared_cache_with_per_target_trainer(self, tiny_bundle):
        # a multi-head fit reuses a cache already primed by per-target fits
        cache = MergedInputsCache()
        TargetPredictor("paragraph", "CAP", _quick_config(epochs=2)).fit(
            tiny_bundle, inputs_cache=cache
        )
        misses_before = cache.misses
        _quick_predictor(epochs=2).fit(tiny_bundle, inputs_cache=cache)
        assert cache.misses == misses_before  # same batch composition
        assert cache.hits >= 3


class TestAdapter:
    def test_multitask_adapter_batches(self, tiny_bundle, taped):
        from repro.api.adapters import GraphWork, PredictorAdapter, make_adapter

        fitted = _quick_predictor().fit(tiny_bundle)
        adapter = make_adapter(fitted)
        assert isinstance(adapter, PredictorAdapter)
        assert adapter.targets == ("CAP", "LDE1", "SA")
        records = tiny_bundle.records("test")[:3]
        works = [GraphWork.local(r.graph) for r in records]
        batched = adapter.predict_works(works, ["CAP", "SA"])
        assert len(batched) == 3
        for record, slot in zip(records, batched):
            for target in ("CAP", "SA"):
                ids, values = slot[target]
                ref_ids, ref_values = taped(fitted, record, target)
                np.testing.assert_array_equal(ids, ref_ids)
                np.testing.assert_allclose(values, ref_values, rtol=1e-12)

    def test_single_work_short_circuit(self, tiny_bundle, taped):
        from repro.api.adapters import GraphWork, make_adapter

        fitted = _quick_predictor().fit(tiny_bundle)
        adapter = make_adapter(fitted)
        record = tiny_bundle.records("test")[0]
        (slot,) = adapter.predict_works([GraphWork.local(record.graph)], ["CAP"])
        ids, values = slot["CAP"]
        ref_ids, ref_values = taped(fitted, record, "CAP")
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(values, ref_values)

    def test_unknown_target_rejected(self, tiny_bundle):
        from repro.api.adapters import GraphWork, make_adapter
        from repro.errors import ApiError

        fitted = _quick_predictor().fit(tiny_bundle)
        adapter = make_adapter(fitted)
        record = tiny_bundle.records("test")[0]
        with pytest.raises(ApiError):
            adapter.predict_works([GraphWork.local(record.graph)], ["DA"])
