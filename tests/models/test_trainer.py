"""Tests for the training driver and the end-to-end learning behaviour."""

import numpy as np
import pytest

from repro.api import collect, evaluate, predict_one
from repro.circuits.devices import NODE_TYPES
from repro.errors import ModelError
from repro.graph.builder import all_edge_type_names
from repro.graph.features import feature_dim
from repro.models import (
    MultiTaskModel,
    ReadoutHead,
    SharedTrunk,
    TargetPredictor,
    TrainConfig,
)
from repro.models.convs import make_conv
from repro.models.encoder import NodeTypeEncoder
from repro.nn import MLP, load_module, save_module
from repro.rng import stream


def _quick_config(**kwargs):
    defaults = dict(epochs=8, embed_dim=8, num_layers=2, run_seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestTargetPredictor:
    def test_unfitted_predict_raises(self, tiny_bundle):
        predictor = TargetPredictor("paragraph", "CAP", _quick_config())
        with pytest.raises(ModelError):
            collect(predictor, tiny_bundle.records("test")[:1])

    def test_loss_decreases(self, tiny_bundle):
        predictor = TargetPredictor("paragraph", "CAP", _quick_config(epochs=20))
        predictor.fit(tiny_bundle)
        losses = predictor.history.losses
        assert len(losses) == 20
        assert losses[-1] < losses[0]

    def test_predictions_cover_all_nets(self, tiny_bundle):
        predictor = TargetPredictor("paragraph", "CAP", _quick_config()).fit(tiny_bundle)
        record = tiny_bundle.records("test")[0]
        named = predict_one(predictor, record).named("CAP")
        expected = {n.name for n in record.circuit.signal_nets()}
        assert set(named) == expected
        assert all(v >= 0 for v in named.values())

    def test_device_target_readout_depth(self, tiny_bundle):
        """Paper: 4 FC layers for CAP, 2 for device parameters."""
        cap = TargetPredictor("paragraph", "CAP", _quick_config()).fit(tiny_bundle)
        sa = TargetPredictor("paragraph", "SA", _quick_config()).fit(tiny_bundle)
        assert len(cap.model.heads["CAP"].readout.layers) == 4
        assert len(sa.model.heads["SA"].readout.layers) == 2

    def test_explicit_zero_fc_layers_honoured(self, tiny_bundle):
        """Regression: ``num_fc_layers=0`` used to be silently replaced by
        the paper default through a ``cfg.num_fc_layers or 4`` fallback."""
        predictor = TargetPredictor(
            "paragraph", "CAP", _quick_config(epochs=2, num_fc_layers=0)
        ).fit(tiny_bundle)
        assert len(predictor.model.heads["CAP"].readout.layers) == 1

    def test_max_v_filters_training_data(self, tiny_bundle):
        clamped = TargetPredictor(
            "paragraph", "CAP", _quick_config(max_v=1e-15)
        ).fit(tiny_bundle)
        assert clamped.target_scaler.scale == 1e-15

    def test_max_v_too_small_raises(self, tiny_bundle):
        with pytest.raises(ModelError):
            TargetPredictor(
                "paragraph", "CAP", _quick_config(max_v=1e-25)
            ).fit(tiny_bundle)

    def test_same_seed_reproducible(self, tiny_bundle):
        a = TargetPredictor("paragraph", "CAP", _quick_config()).fit(tiny_bundle)
        b = TargetPredictor("paragraph", "CAP", _quick_config()).fit(tiny_bundle)
        record = tiny_bundle.records("test")[0]
        _, pa = collect(a, [record])
        _, pb = collect(b, [record])
        np.testing.assert_allclose(pa, pb)

    def test_different_run_seed_changes_model(self, tiny_bundle):
        a = TargetPredictor("paragraph", "CAP", _quick_config(run_seed=1)).fit(tiny_bundle)
        b = TargetPredictor("paragraph", "CAP", _quick_config(run_seed=2)).fit(tiny_bundle)
        record = tiny_bundle.records("test")[0]
        _, pa = collect(a, [record])
        _, pb = collect(b, [record])
        # values are O(fF): compare with a tolerance matched to that scale
        assert not np.allclose(pa, pb, rtol=1e-3, atol=1e-20)

    def test_embed_record_shape(self, tiny_bundle):
        predictor = TargetPredictor(
            "paragraph", "CAP", _quick_config(embed_dim=8)
        ).fit(tiny_bundle)
        record = tiny_bundle.records("test")[0]
        ids, z = predictor.embed_record(record)
        assert z.shape == (len(ids), 8)

    def test_evaluate_returns_metrics(self, tiny_bundle):
        predictor = TargetPredictor("paragraph", "CAP", _quick_config()).fit(tiny_bundle)
        metrics = evaluate(predictor, tiny_bundle.records("test"))
        assert set(metrics) == {"r2", "mae", "mape"}

    @pytest.mark.parametrize("conv", ["gcn", "sage", "rgcn", "gat"])
    def test_all_convs_trainable(self, tiny_bundle, conv):
        predictor = TargetPredictor(conv, "CAP", _quick_config(epochs=4)).fit(tiny_bundle)
        metrics = evaluate(predictor, tiny_bundle.records("test"))
        assert np.isfinite(metrics["r2"])


class TestLearningSignal:
    def test_paragraph_learns_cap_structure(self, tiny_bundle):
        """With moderate training the model beats the predict-mean baseline."""
        predictor = TargetPredictor(
            "paragraph", "CAP",
            TrainConfig(epochs=60, embed_dim=16, num_layers=3, run_seed=0),
        ).fit(tiny_bundle)
        metrics = evaluate(predictor, tiny_bundle.records("test"))
        assert metrics["r2"] > 0.3  # mean-prediction would give <= 0

    def test_sa_prediction_learns_quickly(self, tiny_bundle):
        """SA is nearly deterministic given sizing+sharing: high R² fast."""
        predictor = TargetPredictor(
            "paragraph", "SA",
            TrainConfig(epochs=60, embed_dim=16, num_layers=3, run_seed=0),
        ).fit(tiny_bundle)
        metrics = evaluate(predictor, tiny_bundle.records("train")[:4])
        assert metrics["r2"] > 0.5


def _one_head_model(rng, num_layers=2, num_fc_layers=4):
    dims = {t: feature_dim(t) for t in NODE_TYPES}
    trunk = SharedTrunk("paragraph", dims, rng, embed_dim=8, num_layers=num_layers)
    return MultiTaskModel(trunk, {"CAP": ReadoutHead(8, num_fc_layers, rng)})


class TestModelSerialization:
    def test_state_roundtrip(self, tmp_path):
        model = _one_head_model(stream(0, "test"))
        path = tmp_path / "m.npz"
        save_module(model, path)
        fresh = _one_head_model(stream(9, "other"))
        load_module(fresh, path)
        for (na, pa), (nb, pb) in zip(
            model.named_parameters(), fresh.named_parameters()
        ):
            assert na == nb
            np.testing.assert_allclose(pa.data, pb.data)

    def test_invalid_depths(self):
        rng = stream(0, "x")
        with pytest.raises(ValueError):
            _one_head_model(rng, num_layers=0)
        with pytest.raises(ValueError):
            _one_head_model(rng, num_fc_layers=-1)

    def test_zero_fc_layers_is_linear_readout(self):
        model = _one_head_model(stream(0, "x"), num_fc_layers=0)
        assert len(model.heads["CAP"].readout.layers) == 1


class TestSeedStability:
    """A one-head predictor initialises exactly like the paper's per-target
    model: encoder, then convolutions, then readout MLP, all drawn from the
    one ``model/<conv>/<target>`` substream.  Initialisation draws random
    numbers only (no BLAS), so the comparison is bitwise on every machine.
    """

    @pytest.mark.parametrize("conv", ["paragraph", "sage", "rgcn", "gat", "gcn"])
    @pytest.mark.parametrize("target,depth", [("CAP", 4), ("SA", 2), ("CAP", 0)])
    def test_initial_state_matches_per_target_draw_order(
        self, tiny_bundle, conv, target, depth
    ):
        config = TrainConfig(
            epochs=0, embed_dim=8, num_layers=2, num_fc_layers=depth, run_seed=3
        )
        predictor = TargetPredictor(conv, target, config).fit(tiny_bundle)

        rng = stream(3, "model", conv, target)
        dims = {t: feature_dim(t) for t in NODE_TYPES}
        encoder = NodeTypeEncoder(dims, 8, rng)
        convs = [make_conv(conv, 8, all_edge_type_names(), rng) for _ in range(2)]
        readout = MLP(
            [8, 1] if depth == 0 else [8] * depth + [1], rng, activation="relu"
        )
        expected = {f"trunk.encoder.{k}": v for k, v in encoder.state_dict().items()}
        for i, layer in enumerate(convs):
            expected.update(
                {f"trunk.convs.{i}.{k}": v for k, v in layer.state_dict().items()}
            )
        expected.update(
            {f"heads.{target}.readout.{k}": v for k, v in readout.state_dict().items()}
        )

        state = predictor.model.state_dict()
        assert list(state) == list(expected)
        for name, value in expected.items():
            assert state[name].dtype == value.dtype
            assert state[name].tobytes() == value.tobytes(), name
