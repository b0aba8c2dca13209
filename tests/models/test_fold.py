"""ParaGraph's weight fold: built once per weight generation for inference.

Under ``no_grad`` a :class:`ParaGraphConv` reads column slices of
one stacked type table and its folded attention scores instead of
re-stacking them on every forward.  These tests pin that the fold never
changes an output bit, never outlives the weights it was built from, and
stays one table per layer.
"""

import numpy as np
import pytest

from repro.circuits.devices import NODE_TYPES
from repro.graph.features import feature_dim
from repro.models import GraphInputs, MultiTaskModel, ReadoutHead, SharedTrunk
from repro.models import convs
from repro.nn import SGD, Adam, Tensor, compute_dtype, mse_loss, no_grad
from repro.rng import stream

DIM = 8


def _model(dtype, *, heads=1, grouped=True, seed=0, layers=2):
    with compute_dtype(dtype):
        rng = stream(seed, "model", "fold-test")
        trunk = SharedTrunk(
            conv="paragraph",
            feature_dims={t: feature_dim(t) for t in NODE_TYPES},
            rng=rng,
            embed_dim=DIM,
            num_layers=layers,
            conv_kwargs={"num_heads": heads, "group_edge_types": grouped},
        )
        return MultiTaskModel(trunk, {"CAP": ReadoutHead(DIM, 2, rng)})


def _embed(model, inputs, dtype, grad=False):
    with compute_dtype(dtype):
        if grad:
            return model.trunk(inputs).numpy()
        with no_grad():
            return model.trunk(inputs).numpy()


@pytest.fixture(scope="module")
def graph_inputs(tiny_bundle):
    """Every circuit alone (tiny ones have one-edge type blocks), plus a
    merged batch of the test split."""
    scaler = tiny_bundle.scaler
    singles = [
        GraphInputs.from_record(record, scaler)
        for record in tiny_bundle.records("train") + tiny_bundle.records("test")
    ]
    merged, _ = GraphInputs.merge(
        [GraphInputs.from_record(r, scaler) for r in tiny_bundle.records("test")]
    )
    return singles + [merged]


def _one_training_step(model, inputs, dtype):
    with compute_dtype(dtype):
        ids = np.arange(0, inputs.num_nodes, 3)
        pred = model.heads["CAP"](model.embed(inputs), ids)
        target = Tensor(np.linspace(-1.0, 1.0, len(ids)).reshape(-1, 1))
        mse_loss(pred, target).backward()
        Adam(model.parameters()).step()


class TestFoldOutputs:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("grouped", [True, False])
    def test_folded_forward_equals_taped_forward(
        self, graph_inputs, dtype, heads, grouped
    ):
        # one-edge type blocks are among them: the one-row case of np.dot
        assert any(
            np.any(np.diff(inputs.edge_blocks()[1]) == 1) for inputs in graph_inputs
        )
        model = _model(dtype, heads=heads, grouped=grouped)
        for inputs in graph_inputs:
            taped = _embed(model, inputs, dtype, grad=True)
            folded = _embed(model, inputs, dtype)
            assert folded.dtype == np.dtype(dtype)
            assert np.array_equal(taped, folded)

    def test_warm_forward_stacks_no_weights(self, graph_inputs, monkeypatch):
        """After the first request a layer concatenates only activations:
        ``[h_dst | h_src]`` and the skip connection."""
        model = _model("float32")
        inputs = graph_inputs[-1]
        _embed(model, inputs, "float32")
        calls = []
        real = convs.concat

        def counting(tensors, axis=1):
            calls.append(len(tensors))
            return real(tensors, axis=axis)

        monkeypatch.setattr(convs, "concat", counting)
        _embed(model, inputs, "float32")
        assert calls == [2, 2] * len(model.trunk.convs)


class TestFoldLifetime:
    def test_training_step_invalidates(self, graph_inputs):
        """Predict, train on the same model object, predict again: the
        answer is a freshly built model's with the same state_dict."""
        model = _model("float64")
        inputs = graph_inputs[-1]
        before = _embed(model, inputs, "float64")
        _one_training_step(model, inputs, "float64")
        after = _embed(model, inputs, "float64")
        fresh = _model("float64", seed=1)
        fresh.load_state_dict(model.state_dict())
        assert not np.array_equal(before, after)
        assert np.array_equal(after, _embed(fresh, inputs, "float64"))

    def test_load_state_dict_invalidates(self, graph_inputs):
        model, other = _model("float32"), _model("float32", seed=1)
        inputs = graph_inputs[-1]
        _embed(model, inputs, "float32")
        with compute_dtype("float32"):
            model.load_state_dict(other.state_dict())
        assert np.array_equal(
            _embed(model, inputs, "float32"), _embed(other, inputs, "float32")
        )

    def test_dtype_change_refolds(self, graph_inputs):
        model = _model("float64")
        inputs = graph_inputs[-1]
        _embed(model, inputs, "float32")  # float64 weights, float32 policy
        assert np.array_equal(
            _embed(model, inputs, "float64"),
            _embed(model, inputs, "float64", grad=True),
        )

    def test_adopt_weight_arrays_invalidates(self, tiny_bundle, tmp_path):
        from repro.api import create_engine
        from repro.models import TargetPredictor, TrainConfig
        from repro.serve.shm import adopt_weight_arrays, registry_weight_arrays

        predictor = TargetPredictor(
            "paragraph", "CAP",
            TrainConfig(epochs=1, embed_dim=DIM, num_layers=2, run_seed=0),
        ).fit(tiny_bundle)
        circuit = tiny_bundle.records("test")[0].circuit
        with create_engine({"cap": predictor}, dtype="float64") as engine:
            first = engine.predict(circuit).targets["CAP"].values
            scaled = {
                key: array * 1.5
                for key, array in registry_weight_arrays(engine.registry).items()
            }
            assert adopt_weight_arrays(engine.registry, scaled) == len(scaled)
            adopted = engine.predict(circuit).targets["CAP"].values
        predictor.save(tmp_path / "scaled.npz")
        reloaded = TargetPredictor.load(tmp_path / "scaled.npz")
        with create_engine({"cap": reloaded}, dtype="float64") as engine:
            expected = engine.predict(circuit).targets["CAP"].values
        assert not np.array_equal(first, adopted)
        assert np.array_equal(adopted, expected)


class TestWriteRule:
    """The fold is current while its source arrays are the parameters'
    arrays.  That holds only because every weight write replaces
    ``param.data``; an in-place optimiser would fail here instead of
    serving stale folds."""

    @pytest.mark.parametrize("optimizer_cls", [Adam, SGD])
    def test_optimiser_step_replaces_param_data(self, optimizer_cls):
        model = _model("float64")
        params = model.parameters()
        for param in params:
            param.grad = np.ones_like(param.data)
        before = [param.data for param in params]
        optimizer_cls(params).step()
        assert all(p.data is not old for p, old in zip(params, before))

    def test_load_state_dict_replaces_param_data(self):
        model = _model("float64")
        params = model.parameters()
        before = [param.data for param in params]
        model.load_state_dict(model.state_dict())
        assert all(p.data is not old for p, old in zip(params, before))


class TestFoldMemory:
    def test_one_fold_per_layer_over_every_subset(self, graph_inputs):
        model = _model("float32")
        subsets = {tuple(inputs.edge_blocks()[0]) for inputs in graph_inputs}
        assert len(subsets) > 3
        _embed(model, graph_inputs[-1], "float32")
        folds = [conv._fold for conv in model.trunk.convs]
        for inputs in graph_inputs:
            _embed(model, inputs, "float32")
        for conv, fold in zip(model.trunk.convs, folds):
            assert conv._fold is fold
            assert fold.weight.shape == (DIM, len(conv.edge_types) * DIM)

    def test_state_dict_does_not_see_the_fold(self, graph_inputs):
        model = _model("float32")
        names = [name for name, _ in model.named_parameters()]
        _embed(model, graph_inputs[-1], "float32")
        assert all(conv._fold is not None for conv in model.trunk.convs)
        assert [name for name, _ in model.named_parameters()] == names
        assert list(model.state_dict()) == names
