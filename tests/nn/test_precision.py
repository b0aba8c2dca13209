"""Precision policy: dtype threading, guards, and float32 training parity."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, ops, precision
from repro.nn import init as nn_init


class TestPolicy:
    def test_default_is_float64(self):
        assert precision.get_compute_dtype() == np.float64
        assert Tensor([1.0, 2.0]).data.dtype == np.float64

    def test_context_scopes_and_restores(self):
        with precision.compute_dtype("float32") as resolved:
            assert resolved == np.float32
            assert precision.get_compute_dtype() == np.float32
            assert Tensor([1.0]).data.dtype == np.float32
        assert precision.get_compute_dtype() == np.float64

    def test_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with precision.compute_dtype("float32"):
                raise RuntimeError("boom")
        assert precision.get_compute_dtype() == np.float64

    def test_rejects_unsupported_dtypes(self):
        for bad in ("float16", "int64", "complex128"):
            with pytest.raises(ValueError):
                precision.resolve_dtype(bad)

    def test_tiny_is_dtype_aware(self):
        assert precision.tiny(np.float64) == float(np.finfo(np.float64).tiny)
        assert precision.tiny(np.float32) == float(np.finfo(np.float32).tiny)
        with precision.compute_dtype("float32"):
            assert precision.tiny() == float(np.finfo(np.float32).tiny)


class TestDtypePropagation:
    def test_ops_preserve_float32(self):
        with precision.compute_dtype("float32"):
            x = Tensor(np.random.default_rng(0).standard_normal((6, 4)))
            w = Tensor(np.random.default_rng(1).standard_normal((4, 3)))
            ids = np.array([0, 0, 1, 2, 2, 2], dtype=np.int64)
            assert nn.relu(x).data.dtype == np.float32
            assert (x @ w).data.dtype == np.float32
            assert nn.segment_sum(x, ids, 3).data.dtype == np.float32
            assert nn.segment_mean(x, ids, 3).data.dtype == np.float32
            alpha = nn.segment_softmax(Tensor(x.data[:, :1]), ids, 3)
            assert alpha.data.dtype == np.float32

    def test_softmax_denominator_does_not_flush_in_float32(self):
        # Large negative logits: exp underflows towards tiny values.  With a
        # fixed 1e-300 guard the float32 denominator would flush to zero and
        # produce NaN/inf alphas; the dtype-aware guard keeps sums at 1.
        with precision.compute_dtype("float32"):
            ids = np.array([0, 0, 1], dtype=np.int64)
            scores = Tensor(np.array([[-60.0], [-90.0], [-80.0]]))
            alpha = nn.segment_softmax(scores, ids, 2)
            assert np.all(np.isfinite(alpha.data))
            sums = np.zeros((2, 1), dtype=np.float32)
            np.add.at(sums, ids, alpha.data)
            np.testing.assert_allclose(sums, 1.0, rtol=1e-6)

    def test_init_same_seed_across_policies(self):
        # Weight draws happen in float64 and are cast afterwards, so one
        # seed yields the same weights (up to the cast) under any policy.
        rng64 = np.random.default_rng(5)
        w64 = nn_init.xavier_uniform((8, 8), rng64)
        with precision.compute_dtype("float32"):
            rng32 = np.random.default_rng(5)
            w32 = nn_init.xavier_uniform((8, 8), rng32)
        assert w64.dtype == np.float64 and w32.dtype == np.float32
        np.testing.assert_array_equal(w64.astype(np.float32), w32)

    def test_backward_grads_match_param_dtype(self):
        with precision.compute_dtype("float32"):
            x = Tensor(np.ones((3, 2)), requires_grad=True)
            loss = (x * x).sum()
            loss.backward()
            assert x.grad.dtype == np.float32


class TestModelsUnderFloat32:
    def test_module_params_follow_policy(self):
        from repro.nn import Linear

        with precision.compute_dtype("float32"):
            layer = Linear(4, 2, np.random.default_rng(0))
            assert all(
                p.data.dtype == np.float32 for p in layer.parameters()
            )

    def test_save_load_roundtrip_across_policies(self, tmp_path):
        from repro.nn import Linear
        from repro.nn.serialize import load_module, save_module

        path = tmp_path / "layer.npz"
        with precision.compute_dtype("float32"):
            layer = Linear(4, 2, np.random.default_rng(0))
            save_module(layer, path)
        stored = np.load(path)
        assert all(stored[k].dtype == np.float64 for k in stored.files)
        fresh = Linear(4, 2, np.random.default_rng(1))
        load_module(fresh, path)
        assert all(p.data.dtype == np.float64 for p in fresh.parameters())
        with precision.compute_dtype("float32"):
            layer32 = Linear(4, 2, np.random.default_rng(2))
            load_module(layer32, path)
            assert all(p.data.dtype == np.float32 for p in layer32.parameters())

    def test_float32_training_parity(self, tiny_bundle, taped):
        """float32 opt-in trains to within tolerance of float64 (same seed)."""
        from repro.models import TargetPredictor, TrainConfig

        def fit(dtype):
            config = TrainConfig(
                epochs=4, embed_dim=8, num_layers=2, run_seed=0, dtype=dtype
            )
            return TargetPredictor("paragraph", "CAP", config).fit(tiny_bundle)

        p64 = fit("float64")
        p32 = fit("float32")
        assert p64.config.dtype == "float64"  # off by default elsewhere
        losses64 = np.array(p64.history.losses)
        losses32 = np.array(p32.history.losses)
        np.testing.assert_allclose(losses32, losses64, rtol=1e-2)
        record = tiny_bundle.records("test")[0]
        ids64, pred64 = taped(p64, record)
        ids32, pred32 = taped(p32, record)
        np.testing.assert_array_equal(ids64, ids32)
        np.testing.assert_allclose(pred32, pred64, rtol=5e-2, atol=1e-18)
        # saved parameters are float64 under either policy
        state32 = p32.model.state_dict()
        assert all(v.dtype == np.float32 for v in state32.values())

    def test_train_config_default_dtype_is_float64(self):
        from repro.models import TrainConfig

        assert TrainConfig().dtype == "float64"
