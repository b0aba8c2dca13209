"""TrainPlan API: validation, train(), and direct predictor fits."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.flows import MultiTargetModel, TrainPlan, TrainResult, train
from repro.models import TargetPredictor, TrainConfig


def _quick_config(**kwargs):
    defaults = dict(epochs=3, embed_dim=8, num_layers=2, run_seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def _params_equal(a, b):
    for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        np.testing.assert_array_equal(
            np.array(pa.data), np.array(pb.data), err_msg=name
        )


class TestPlanValidation:
    def test_defaults_cover_all_paper_targets(self):
        plan = TrainPlan()
        assert plan.targets is None
        assert len(plan.target_names) == 13
        assert plan.target_names[0] == "CAP"

    def test_targets_normalised_to_tuple(self):
        plan = TrainPlan(targets=["CAP", "SA"])
        assert plan.targets == ("CAP", "SA")
        assert plan.target_names == ("CAP", "SA")

    def test_unknown_trunk_mode(self):
        with pytest.raises(ModelError):
            TrainPlan(trunk="frankentrunk")

    def test_empty_targets(self):
        with pytest.raises(ModelError):
            TrainPlan(targets=())

    def test_unknown_target(self):
        with pytest.raises(Exception):
            TrainPlan(targets=("CAP", "NOPE"))

    def test_duplicate_target(self):
        with pytest.raises(ModelError):
            TrainPlan(targets=("CAP", "CAP"))

    def test_loss_weights_need_shared_trunk(self):
        with pytest.raises(ModelError):
            TrainPlan(targets=("CAP",), loss_weights={"CAP": 2.0})
        TrainPlan(targets=("CAP",), trunk="shared", loss_weights={"CAP": 2.0})

    def test_shared_trunk_is_serial(self):
        with pytest.raises(ModelError):
            TrainPlan(trunk="shared", parallel_workers=4)

    def test_resume_needs_single_model(self):
        with pytest.raises(ModelError):
            TrainPlan(targets=("CAP", "SA"), resume_from="x.npz")
        TrainPlan(targets=("CAP",), resume_from="x.npz")
        TrainPlan(targets=("CAP", "SA"), trunk="shared", resume_from="x.npz")


class TestTrain:
    def test_per_target_plan(self, tiny_bundle):
        plan = TrainPlan(targets=("CAP", "SA"), config=_quick_config())
        result = train(tiny_bundle, plan)
        assert isinstance(result, TrainResult)
        assert isinstance(result.model, MultiTargetModel)
        assert sorted(result.model.predictors) == ["CAP", "SA"]
        assert sorted(result.histories) == ["CAP", "SA"]
        assert result.plan is plan
        # suite path clears max_v for non-CAP targets
        assert result.model.predictors["SA"].config.max_v is None

    def test_shared_trunk_plan(self, tiny_bundle):
        result = train(
            tiny_bundle,
            TrainPlan(
                targets=("CAP", "SA"), trunk="shared", config=_quick_config()
            ),
        )
        assert isinstance(result.model, TargetPredictor)
        assert result.model.target_names == ["CAP", "SA"]
        assert list(result.histories) == ["multitask"]
        assert result.histories["multitask"] is result.model.history

    def test_train_matches_direct_fit(self, tiny_bundle):
        result = train(
            tiny_bundle, TrainPlan(targets=("SA",), config=_quick_config())
        )
        direct = TargetPredictor("paragraph", "SA", _quick_config()).fit(
            tiny_bundle
        )
        planned = result.model.predictors["SA"]
        assert planned.history.losses == direct.history.losses
        _params_equal(planned.model, direct.model)

    def test_single_target_shared_plan_is_the_per_target_model(self, tiny_bundle):
        shared = train(
            tiny_bundle,
            TrainPlan(targets=("SA",), trunk="shared", config=_quick_config()),
        ).model
        planned = train(
            tiny_bundle, TrainPlan(targets=("SA",), config=_quick_config())
        ).model.predictors["SA"]
        assert shared.history.losses == planned.history.losses
        _params_equal(shared.model, planned.model)


class TestDirectFit:
    def test_fit_returns_self_and_keeps_config(self, tiny_bundle):
        # fit trains *this* object (identity semantics), keeping a non-CAP
        # max_v the suite path would clear
        predictor = TargetPredictor(
            "paragraph", "SA", _quick_config(epochs=1, max_v=123.0)
        )
        fitted = predictor.fit(tiny_bundle)
        assert fitted is predictor
        assert predictor.config.max_v == 123.0
        assert predictor.model is not None

    def test_fit_checkpoints_match_plan_checkpoints(self, tiny_bundle, tmp_path):
        from repro.flows import RuntimeConfig

        cfg = _quick_config(epochs=2)
        fit_dir, plan_dir = tmp_path / "fit", tmp_path / "plan"
        TargetPredictor("paragraph", "SA", cfg).fit(
            tiny_bundle,
            runtime=RuntimeConfig(checkpoint_dir=str(fit_dir), checkpoint_every=2),
        )
        train(
            tiny_bundle,
            TrainPlan(
                targets=("SA",),
                config=cfg,
                runtime=RuntimeConfig(
                    checkpoint_dir=str(plan_dir), checkpoint_every=2
                ),
            ),
        )
        name = "paragraph-SA-epoch00002.npz"
        with np.load(fit_dir / name) as a, np.load(plan_dir / name) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)
