"""Adapters merge a request's graphs once, however many predictors run.

The 13 predictors of a loaded :class:`MultiTargetModel` (and the members
of an ensemble) hold separate feature-scaler objects with one content
fingerprint, so one merged batch, with the plans it builds lazily, serves
every forward of a ``predict_works`` call.
"""

import numpy as np
import pytest

from repro.api.adapters import (
    EnsembleAdapter,
    GraphWork,
    MultiTargetAdapter,
    PredictorAdapter,
)
from repro.models.inputs import GraphInputs


@pytest.fixture(scope="module")
def thirteen_targets(tiny_bundle, tmp_path_factory):
    """Every paper target, one predictor each, reloaded from disk."""
    from repro.flows import MultiTargetModel, TrainPlan, train
    from repro.models import TrainConfig

    plan = TrainPlan(config=TrainConfig(epochs=1, embed_dim=8, num_layers=2))
    directory = tmp_path_factory.mktemp("suite")
    train(tiny_bundle, plan).model.save_dir(directory)
    return MultiTargetModel.load_dir(directory)


@pytest.fixture
def works(tiny_bundle):
    return [GraphWork.local(r.graph) for r in tiny_bundle.records("test")[:3]]


@pytest.fixture
def merge_calls(monkeypatch):
    calls = []
    merge = GraphInputs.merge.__func__

    def counted(cls, inputs):
        calls.append(len(inputs))
        return merge(cls, inputs)

    monkeypatch.setattr(GraphInputs, "merge", classmethod(counted))
    return calls


def test_multi_target_merges_once(thirteen_targets, works, merge_calls):
    predictors = thirteen_targets.predictors
    assert len(predictors) == 13
    assert len({id(p._scaler) for p in predictors.values()}) == 13
    adapter = MultiTargetAdapter(thirteen_targets)
    got = adapter.predict_works(works, adapter.targets)
    assert merge_calls == [3]
    # each predictor alone, with its own scaler and its own merge
    for target, predictor in predictors.items():
        alone = PredictorAdapter(predictor).predict_works(works, [target])
        for slot, ref in zip(got, alone):
            np.testing.assert_array_equal(slot[target][0], ref[target][0])
            np.testing.assert_array_equal(slot[target][1], ref[target][1])


def test_ensemble_members_share_one_merge(api_ensemble_model, works, merge_calls):
    EnsembleAdapter(api_ensemble_model).predict_works(works, ["CAP"])
    assert merge_calls == [3]
