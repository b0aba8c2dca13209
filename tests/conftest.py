"""Shared fixtures: a tiny dataset bundle plus cheap trained models.

The trained-model fixtures are session-scoped because ``fit`` dominates
test wall time; everything the api/serve tests derive from them (engines,
registries, saved artifacts) is rebuilt per test.
"""

import pytest

from repro.data import build_bundle


@pytest.fixture(scope="session")
def tiny_bundle():
    """A small but complete dataset bundle (all 22 circuits, scaled down)."""
    return build_bundle(seed=0, scale=0.1)


@pytest.fixture(scope="session")
def api_cap_predictor(tiny_bundle):
    """A cheaply trained CAP TargetPredictor shared by api/serve tests."""
    from repro.models import TargetPredictor, TrainConfig

    config = TrainConfig(epochs=4, embed_dim=8, num_layers=2, run_seed=0)
    return TargetPredictor("paragraph", "CAP", config).fit(tiny_bundle)


@pytest.fixture(scope="session")
def api_sa_predictor(tiny_bundle):
    """A cheaply trained SA (device-kind) predictor."""
    from repro.models import TargetPredictor, TrainConfig

    config = TrainConfig(epochs=2, embed_dim=8, num_layers=2, run_seed=0)
    return TargetPredictor("paragraph", "SA", config).fit(tiny_bundle)


@pytest.fixture(scope="session")
def api_multi_model(api_cap_predictor, api_sa_predictor):
    """A MultiTargetModel assembled from the shared predictors."""
    from repro.flows.training import MultiTargetModel

    return MultiTargetModel(
        predictors={"CAP": api_cap_predictor, "SA": api_sa_predictor}
    )


@pytest.fixture(scope="session")
def api_ensemble_model(tiny_bundle, api_cap_predictor):
    """A two-member CapacitanceEnsemble (1 fF clamp + full range)."""
    from repro.ensemble import CapacitanceEnsemble, RangeModel
    from repro.models import TargetPredictor, TrainConfig

    low = TargetPredictor(
        "paragraph",
        "CAP",
        TrainConfig(epochs=2, embed_dim=8, num_layers=2, run_seed=1, max_v=1e-15),
    ).fit(tiny_bundle)
    return CapacitanceEnsemble(
        models=[
            RangeModel(max_v=1e-15, predictor=low),
            RangeModel(max_v=float("inf"), predictor=api_cap_predictor),
        ]
    )


@pytest.fixture(scope="session")
def api_baseline_model(tiny_bundle):
    """A classical (ridge) CAP baseline."""
    from repro.models.baselines import BaselinePredictor

    return BaselinePredictor("linear", "CAP").fit(tiny_bundle)


@pytest.fixture(scope="session")
def taped():
    """The taped reference forward of one GNN head on one record.

    ``taped(predictor, record, target=None)`` returns ``(ids, values)``
    from ``_to_si(heads[t](trunk(inputs), ids))`` under ``no_grad``:
    the model's own layers, one graph, no stacking and no merging.
    Served and evaluated answers (``repro.api``) are pinned against it.
    """
    from repro.models.inputs import GraphInputs
    from repro.nn import no_grad

    def forward(predictor, record, target=None):
        spec = predictor._spec(target)
        model = predictor.model
        inputs = GraphInputs.from_graph(record.graph, predictor._scaler)
        ids = spec.node_ids(record.graph)
        with no_grad():
            scaled = model.heads[spec.name](model.trunk(inputs), ids)
        return ids, predictor._to_si(spec.name, scaled.numpy().ravel())

    return forward
