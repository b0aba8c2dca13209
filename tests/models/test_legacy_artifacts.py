"""Artifacts saved before every GNN became a trunk plus heads still load.

``tests/models/data/`` holds models written by the last release with a
separate per-target model class: a per-target ``.npz`` (sage, embed 8,
2 layers), a ``MultiTargetModel.save_dir`` suite, a
``CapacitanceEnsemble.save_dir`` ensemble and a shared-trunk ``.npz``,
plus each one's float64 predictions on ``legacy_circuit.sp``.  Loading
through the one reader must reproduce those predictions.
"""

import json
import os

import numpy as np
import pytest

from repro.api import predict_one
from repro.serve.registry import load_model

DATA = os.path.join(os.path.dirname(__file__), "data")

with open(os.path.join(DATA, "legacy_predictions.json")) as handle:
    EXPECTED = json.load(handle)


@pytest.fixture(scope="module")
def netlist():
    with open(os.path.join(DATA, "legacy_circuit.sp")) as handle:
        return handle.read()


@pytest.mark.parametrize("artifact", sorted(EXPECTED))
def test_legacy_artifact_predictions(artifact, netlist):
    model = load_model(os.path.join(DATA, artifact))
    result = predict_one(model, netlist)
    assert sorted(result.targets) == sorted(EXPECTED[artifact])
    for target, expected in EXPECTED[artifact].items():
        names, values = result.arrays(target)
        assert list(names) == expected["names"]
        np.testing.assert_allclose(values, expected["values"], rtol=1e-12, atol=0)


def test_per_target_artifact_is_a_one_head_model():
    predictor = load_model(os.path.join(DATA, "legacy_cap.npz"))
    assert predictor.target_names == ["CAP"]
    assert predictor.config.num_fc_layers == 4
    names = set(predictor.model.state_dict())
    assert "heads.CAP.readout.layers.0.weight" in names
    assert all(name.startswith(("trunk.", "heads.CAP.")) for name in names)
