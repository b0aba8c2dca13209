"""Serving precision contracts of the one kernel path.

For the same model and circuits, ``Engine.predict_batch`` at float32
tracks float64 to ~1e-4 relative (inverse target transforms amplify the
1e-7 compute error), on graphs that include empty node-type segments.
``FLOAT32_RTOL`` is the float32 forward contract every
:mod:`repro.nn.ops` kernel keeps against its oracle
(``tests/nn/test_backend.py``).
"""

import numpy as np
import pytest

from repro.api import create_engine
from repro.api.types import PredictionRequest

FLOAT32_RTOL = 4 * float(np.finfo(np.float32).eps)
#: float32 serving vs float64 serving, after inverse target transforms
CROSS_PRECISION_RTOL = 1e-3


def _engine_values(predictor, circuits, *, dtype):
    """{target: [values per circuit]} from a fresh engine."""
    requests = [PredictionRequest(circuit=c) for c in circuits]
    with create_engine(predictor, dtype=dtype) as engine:
        results = engine.predict_batch(requests)
    return [
        {t: r.targets[t].values for t in sorted(r.targets)} for r in results
    ]


class TestEnginePredictBatchParity:
    @pytest.fixture(scope="class")
    def circuits(self, tiny_bundle):
        return [r.circuit for r in tiny_bundle.records("test")[:3]]

    def test_float32_tracks_float64(self, api_cap_predictor, circuits):
        doubles = _engine_values(api_cap_predictor, circuits, dtype="float64")
        singles = _engine_values(api_cap_predictor, circuits, dtype="float32")
        for ref, got in zip(doubles, singles):
            for target in ref:
                np.testing.assert_allclose(
                    got[target], ref[target],
                    rtol=CROSS_PRECISION_RTOL, atol=1e-20,
                    err_msg=f"{target} float32 vs float64",
                )


class TestMultiTaskAdapterParity:
    def test_empty_node_type_segments_covered(self, tiny_bundle):
        # serving graphs routinely lack whole device kinds; the
        # scatter/gather plans then carry empty segments — the circuits
        # served above must include that shape, not just dense graphs
        from repro.circuits.devices import NODE_TYPES
        from repro.models.inputs import GraphInputs

        record = tiny_bundle.records("test")[0]
        inputs = GraphInputs.from_record(record, tiny_bundle.scaler)
        present = {t for t, nodes in inputs.nodes_of_type.items() if len(nodes)}
        assert present < set(NODE_TYPES)
