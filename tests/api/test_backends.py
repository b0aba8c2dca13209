"""Cross-backend x cross-precision serving parity.

The serving contract of the pluggable kernel backends: for the same
model and circuits, ``Engine.predict_batch`` returns *identical* values
on every registered backend at float64, and float32 values within a few
ulp of the float32 default backend (documented tolerance: ``rtol = 4 *
float32 eps`` — the fused/numba kernels reassociate nothing at the same
precision).  Across precisions the float32 fast path tracks float64 to
~1e-4 relative (inverse target transforms amplify the 1e-7 compute
error).  A shared-trunk predictor's :class:`PredictorAdapter` honours the
same contract for single-graph and merged-batch forwards, including
graphs with empty node-type segments and single-node readouts.
"""

import numpy as np
import pytest

from repro.api import create_engine
from repro.api.adapters import GraphWork, PredictorAdapter
from repro.api.types import PredictionRequest
from repro.nn import use_backend
from repro.nn.backend import available_backends
from repro.nn.precision import compute_dtype

FLOAT32_RTOL = 4 * float(np.finfo(np.float32).eps)
#: float32 serving vs float64 serving, after inverse target transforms
CROSS_PRECISION_RTOL = 1e-3


@pytest.fixture(scope="module")
def multitask_predictor(tiny_bundle):
    from repro.models import TargetPredictor, TrainConfig

    return TargetPredictor(
        "paragraph",
        targets=["CAP", "SA"],
        config=TrainConfig(epochs=2, embed_dim=8, num_layers=2, run_seed=0),
    ).fit(tiny_bundle)


def _engine_values(predictor, circuits, *, dtype, backend):
    """{target: [values per circuit]} from a fresh engine."""
    requests = [PredictionRequest(circuit=c) for c in circuits]
    with create_engine(
        predictor, dtype=dtype, backend=backend, workers=1
    ) as engine:
        results = engine.predict_batch(requests)
    return [
        {t: r.targets[t].values for t in sorted(r.targets)} for r in results
    ]


class TestEnginePredictBatchParity:
    @pytest.fixture(scope="class")
    def circuits(self, tiny_bundle):
        return [r.circuit for r in tiny_bundle.records("test")[:3]]

    def test_float64_bit_identical_across_backends(
        self, api_cap_predictor, circuits
    ):
        reference = _engine_values(
            api_cap_predictor, circuits, dtype="float64", backend="default"
        )
        for name in available_backends():
            candidate = _engine_values(
                api_cap_predictor, circuits, dtype="float64", backend=name
            )
            for ref, got in zip(reference, candidate):
                for target in ref:
                    np.testing.assert_array_equal(
                        got[target], ref[target],
                        err_msg=f"{name}:{target} (float64)",
                    )

    def test_float32_within_ulps_across_backends(
        self, api_cap_predictor, circuits
    ):
        reference = _engine_values(
            api_cap_predictor, circuits, dtype="float32", backend="default"
        )
        for name in available_backends():
            candidate = _engine_values(
                api_cap_predictor, circuits, dtype="float32", backend=name
            )
            for ref, got in zip(reference, candidate):
                for target in ref:
                    np.testing.assert_allclose(
                        got[target], ref[target],
                        rtol=FLOAT32_RTOL, atol=0.0,
                        err_msg=f"{name}:{target} (float32)",
                    )

    def test_float32_tracks_float64(self, api_cap_predictor, circuits):
        doubles = _engine_values(
            api_cap_predictor, circuits, dtype="float64", backend="default"
        )
        singles = _engine_values(
            api_cap_predictor, circuits, dtype="float32", backend="default"
        )
        for ref, got in zip(doubles, singles):
            for target in ref:
                np.testing.assert_allclose(
                    got[target], ref[target],
                    rtol=CROSS_PRECISION_RTOL, atol=1e-20,
                    err_msg=f"{target} float32 vs float64",
                )


class TestMultiTaskAdapterParity:
    @pytest.fixture(scope="class")
    def works(self, tiny_bundle):
        return [
            GraphWork.local(record.graph)
            for record in tiny_bundle.records("test")[:3]
        ]

    def _values(self, adapter, works, *, dtype, backend):
        with compute_dtype(dtype), use_backend(backend):
            per_work = adapter.predict_works(works, adapter.targets)
        return [
            {t: values for t, (_, values) in slot.items()} for slot in per_work
        ]

    def test_merged_batch_parity_across_backends(
        self, multitask_predictor, works
    ):
        adapter = PredictorAdapter(multitask_predictor)
        for dtype, rtol in (("float64", 0.0), ("float32", FLOAT32_RTOL)):
            reference = self._values(
                adapter, works, dtype=dtype, backend="default"
            )
            for name in available_backends():
                candidate = self._values(
                    adapter, works, dtype=dtype, backend=name
                )
                for ref, got in zip(reference, candidate):
                    for target in ref:
                        if rtol == 0.0:
                            np.testing.assert_array_equal(
                                got[target], ref[target],
                                err_msg=f"{name}:{target} ({dtype})",
                            )
                        else:
                            np.testing.assert_allclose(
                                got[target], ref[target],
                                rtol=rtol, atol=0.0,
                                err_msg=f"{name}:{target} ({dtype})",
                            )

    def test_single_graph_parity_across_backends(
        self, multitask_predictor, works
    ):
        # the len(works) == 1 fast path takes a different code route
        adapter = PredictorAdapter(multitask_predictor)
        reference = self._values(
            adapter, works[:1], dtype="float64", backend="default"
        )
        for name in available_backends():
            candidate = self._values(
                adapter, works[:1], dtype="float64", backend=name
            )
            for target in reference[0]:
                np.testing.assert_array_equal(
                    candidate[0][target], reference[0][target],
                    err_msg=f"{name}:{target}",
                )

    def test_empty_node_type_segments_covered(self, tiny_bundle, works):
        # serving graphs routinely lack whole device kinds; the
        # scatter/gather plans then carry empty segments — the parity
        # above must include that shape, not just dense graphs
        from repro.circuits.devices import NODE_TYPES
        from repro.models.inputs import GraphInputs

        record = tiny_bundle.records("test")[0]
        inputs = GraphInputs.from_record(record, tiny_bundle.scaler)
        present = {t for t, nodes in inputs.nodes_of_type.items() if len(nodes)}
        assert present < set(NODE_TYPES)
