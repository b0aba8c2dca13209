"""Engine behaviour: one contract over every model family.

The load-bearing property is equivalence: whatever the old per-family
entry points returned, the unified engine returns the same values — and
its merged-batch forward passes agree with serial prediction to within
floating-point roundoff (BLAS kernels are row-count dependent, so exact
bit-identity across different merge shapes is not guaranteed).
"""

import numpy as np
import pytest

from repro.api import (
    Engine,
    EngineConfig,
    PredictionRequest,
    coerce_request,
    create_engine,
    predict_one,
)
from repro.errors import ApiError


@pytest.fixture
def engine(api_cap_predictor, api_sa_predictor, api_multi_model,
           api_ensemble_model, api_baseline_model):
    # float64: the legacy-parity tests below compare bit-for-bit against
    # the historical predict paths (serving defaults to float32; the
    # cross-precision behaviour is covered by tests/api/test_backends.py)
    eng = create_engine(
        {
            "cap": api_cap_predictor,
            "sa": api_sa_predictor,
            "multi": api_multi_model,
            "ens": api_ensemble_model,
            "base": api_baseline_model,
        },
        dtype="float64",
    )
    yield eng
    eng.close()


class TestPredict:
    def test_matches_legacy_predict_named(self, engine, tiny_bundle,
                                          api_cap_predictor):
        record = tiny_bundle.records("test")[0]
        ids, values = api_cap_predictor.predict(record)
        names = record.graph.node_name_of
        legacy = {names[int(i)]: float(v) for i, v in zip(ids, values)}
        result = engine.predict(record.circuit, model="cap")
        assert result.named("CAP") == legacy

    def test_device_target_keys_are_instance_names(self, engine, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        result = engine.predict(record.circuit, model="sa")
        named = result.named("SA")
        instance_names = {inst.name for inst in record.circuit.instances()}
        assert named and set(named) <= instance_names

    def test_multi_target_predicts_everything(self, engine, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        result = engine.predict(record.circuit, model="multi")
        assert sorted(result.targets) == ["CAP", "SA"]
        assert result.provenance.family == "multi_target"

    def test_multi_target_subset(self, engine, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        result = engine.predict(record.circuit, model="multi", targets=["SA"])
        assert sorted(result.targets) == ["SA"]

    def test_ensemble_matches_legacy_predict(self, engine, tiny_bundle,
                                             api_ensemble_model):
        record = tiny_bundle.records("test")[0]
        _, legacy_values = api_ensemble_model.predict(record)
        result = engine.predict(record.circuit, model="ens")
        assert np.array_equal(result.targets["CAP"].values, legacy_values)
        assert result.provenance.family == "ensemble"

    def test_baseline_matches_legacy_predict(self, engine, tiny_bundle,
                                             api_baseline_model):
        record = tiny_bundle.records("test")[0]
        _, legacy_values = api_baseline_model.predict(record)
        result = engine.predict(record.circuit, model="base")
        assert np.array_equal(result.targets["CAP"].values, legacy_values)

    def test_unknown_model_raises(self, engine, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        with pytest.raises(ApiError, match="unknown model"):
            engine.predict(record.circuit, model="nope")

    def test_unknown_target_raises(self, engine, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        with pytest.raises(ApiError, match="does not predict"):
            engine.predict(record.circuit, model="cap", targets=["SA"])

    def test_result_metadata(self, engine, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        result = engine.predict(record.circuit, model="cap")
        assert result.circuit == record.circuit.name
        assert len(result.fingerprint) == 64
        assert result.targets["CAP"].unit == "F"
        assert result.targets["CAP"].kind == "net"
        assert result.timing.total_s >= result.timing.inference_s
        payload = result.to_json_dict()
        assert payload["targets"]["CAP"]["values"] == result.named("CAP")

    def test_response_bytes_of_a_fixed_result(self):
        """The wire format of values is pinned: a float32 result goes out
        as the float64 reprs of its float32 values, names in id order."""
        import json

        from repro.api.types import (
            ModelProvenance,
            PredictionResult,
            PredictionTiming,
            TargetPrediction,
        )

        values = np.array([0.1, -2.5e-15, 3e-39, -0.0, 1e30], dtype=np.float32)
        result = PredictionResult(
            circuit="ota",
            fingerprint="f" * 64,
            targets={
                "CAP": TargetPrediction(
                    "CAP", "net", ("out", "n1", "n2", "vdd", "big"), values, "F"
                ),
                "SA": TargetPrediction(
                    "SA", "device", ("m1",), np.array([1.25e-12]), "m^2"
                ),
            },
            provenance=ModelProvenance(name="m", family="predictor", version="v"),
            timing=PredictionTiming(),
        )
        assert json.dumps(result.to_json_dict()["targets"]) == (
            '{"CAP": {"kind": "net", "unit": "F", "values": {'
            '"out": 0.10000000149011612, "n1": -2.499999956129175e-15, '
            '"n2": 3.000000645916e-39, "vdd": -0.0, '
            '"big": 1.0000000150474662e+30}}, '
            '"SA": {"kind": "device", "unit": "m^2", "values": {"m1": 1.25e-12}}}'
        )
        assert result.flat()["CAP"]["net:out"] == float(values[0])

    def test_qualified_keys(self, engine, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        result = engine.predict(record.circuit, model="multi")
        flat = result.flat()
        assert all(key.startswith("net:") for key in flat["CAP"])
        assert all(key.startswith("device:") for key in flat["SA"])


class TestCaching:
    def test_second_predict_hits_cache(self, engine, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        first = engine.predict(record.circuit, model="cap")
        second = engine.predict(record.circuit, model="cap")
        assert not first.timing.cache_hit
        assert second.timing.cache_hit
        assert first.named("CAP") == second.named("CAP")
        assert engine.cache.hits >= 1

    def test_reparsed_netlist_hits_same_entry(self, engine, tiny_bundle):
        from repro.circuits.spice import write_spice

        # the same netlist text sent twice re-parses to the same content
        # hash, so the second request never rebuilds the graph
        text = write_spice(tiny_bundle.records("test")[0].circuit)
        first = engine.predict(
            PredictionRequest(netlist_text=text, name="same"), model="cap"
        )
        second = engine.predict(
            PredictionRequest(netlist_text=text, name="same"), model="cap"
        )
        assert not first.timing.cache_hit
        assert second.timing.cache_hit
        assert first.named("CAP") == second.named("CAP")

    def test_repeated_text_skips_parse_and_fingerprint(
        self, engine, tiny_bundle, monkeypatch
    ):
        import repro.circuits.spice as spice
        import repro.serve.cache as cache_module
        from repro.circuits.spice import write_spice

        text = write_spice(tiny_bundle.records("test")[0].circuit)
        first = engine.predict(
            PredictionRequest(netlist_text=text, name="same"), model="cap"
        )

        def boom(*args, **kwargs):
            raise AssertionError("a repeat must not parse or fingerprint")

        monkeypatch.setattr(spice, "read_spice", boom)
        monkeypatch.setattr(cache_module, "circuit_fingerprint", boom)
        second = engine.predict(
            PredictionRequest(netlist_text=text, name="same"), model="cap"
        )
        assert second.timing.cache_hit and engine.cache.text_hits == 1
        assert second.circuit == first.circuit == "same"
        assert second.fingerprint == first.fingerprint
        assert np.array_equal(
            second.targets["CAP"].values, first.targets["CAP"].values
        )
        assert engine.stats()["graph_cache"]["text_hits"] == 1

    def test_concurrent_repeats_stay_consistent(self, api_cap_predictor,
                                                tiny_bundle):
        """Threads calling one engine at once, through a two-entry cache
        that keeps evicting: every answer is the serial one, and no hit
        or miss is lost."""
        import random
        import sys
        import threading

        from repro.circuits.spice import write_spice
        from repro.serve.cache import TEXT_KEYS_PER_ENTRY

        texts = [
            (record.name, write_spice(record.circuit))
            for record in tiny_bundle.records("test")
        ]
        threads_n, per_thread = 8, 30
        with create_engine(api_cap_predictor, cache_size=2, dtype="float64") as eng:
            expected = {
                name: eng.predict(
                    PredictionRequest(netlist_text=text, name=name)
                ).targets["CAP"].values
                for name, text in texts
            }
            eng.cache.clear()
            outcomes = []

            def worker(seed):
                rng = random.Random(seed)
                for _ in range(per_thread):
                    name, text = texts[rng.randrange(len(texts))]
                    result = eng.predict(
                        PredictionRequest(netlist_text=text, name=name)
                    )
                    outcomes.append(
                        result.circuit == name
                        and np.array_equal(
                            result.targets["CAP"].values, expected[name]
                        )
                    )

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [
                    threading.Thread(target=worker, args=(seed,))
                    for seed in range(threads_n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(outcomes) == threads_n * per_thread and all(outcomes)
            cache = eng.cache
            assert cache.hits + cache.misses == threads_n * per_thread
            assert 0 < cache.text_hits <= cache.hits
            assert len(cache._by_text) <= TEXT_KEYS_PER_ENTRY * cache.max_entries

    def test_unparseable_netlist_fails_every_time(self, engine):
        from repro.errors import NetlistError

        for _ in range(2):
            with pytest.raises(NetlistError):
                engine.predict(
                    PredictionRequest(netlist_text="M1 a b\n", name="bad"),
                    model="cap",
                )
        assert engine.cache.text_hits == 0 and len(engine.cache) == 0

    def test_use_cache_false_bypasses(self, engine, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        engine.predict(record.circuit, model="cap", use_cache=False)
        assert len(engine.cache) == 0
        result = engine.predict(record.circuit, model="cap", use_cache=False)
        assert not result.timing.cache_hit


class TestPredictBatch:
    def test_empty_batch(self, engine):
        assert engine.predict_batch([]) == []

    def test_order_preserved_and_numerically_equivalent(self, engine,
                                                        tiny_bundle):
        records = tiny_bundle.records("test")
        requests = [
            PredictionRequest(circuit=r.circuit, model=name)
            for r in records
            for name in ("cap", "multi", "ens", "base")
        ]
        results = engine.predict_batch(requests)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            single = engine.predict(request.circuit, model=request.model)
            assert result.circuit == request.circuit.name
            for target, prediction in result.targets.items():
                # merged and serial forwards agree to roundoff; BLAS
                # kernels are row-count dependent, so not always bitwise
                np.testing.assert_allclose(
                    prediction.values, single.targets[target].values,
                    rtol=1e-9, atol=0.0,
                    err_msg=f"{request.model}/{target}",
                )

    def test_merged_batches_actually_form(self, engine, tiny_bundle):
        records = tiny_bundle.records("test")
        requests = [
            PredictionRequest(circuit=r.circuit, model="cap")
            for r in records * 3
        ]
        results = engine.predict_batch(requests)
        assert max(r.timing.batch_size for r in results) > 1

    def test_identical_circuits_share_one_forward(self, engine, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        requests = [
            PredictionRequest(circuit=record.circuit, model="cap")
            for _ in range(6)
        ]
        results = engine.predict_batch(requests)
        # six requests with one content hash collapse to one graph slot
        assert all(r.timing.batch_size == 1 for r in results)
        first = results[0]
        for result in results[1:]:
            assert np.array_equal(
                result.targets["CAP"].values, first.targets["CAP"].values
            )

    def test_batch_larger_than_the_queue_is_refused_up_front(
        self, api_cap_predictor, tiny_bundle
    ):
        circuit = tiny_bundle.records("test")[0].circuit
        with create_engine(api_cap_predictor, queue_depth=2) as eng:
            with pytest.raises(ApiError, match="queue depth of 2"):
                eng.predict_batch([circuit] * 3)
            # nothing was queued, parsed or cached
            assert not eng.stats()["executor"]["started"]
            assert len(eng.cache) == 0 and eng.cache.misses == 0
            assert len(eng.predict_batch([circuit] * 2)) == 2

    def test_bad_item_fails_alone(self, engine, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        good = PredictionRequest(circuit=record.circuit, model="cap")
        bad = PredictionRequest(circuit=record.circuit, model="nope")
        ok = engine.predict_batch([good])
        assert ok[0].named("CAP")
        with pytest.raises(ApiError, match="unknown model"):
            engine.predict_batch([good, bad])


class TestOneGroupAtATime:
    def test_concurrent_callers_never_overlap(self, api_cap_predictor,
                                              tiny_bundle, monkeypatch):
        """predict() threads and executor threads take turns: no two
        forwards of one engine ever run at once."""
        import threading
        import time

        circuits = [r.circuit for r in tiny_bundle.records("test")]
        with create_engine(api_cap_predictor, workers=2) as eng:
            adapter = eng.registry.get().adapter
            forward = adapter.predict_works
            guard = threading.Lock()
            running = {"now": 0, "peak": 0}

            def tracked(works, targets):
                with guard:
                    running["now"] += 1
                    running["peak"] = max(running["peak"], running["now"])
                time.sleep(0.005)  # a window wide enough to overlap in
                try:
                    return forward(works, targets)
                finally:
                    with guard:
                        running["now"] -= 1

            monkeypatch.setattr(adapter, "predict_works", tracked)
            start = threading.Barrier(4)
            failures = []

            def single():
                start.wait()
                for circuit in circuits * 2:
                    try:
                        eng.predict(circuit)
                    except Exception as error:  # pragma: no cover - reported
                        failures.append(error)

            def batched():
                start.wait()
                try:
                    eng.predict_batch(circuits * 4)
                except Exception as error:  # pragma: no cover - reported
                    failures.append(error)

            threads = [threading.Thread(target=single) for _ in range(2)]
            threads += [threading.Thread(target=batched) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures
            assert running == {"now": 0, "peak": 1}


class TestConstruction:
    def test_single_model_becomes_default(self, api_cap_predictor, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        with create_engine(api_cap_predictor) as eng:
            result = eng.predict(record.circuit)
            assert sorted(result.targets) == ["CAP"]
            assert eng.targets_of() == ("CAP",)

    def test_float64_model_is_served_as_a_float32_copy(
        self, api_cap_predictor, tiny_bundle, tmp_path
    ):
        """An in-memory model at another dtype is served as a cast copy:
        its answers are those of the model loaded at the serving dtype,
        and the caller's parameters stay float64."""
        params = api_cap_predictor.model.parameters()
        arrays = [param.data for param in params]
        assert {array.dtype for array in arrays} == {np.dtype(np.float64)}
        api_cap_predictor.save(tmp_path / "cap.npz")
        circuits = [r.circuit for r in tiny_bundle.records("test")]
        with Engine(api_cap_predictor, config=EngineConfig(dtype="float32")) as eng:
            served = eng.registry.get().model
            assert served is not api_cap_predictor
            assert {p.data.dtype for p in served.model.parameters()} == {
                np.dtype(np.float32)
            }
            got = [eng.predict(circuit).named("CAP") for circuit in circuits]
        assert all(param.data is array for param, array in zip(params, arrays))
        with create_engine(str(tmp_path / "cap.npz"), dtype="float32") as eng:
            assert got == [eng.predict(circuit).named("CAP") for circuit in circuits]

    def test_model_at_the_serving_dtype_is_served_as_is(self, api_cap_predictor):
        with create_engine(api_cap_predictor, dtype="float64") as eng:
            assert eng.registry.get().model is api_cap_predictor

    def test_engine_config_applied(self, api_cap_predictor):
        eng = Engine(
            api_cap_predictor,
            config=EngineConfig(cache_size=2, max_batch=4, workers=1),
        )
        assert eng.cache.max_entries == 2
        stats = eng.stats()
        assert stats["executor"]["max_batch"] == 4
        assert not stats["executor"]["started"]
        eng.close()

    def test_stats_shape(self, engine, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        engine.predict(record.circuit, model="cap")
        stats = engine.stats()
        assert {"models", "graph_cache", "executor"} <= set(stats)
        assert stats["graph_cache"]["misses"] >= 1
        assert any(row["name"] == "cap" for row in stats["models"])

    def test_injected_cache_is_used_and_reported(self, api_cap_predictor,
                                                 tiny_bundle):
        from repro.serve.pool import ShardedGraphCache

        cache = ShardedGraphCache(0, 2, max_entries=8)
        with create_engine(api_cap_predictor, cache=cache) as eng:
            assert eng.cache is cache
            record = tiny_bundle.records("test")[0]
            eng.predict(record.circuit)
            stats = eng.stats()["graph_cache"]
            assert stats["shard"]["shard"] == 0
            assert stats["shard"]["shards"] == 2
            assert "bytes" in stats

    def test_cli_procs_flag_defaults_to_single_process(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--models", "x", "--procs", "3"]
        )
        assert args.procs == 3
        default = build_parser().parse_args(["serve", "--models", "x"])
        assert default.procs == 1


class TestCoerceRequest:
    def test_passthrough(self):
        request = PredictionRequest(netlist_text="* x\n.end\n")
        assert coerce_request(request) is request

    def test_override_builds_new(self):
        request = PredictionRequest(netlist_text="* x\n.end\n")
        out = coerce_request(request, model="cap")
        assert out is not request and out.model == "cap"

    def test_record_and_circuit(self, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        assert coerce_request(record).circuit is record.circuit
        assert coerce_request(record.circuit).circuit is record.circuit

    def test_text_vs_path(self, tmp_path):
        text_request = coerce_request("* netlist\n.end\n")
        assert text_request.netlist_text is not None
        path_request = coerce_request(str(tmp_path / "a.sp"))
        assert path_request.netlist_path is not None

    def test_rejects_junk(self):
        with pytest.raises(ApiError, match="cannot build"):
            coerce_request(42)

    def test_request_requires_exactly_one_source(self):
        with pytest.raises(ApiError, match="exactly one"):
            PredictionRequest()
        with pytest.raises(ApiError, match="exactly one"):
            PredictionRequest(netlist_text="x", netlist_path="y")


class TestPredictOne:
    def test_matches_engine(self, api_cap_predictor, engine, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        one = predict_one(api_cap_predictor, record.circuit)
        full = engine.predict(record.circuit, model="cap")
        assert one.named("CAP") == full.named("CAP")
        assert one.provenance.version == "unsaved"

    def test_accepts_bare_graph(self, api_cap_predictor, tiny_bundle):
        record = tiny_bundle.records("test")[0]
        result = predict_one(api_cap_predictor, record.graph)
        assert result.fingerprint == "unhashed"
        assert result.named("CAP")
