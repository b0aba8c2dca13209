"""Same-shape ParaGraph trunks stacked on a model axis, for serving.

A :class:`TrunkStack` runs M trunks as one tape-free forward.  These
tests pin that it never changes an output bit (against each trunk's
taped forward, with and without a gradient tape, and against its own
one-model stack, however the edge arrays are split), that its weight
stacks never outlive the weights they were built from, and that the
adapters keep one stack per requested group with the served model.
"""

import itertools

import numpy as np
import pytest

from repro.circuits.devices import NODE_TYPES
from repro.errors import ModelError
from repro.graph.features import feature_dim
from repro.models import GraphInputs, MultiTaskModel, ReadoutHead, SharedTrunk
from repro.models import stack as stack_module
from repro.models.stack import TrunkStack, stack_key
from repro.nn import SGD, Adam, Tensor, compute_dtype, mse_loss, no_grad, ops
from repro.rng import stream

DIM = 8
LAYERS = 2
FEATURE_DIMS = {t: feature_dim(t) for t in NODE_TYPES}


def _model(dtype, *, seed=0, conv="paragraph", **conv_kwargs):
    with compute_dtype(dtype):
        rng = stream(seed, "model", "stack-test")
        trunk = SharedTrunk(
            conv=conv,
            feature_dims=FEATURE_DIMS,
            rng=rng,
            embed_dim=DIM,
            num_layers=LAYERS,
            conv_kwargs=conv_kwargs,
        )
        return MultiTaskModel(trunk, {"CAP": ReadoutHead(DIM, 2, rng)})


def _taped(model, inputs, dtype, grad=False):
    with compute_dtype(dtype):
        if grad:
            return model.trunk(inputs).numpy()
        with no_grad():
            return model.trunk(inputs).numpy()


def _stacked(stack, inputs, dtype):
    with compute_dtype(dtype):
        return stack(inputs)


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


class TestStackOutputs:
    @pytest.mark.parametrize(
        "dtype,heads,grouped,attention,skip",
        list(itertools.product(
            ["float32", "float64"], [1, 4], [True, False], [True, False], [True, False]
        )),
    )
    def test_stacked_forward_equals_taped_forward(
        self, graph_inputs, dtype, heads, grouped, attention, skip
    ):
        # one-edge type blocks are among them: the one-row case of a matmul
        assert any(
            np.any(np.diff(inputs.edge_blocks()[1]) == 1) for inputs in graph_inputs
        )
        kwargs = dict(
            num_heads=heads, group_edge_types=grouped,
            use_attention=attention, concat_skip=skip,
        )
        models = [_model(dtype, seed=seed, **kwargs) for seed in range(3)]
        stack = TrunkStack([model.trunk for model in models])
        for inputs in graph_inputs:
            stacked = _stacked(stack, inputs, dtype)
            assert stacked.dtype == np.dtype(dtype)
            assert stacked.shape == (inputs.num_nodes, 3, DIM)
            for m, model in enumerate(models):
                taped = _taped(model, inputs, dtype, grad=True)
                assert np.array_equal(stacked[:, m], taped)
                assert np.array_equal(stacked[:, m], _taped(model, inputs, dtype))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_each_model_equals_its_one_stack(self, graph_inputs, dtype):
        models = [_model(dtype, seed=seed, num_heads=2) for seed in range(4)]
        stack = TrunkStack([model.trunk for model in models])
        alone = [TrunkStack([model.trunk]) for model in models]
        for inputs in graph_inputs:
            stacked = _stacked(stack, inputs, dtype)
            for m, one in enumerate(alone):
                assert np.array_equal(stacked[:, m], _stacked(one, inputs, dtype)[:, 0])

    @pytest.mark.parametrize("params,policy", [
        ("float64", "float32"), ("float32", "float64"),
    ])
    def test_mixed_precision_follows_the_taped_layers(
        self, graph_inputs, params, policy
    ):
        """Weights of one dtype under the other policy (``predict_one`` on
        a float64 model in a float32 block): the stack equals the taped
        forward of each model cast to the policy's dtype, and leaves the
        models' own weights as they were."""
        models = [_model(params, seed=seed) for seed in range(2)]
        cast = []
        for seed, model in enumerate(models):
            copy = _model(policy, seed=seed + 10)
            with compute_dtype(policy):
                copy.load_state_dict(model.state_dict())
            cast.append(copy)
        stack = TrunkStack([model.trunk for model in models])
        for inputs in graph_inputs[-3:]:
            stacked = _stacked(stack, inputs, policy)
            assert stacked.dtype == np.dtype(policy)
            for m, model in enumerate(cast):
                assert np.array_equal(stacked[:, m], _taped(model, inputs, policy))
        assert {p.data.dtype for m in models for p in m.parameters()} == {
            np.dtype(params)
        }

    @pytest.mark.parametrize("attention", [True, False])
    @pytest.mark.parametrize("budget", [1, 3 * DIM * 8 * 40])
    def test_budget_split_equals_unsplit(
        self, graph_inputs, monkeypatch, budget, attention
    ):
        models = [
            _model("float64", seed=seed, use_attention=attention) for seed in range(5)
        ]
        stack = TrunkStack([model.trunk for model in models])
        whole = [_stacked(stack, inputs, "float64") for inputs in graph_inputs]
        monkeypatch.setattr(stack_module, "_CHUNK_BYTES", budget)
        for inputs, expected in zip(graph_inputs, whole):
            assert np.array_equal(_stacked(stack, inputs, "float64"), expected)

    def test_one_softmax_per_layer_however_split(
        self, graph_inputs, monkeypatch
    ):
        """The logits of every model go through one softmax per layer,
        even when the transform runs one model at a time."""
        stack = TrunkStack([_model("float32", seed=s).trunk for s in range(4)])
        inputs = graph_inputs[-1]
        calls = {"segment_softmax": 0, "segment_sum": 0, "gather_rows": 0}
        for name in calls:
            kernel = getattr(ops, name)

            def counted(*args, _kernel=kernel, _name=name, **kwargs):
                calls[_name] += 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(ops, name, counted)
        _stacked(stack, inputs, "float32")
        assert calls == {"segment_softmax": LAYERS, "segment_sum": LAYERS,
                         "gather_rows": LAYERS}
        monkeypatch.setattr(stack_module, "_CHUNK_BYTES", 1)
        calls.update(dict.fromkeys(calls, 0))
        _stacked(stack, inputs, "float32")
        assert calls == {"segment_softmax": LAYERS, "segment_sum": 4 * LAYERS,
                         "gather_rows": 4 * LAYERS}

    def test_warm_forward_stacks_no_weights(self, graph_inputs, monkeypatch):
        """After the first call a stack concatenates no parameters: its
        tables are built once per weight generation."""
        stack = TrunkStack([_model("float32", seed=s).trunk for s in range(2)])
        _stacked(stack, graph_inputs[-1], "float32")
        calls = []
        real = stack_module.concat

        def counting(tensors, axis=1):
            calls.append(len(tensors))
            return real(tensors, axis=axis)

        monkeypatch.setattr(stack_module, "concat", counting)
        for inputs in graph_inputs:
            _stacked(stack, inputs, "float32")
        assert calls == []

    def test_chunk_holds_at_least_one_model(self, graph_inputs, monkeypatch):
        monkeypatch.setattr(stack_module, "_CHUNK_BYTES", 0)
        model = _model("float64")
        inputs = graph_inputs[-1]
        stacked = _stacked(TrunkStack([model.trunk]), inputs, "float64")
        assert np.array_equal(stacked[:, 0], _taped(model, inputs, "float64"))


class TestStackErrors:
    def test_absent_edge_type_weight_raises_model_error(self, graph_inputs):
        inputs = graph_inputs[-1]
        present = inputs.edge_blocks()[0][0]
        model = _model("float64")
        for conv in model.trunk.convs:
            for head in range(conv.num_heads):
                for table in (conv.type_weights, conv.attn_dst, conv.attn_src):
                    del table[f"{present}#{head}"]
            conv.edge_types.remove(present)
        with pytest.raises(ModelError, match="no weights for edge type"):
            _taped(model, inputs, "float64")
        with pytest.raises(ModelError, match="no weights for edge type"):
            _stacked(TrunkStack([model.trunk]), inputs, "float64")

    def test_unknown_node_type_raises_model_error(self, graph_inputs):
        inputs = graph_inputs[-1]
        narrow = {t: d for t, d in FEATURE_DIMS.items() if t != "net"}
        with compute_dtype("float64"):
            trunk = SharedTrunk(
                "paragraph", narrow, stream(0, "narrow"), embed_dim=DIM, num_layers=1
            )
        with pytest.raises(ModelError, match="no transform for node type 'net'"):
            _stacked(TrunkStack([trunk]), inputs, "float64")

    def test_only_same_shape_paragraph_trunks_stack(self):
        paragraph, heads = _model("float64"), _model("float64", num_heads=2)
        assert stack_key(_model("float64", conv="gat").trunk) is None
        assert stack_key(paragraph.trunk) != stack_key(heads.trunk)
        assert stack_key(paragraph.trunk) == stack_key(_model("float64", seed=1).trunk)
        with pytest.raises(ModelError, match="same-shape ParaGraph"):
            TrunkStack([paragraph.trunk, heads.trunk])
        with pytest.raises(ModelError, match="same-shape ParaGraph"):
            TrunkStack([_model("float64", conv="rgcn").trunk])


class TestStackLifetime:
    def test_training_step_invalidates(self, graph_inputs):
        """Predict, train on the same model object, predict again: the
        answer is a freshly built model's with the same state_dict."""
        model = _model("float64")
        stack = TrunkStack([model.trunk])
        inputs = graph_inputs[-1]
        before = _stacked(stack, inputs, "float64")
        _one_training_step(model, inputs, "float64")
        after = _stacked(stack, inputs, "float64")
        fresh = _model("float64", seed=1)
        fresh.load_state_dict(model.state_dict())
        assert not np.array_equal(before, after)
        assert np.array_equal(after[:, 0], _taped(fresh, inputs, "float64"))

    def test_load_state_dict_invalidates(self, graph_inputs):
        model, other = _model("float32"), _model("float32", seed=1)
        stack = TrunkStack([model.trunk])
        inputs = graph_inputs[-1]
        _stacked(stack, inputs, "float32")
        with compute_dtype("float32"):
            model.load_state_dict(other.state_dict())
        assert np.array_equal(
            _stacked(stack, inputs, "float32")[:, 0], _taped(other, inputs, "float32")
        )

    def test_dtype_change_rebuilds(self, graph_inputs):
        model = _model("float64")
        stack = TrunkStack([model.trunk])
        inputs = graph_inputs[-1]
        assert _stacked(stack, inputs, "float32").dtype == np.float32
        assert np.array_equal(
            _stacked(stack, inputs, "float64")[:, 0],
            _taped(model, inputs, "float64", grad=True),
        )

    def test_adopt_weight_arrays_invalidates(self, tiny_bundle, tmp_path):
        """Replacing every parameter's array, as a pool does when it casts
        the weights its workers inherit, rebuilds the stacks."""
        from repro.api import create_engine
        from repro.api.engine import _parameters
        from repro.models import TargetPredictor, TrainConfig

        predictor = TargetPredictor(
            "paragraph", "CAP",
            TrainConfig(epochs=1, embed_dim=DIM, num_layers=2, run_seed=0),
        ).fit(tiny_bundle)
        circuit = tiny_bundle.records("test")[0].circuit
        with create_engine({"cap": predictor}, dtype="float64") as engine:
            first = engine.predict(circuit).targets["CAP"].values
            for param in _parameters(engine.registry.get("cap").model):
                param.data = param.data * 1.5
            adopted = engine.predict(circuit).targets["CAP"].values
        predictor.save(tmp_path / "scaled.npz")
        reloaded = TargetPredictor.load(tmp_path / "scaled.npz")
        with create_engine({"cap": reloaded}, dtype="float64") as engine:
            expected = engine.predict(circuit).targets["CAP"].values
        assert not np.array_equal(first, adopted)
        assert np.array_equal(adopted, expected)


class TestWriteRule:
    """The stacks are current while their source arrays are the
    parameters' arrays.  That holds only because every weight write
    replaces ``param.data``; an in-place optimiser would fail here
    instead of serving stale stacks."""

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


class TestStackMemory:
    def test_one_table_set_over_every_subset(self, graph_inputs):
        """Every type subset reads the same stacks, built over every type
        of the layer once."""
        models = [_model("float32", seed=seed) for seed in range(2)]
        stack = TrunkStack([model.trunk for model in models])
        subsets = {tuple(inputs.edge_blocks()[0]) for inputs in graph_inputs}
        assert len(subsets) > 3
        _stacked(stack, graph_inputs[-1], "float32")
        tables = stack._tables
        for inputs in graph_inputs:
            _stacked(stack, inputs, "float32")
        assert stack._tables is tables
        num_types = len(models[0].trunk.convs[0].edge_types)
        for layer in tables.layers:
            assert layer.weights.shape == (2, DIM, num_types * DIM)
            assert layer.scores.shape == (2, DIM, 2 * num_types)

    def test_state_dict_does_not_see_the_stack(self, graph_inputs):
        model = _model("float32")
        names = [name for name, _ in model.named_parameters()]
        _stacked(TrunkStack([model.trunk]), graph_inputs[-1], "float32")
        assert [name for name, _ in model.named_parameters()] == names
        assert list(model.state_dict()) == names


class TestModelStacks:
    """The adapters keep one stack per requested group with the served
    model, shared by every adapter of that model."""

    @pytest.fixture
    def suite(self, tiny_bundle):
        """Three paragraph predictors and a gat one, one scaler content."""
        from repro.flows import MultiTargetModel
        from repro.models import TargetPredictor, TrainConfig

        config = TrainConfig(epochs=1, embed_dim=DIM, num_layers=2, run_seed=0)
        return MultiTargetModel(predictors={
            target: TargetPredictor(conv, target, config).fit(tiny_bundle)
            for target, conv in [
                ("CAP", "paragraph"), ("SA", "paragraph"), ("DA", "paragraph"),
                ("DP", "gat"),
            ]
        })

    @pytest.fixture
    def works(self, tiny_bundle):
        from repro.api.adapters import GraphWork

        return [GraphWork.local(r.graph) for r in tiny_bundle.records("test")[:3]]

    @staticmethod
    def _groups(model):
        """The model's kept stacks, least recently used first, each as
        the set of targets it stacks."""
        from repro.api import adapters

        target_of = {
            id(predictor.model.trunk): target
            for target, predictor in model.predictors.items()
        }
        _, groups = adapters._stacks[id(model)]
        return [
            {target_of[id(trunk)] for trunk in stack.trunks}
            for stack in groups.values()
        ]

    def test_one_stack_per_requested_group(self, suite, works):
        from repro.api.adapters import MultiTargetAdapter

        adapter = MultiTargetAdapter(suite)
        adapter.predict_works(works, ["CAP"])
        assert self._groups(suite) == [{"CAP"}]
        adapter.predict_works(works, ["SA", "DP", "CAP"])
        adapter.predict_works(works, ["CAP", "SA"])
        # the gat trunk runs its taped forward; CAP+SA stack once
        assert self._groups(suite) == [{"CAP"}, {"CAP", "SA"}]
        adapter.predict_works(works, ["CAP"])
        assert self._groups(suite) == [{"CAP", "SA"}, {"CAP"}]

    def test_stacked_targets_equal_each_predictor_alone(self, suite, works):
        from repro.api.adapters import MultiTargetAdapter, PredictorAdapter

        targets = ["CAP", "SA", "DA", "DP"]
        with compute_dtype("float64"):
            got = MultiTargetAdapter(suite).predict_works(works, targets)
            for target, predictor in suite.predictors.items():
                alone = PredictorAdapter(predictor).predict_works(works, [target])
                for slot, ref in zip(got, alone):
                    np.testing.assert_array_equal(slot[target][0], ref[target][0])
                    np.testing.assert_array_equal(slot[target][1], ref[target][1])

    def test_every_adapter_of_a_model_shares_its_stacks(self, suite, works, tiny_bundle):
        """The registry's adapter and each ``predict_one`` call (a fresh
        adapter every time) build a model's tables once between them."""
        from repro.api import adapters, predict_one
        from repro.serve.registry import ModelRegistry

        def tables(owner):
            _, groups = adapters._stacks[id(owner)]
            return [stack._tables for stack in groups.values()]

        graph = tiny_bundle.records("test")[0].graph
        cycle = [suite, *suite.predictors.values()]  # DP's gat runs taped
        for owner in cycle:  # Table V's pattern: a fixed cycle of models
            predict_one(owner, graph)
        stacked = [suite, *(suite.predictors[t] for t in ("CAP", "SA", "DA"))]
        built = [tables(owner) for owner in stacked]
        registry = ModelRegistry()
        registry.register("suite", suite)
        registry.get("suite").adapter.predict_works(works, sorted(suite.predictors))
        for owner in cycle:
            first, again = predict_one(owner, graph), predict_one(owner, graph)
            for target, result in first.targets.items():
                np.testing.assert_array_equal(again.targets[target].values, result.values)
        assert [tables(owner) for owner in stacked] == built

    def test_stacks_hold_at_most_twice_the_models_weights(self, suite, works):
        from repro.api import adapters
        from repro.api.adapters import MultiTargetAdapter
        from repro.models.stack import weight_bytes

        adapter = MultiTargetAdapter(suite)
        stacked = [suite.predictors[t].model.trunk for t in ("CAP", "SA", "DA")]
        for targets in (["CAP", "SA", "DA"], ["CAP"], ["SA"], ["DA"]):
            adapter.predict_works(works, targets)
        # three trunks, six copies: within the budget
        budget, groups = adapters._stacks[id(suite)]
        assert budget == 2 * weight_bytes(stacked)
        assert len(groups) == 4
        adapter.predict_works(works, ["CAP", "SA"])
        # the least recently used group went to make room
        assert self._groups(suite) == [{"CAP"}, {"SA"}, {"DA"}, {"CAP", "SA"}]
        assert sum(stack.nbytes for stack in groups.values()) <= budget

    def test_concurrent_requests_build_one_stack_per_group(self, suite):
        """Threads asking for the same groups at once share one stack per
        group: a lost update under the map's lock would build two."""
        import sys
        import threading

        from repro.api import adapters

        predictors = list(suite.predictors.values())
        trunks = {t: suite.predictors[t].model.trunk for t in ("CAP", "SA", "DA")}
        groups = [[trunks["CAP"]], [trunks["SA"]], [trunks["DA"]], list(trunks.values())]
        got: list[list] = [[] for _ in range(8)]

        def ask(out):
            for k in range(200):
                out.append(adapters._stack(suite, predictors, groups[k % len(groups)]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(out,)) for out in got]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # six trunk copies fit the budget, so no group is ever evicted
        by_group = {tuple(map(id, stack.trunks)): stack for out in got for stack in out}
        assert len(by_group) == len(groups)
        assert {id(stack) for out in got for stack in out} == set(map(id, by_group.values()))

    def test_dropping_a_model_drops_its_stacks(self, suite, tiny_bundle):
        import gc
        import weakref

        from repro.api import adapters, predict_one
        from repro.flows import MultiTargetModel

        graph = tiny_bundle.records("test")[0].graph
        model = MultiTargetModel(predictors=dict(suite.predictors))
        predict_one(model, graph)
        (stack,) = adapters._stacks[id(model)][1].values()
        stack_ref, key = weakref.ref(stack), id(model)
        del model, stack
        gc.collect()
        assert key not in adapters._stacks
        assert stack_ref() is None
