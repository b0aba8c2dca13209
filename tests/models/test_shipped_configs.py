"""Every shipped model configuration runs a real forward; a corrupted one fails it.

The shipped configurations are the paper's model zoo: five convolution
families x the readout depths {4 (CAP), 2 (device parameters)} x both
``TrainConfig.dtype`` precisions, the linear-readout baseline
(``num_fc_layers=0``), the four ParaGraph ablations of §V and the 13-head
shared-trunk model in both precisions.  Each is built and run on a
circuit holding every node type, so every encoder block is multiplied,
once with a gradient tape, once under ``no_grad`` and, for ParaGraph,
once through the serving :class:`~repro.models.stack.TrunkStack`: the
taped forwards concatenate only the edge types present in the graph,
while the stack builds its tables over every type.  The contract:

* every parameter carries the dtype the model was built under (a float32
  weight inside a float64 model still yields float64 outputs);
* every head returns one column per requested node, at that dtype.

A matmul or broadcast mismatch anywhere in the stack raises in numpy.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.circuits.devices import NODE_TYPES
from repro.data.targets import ALL_TARGETS
from repro.errors import ModelError
from repro.graph.builder import all_edge_type_names
from repro.graph.features import feature_dim
from repro.models import GraphInputs, MultiTaskModel, ReadoutHead, SharedTrunk
from repro.models.convs import GNN_MODEL_NAMES
from repro.models.stack import TrunkStack, stack_key
from repro.nn import Tensor
from repro.nn import compute_dtype, no_grad
from repro.rng import stream

FEATURE_DIMS = {t: feature_dim(t) for t in NODE_TYPES}
EMBED_DIM = 32
CONVS = ("gcn", "sage", "rgcn", "gat", "paragraph")

SHIPPED_CONFIGS = [
    *(
        {"conv": conv, "num_fc_layers": num_fc, "dtype": dtype}
        for conv in CONVS
        for num_fc in (4, 2)  # CAP and device-parameter readouts
        for dtype in ("float64", "float32")
    ),
    # linear-readout baseline
    {"conv": "paragraph", "num_fc_layers": 0, "dtype": "float64"},
    {"conv": "paragraph", "num_fc_layers": 0, "dtype": "float32"},
    # ParaGraph ablations (§V)
    {"conv": "paragraph", "num_fc_layers": 4, "dtype": "float64",
     "conv_kwargs": {"use_attention": False}},
    {"conv": "paragraph", "num_fc_layers": 4, "dtype": "float64",
     "conv_kwargs": {"group_edge_types": False}},
    {"conv": "paragraph", "num_fc_layers": 4, "dtype": "float64",
     "conv_kwargs": {"concat_skip": False}},
    {"conv": "paragraph", "num_fc_layers": 4, "dtype": "float64",
     "conv_kwargs": {"num_heads": 4}},
    # shared-trunk multi-task model
    {"conv": "paragraph", "trunk": "shared", "dtype": "float64"},
    {"conv": "paragraph", "trunk": "shared", "dtype": "float32"},
]


def label(config: dict) -> str:
    parts = [config["conv"]]
    if config.get("trunk") == "shared":
        parts.append("multitask")
    else:
        parts.append(f"fc{config['num_fc_layers']}")
    parts.append(config["dtype"])
    parts.extend(
        f"{key}={value}"
        for key, value in sorted(config.get("conv_kwargs", {}).items())
    )
    return "/".join(parts)


def head_depths(config: dict) -> dict[str, int]:
    """One CAP head, or the paper's 13 targets on a shared trunk (4 FC
    layers for the net target, 2 for device parameters)."""
    if config.get("trunk") == "shared":
        return {spec.name: 4 if spec.kind == "net" else 2 for spec in ALL_TARGETS}
    return {"CAP": config["num_fc_layers"]}


def build(config: dict, feature_dims: "dict[str, int]" = FEATURE_DIMS) -> MultiTaskModel:
    rng = stream(20260806, "shipped-configs", label(config))
    with compute_dtype(config["dtype"]):
        trunk = SharedTrunk(
            config["conv"],
            feature_dims,
            rng,
            embed_dim=EMBED_DIM,
            num_layers=5,
            conv_kwargs=config.get("conv_kwargs"),
        )
        heads = {
            name: ReadoutHead(EMBED_DIM, depth, rng)
            for name, depth in sorted(head_depths(config).items())
        }
    return MultiTaskModel(trunk, heads)


def check_forward(model: MultiTaskModel, inputs: GraphInputs, dtype: str) -> None:
    want = np.dtype(dtype)
    for name, param in model.named_parameters():
        assert param.data.dtype == want, f"{name} is {param.data.dtype}, model is {want}"
    node_ids = np.arange(inputs.num_nodes)
    modes = ["taped", "no_grad"]
    if stack_key(model.trunk) is not None:
        modes.append("stack")
    for mode in modes:
        with compute_dtype(dtype), nullcontext() if mode == "taped" else no_grad():
            if mode == "stack":
                z = Tensor(TrunkStack([model.trunk])(inputs)[:, 0])
            else:
                z = model.trunk(inputs)
            for name, head in model.heads.items():
                out = head(z, node_ids).numpy()
                assert out.shape == (len(node_ids), 1), (
                    f"head {name} returned {out.shape}, want one column"
                )
                assert out.dtype == want, f"head {name} returned {out.dtype}"


@pytest.fixture(scope="module")
def circuit(tiny_bundle) -> GraphInputs:
    """The first circuit that holds every node type."""
    records = tiny_bundle.records("train") + tiny_bundle.records("test")
    for record in sorted(records, key=lambda r: r.name):
        present = {t for t, ids in record.graph.nodes_of_type.items() if len(ids)}
        if present >= set(NODE_TYPES):
            return GraphInputs.from_record(record, tiny_bundle.scaler)
    raise AssertionError("no circuit in the tiny bundle holds every node type")


def test_shipped_configs_cover_paper_matrix():
    assert len(SHIPPED_CONFIGS) == 28
    assert len({label(c) for c in SHIPPED_CONFIGS}) == 28
    assert set(CONVS) == set(GNN_MODEL_NAMES)
    assert {c["dtype"] for c in SHIPPED_CONFIGS} == {"float64", "float32"}
    assert {c.get("num_fc_layers") for c in SHIPPED_CONFIGS} >= {4, 2, 0}
    ablations = {key for c in SHIPPED_CONFIGS for key in c.get("conv_kwargs", {})}
    assert ablations == {"use_attention", "group_edge_types", "concat_skip", "num_heads"}
    shared = [c for c in SHIPPED_CONFIGS if c.get("trunk") == "shared"]
    assert {c["dtype"] for c in shared} == {"float64", "float32"}
    assert len(head_depths(shared[0])) == 13


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=label)
def test_shipped_config_forward(config, circuit):
    check_forward(build(config), circuit, config["dtype"])


PER_TARGET = {"conv": "paragraph", "num_fc_layers": 4, "dtype": "float64"}
SHARED = {"conv": "paragraph", "trunk": "shared", "dtype": "float64"}


def with_conv(config: dict, conv: str, **conv_kwargs) -> dict:
    return {**config, "conv": conv, "conv_kwargs": conv_kwargs}


def set_param(param, data: np.ndarray) -> None:
    param.data = data


def wider_features(dims: "dict[str, int]") -> "dict[str, int]":
    """The first node type's encoder expects two more feature columns."""
    first = sorted(dims)[0]
    return {**dims, first: dims[first] + 2}


def first_type_weight(model: MultiTaskModel):
    conv = model.trunk.convs[0]
    return conv.type_weights[next(iter(conv.type_weights))]


#: (config, corruption of the built model, wrong feature dims or None,
#: the error the forward check raises)
CORRUPTIONS = {
    "readout-contraction": (
        PER_TARGET,
        lambda m: set_param(m.heads["CAP"].readout.layers[1].weight, np.zeros((33, 32))),
        None,
        ValueError,
    ),
    "readout-first-layer": (
        with_conv(PER_TARGET, "gcn"),
        lambda m: set_param(m.heads["CAP"].readout.layers[0].weight, np.zeros((99, 32))),
        None,
        ValueError,
    ),
    "conv-width": (
        with_conv(PER_TARGET, "sage"),
        lambda m: set_param(
            m.trunk.convs[2].linear.weight, m.trunk.convs[2].linear.weight.data[:60, :]
        ),
        None,
        ValueError,
    ),
    "encoder-feature-width": (
        with_conv(PER_TARGET, "gcn"), None, wider_features, ValueError
    ),
    "conv-dtype": (
        with_conv(PER_TARGET, "gcn"),
        lambda m: set_param(
            m.trunk.convs[0].linear.weight,
            m.trunk.convs[0].linear.weight.data.astype(np.float32),
        ),
        None,
        AssertionError,
    ),
    "readout-two-columns": (
        with_conv(PER_TARGET, "gat"),
        lambda m: (
            set_param(m.heads["CAP"].readout.layers[-1].weight, np.zeros((32, 2))),
            set_param(m.heads["CAP"].readout.layers[-1].bias, np.zeros((2,))),
        ),
        None,
        AssertionError,
    ),
    "paragraph-head-concat": (
        with_conv(PER_TARGET, "paragraph", num_heads=4),
        lambda m: set_param(first_type_weight(m), np.zeros((32, 16))),
        None,
        ValueError,
    ),
    "head-against-trunk": (
        SHARED,
        lambda m: set_param(m.heads["CAP"].readout.layers[0].weight, np.zeros((48, 32))),
        None,
        ValueError,
    ),
    "one-head-of-many": (
        SHARED,
        lambda m: set_param(m.heads["SA"].readout.layers[1].weight, np.zeros((7, 1))),
        None,
        ValueError,
    ),
    "shared-trunk-conv-width": (
        with_conv(SHARED, "sage"),
        lambda m: set_param(
            m.trunk.convs[3].linear.weight, m.trunk.convs[3].linear.weight.data[:60, :]
        ),
        None,
        ValueError,
    ),
    "head-three-columns": (
        SHARED,
        lambda m: (
            set_param(m.heads["CAP"].readout.layers[-1].weight, np.zeros((32, 3))),
            set_param(m.heads["CAP"].readout.layers[-1].bias, np.zeros((3,))),
        ),
        None,
        AssertionError,
    ),
    "head-dtype": (
        SHARED,
        lambda m: set_param(
            m.heads["SA"].readout.layers[0].weight,
            m.heads["SA"].readout.layers[0].weight.data.astype(np.float32),
        ),
        None,
        AssertionError,
    ),
    "shared-encoder-feature-width": (
        with_conv(SHARED, "gcn"), None, wider_features, ValueError
    ),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corruption_fails_forward(name, circuit):
    config, corrupt, dims, error = CORRUPTIONS[name]
    model = build(config, dims(FEATURE_DIMS) if dims else FEATURE_DIMS)
    if corrupt is not None:
        corrupt(model)
    with pytest.raises(error):
        check_forward(model, circuit, config["dtype"])


@pytest.mark.parametrize("config", [PER_TARGET, SHARED], ids=["per-target", "shared"])
def test_heads_must_divide_embedding(config):
    with pytest.raises(ModelError, match="num_heads=7"):
        build(with_conv(config, "paragraph", num_heads=7))


def test_absent_edge_type_weight_fails_the_stacked_forward(circuit):
    """The taped forwards concatenate the present edge types only; the
    stack builds its tables over every type, so it alone sees an absent
    type's weight."""
    absent = sorted(set(all_edge_type_names()) - set(circuit.edges))
    assert absent, "the circuit holds every edge type"
    model = build(PER_TARGET)
    weight = model.trunk.convs[0].type_weights[f"{absent[0]}#0"]
    set_param(weight, weight.data[:, :-1])
    with compute_dtype("float64"):
        model.trunk(circuit)  # taped: the narrowed block is never read
        with no_grad():
            model.trunk(circuit)
    with pytest.raises(ValueError):
        check_forward(model, circuit, "float64")
