"""The GNN model: an encoder + convolution trunk under per-target heads.

Every graph model in the paper's comparison is an encoder, L convolution
layers and an FC readout; the models differ only in their convolution
layer (paper §V applied the node-type input transform to the naive
baselines too, so they can consume heterogeneous features).
:class:`SharedTrunk` is the encoder + convolutions, :class:`ReadoutHead`
one target's readout, and :class:`MultiTaskModel` a trunk under a dict of
heads.  The paper's per-target model (and each §IV ensemble member) is
the one-head case; the shared-trunk mode puts all 13 heads on one trunk,
so the encoder and convolutions run once per mega-batch for every target.
Training lives in :class:`repro.models.trainer.TargetPredictor`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.graph.builder import all_edge_type_names
from repro.models.convs import make_conv
from repro.models.encoder import NodeTypeEncoder
from repro.models.inputs import GraphInputs
from repro.nn import MLP, Module, Tensor, gather_rows
from repro.nn.plan import SegmentPlan


class SharedTrunk(Module):
    """Encoder + L convolution layers: node embeddings Z (Algorithm 1).

    Parameters
    ----------
    conv:
        One of ``gcn``, ``sage``, ``rgcn``, ``gat``, ``paragraph``.
    feature_dims:
        Raw feature dimension per node type (covering every type the model
        may encounter).
    embed_dim:
        Embedding width F (paper: 32).
    num_layers:
        Convolution depth L (paper: 5).
    edge_types:
        Edge types to allocate relational weights for; defaults to every
        type the graph builder can emit.
    conv_kwargs:
        Extra arguments for the convolution (ParaGraph ablation flags).
    """

    def __init__(
        self,
        conv: str,
        feature_dims: dict[str, int],
        rng: np.random.Generator,
        embed_dim: int = 32,
        num_layers: int = 5,
        edge_types: list[str] | None = None,
        conv_kwargs: dict | None = None,
    ):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.conv_name = conv
        self.embed_dim = embed_dim
        edge_types = (
            list(edge_types) if edge_types is not None else all_edge_type_names()
        )
        self.encoder = NodeTypeEncoder(feature_dims, embed_dim, rng)
        self.convs = [
            make_conv(conv, embed_dim, edge_types, rng, **(conv_kwargs or {}))
            for _ in range(num_layers)
        ]

    def forward(self, inputs: GraphInputs) -> Tensor:
        """Node embeddings Z after all convolution layers (Algorithm 1)."""
        h = self.encoder(inputs)
        for conv in self.convs:
            h = conv(h, inputs)
        return h


class ReadoutHead(Module):
    """One target's FC readout over trunk embeddings.

    All hidden FC layers have the trunk's embedding width and ReLU, the
    last has 1 output (paper: 4 layers for CAP, 2 for device parameters).
    ``num_fc_layers=0`` is a purely linear projection (a single F -> 1
    layer, no hidden nonlinearity).
    """

    def __init__(self, embed_dim: int, num_fc_layers: int, rng: np.random.Generator):
        super().__init__()
        if num_fc_layers < 0:
            raise ValueError("num_fc_layers must be >= 0")
        self.num_fc_layers = num_fc_layers
        readout_dims = (
            [embed_dim, 1] if num_fc_layers == 0
            else [embed_dim] * num_fc_layers + [1]
        )
        self.readout = MLP(readout_dims, rng, activation="relu")

    def forward(
        self,
        z: Tensor,
        node_ids: np.ndarray,
        plan: SegmentPlan | None = None,
    ) -> Tensor:
        """Scaled predictions for the given nodes, shape (n, 1).

        *plan* (a :class:`SegmentPlan` over ``(node_ids, num_nodes)``)
        turns the gather's backward scatter into a sorted reduction; the
        trainer builds one per head.
        """
        return self.readout(gather_rows(z, node_ids, plan))


class MultiTaskModel(Module):
    """A trunk plus one readout head per target.

    Parameter names are dotted through the attribute tree
    (``trunk.encoder...``, ``heads.CAP.readout.layers.0.weight``), so the
    generic :meth:`~repro.nn.module.Module.state_dict` /
    :func:`~repro.flows.runtime.save_checkpoint` machinery covers every
    head for free.
    """

    def __init__(self, trunk: SharedTrunk, heads: dict[str, ReadoutHead]):
        super().__init__()
        if not heads:
            raise ModelError("MultiTaskModel needs at least one head")
        self.trunk = trunk
        self.heads = dict(heads)

    @property
    def targets(self) -> list[str]:
        return list(self.heads)

    def embed(self, inputs: GraphInputs) -> Tensor:
        """Node embeddings of one training pass through the trunk.

        Inference calls ``trunk`` directly; every head then reads the same
        embeddings.
        """
        return self.trunk(inputs)

    def forward(
        self, inputs: GraphInputs, target: str, node_ids: np.ndarray
    ) -> Tensor:
        """Scaled predictions of one head on one graph, taped.

        Predictions are served by ``repro.api`` (which runs ParaGraph
        trunks stacked, and returns exactly what this computes); this
        taped forward is what the core benchmarks time.
        """
        if target not in self.heads:
            raise ModelError(
                f"model has no head for target {target!r}; "
                f"available: {sorted(self.heads)}"
            )
        return self.heads[target](self.trunk(inputs), node_ids)
