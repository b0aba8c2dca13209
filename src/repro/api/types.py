"""Typed request/response contract of the unified prediction API.

Every model family (single :class:`~repro.models.TargetPredictor`,
:class:`~repro.flows.MultiTargetModel`,
:class:`~repro.ensemble.CapacitanceEnsemble`, classical baselines) answers
prediction requests through the same pair of dataclasses:

* :class:`PredictionRequest` — what to predict: a circuit (in-memory
  :class:`~repro.circuits.Circuit`, netlist path, or netlist text), which
  targets, against which registered model, with per-request options.
* :class:`PredictionResult` — what came back: per-target named values plus
  the raw arrays, model provenance (family + content-hash version) and
  timing/caching telemetry.

Naming is normalised here once and for all: within a target, keys are the
bare net or instance names (a target's population is single-kind, so they
cannot collide); the :meth:`PredictionResult.flat` view uses kind-qualified
``"net:out"`` / ``"device:m1"`` keys where the two populations meet.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ApiError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuits.netlist import Circuit

#: SI unit per target family, for display layers.
_UNITS = {"CAP": "F", "RES": "Ohm", "SA": "m", "DA": "m", "SP": "m", "DP": "m"}


def target_unit(target: str) -> str:
    """Display unit for a target name ('' for dimensionless LDE effects)."""
    return _UNITS.get(target, "")


@dataclass(frozen=True)
class PredictionOptions:
    """Per-request knobs.

    Attributes
    ----------
    use_cache:
        Look up (and populate) the engine's graph/feature cache.  Disable
        for one-shot circuits that should not evict hot entries.
    timeout_s:
        Seconds this request may wait for the engine before it runs; one
        that waited longer fails with
        :class:`~repro.errors.ServeTimeoutError` (HTTP 504) without
        running.  ``None`` falls back to the call's, then the engine's,
        deadline.
    """

    use_cache: bool = True
    timeout_s: float | None = None


@dataclass
class PredictionRequest:
    """One circuit to predict on.

    Exactly one of ``circuit``, ``netlist_path``, ``netlist_text`` must be
    given.  ``targets=None`` means every target the selected model offers;
    ``model=None`` selects the engine's default (its only model, or the
    registry entry named ``default``).
    """

    circuit: "Circuit | None" = None
    netlist_path: str | os.PathLike | None = None
    netlist_text: str | None = None
    name: str | None = None  # circuit-name override for path/text inputs
    targets: tuple[str, ...] | None = None
    model: str | None = None
    options: PredictionOptions = field(default_factory=PredictionOptions)
    #: Trace identity (minted at the HTTP edge, echoed on the result and
    #: attached to obs spans); None for direct library callers.
    request_id: str | None = None

    def __post_init__(self) -> None:
        sources = [
            src for src in (self.circuit, self.netlist_path, self.netlist_text)
            if src is not None
        ]
        if len(sources) != 1:
            raise ApiError(
                "PredictionRequest needs exactly one of circuit=, "
                f"netlist_path=, netlist_text= (got {len(sources)})"
            )
        if self.targets is not None:
            self.targets = tuple(str(t) for t in self.targets)

    @property
    def circuit_name(self) -> str:
        """The name of the circuit this request resolves to (no parse)."""
        if self.circuit is not None:
            return self.circuit.name
        if self.netlist_path is not None:
            return self.name or os.fspath(self.netlist_path)
        return self.name or "request"

    def resolve_circuit(self) -> "Circuit":
        """The in-memory circuit, parsing the netlist source if needed."""
        if self.circuit is not None:
            return self.circuit
        from repro.circuits.spice import read_spice

        if self.netlist_path is not None:
            with open(os.fspath(self.netlist_path)) as handle:
                self.circuit = read_spice(handle, name=self.circuit_name)
        else:
            self.circuit = read_spice(self.netlist_text, name=self.circuit_name)
        return self.circuit


@dataclass(frozen=True)
class ModelProvenance:
    """Which model answered: registry name, family, content-hash version."""

    name: str
    family: str  # "predictor" | "multi_target" | "ensemble" | "baseline"
    version: str  # content hash of the saved artifact ("unsaved" otherwise)
    path: str | None = None


@dataclass
class PredictionTiming:
    """Where one request's wall time went, in seconds."""

    total_s: float = 0.0
    graph_s: float = 0.0  # build_graph + feature-scaling work (0 on cache hit)
    inference_s: float = 0.0
    queue_s: float = 0.0  # wait for the engine's group lock before running
    cache_hit: bool = False
    batch_size: int = 1  # >1 when served by a merged-batch forward pass


@dataclass(frozen=True)
class TargetPrediction:
    """Predictions of one target on one circuit.

    ``names`` and ``values`` run parallel, ordered by graph node id —
    the raw-array view.  :attr:`named` is the dict view keyed by bare
    net/instance name.
    """

    target: str
    kind: str  # "net" or "device"
    names: tuple[str, ...]
    values: np.ndarray
    unit: str = ""

    @property
    def named(self) -> dict[str, float]:
        return dict(zip(self.names, self._floats()))

    def qualified(self) -> dict[str, float]:
        """Kind-qualified view: ``{"net:out": ...}`` / ``{"device:m1": ...}``."""
        return {
            f"{self.kind}:{name}": v for name, v in zip(self.names, self._floats())
        }

    def _floats(self) -> list[float]:
        # one conversion for the whole array; each item is float(v)
        return np.asarray(self.values).tolist()


@dataclass
class PredictionResult:
    """Everything the engine knows about one answered request."""

    circuit: str  # circuit name
    fingerprint: str  # content hash of the circuit (graph-cache key)
    targets: dict[str, TargetPrediction]
    provenance: ModelProvenance
    timing: PredictionTiming
    request_id: str | None = None  # copied from the originating request

    def named(self, target: str) -> dict[str, float]:
        """``{net_or_instance: value}`` for one target."""
        try:
            return self.targets[target].named
        except KeyError:
            raise ApiError(
                f"result has no target {target!r}; have {sorted(self.targets)}"
            ) from None

    def arrays(self, target: str) -> tuple[tuple[str, ...], np.ndarray]:
        """(names, raw value array) for one target."""
        try:
            prediction = self.targets[target]
        except KeyError:
            raise ApiError(
                f"result has no target {target!r}; have {sorted(self.targets)}"
            ) from None
        return prediction.names, prediction.values

    def flat(self) -> dict[str, dict[str, float]]:
        """``{target: {kind-qualified name: value}}`` across all targets."""
        return {name: tp.qualified() for name, tp in self.targets.items()}

    def to_json_dict(self) -> dict:
        """JSON-serialisable dump (the ``--json`` / HTTP wire format)."""
        return {
            "circuit": self.circuit,
            "fingerprint": self.fingerprint,
            **(
                {"request_id": self.request_id}
                if self.request_id is not None
                else {}
            ),
            "model": {
                "name": self.provenance.name,
                "family": self.provenance.family,
                "version": self.provenance.version,
                "path": self.provenance.path,
            },
            "timing": {
                "total_s": self.timing.total_s,
                "graph_s": self.timing.graph_s,
                "inference_s": self.timing.inference_s,
                "queue_s": self.timing.queue_s,
                "cache_hit": self.timing.cache_hit,
                "batch_size": self.timing.batch_size,
            },
            "targets": {
                name: {
                    "kind": tp.kind,
                    "unit": tp.unit,
                    "values": tp.named,
                }
                for name, tp in self.targets.items()
            },
        }
