"""Shared-memory model weights: publish once, map read-only everywhere.

A worker pool must not hold N private copies of the weight arrays — one
set of bytes should back every process (the shared-trunk serving
economics from the ParaGate line of work).  This module owns that
lifecycle:

* :func:`publish_arrays` copies a ``{key: ndarray}`` mapping into **one**
  :class:`multiprocessing.shared_memory.SharedMemory` segment and returns
  a :class:`PublishedArrays` handle whose JSON-able :attr:`manifest`
  (segment name + per-array dtype/shape/offset) is all another process
  needs to map the same bytes.
* :func:`attach_arrays` maps a manifest into **read-only** numpy views
  (zero copies; writing raises).
* :func:`registry_weight_arrays` / :func:`publish_registry_weights` /
  :func:`adopt_weight_arrays` bridge to the model zoo: walk every leaf
  :class:`TargetPredictor` of a :class:`~repro.serve.registry.ModelRegistry`
  entry, publish its parameters at the compute dtype (cast while they are
  copied into the segment) and swap each parameter's private array for
  the shared view, so a forked worker's incremental RSS excludes the
  weights entirely.

The pool's usage (see :mod:`repro.serve.pool`) is publish → adopt →
fork, under the serving dtype: the registered models then hold
read-only views at that dtype (a float64 model served at float32 keeps
4 bytes per parameter, in one place), and children inherit the mapping,
so they never even re-attach.  The publisher owns the segment; call
:meth:`PublishedArrays.unlink` exactly once when the generation is
retired.
"""

from __future__ import annotations

import os
import secrets
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro import obs
from repro.errors import ServeError
from repro.nn import precision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.registry import ModelRegistry

#: Byte alignment of each array inside the segment (cache-line friendly).
ALIGNMENT = 64

# Unlinked-but-possibly-still-viewed segment handles.  GC of a SharedMemory
# object unmaps its segment even while numpy views into it are alive, so a
# retired generation's handle must outlive any stragglers; see
# PublishedArrays.unlink.
_retired: list = []
_retired_lock = threading.Lock()


def _aligned(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


@dataclass(frozen=True)
class ArraySpec:
    """Where one array lives inside a shared segment."""

    key: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int

    def to_json_dict(self) -> dict:
        return {
            "key": self.key,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "offset": self.offset,
            "nbytes": self.nbytes,
        }

    @classmethod
    def from_json_dict(cls, row: Mapping) -> "ArraySpec":
        return cls(
            key=str(row["key"]),
            dtype=str(row["dtype"]),
            shape=tuple(int(n) for n in row["shape"]),
            offset=int(row["offset"]),
            nbytes=int(row["nbytes"]),
        )


def _views_of(
    shm: shared_memory.SharedMemory, specs: list[ArraySpec], readonly: bool
) -> dict[str, np.ndarray]:
    views: dict[str, np.ndarray] = {}
    for spec in specs:
        view = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=shm.buf,
            offset=spec.offset,
        )
        if readonly:
            view.flags.writeable = False
        views[spec.key] = view
    return views


class PublishedArrays:
    """Owner handle for one published generation of shared arrays."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        specs: list[ArraySpec],
        generation: int = 0,
    ):
        self._shm = shm
        self.specs = specs
        self.generation = generation
        #: read-only views into the segment, keyed like the source mapping
        self.arrays = _views_of(shm, specs, readonly=True)
        self._unlinked = False

    @property
    def segment_name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Total payload bytes (excluding alignment padding)."""
        return sum(spec.nbytes for spec in self.specs)

    @property
    def manifest(self) -> dict:
        """JSON-able description another process can attach from."""
        return {
            "segment": self._shm.name,
            "generation": self.generation,
            "nbytes": self.nbytes,
            "arrays": [spec.to_json_dict() for spec in self.specs],
        }

    def unlink(self) -> None:
        """Retire the segment name (idempotent): new attaches fail, but
        every existing mapping stays valid.

        Deliberately does **not** unmap: adopted parameters elsewhere in
        this process may still point into the segment, and
        ``SharedMemory.close``/GC forcibly unmaps even while numpy views
        exist (touching one afterwards is a straight segfault).  The
        handle is parked in a module keepalive instead; one retired weight
        generation per reload stays mapped until the process exits.
        """
        if self._unlinked:
            return
        self._unlinked = True
        self.arrays = {}
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        with _retired_lock:
            _retired.append(self._shm)

    def __enter__(self) -> "PublishedArrays":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


class AttachedArrays:
    """Reader handle: read-only views over someone else's segment."""

    def __init__(self, manifest: Mapping):
        specs = [ArraySpec.from_json_dict(row) for row in manifest["arrays"]]
        try:
            shm = shared_memory.SharedMemory(name=manifest["segment"])
        except FileNotFoundError:
            raise ServeError(
                f"shared weight segment {manifest['segment']!r} is gone "
                "(publisher unlinked it?)"
            ) from None
        # Python < 3.13 registers attach-only handles with the resource
        # tracker, which would unlink the publisher's segment when *this*
        # process exits; readers must not own the segment's lifetime.
        _untrack(shm)
        self._shm = shm
        self.specs = specs
        self.generation = int(manifest.get("generation", 0))
        self.arrays = _views_of(shm, specs, readonly=True)

    def close(self) -> None:
        """Forget the views; the mapping itself is parked, not unmapped.

        ``SharedMemory.close`` would unmap immediately even if a caller
        still holds one of :attr:`arrays` (turning the next read into a
        segfault), so like :meth:`PublishedArrays.unlink` this keeps the
        handle alive in the module keepalive and lets process exit
        reclaim the mapping.
        """
        self.arrays = {}
        with _retired_lock:
            _retired.append(self._shm)


def _untrack(shm: shared_memory.SharedMemory) -> None:
    try:  # pragma: no cover - version-dependent plumbing
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def publish_arrays(
    arrays: Mapping[str, np.ndarray],
    *,
    prefix: str = "repro-weights",
    generation: int = 0,
) -> PublishedArrays:
    """Copy *arrays* into one fresh shared-memory segment.

    Keys keep their order; each array is 64-byte aligned inside the
    segment.  Raises :class:`ServeError` on an empty mapping.
    """
    if not arrays:
        raise ServeError("no arrays to publish")
    arrays = {key: np.asarray(array) for key, array in arrays.items()}
    return _publish(
        [(key, array, array.dtype) for key, array in arrays.items()],
        prefix=prefix,
        generation=generation,
    )


def _publish(
    items: list[tuple[str, np.ndarray, np.dtype]], *, prefix: str, generation: int
) -> PublishedArrays:
    """Lay out ``(key, array, dtype)`` items in one new segment, each
    array cast to its *dtype* as it is copied in."""
    specs: list[ArraySpec] = []
    offset = 0
    for key, array, dtype in items:
        offset = _aligned(offset)
        nbytes = int(array.size * dtype.itemsize)
        specs.append(
            ArraySpec(
                key=key,
                dtype=dtype.str,
                shape=tuple(array.shape),
                offset=offset,
                nbytes=nbytes,
            )
        )
        offset += nbytes
    name = f"{prefix}-g{generation}-{os.getpid()}-{secrets.token_hex(4)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(offset, 1))
    for spec, (_, array, _) in zip(specs, items):
        view = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=shm.buf,
            offset=spec.offset,
        )
        view[...] = array
    published = PublishedArrays(shm, specs, generation=generation)
    obs.inc("serve.shm_segments_published_total")
    obs.set_gauge("serve.shm_published_bytes", published.nbytes)
    return published


def attach_arrays(manifest: Mapping) -> AttachedArrays:
    """Map a :attr:`PublishedArrays.manifest` read-only in this process."""
    return AttachedArrays(manifest)


# ----------------------------------------------------------------------
# Model-zoo bridge
# ----------------------------------------------------------------------
def _leaf_predictors(model, prefix: str = ""):
    """Yield ``(key_prefix, TargetPredictor)`` for every GNN leaf of any
    registered model family (single predictor — one head or many —,
    multi-target suite, capacitance ensemble).  A predictor answering for
    several targets of a suite is yielded once.  Families without GNN
    weights (classical baselines) yield nothing — their state is too small
    to matter."""
    from repro.models.trainer import TargetPredictor

    if isinstance(model, TargetPredictor):
        yield prefix, model
        return
    predictors = getattr(model, "predictors", None)
    if isinstance(predictors, dict):  # MultiTargetModel
        seen: set[int] = set()
        for target in sorted(predictors):
            if id(predictors[target]) not in seen:
                seen.add(id(predictors[target]))
                yield from _leaf_predictors(
                    predictors[target], f"{prefix}{target}/"
                )
        return
    members = getattr(model, "models", None)
    if isinstance(members, list):  # CapacitanceEnsemble
        for index, member in enumerate(members):
            predictor = getattr(member, "predictor", None)
            if predictor is not None:
                yield from _leaf_predictors(predictor, f"{prefix}range{index}/")


def registry_weight_arrays(registry: "ModelRegistry") -> dict[str, np.ndarray]:
    """Every parameter array of every registered model, flat-keyed as
    ``<entry>/<leaf>/<param>``."""
    arrays: dict[str, np.ndarray] = {}
    for entry in registry.entries():
        for leaf_prefix, predictor in _leaf_predictors(entry.model):
            module = predictor.model
            if module is None:  # unfitted; nothing to share
                continue
            for name, param in module.named_parameters():
                arrays[f"{entry.name}/{leaf_prefix}{name}"] = param.data
    return arrays


def publish_registry_weights(
    registry: "ModelRegistry", *, generation: int = 0
) -> PublishedArrays:
    """Publish every registered model's weights into one shared segment,
    at the compute dtype (as loading under it would cast them)."""
    arrays = registry_weight_arrays(registry)
    if not arrays:
        raise ServeError(
            "registry holds no shareable weight arrays (unfitted or "
            "baseline-only models?)"
        )
    dtype = precision.get_compute_dtype()
    return _publish(
        [(key, array, dtype) for key, array in arrays.items()],
        prefix="repro-weights",
        generation=generation,
    )


def adopt_weight_arrays(
    registry: "ModelRegistry", arrays: Mapping[str, np.ndarray]
) -> int:
    """Swap each registry parameter's private array for its shared view.

    Matches by flat key, and refuses shape mismatches (a manifest from a
    different artifact generation must not be half-adopted).  A parameter
    takes the shared array's dtype, so weights published at the serving
    dtype are served at it.  Returns the number of parameters adopted; the
    dropped private copies become garbage, so per-process weight memory
    collapses onto the one shared segment.
    """
    adopted = 0
    for entry in registry.entries():
        for leaf_prefix, predictor in _leaf_predictors(entry.model):
            module = predictor.model
            if module is None:
                continue
            for name, param in module.named_parameters():
                key = f"{entry.name}/{leaf_prefix}{name}"
                shared = arrays.get(key)
                if shared is None:
                    continue
                if shared.shape != param.data.shape:
                    raise ServeError(
                        f"shared array {key!r} is {shared.shape}, model "
                        f"wants {param.data.shape} — stale weight generation?"
                    )
                param.data = shared  # staticcheck: ignore[autodiff-bypass] -- inference-only weight swap onto the shared read-only view; no tape exists in serving
                adopted += 1
    obs.inc("serve.shm_params_adopted_total", max(adopted, 0))
    return adopted
