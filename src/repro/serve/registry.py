"""Model discovery, warm loading and content-hash versioning.

A serving process should load model weights exactly once, know *which*
weights it is serving, and notice when an artifact on disk changed.
:class:`ModelRegistry` does all three over the repo's three persisted model
shapes:

* ``<name>.npz`` — a single :meth:`TargetPredictor.save` artifact (one
  head or a shared trunk with many),
* a directory with ``ensemble.json`` — a
  :meth:`CapacitanceEnsemble.save_dir` artifact,
* a directory of predictor ``*.npz`` files — a
  :meth:`MultiTargetModel.save_dir` suite (``repro train-all`` writes one
  file per target, or one ``multitask.npz`` with ``--trunk shared``).

Every entry carries a **version**: the truncated SHA-256 of the artifact's
bytes (for directories, of the sorted ``(filename, file-hash)`` pairs), so
two registries serving the same bytes report the same version and any
retrain changes it.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Iterator

from repro import forksafe, obs
from repro.errors import ApiError

#: Hex digits kept from the SHA-256 artifact digest.
VERSION_LEN = 12


def _hash_file(path: str, hasher=None) -> str:
    hasher = hasher or hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def artifact_version(path: str | os.PathLike) -> str:
    """Content-hash version of a saved model file or directory."""
    path = os.fspath(path)
    if os.path.isfile(path):
        return _hash_file(path)[:VERSION_LEN]
    hasher = hashlib.sha256()
    for entry in sorted(os.listdir(path)):
        full = os.path.join(path, entry)
        if os.path.isfile(full):
            hasher.update(entry.encode())
            hasher.update(_hash_file(full).encode())
    return hasher.hexdigest()[:VERSION_LEN]


def load_model(path: str | os.PathLike):
    """Load whichever model family is saved at *path* (sniffed by shape)."""
    from repro.ensemble.ensemble import CapacitanceEnsemble
    from repro.flows.training import MultiTargetModel
    from repro.models.trainer import TargetPredictor

    path = os.fspath(path)
    if os.path.isfile(path):
        return TargetPredictor.load(path)
    if os.path.isdir(path):
        if os.path.exists(os.path.join(path, "ensemble.json")):
            return CapacitanceEnsemble.load_dir(path)
        if any(entry.endswith(".npz") for entry in os.listdir(path)):
            return MultiTargetModel.load_dir(path)
    raise ApiError(f"no loadable model at {path!r}")


@dataclass
class RegistryEntry:
    """One servable model: identity, provenance and the warm adapter."""

    name: str
    family: str
    version: str
    targets: tuple[str, ...]
    model: object
    adapter: object
    path: str | None = None


@dataclass
class ModelRegistry:
    """Named collection of warm-loaded models the engine serves from.

    Registration can race with lookups from HTTP handler threads, so the
    entry map is guarded by an RLock (reentrant: ``load`` -> ``register``
    and ``get`` from within ``entries`` iterate under the same lock).
    Lock order: the registry lock is a leaf — never call out to engine or
    adapter code while holding it (see docs/architecture.md).
    """

    _entries: dict[str, RegistryEntry] = field(default_factory=dict)
    _lock: threading.RLock = field(
        default_factory=forksafe.RLock, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        model,
        *,
        path: str | os.PathLike | None = None,
        version: str | None = None,
    ) -> RegistryEntry:
        """Add an in-memory model under *name*.

        ``version`` defaults to the artifact hash when *path* is given,
        else ``"unsaved"``.
        """
        from repro.api.adapters import make_adapter

        # Build the entry before taking the lock: adapter construction and
        # artifact hashing are slow, and the lock stays a leaf.
        adapter = make_adapter(model)
        if version is None:
            version = artifact_version(path) if path is not None else "unsaved"
        entry = RegistryEntry(
            name=name,
            family=adapter.family,
            version=version,
            targets=tuple(adapter.targets),
            model=model,
            adapter=adapter,
            path=os.fspath(path) if path is not None else None,
        )
        with self._lock:
            if name in self._entries:
                raise ApiError(f"model {name!r} is already registered")
            self._entries[name] = entry
        obs.inc("serve.models_registered_total")
        return entry

    def load(self, name: str, path: str | os.PathLike) -> RegistryEntry:
        """Load one artifact from disk and register it under *name*."""
        return self.register(name, load_model(path), path=path)

    @classmethod
    def discover(cls, root: str | os.PathLike) -> "ModelRegistry":
        """Scan *root* for saved models and warm-load every one.

        A *root* that is itself one artifact registers one entry named
        after it: a single ``.npz``, an ensemble directory, or a directory
        of ``.npz`` files and no subdirectory, which is what
        :meth:`MultiTargetModel.save_dir` (``repro train-all``) writes and
        loads as one model answering every target.  Otherwise each
        ``.npz`` file and subdirectory of *root* is registered under its
        basename (without the ``.npz`` suffix).
        """
        root = os.fspath(root)
        registry = cls()
        if not os.path.exists(root):
            raise ApiError(f"model root {root!r} does not exist")
        children = [] if os.path.isfile(root) else sorted(os.listdir(root))
        subdirs = {c for c in children if os.path.isdir(os.path.join(root, c))}
        if not subdirs or "ensemble.json" in children:  # one artifact
            base = os.path.basename(root.rstrip(os.sep))
            candidates = [(_entry_name(base), root)]
        else:
            candidates = [
                (_entry_name(child), os.path.join(root, child))
                for child in children
                if child.endswith(".npz") or child in subdirs
            ]
        for name, path in candidates:
            try:
                registry.load(name, path)
            except ApiError:
                continue  # not a model artifact; skip quietly
        if not registry:
            raise ApiError(f"no loadable models under {root!r}")
        return registry

    # ------------------------------------------------------------------
    def get(self, name: str | None = None) -> RegistryEntry:
        """Entry by name; ``None`` resolves the default model.

        The default is the single registered model, or the entry literally
        named ``"default"`` when several are registered.
        """
        with self._lock:
            if name is None:
                if len(self._entries) == 1:
                    return next(iter(self._entries.values()))
                if "default" in self._entries:
                    return self._entries["default"]
                raise ApiError(
                    "no model name given and no default among "
                    f"{sorted(self._entries)}"
                )
            try:
                return self._entries[name]
            except KeyError:
                raise ApiError(
                    f"unknown model {name!r}; registered: "
                    f"{sorted(self._entries)}"
                ) from None

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._entries))

    def entries(self) -> Iterator[RegistryEntry]:
        # Snapshot under the lock; never yield while holding it.
        with self._lock:
            snapshot = [self._entries[name] for name in sorted(self._entries)]
        yield from snapshot

    def describe(self) -> list[dict]:
        """JSON-ready summary rows (the ``/healthz`` model inventory)."""
        return [
            {
                "name": entry.name,
                "family": entry.family,
                "version": entry.version,
                "targets": list(entry.targets),
                "path": entry.path,
            }
            for entry in self.entries()
        ]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self._entries)


def _entry_name(basename: str) -> str:
    return basename[:-4] if basename.endswith(".npz") else basename
