"""``repro.serve`` — batched inference serving on top of ``repro.api``.

The deployment-side subsystem: :class:`ModelRegistry` (discover, warm-load
and content-hash-version saved models), :class:`GraphCache` (LRU of built
graphs + scaled features keyed by circuit content hash) and
:class:`PredictionServer` (stdlib JSON-over-HTTP ``/predict`` +
``/healthz`` + ``/metrics``).

Scale-out lives in :mod:`repro.serve.pool`: :class:`ServerPool` pre-forks
N worker processes behind one port, every worker reading the parent's
read-only weights copy-on-write and keeping its own graph cache; see
``docs/serving.md``.

Exports resolve lazily (PEP 562); see :mod:`repro.api` for why.
"""

from typing import Any

__all__ = [
    "ModelRegistry",
    "RegistryEntry",
    "load_model",
    "artifact_version",
    "GraphCache",
    "CachedGraph",
    "circuit_fingerprint",
    "scaler_fingerprint",
    "PredictionServer",
    "request_from_json",
    "ServerPool",
    "PoolConfig",
    "create_pool",
    "ServeError",
    "ServeOverloadedError",
    "ServeTimeoutError",
]

_EXPORTS = {
    "ModelRegistry": "repro.serve.registry",
    "RegistryEntry": "repro.serve.registry",
    "load_model": "repro.serve.registry",
    "artifact_version": "repro.serve.registry",
    "GraphCache": "repro.serve.cache",
    "CachedGraph": "repro.serve.cache",
    "circuit_fingerprint": "repro.serve.cache",
    "scaler_fingerprint": "repro.serve.cache",
    "PredictionServer": "repro.serve.http",
    "request_from_json": "repro.serve.http",
    "ServerPool": "repro.serve.pool",
    "PoolConfig": "repro.serve.pool",
    "create_pool": "repro.serve.pool",
    "ServeError": "repro.errors",
    "ServeOverloadedError": "repro.errors",
    "ServeTimeoutError": "repro.errors",
}


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)
