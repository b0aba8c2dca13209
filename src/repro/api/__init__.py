"""``repro.api`` — the unified prediction facade.

One contract for every model family::

    from repro.api import create_engine, PredictionRequest

    engine = create_engine("models/")          # discover + warm-load
    result = engine.predict("amp.sp")          # path, text, Circuit, record
    result.named("CAP")                        # {"out": 1.2e-15, ...}
    results = engine.predict_batch(requests)   # micro-batched, in order

Request/response types live in :mod:`repro.api.types`; the engine, the
single-shot :func:`predict_one` helper and the dataset evaluation calls
:func:`collect` / :func:`evaluate` in :mod:`repro.api.engine`; the
model-family adapters in :mod:`repro.api.adapters`.

Exports resolve lazily (PEP 562) to keep import costs and cycles at bay —
``repro.serve`` and ``repro.api`` import freely from each other's
submodules.
"""

from typing import Any

__all__ = [
    "Engine",
    "EngineConfig",
    "create_engine",
    "predict_one",
    "collect",
    "evaluate",
    "coerce_request",
    "PredictionRequest",
    "PredictionOptions",
    "PredictionResult",
    "PredictionTiming",
    "TargetPrediction",
    "ModelProvenance",
    "target_unit",
    "GraphWork",
    "ModelAdapter",
    "make_adapter",
    "ApiError",
]

_EXPORTS = {
    "Engine": "repro.api.engine",
    "EngineConfig": "repro.api.engine",
    "create_engine": "repro.api.engine",
    "predict_one": "repro.api.engine",
    "collect": "repro.api.engine",
    "evaluate": "repro.api.engine",
    "coerce_request": "repro.api.engine",
    "PredictionRequest": "repro.api.types",
    "PredictionOptions": "repro.api.types",
    "PredictionResult": "repro.api.types",
    "PredictionTiming": "repro.api.types",
    "TargetPrediction": "repro.api.types",
    "ModelProvenance": "repro.api.types",
    "target_unit": "repro.api.types",
    "GraphWork": "repro.api.adapters",
    "ModelAdapter": "repro.api.adapters",
    "make_adapter": "repro.api.adapters",
    "ApiError": "repro.errors",
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
