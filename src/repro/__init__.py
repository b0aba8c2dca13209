"""repro — reproduction of ParaGraph (DAC 2020).

Layout parasitics and device-parameter prediction from circuit schematics
using graph neural networks, together with every substrate the paper relies
on: netlist generators, a layout synthesizer that provides ground truth, a
from-scratch autodiff/GNN stack, classical ML baselines, an ensemble
predictor, and an MNA circuit simulator for end-to-end evaluation.

The supported prediction surface is the :mod:`repro.api` facade, re-exported
here::

    import repro

    engine = repro.create_engine("models/")
    result = engine.predict("amp.sp")

See ``DESIGN.md`` for the system inventory, ``docs/api.md`` for the public
API (including the old->new deprecation table) and ``EXPERIMENTS.md`` for
the paper-versus-measured record.
"""

from typing import Any

__version__ = "1.1.0"

#: The curated top-level surface: the prediction facade plus the serving
#: layer.  Training, dataset and analysis entry points stay addressable
#: under their subpackages (``repro.models``, ``repro.data``, ...).
__all__ = [
    "__version__",
    # prediction facade (repro.api)
    "Engine",
    "EngineConfig",
    "create_engine",
    "predict_one",
    "PredictionRequest",
    "PredictionOptions",
    "PredictionResult",
    "TargetPrediction",
    "ModelProvenance",
    # serving layer (repro.serve)
    "ModelRegistry",
    "GraphCache",
    "PredictionServer",
    # error taxonomy
    "ReproError",
    "ApiError",
    "ServeError",
    "ServeOverloadedError",
    "ServeTimeoutError",
]

_EXPORTS = {
    "Engine": "repro.api",
    "EngineConfig": "repro.api",
    "create_engine": "repro.api",
    "predict_one": "repro.api",
    "PredictionRequest": "repro.api",
    "PredictionOptions": "repro.api",
    "PredictionResult": "repro.api",
    "TargetPrediction": "repro.api",
    "ModelProvenance": "repro.api",
    "ModelRegistry": "repro.serve",
    "GraphCache": "repro.serve",
    "PredictionServer": "repro.serve",
    "ReproError": "repro.errors",
    "ApiError": "repro.errors",
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
    return sorted(set(__all__) | set(globals()))
