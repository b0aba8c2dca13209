"""High-level user workflows built on the core library.

Submodules are imported lazily (PEP 562): the trainer imports
``repro.flows.runtime`` while ``repro.flows.training`` imports the trainer,
so an eager package ``__init__`` would create an import cycle.
"""

from typing import Any

__all__ = [
    "PrelayoutReport",
    "prelayout_report",
    "MultiTargetModel",
    "TrainPlan",
    "TrainResult",
    "train",
    "MergedInputsCache",
    "RuntimeConfig",
    "TrainCallback",
    "ConsoleProgressReporter",
    "JsonlMetricsWriter",
    "save_checkpoint",
    "load_checkpoint",
]

_EXPORTS = {
    "PrelayoutReport": "repro.flows.report",
    "prelayout_report": "repro.flows.report",
    "MultiTargetModel": "repro.flows.training",
    "TrainPlan": "repro.flows.plan",
    "TrainResult": "repro.flows.plan",
    "train": "repro.flows.plan",
    "MergedInputsCache": "repro.flows.runtime",
    "RuntimeConfig": "repro.flows.runtime",
    "TrainCallback": "repro.flows.runtime",
    "ConsoleProgressReporter": "repro.flows.runtime",
    "JsonlMetricsWriter": "repro.flows.runtime",
    "save_checkpoint": "repro.flows.runtime",
    "load_checkpoint": "repro.flows.runtime",
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
