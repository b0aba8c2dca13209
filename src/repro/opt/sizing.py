"""Parasitic-aware device sizing by coordinate descent.

The paper's introduction motivates prediction with parasitic-aware
optimization (ref. [1]): an optimizer that evaluates candidate sizings
*with* parasitics finds the true post-layout optimum, while one that
ignores them converges to a design that degrades after layout.

A :class:`SizingProblem` owns a circuit *template* (a factory from sizing
variables to a testbench), an objective metric, and an evaluation mode:

* ``"none"``      — no parasitics (the classic pre-layout trap),
* ``"predicted"`` — a trained CAP predictor annotates every candidate,
* ``"layout"``    — ground truth from the layout synthesizer (oracle).

:func:`coordinate_descent` then walks the discrete sizing grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ReproError
from repro.layout.synthesizer import synthesize_layout
from repro.sim.annotate import (
    predicted_annotations,
    reference_annotations,
    schematic_annotations,
)
from repro.sim.metrics import Testbench, compute_metrics

#: Evaluation modes accepted by :func:`evaluate_sizing`.
EVAL_MODES = ("none", "predicted", "layout")


@dataclass(frozen=True)
class SizingVariable:
    """One discrete sizing knob (e.g. a stage ratio or a fin count)."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 2:
            raise ReproError(f"variable {self.name!r} needs at least 2 values")


@dataclass
class SizingProblem:
    """A sizing search problem.

    Attributes
    ----------
    build:
        ``build(sizing) -> Testbench`` for a candidate assignment
        (``sizing`` maps variable name -> value).
    variables:
        The search space.
    metric:
        Which bench metric to optimise (must be in every bench's metrics).
    minimize:
        True to minimise (delay), False to maximise (bandwidth).
    layout_seed:
        Seed for ground-truth layout synthesis in ``"layout"`` mode.
    """

    build: Callable[[dict[str, float]], Testbench]
    variables: Sequence[SizingVariable]
    metric: str
    minimize: bool = True
    layout_seed: int = 0

    def initial_sizing(self) -> dict[str, float]:
        return {var.name: var.values[0] for var in self.variables}


def evaluate_sizing(
    problem: SizingProblem,
    sizing: dict[str, float],
    mode: str,
    predictor=None,
) -> float:
    """Objective value of one candidate under an evaluation mode.

    Raises
    ------
    ReproError
        For unknown modes, or ``"predicted"`` without a predictor.
    """
    if mode not in EVAL_MODES:
        raise ReproError(f"unknown mode {mode!r}; choose from {EVAL_MODES}")
    bench = problem.build(sizing)
    if problem.metric not in bench.metrics:
        raise ReproError(
            f"bench {bench.name!r} does not compute metric {problem.metric!r}"
        )
    if mode == "none":
        annotations = schematic_annotations(bench.circuit)
    elif mode == "predicted":
        if predictor is None:
            raise ReproError("mode 'predicted' needs a trained CAP predictor")
        from repro.api import predict_one

        caps = predict_one(predictor, bench.circuit).named("CAP")
        annotations = predicted_annotations(caps, circuit=bench.circuit)
    else:
        layout = synthesize_layout(bench.circuit, seed=problem.layout_seed)
        annotations = reference_annotations(layout)
    return compute_metrics(bench, annotations)[problem.metric]


@dataclass
class OptimizationResult:
    """Outcome of a sizing search."""

    sizing: dict[str, float]
    objective: float
    evaluations: int
    history: list[tuple[dict[str, float], float]] = field(default_factory=list)

    def render(self) -> str:
        knobs = ", ".join(f"{k}={v:g}" for k, v in sorted(self.sizing.items()))
        return (
            f"best sizing: {knobs}  objective={self.objective:.4g} "
            f"({self.evaluations} evaluations)"
        )


def coordinate_descent(
    problem: SizingProblem,
    mode: str,
    predictor=None,
    max_rounds: int = 4,
) -> OptimizationResult:
    """Cyclic coordinate descent over the discrete sizing grid.

    Each round sweeps every variable's value list while holding the others
    fixed, keeping the best.  Terminates when a full round makes no change
    or after *max_rounds* rounds.  Deterministic.
    """
    sizing = problem.initial_sizing()
    cache: dict[tuple, float] = {}
    history: list[tuple[dict[str, float], float]] = []

    def objective(candidate: dict[str, float]) -> float:
        key = tuple(sorted(candidate.items()))
        if key not in cache:
            cache[key] = evaluate_sizing(problem, candidate, mode, predictor)
            history.append((dict(candidate), cache[key]))
        return cache[key]

    sign = 1.0 if problem.minimize else -1.0
    best = objective(sizing)
    for _ in range(max_rounds):
        changed = False
        for var in problem.variables:
            for value in var.values:
                if value == sizing[var.name]:
                    continue
                candidate = {**sizing, var.name: value}
                score = objective(candidate)
                if sign * score < sign * best:
                    best = score
                    sizing = candidate
                    changed = True
        if not changed:
            break
    return OptimizationResult(
        sizing=sizing,
        objective=best,
        evaluations=len(cache),
        history=history,
    )
