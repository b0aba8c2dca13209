"""Correctness of served answers against an in-process float64 reference.

The pool serves at float32; the reference is an :class:`Engine` at
float64 over the same model and the same netlist text.  Node names must
match exactly and in order; values must agree to the cross-precision
tolerance the serving parity tests use (``CROSS_PRECISION_RTOL`` in
``tests/api/test_backends.py``).
"""

from __future__ import annotations

import itertools
import json

import numpy as np

RTOL = 1e-3
ATOL = 1e-20

#: expected answer of one circuit: (name, {target: (names, values)})
Expected = tuple[str, dict[str, tuple[list[str], np.ndarray]]]


def reference_answers(model, bodies: list[bytes]) -> list[list[Expected]]:
    """Per body, the float64 answer for each circuit it carries.

    Every circuit of every body goes through one ``predict_batch`` call,
    so the reference pays for one merged forward per target.
    """
    from repro.api import create_engine
    from repro.serve.http import request_from_json

    items = [json.loads(body) for body in bodies]
    items = [payload.get("items", [payload]) for payload in items]
    requests = [request_from_json(item) for group in items for item in group]
    with create_engine(
        model, dtype="float64", workers=1, max_batch=len(requests)
    ) as engine:
        results = iter(engine.predict_batch(requests))
    return [
        [
            (
                result.circuit,
                {
                    target: (list(tp.names), np.asarray(tp.values, dtype=float))
                    for target, tp in result.targets.items()
                },
            )
            for result in itertools.islice(results, len(group))
        ]
        for group in items
    ]


def matches(data: bytes, expected: list[Expected]) -> bool:
    """True when a /predict response body agrees with the reference."""
    try:
        payload = json.loads(data)
        results = payload["results"] if "results" in payload else [payload]
        if len(results) != len(expected):
            return False
        for result, (circuit, targets) in zip(results, expected):
            if result["circuit"] != circuit or set(result["targets"]) != set(targets):
                return False
            for target, (names, values) in targets.items():
                got = result["targets"][target]["values"]
                if list(got) != names:
                    return False
                served = np.fromiter(got.values(), dtype=float, count=len(got))
                if not np.allclose(served, values, rtol=RTOL, atol=ATOL):
                    return False
        return True
    except (ValueError, KeyError, TypeError):
        return False
