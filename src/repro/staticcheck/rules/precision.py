"""``precision-policy``: hard-coded float dtypes outside the policy.

The engine's compute dtype is a thread-local policy
(:mod:`repro.nn.precision`); a literal ``np.float64`` / ``np.float32`` /
``dtype="float32"`` in compute-path code silently pins one precision and
breaks float32 training (or silently upcasts it).  Only ``precision.py``
itself may name a float dtype.  Integer dtypes (indices) are never flagged.

Legitimate float64-canonical sites — raw dataset feature storage,
Algorithm 2 combination in SI units, checkpoint history arrays, the
classical baselines' fits — carry a
``# staticcheck: ignore[precision-policy]`` pragma with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.staticcheck.engine import ModuleContext, Rule, dotted_name
from repro.staticcheck.findings import Finding

ALLOWED_MODULES = ("nn/precision.py",)

#: Attribute spellings that pin a float precision.
FLOAT_ATTRS = frozenset(
    {
        "np.float32",
        "np.float64",
        "numpy.float32",
        "numpy.float64",
        "np.single",
        "np.double",
        "numpy.single",
        "numpy.double",
    }
)

#: String literals that pin a float precision when used as a dtype.
FLOAT_STRINGS = frozenset({"float32", "float64", "f4", "f8", "<f4", "<f8"})

_HINT = (
    "; route through repro.nn.precision (get_compute_dtype / the active "
    "tensor's dtype) or justify with a staticcheck pragma"
)


def _is_float_string(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value in FLOAT_STRINGS


class PrecisionPolicyRule(Rule):
    name = "precision-policy"
    description = (
        "hard-coded np.float64/np.float32/dtype= float literal outside "
        "repro/nn/precision.py"
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.is_any(*ALLOWED_MODULES):
            return
        yield from self._check(ctx)

    def _check(self, ctx: ModuleContext) -> Iterator[Finding]:
        flagged_lines: set[tuple[int, int]] = set()

        def emit(node: ast.AST, what: str) -> Iterator[Finding]:
            key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
            if key in flagged_lines:
                return
            flagged_lines.add(key)
            yield self.finding(ctx, node, f"hard-coded {what}{_HINT}")

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name in FLOAT_ATTRS:
                    yield from emit(node, name)
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "dtype" and _is_float_string(kw.value):
                        yield from emit(kw.value, f'dtype="{kw.value.value}"')
                func = dotted_name(node.func)
                if (
                    func.endswith(".astype") or func in ("np.dtype", "numpy.dtype")
                ) and node.args and _is_float_string(node.args[0]):
                    yield from emit(node.args[0], f'"{node.args[0].value}" dtype')
