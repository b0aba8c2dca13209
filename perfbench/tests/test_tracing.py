"""Span recording and shim installation / removal."""

import sys
import threading

import pytest

from perfbench import tracing
from perfbench.stats import SPAN_EXTRA, SPAN_NAME, SPAN_PARENT, SPAN_RID


def _bindings():
    """Every attribute the shims touch, as (owner, key, value) triples."""
    seen = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            seen.append((module.__name__, key, value))
            if isinstance(value, dict):
                seen.extend((f"{module.__name__}.{key}", k, v) for k, v in value.items())
            elif isinstance(value, type):
                seen.extend(
                    (f"{module.__name__}.{key}", k, v) for k, v in vars(value).items()
                )
    return seen


def test_install_then_restore_puts_every_original_back():
    from repro.graph import builder
    from repro.models.inputs import GraphInputs
    from repro.nn import layers, ops

    tracing.install(tracing.Recorder()).restore()  # import every patched module
    before = _bindings()
    original_build = builder.build_graph
    original_relu = ops.relu
    patches = tracing.install(tracing.Recorder())
    try:
        assert builder.build_graph is not original_build
        assert layers._ACTIVATIONS["relu"] is not original_relu
        assert isinstance(GraphInputs.__dict__["from_graph"], classmethod)
    finally:
        patches.restore()
    after = _bindings()
    assert len(before) == len(after)
    for (owner, key, old), (_, _, new) in zip(before, after):
        assert new is old, f"{owner}.{key} was not restored"


def test_nested_calls_record_parent_and_request():
    recorder = tracing.Recorder()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap(
        "outer", lambda rid, x: inner(x) * 2, rid_from=lambda args: args[0]
    )
    assert outer("r1", 3) == 8
    by_name = {span[SPAN_NAME]: span for span in recorder.spans}
    assert by_name["inner"][SPAN_PARENT] == by_name["outer"][0]
    assert by_name["outer"][SPAN_PARENT] is None
    assert by_name["inner"][SPAN_RID] == by_name["outer"][SPAN_RID] == "r1"


def test_registered_span_adopts_work_from_other_threads():
    recorder = tracing.Recorder()
    work = recorder.wrap("work", lambda rid: None, rid_from=lambda args: args[0])

    def wait(rid):
        thread = threading.Thread(target=work, args=(rid,))
        thread.start()
        thread.join()

    waiting = recorder.wrap(
        "wait", wait, rid_from=lambda args: args[0], register=True
    )
    waiting("r7")
    by_name = {span[SPAN_NAME]: span for span in recorder.spans}
    assert by_name["work"][SPAN_PARENT] == by_name["wait"][0]
    assert recorder.open_by_rid == {}


def test_failed_call_leaves_no_span_and_unwinds_stack():
    recorder = tracing.Recorder()

    def boom():
        raise RuntimeError("no")

    failing = recorder.wrap("failing", boom)
    ok = recorder.wrap("ok", lambda: 1)
    with pytest.raises(RuntimeError):
        failing()
    ok()
    assert [span[SPAN_NAME] for span in recorder.spans] == ["ok"]
    assert recorder.spans[0][SPAN_PARENT] is None


def test_kernel_bytes_come_from_array_shapes():
    import numpy as np

    from repro.nn.tensor import Tensor

    recorder = tracing.Recorder()
    patches = tracing.install(recorder)
    try:
        from repro.nn import ops

        x = Tensor(np.ones((4, 3)))
        ops.relu(x)
    finally:
        patches.restore()
    (span,) = [s for s in recorder.spans if s[SPAN_NAME] == "nn.relu"]
    assert span[SPAN_EXTRA] == 2 * 4 * 3 * 8  # input + output, float64
