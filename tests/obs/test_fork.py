"""What a forked child inherits from the obs singletons.

The forking thread's span stack and an attached metrics mirror both
survive ``fork()``; the child must start with neither.
"""

import json
import os

from repro import obs


def _in_child(report) -> dict:
    """Run ``report()`` in a forked child; returns the dict it returned."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            os.write(write_fd, json.dumps(report()).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return json.loads(payload)


def test_child_spans_do_not_nest_under_the_forking_span():
    obs.enable()

    def report():
        with obs.span("child.first"):
            pass
        (span,) = [s for s in obs.tracer().spans() if s.name == "child.first"]
        return {"parent_id": span.parent_id, "depth": span.depth}

    with obs.span("parent.open"):
        got = _in_child(report)
    assert got == {"parent_id": None, "depth": 0}


class _Mirror:
    def write(self, metric):
        pass


def test_mirror_attached_before_the_fork_is_gone_in_the_child():
    obs.enable()
    mirror = _Mirror()
    obs.registry().attach_mirror(mirror)
    try:
        got = _in_child(lambda: {"mirror": obs.registry()._mirror is not None})
    finally:
        obs.registry().detach_mirror()
    assert got == {"mirror": False}
