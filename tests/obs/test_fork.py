"""What a forked child inherits from the obs singletons.

The forking thread's span stack survives ``fork()``, and a pool worker
would inherit the parent's tracing, ``tracemalloc`` and metrics; each
must start with none of them.
"""

import json
import os
import tracemalloc

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


class _ObsStateAdapter:
    """Answers like the CAP predictor's adapter and records the serving
    worker's obs state in a file on each call."""

    family = "obs-state"

    def __init__(self, inner, path):
        self.inner, self.path = inner, path

    @property
    def targets(self):
        return self.inner.targets

    def predict_works(self, works, targets):
        state = {
            "tracing": obs.is_enabled(),
            "tracemalloc": tracemalloc.is_tracing(),
            "metrics": obs.metrics_enabled(),
        }
        with open(f"{self.path}.partial", "w") as handle:
            json.dump(state, handle)
        os.replace(f"{self.path}.partial", self.path)
        return self.inner.predict_works(works, targets)


def test_a_pool_worker_starts_with_clean_obs_state(
    api_cap_predictor, tiny_bundle, tmp_path
):
    """A parent that traces (with tracemalloc) and holds a counter forks
    workers that collect metrics only, from an empty registry."""
    import urllib.request

    from repro.api.adapters import make_adapter
    from repro.circuits.spice import write_spice
    from repro.obs.mpmetrics import load_snapshots
    from repro.serve.pool import PoolConfig, ServerPool

    state_path = tmp_path / "state.json"
    model = {"CAP": _ObsStateAdapter(
        make_adapter(api_cap_predictor), str(state_path)
    )}
    body = json.dumps(
        {"netlist": write_spice(tiny_bundle.records("test")[0].circuit)}
    ).encode()
    obs.enable(memory=True)
    obs.inc("parent.only_total", 7)
    config = PoolConfig(workers=2, port=0, drain_timeout_s=10.0)
    with ServerPool(model, config=config) as pool:
        with urllib.request.urlopen(
            pool.url + "/predict", data=body, timeout=30.0
        ) as response:
            assert response.status == 200
        snapshots = load_snapshots(pool.metrics_dir)
    assert json.loads(state_path.read_text()) == {
        "tracing": False, "tracemalloc": False, "metrics": True,
    }
    assert len(snapshots) == 2
    assert [s.worker for s in snapshots if s.row("parent.only_total")] == []
