"""Multi-process serving: the pool's lifecycle, caches and weights."""

import gc
import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import urllib.request
import weakref

import numpy as np
import pytest

import repro
from repro.circuits.spice import write_spice
from repro.errors import ServeError
from repro.obs.mpmetrics import metrics_file_name
from repro.serve.pool import PoolConfig, ServerPool


# ----------------------------------------------------------------------
# The pool itself (forked workers, real sockets)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def artifact(tmp_path_factory, api_cap_predictor):
    path = tmp_path_factory.mktemp("pool-models") / "CAP.npz"
    api_cap_predictor.save(path)
    return path


@pytest.fixture(scope="module")
def netlist_text(tiny_bundle):
    return write_spice(tiny_bundle.records("test")[0].circuit)


@pytest.fixture(scope="module")
def pool(artifact):
    config = PoolConfig(workers=2, port=0, drain_timeout_s=10.0)
    with ServerPool(os.fspath(artifact), config=config) as running:
        yield running


def _post(url, payload, timeout=30.0):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, dict(response.headers), json.loads(
            response.read()
        )


def _get(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode()


class TestServerPool:
    def test_healthz_and_models(self, pool):
        with urllib.request.urlopen(pool.url + "/healthz", timeout=10.0) as r:
            payload = json.loads(r.read())
        assert payload["status"] == "ok"
        assert [m["name"] for m in payload["models"]] == ["CAP"]

    def test_requests_fan_out_across_workers(self, pool, netlist_text):
        seen = set()
        for _ in range(100):
            status, headers, body = _post(
                pool.url + "/predict", {"netlist": netlist_text, "model": "CAP"}
            )
            assert status == 200
            assert "predictions" in body or "targets" in body or body
            seen.add(headers["X-Worker"])
            if len(seen) == 2:
                break
        assert seen == {"0", "1"}

    def test_every_worker_caches_the_circuits_it_serves(self, pool, netlist_text):
        """Whichever worker wins the accept takes a connection, so each
        worker caches what it serves: every lookup is a hit or a miss,
        and a repeated circuit misses at most once per worker."""
        from repro.obs.mpmetrics import load_snapshots

        def lookups():
            return {
                snap.worker: (
                    snap.value("serve.graph_cache_hits_total"),
                    snap.value("serve.graph_cache_misses_total"),
                )
                for snap in load_snapshots(pool.metrics_dir)
            }

        before = lookups()
        requests = 40
        for _ in range(requests):
            status, _, _ = _post(
                pool.url + "/predict", {"netlist": netlist_text, "model": "CAP"}
            )
            assert status == 200
        after = lookups()
        assert len(after) == 2
        hits = sum(h for h, _ in after.values()) - sum(h for h, _ in before.values())
        misses = {
            worker: m - before.get(worker, (0, 0))[1]
            for worker, (_, m) in after.items()
        }
        assert hits + sum(misses.values()) == requests
        assert all(m <= 1 for m in misses.values())

    def test_worker_rss_excludes_private_weight_copies(self, pool, artifact):
        # shared weights: per-worker RSS must not differ by the weight bytes
        # times the worker count; both workers read the parent's weight
        # pages copy-on-write, so their RSS should be near-identical.
        sizes = []
        for pid in pool.pids():
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmRSS"):
                        sizes.append(int(line.split()[1]))  # kB
        assert len(sizes) == 2
        assert abs(sizes[0] - sizes[1]) < max(sizes) * 0.25

    def test_crashed_worker_is_respawned(self, pool, netlist_text):
        victim = pool.pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            dead = pool.poll()
            if dead:
                break
            time.sleep(0.05)
        assert victim not in pool.pids()
        assert len(pool.pids()) == 2
        status, _, _ = _post(
            pool.url + "/predict", {"netlist": netlist_text, "model": "CAP"}
        )
        assert status == 200

    def test_reload_noop_when_artifact_unchanged(self, pool):
        assert pool.stale() is False
        assert pool.reload() is False

    def test_reload_under_load_drops_no_requests(
        self, pool, artifact, netlist_text
    ):
        # new weight bytes on disk -> stale() -> rolling reload while
        # client threads hammer the pool; every request must succeed on
        # its first attempt: a retiring worker closes only its own copy
        # of the listener, so no queued connection is reset.
        from repro.models import TargetPredictor

        bumped = TargetPredictor.load(artifact)
        name, param = next(iter(bumped.model.named_parameters()))
        param.data = param.data + 1e-3
        bumped.save(artifact)
        assert pool.stale() is True

        failures: list = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    status, _, _ = _post(
                        pool.url + "/predict",
                        {"netlist": netlist_text, "model": "CAP"},
                    )
                    if status != 200:
                        failures.append(status)
                except Exception as error:  # noqa: BLE001 - recorded, asserted
                    failures.append(error)

        old_pids = set(pool.pids())
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            assert pool.reload() is True
        finally:
            time.sleep(0.3)  # keep hammering briefly on the new generation
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        assert failures == []
        assert pool.generation == 1
        assert not old_pids & set(pool.pids())
        status, _, _ = _post(
            pool.url + "/predict", {"netlist": netlist_text, "model": "CAP"}
        )
        assert status == 200


class TestSharedTrunkPool:
    """A shared-trunk (multi-head) predictor shares its weights like any
    other model and serves every head from the worker."""

    @pytest.fixture(scope="class")
    def shared(self, tiny_bundle):
        from repro.flows import TrainPlan, train
        from repro.models import TrainConfig

        plan = TrainPlan(
            targets=("CAP", "SA"),
            trunk="shared",
            config=TrainConfig(epochs=2, embed_dim=8, num_layers=2),
        )
        return train(tiny_bundle, plan).model

    def test_one_worker_pool_matches_in_process_engine(self, shared, netlist_text):
        from repro.api import create_engine

        config = PoolConfig(workers=1, port=0, drain_timeout_s=10.0)
        with ServerPool(shared, config=config) as running:
            status, _, body = _post(
                running.url + "/predict", {"netlist": netlist_text}
            )
        assert status == 200
        with create_engine(shared, dtype="float32") as engine:
            expected = engine.predict(netlist_text)
        assert sorted(body["targets"]) == ["CAP", "SA"]
        for target in ("CAP", "SA"):
            assert body["targets"][target]["values"] == expected.named(target)


class TestServingDtype:
    """An in-memory float64 model is served at the pool's float32: each
    of the caller's own parameters becomes a read-only float32 copy of
    its array, 4 bytes per parameter, and no float64 array stays behind
    for the workers to inherit."""

    @pytest.fixture(scope="class")
    def model(self, tiny_bundle):
        from repro.models import TargetPredictor, TrainConfig

        config = TrainConfig(epochs=1, embed_dim=8, num_layers=2, run_seed=5)
        return TargetPredictor("paragraph", "CAP", config).fit(tiny_bundle)

    def test_float64_model_is_published_and_served_at_float32(
        self, model, netlist_text, tmp_path
    ):
        from repro.api import create_engine

        model.save(tmp_path / "cap.npz")
        params = model.model.parameters()
        assert {p.data.dtype for p in params} == {np.dtype(np.float64)}
        config = PoolConfig(workers=1, port=0, drain_timeout_s=10.0)
        with ServerPool({"CAP": model}, config=config) as running:
            assert running.registry.get("CAP").model is model
            for param in params:
                assert param.data.dtype == np.float32
                assert not param.data.flags.writeable
            held = sum(param.data.nbytes for param in params)
            assert held == 4 * model.model.num_parameters()
            status, _, body = _post(
                running.url + "/predict", {"netlist": netlist_text}
            )
        assert status == 200
        with create_engine(str(tmp_path / "cap.npz"), dtype="float32") as engine:
            expected = engine.predict(netlist_text).named("CAP")
        assert body["targets"]["CAP"]["values"] == expected

    def test_save_and_predict_after_serving(
        self, model, tiny_bundle, tmp_path, taped
    ):
        """``save`` writes the served float32 weights, upcast to float64
        on disk, and ``predict_one`` and the taped forward run them at
        the ambient policy."""
        from repro.api import predict_one
        from repro.models import TargetPredictor

        with ServerPool({"CAP": model}, config=PoolConfig(workers=1)):
            pass
        served = [param.data for param in model.model.parameters()]
        assert all(
            array.dtype == np.float32 and not array.flags.writeable
            for array in served
        )
        model.save(tmp_path / "served.npz")
        saved = TargetPredictor.load(tmp_path / "served.npz")
        for array, param in zip(served, saved.model.parameters()):
            assert param.data.dtype == np.float64
            assert np.array_equal(param.data, array)
        record = tiny_bundle.records("test")[0]
        assert predict_one(model, record).named("CAP") == predict_one(
            saved, record
        ).named("CAP")
        for got, want in zip(taped(model, record), taped(saved, record)):
            np.testing.assert_array_equal(got, want)

    def test_fit_after_adoption_trains_at_float64_from_a_fresh_init(
        self, model, tiny_bundle
    ):
        """Refitting a model a pool served never continues from its
        rounded float32 arrays: it trains at its config's dtype from a
        fresh init, as a new predictor would."""
        from repro.models import TargetPredictor

        with ServerPool({"CAP": model}, config=PoolConfig(workers=1)):
            pass
        assert model.model.parameters()[0].data.dtype == np.float32
        model.fit(tiny_bundle)
        fresh = TargetPredictor("paragraph", "CAP", model.config).fit(tiny_bundle)
        for (name, param), (_, ref) in zip(
            model.model.named_parameters(), fresh.model.named_parameters()
        ):
            assert param.data.dtype == np.float64, name
            assert np.array_equal(param.data, ref.data), name


class TestPoolConfig:
    def test_rejects_zero_workers(self, artifact):
        with pytest.raises(ServeError, match="at least one"):
            ServerPool(os.fspath(artifact), config=PoolConfig(workers=0))

    def test_rejects_an_empty_registry(self):
        with pytest.raises(ServeError):
            ServerPool({}).start()

    def test_port_before_start_raises(self, artifact):
        pool = ServerPool(os.fspath(artifact))
        with pytest.raises(ServeError, match="not started"):
            pool.port


def _socket_inodes(pid):
    """The socket inodes among *pid*'s open descriptors."""
    inodes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:  # closed meanwhile
            continue
        if target.startswith("socket:"):
            inodes.add(target)
    return inodes


class TestListeners:
    def test_every_worker_accepts_on_one_listener(self, artifact, netlist_text):
        """Every worker of every generation accepts on the one listener
        the parent bound before forking, and a worker that lost an
        accept still drains promptly."""
        config = PoolConfig(workers=2, port=0, drain_timeout_s=10.0)
        running = ServerPool(os.fspath(artifact), config=config).start()
        try:
            listener = os.readlink(f"/proc/self/fd/{running._listener.fileno()}")
            for _ in range(2):
                for pid in running.pids():
                    assert listener in _socket_inodes(pid)
                running.reload(force=True)
            status, _, body = _post(
                running.url + "/predict",
                {"netlist": netlist_text, "model": "CAP"},
            )
        finally:
            started = time.monotonic()
            running.stop()
        assert time.monotonic() - started < config.drain_timeout_s / 2
        assert status == 200
        assert "CAP" in body["targets"]


class TestBaselinePool:
    def test_baseline_only_registry_is_served(self, tiny_bundle, netlist_text):
        from repro.models.baselines import BaselinePredictor

        model = BaselinePredictor("linear", "CAP").fit(tiny_bundle)
        config = PoolConfig(workers=1, port=0, drain_timeout_s=10.0)
        with ServerPool({"CAP": model}, config=config) as running:
            status, _, body = _post(
                running.url + "/predict", {"netlist": netlist_text}
            )
        assert status == 200
        assert body["targets"]["CAP"]["values"]


class TestReloadLifecycle:
    def test_reload_frees_the_old_weights(self, artifact):
        from repro.models import TargetPredictor

        model = TargetPredictor.load(artifact)
        config = PoolConfig(workers=1, port=0, drain_timeout_s=10.0)
        with ServerPool({"CAP": model}, config=config) as running:
            first = weakref.ref(model.model.parameters()[0].data)
            for _ in range(3):
                assert running.reload(force=True) is True
            gc.collect()
            assert first() is None
            with open("/proc/self/maps") as maps:
                assert "repro-weights" not in maps.read()
            assert running.generation == 3

    def test_idle_keep_alive_client_does_not_hold_a_reload(
        self, artifact, netlist_text
    ):
        """A draining worker joins its handler threads, and a keep-alive
        connection left open holds one; the idle timeout ends it, so the
        drain never waits for the pool's SIGKILL deadline."""
        config = PoolConfig(workers=1, port=0)
        with ServerPool(os.fspath(artifact), config=config) as running:
            conn = http.client.HTTPConnection(
                running.host, running.port, timeout=30.0
            )
            try:
                conn.request(
                    "POST", "/predict",
                    body=json.dumps({"netlist": netlist_text}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                started = time.monotonic()
                assert running.reload(force=True) is True
                elapsed = time.monotonic() - started
            finally:
                conn.close()
        assert elapsed < config.drain_timeout_s / 2


# ----------------------------------------------------------------------
# A worker killed mid-request
# ----------------------------------------------------------------------
class _StallingAdapter:
    """An adapter whose forward records its worker's pid, then hangs, so
    the request it serves stays in flight until the worker is killed."""

    family = "stall"
    targets = ("CAP",)

    def __init__(self, pid_path):
        self.pid_path = pid_path

    def predict_works(self, works, targets):
        partial = f"{self.pid_path}.partial"
        with open(partial, "w") as handle:
            handle.write(str(os.getpid()))
        os.replace(partial, self.pid_path)
        time.sleep(60.0)
        raise AssertionError("the worker outlived its SIGKILL")


class TestWorkerDeath:
    @pytest.fixture
    def metrics(self):
        from repro import obs

        obs.enable_metrics()
        obs.registry().reset()
        yield obs.registry()
        obs.disable_metrics()
        obs.registry().reset()

    def test_worker_killed_mid_request(self, tmp_path, netlist_text, metrics):
        """The client gets an error at once, not a hang; the pool reaps
        the worker exactly once, retires its metrics file and answers from
        a replacement."""
        pid_path = tmp_path / "pid"
        config = PoolConfig(workers=1, port=0, drain_timeout_s=10.0)
        model = {"stall": _StallingAdapter(str(pid_path))}
        with ServerPool(model, config=config) as running:
            outcome = {}

            def client():
                try:
                    _post(running.url + "/predict", {"netlist": netlist_text})
                except Exception as error:  # noqa: BLE001 - asserted below
                    outcome["error"] = error
                outcome["done"] = time.monotonic()

            thread = threading.Thread(target=client)
            thread.start()
            deadline = time.monotonic() + 30.0
            while not pid_path.exists():
                assert time.monotonic() < deadline, "no request reached a worker"
                time.sleep(0.01)
            victim = int(pid_path.read_text())
            assert running.pids() == [victim]
            victim_file = metrics_file_name(victim, 0)
            assert victim_file in os.listdir(running.metrics_dir)
            os.kill(victim, signal.SIGKILL)
            killed = time.monotonic()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert isinstance(outcome.get("error"), OSError)
            assert outcome["done"] - killed < 5.0

            dead: list = []
            deadline = time.monotonic() + 10.0
            while not dead and time.monotonic() < deadline:
                dead = running.poll()
                time.sleep(0.01)
            assert dead == [0]
            assert running.poll() == []
            assert metrics.counter("serve.pool_workers_died_total").value == 1
            assert victim_file not in os.listdir(running.metrics_dir)
            (replacement,) = running.pids()
            status, body = _get(running.url + "/healthz")
        assert replacement != victim
        assert status == 200
        assert json.loads(body)["worker"]["pid"] == replacement


# ----------------------------------------------------------------------
# `repro serve`: the CLI front end of the pool
# ----------------------------------------------------------------------
class TestReproServe:
    @pytest.mark.parametrize("flag, field", [
        ("--procs", "workers"),
        ("--max-batch", "max_batch"),
        ("--queue-depth", "queue_depth"),
        ("--cache-size", "cache_size"),
    ])
    def test_a_size_below_one_exits_2_before_any_fork(
        self, artifact, flag, field, monkeypatch, capsys
    ):
        from repro.cli import main

        def start(pool):
            raise AssertionError("repro serve started a worker")

        monkeypatch.setattr(ServerPool, "start", start)
        code = main(
            ["serve", "--models", os.fspath(artifact), "--port", "0", flag, "0"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro serve: ") and field in err

    def test_sighup_reloads_and_sigterm_drains(
        self, tmp_path, api_cap_predictor, netlist_text
    ):
        """`python -m repro serve` in its own process: fleet metrics from
        the start, a rolling reload on SIGHUP and a clean exit on SIGTERM
        that removes the metrics directory it made."""
        from repro.models import TargetPredictor
        from repro.serve.registry import artifact_version

        models = tmp_path / "models"
        models.mkdir()
        path = models / "CAP.npz"
        api_cap_predictor.save(path)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--models", str(models),
             "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            start_new_session=True,  # its workers share its process group
        )
        lines: queue.Queue = queue.Queue()

        def pump():
            for line in proc.stdout:
                lines.put(line)

        pumping = threading.Thread(target=pump, daemon=True)
        pumping.start()
        try:
            seen: list = []
            while not (seen and seen[-1].startswith("signals:")):
                seen.append(lines.get(timeout=60.0))
            (url,) = [
                line.split(" at ")[1].split()[0]
                for line in seen if line.startswith("serving ")
            ]
            (metrics_dir,) = [
                line.split("--dir ")[1].strip()
                for line in seen if line.startswith("fleet metrics:")
            ]

            health = json.loads(_get(url + "/healthz")[1])
            assert health["worker"]["generation"] == 0
            (before,) = health["models"]
            for _ in range(5):
                assert _post(url + "/predict", {"netlist": netlist_text})[0] == 200
            prom = _get(url + "/metrics?format=prom")[1]
            assert "repro_serve_requests_total 5" in prom.splitlines()
            payload = json.loads(_get(url + "/metrics")[1])
            assert {"fleet", "obs", "serve"} <= set(payload)

            retrained = TargetPredictor.load(path)
            for param in retrained.model.parameters():
                param.data = param.data + 1e-3
            retrained.save(path)
            proc.send_signal(signal.SIGHUP)
            deadline = time.monotonic() + 60.0
            while health["worker"]["generation"] == 0:
                assert time.monotonic() < deadline, "SIGHUP did not reload"
                time.sleep(0.05)
                health = json.loads(_get(url + "/healthz")[1])
            assert health["worker"]["generation"] == 1
            (after,) = health["models"]
            assert after["version"] == artifact_version(models)
            assert after["version"] != before["version"]

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60.0) == 0
            assert not os.path.exists(metrics_dir)
        finally:
            try:  # a failed run leaves no supervisor or worker behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            pumping.join(timeout=10.0)
            proc.stdout.close()
