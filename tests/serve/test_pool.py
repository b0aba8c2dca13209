"""Multi-process serving: hash ring, sharded cache, pool lifecycle."""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.circuits.spice import write_spice
from repro.errors import ServeError
from repro.serve import circuit_fingerprint
from repro.serve.pool import (
    HashRing,
    PoolConfig,
    ServerPool,
    ShardedGraphCache,
)


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------
class TestHashRing:
    def test_deterministic(self):
        first, second = HashRing(4), HashRing(4)
        keys = [f"circuit-{i}" for i in range(200)]
        assert [first.shard_for(k) for k in keys] == [
            second.shard_for(k) for k in keys
        ]

    def test_partitions_are_reasonably_balanced(self):
        ring = HashRing(4)
        keys = [f"fingerprint-{i:04d}" for i in range(2000)]
        counts = [0, 0, 0, 0]
        for key in keys:
            counts[ring.shard_for(key)] += 1
        assert sum(counts) == len(keys)
        for count in counts:
            assert 0.05 * len(keys) < count < 0.60 * len(keys)

    def test_adding_a_shard_moves_a_minority_of_keys(self):
        before, after = HashRing(4), HashRing(5)
        keys = [f"fingerprint-{i:04d}" for i in range(2000)]
        moved = sum(
            1 for k in keys if before.shard_for(k) != after.shard_for(k)
        )
        # consistent hashing: ~1/5 of the keyspace moves, never most of it
        assert moved < 0.45 * len(keys)

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, replicas=0)


class TestShardedGraphCache:
    @pytest.fixture
    def circuits(self, tiny_bundle):
        return [record.circuit for record in tiny_bundle.records("test")]

    def test_shards_partition_the_keyspace(self, circuits):
        shards = 3
        ring = HashRing(shards)
        caches = [
            ShardedGraphCache(i, shards, ring=ring) for i in range(shards)
        ]
        for circuit in circuits:
            fingerprint = circuit_fingerprint(circuit)
            owners = [c.admits(fingerprint) for c in caches]
            assert sum(owners) == 1  # exactly one shard owns each circuit

    def test_foreign_circuits_served_but_never_cached(self, circuits):
        ring = HashRing(2)
        cache = ShardedGraphCache(0, 2, ring=ring)
        owned = foreign = 0
        for circuit in circuits:
            entry, hit = cache.lookup(circuit)
            assert entry.graph is not None
            assert not hit
            if ring.shard_for(circuit_fingerprint(circuit)) == 0:
                owned += 1
            else:
                foreign += 1
        assert owned and foreign  # the bundle spans both shards
        assert len(cache) == owned
        assert cache.describe_shard()["foreign_lookups"] >= foreign

    def test_bad_shard_index_rejected(self):
        with pytest.raises(ValueError):
            ShardedGraphCache(2, 2)


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


def _post_retry(url, payload, attempts=8):
    """Retry connection-level failures (a draining worker's backlog reset);
    HTTP error statuses are never retried — they must not happen at all."""
    for attempt in range(attempts):
        try:
            return _post(url, payload)
        except urllib.error.HTTPError:
            raise
        except (urllib.error.URLError, ConnectionError, TimeoutError):
            if attempt == attempts - 1:
                raise
            time.sleep(0.05)


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

    def test_worker_rss_excludes_private_weight_copies(self, pool, artifact):
        # shared weights: per-worker RSS must not differ by the weight bytes
        # times the worker count; both workers map the same segment, so
        # their RSS should be near-identical.
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
        status, _, _ = _post_retry(
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
        # client threads hammer the pool; every request must succeed.
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
                    status, _, _ = _post_retry(
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
        status, _, _ = _post_retry(
            pool.url + "/predict", {"netlist": netlist_text, "model": "CAP"}
        )
        assert status == 200


class TestSharedTrunkPool:
    """A shared-trunk (multi-head) predictor publishes its weights like
    any other model and serves every head from the worker."""

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
        with create_engine(shared, dtype="float32", workers=1) as engine:
            expected = engine.predict(netlist_text)
        assert sorted(body["targets"]) == ["CAP", "SA"]
        for target in ("CAP", "SA"):
            assert body["targets"][target]["values"] == expected.named(target)


class TestServingDtype:
    """An in-memory float64 model is served at the pool's float32: the
    segment holds 4 bytes per parameter, and the caller's own parameters
    become read-only views of it (no float64 copy stays behind)."""

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
            published = running._published
            assert {spec.dtype for spec in published.specs} == {"<f4"}
            assert published.nbytes == 4 * sum(p.data.size for p in params)
            for param in params:
                assert param.data.dtype == np.float32
                assert not param.data.flags.writeable
            status, _, body = _post(
                running.url + "/predict", {"netlist": netlist_text}
            )
        assert status == 200
        with create_engine(str(tmp_path / "cap.npz"), dtype="float32") as engine:
            expected = engine.predict(netlist_text).named("CAP")
        assert body["targets"]["CAP"]["values"] == expected

    def test_fit_after_adoption_trains_at_float64_from_a_fresh_init(
        self, model, tiny_bundle
    ):
        """Refitting the adopted model never continues from the rounded
        float32 views: it trains at its config's dtype from a fresh init,
        as a new predictor would."""
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

    def test_rejects_unknown_strategy(self):
        from repro.serve.pool import _resolve_strategy

        with pytest.raises(ServeError, match="unknown"):
            _resolve_strategy("carrier-pigeon")

    def test_port_before_start_raises(self, artifact):
        pool = ServerPool(os.fspath(artifact))
        with pytest.raises(ServeError, match="not started"):
            pool.port
