"""Workload inputs, generated from the workload seed.

The seed decides which circuits exist and the order requests are sent
in; the program only ever sees the resulting SPICE netlists (serving) or
dataset bundle (training).  Request bodies are serialised with sorted
keys, so one seed always yields byte-identical bodies.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Iterator

#: Dataset scale of the serving bundle (test circuits e1-e4: ~60-300 nodes).
SERVE_SCALE = 0.35
#: Epochs of the setup-time training of the served 13-target model.  The
#: benchmark measures serving, not accuracy; one epoch yields a real model.
SERVE_TRAIN_EPOCHS = 1
#: serve_cold: circuits per request body, bodies in the cycled working set,
#: and the worker's graph-cache capacity (below the 48-circuit working set).
#: Three circuits per body keep a 25 s window at 45-60 requests; a p75 tail
#: needs 38 for ten samples beyond it.
COLD_ITEMS = 3
COLD_BODIES = 16
COLD_CACHE_SIZE = 24
COLD_SCALE = 1.0
#: train_shared: dataset scale and epochs per ``train()`` call.
TRAIN_SCALE = 1.0
TRAIN_EPOCHS = 8


def derived_seed(seed: int, *labels) -> int:
    """A 32-bit seed for one named purpose, stable across processes."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def encode_body(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def serving_bundle(seed: int):
    from repro.data.dataset import build_bundle

    return build_bundle(seed=seed, scale=SERVE_SCALE)


def serving_plan(seed: int):
    """The per-target 13-target plan whose model every serve workload serves."""
    from repro.flows import TrainPlan
    from repro.models.trainer import TrainConfig

    return TrainPlan(config=TrainConfig(epochs=SERVE_TRAIN_EPOCHS, run_seed=seed))


def shared_plan(seed: int, runtime=None):
    """The shared-trunk 13-target plan of train_shared (default dims, float64)."""
    from repro.flows import TrainPlan
    from repro.models.trainer import TrainConfig

    return TrainPlan(
        trunk="shared",
        config=TrainConfig(epochs=TRAIN_EPOCHS, run_seed=seed),
        runtime=runtime,
    )


def hot_bodies(bundle) -> list[bytes]:
    """One single-circuit CAP request per test-split circuit (e1-e4)."""
    from repro.circuits.spice import write_spice

    return [
        encode_body({
            "netlist": write_spice(record.circuit),
            "name": record.name,
            "targets": ["CAP"],
        })
        for record in bundle.records("test")
    ]


def cold_circuits(seed: int) -> list[tuple[str, object]]:
    """``COLD_ITEMS * COLD_BODIES`` fresh circuits over every recipe."""
    from repro.circuits.generators.chip import (
        TEST_RECIPES,
        TRAIN_RECIPES,
        compose_chip,
    )

    recipes = TRAIN_RECIPES + TEST_RECIPES
    circuits = []
    for index in range(COLD_ITEMS * COLD_BODIES):
        recipe = recipes[index % len(recipes)]
        chip = compose_chip(
            recipe, seed=derived_seed(seed, "cold", index), scale=COLD_SCALE
        )
        circuits.append((f"c{index:02d}-{recipe.name}", chip.circuit))
    return circuits


def balanced_groups(sizes: list[int], groups: int, per_group: int) -> list[list[int]]:
    """Deal indices into *groups* of *per_group* with near-equal size sums.

    Largest first, each index goes to the open group with the smallest
    sum so far, so every request body carries about the same work and
    the request-latency median does not depend on how the seed's circuit
    sizes happen to fall.
    """
    out: list[list[int]] = [[] for _ in range(groups)]
    sums = [0] * groups
    for index in sorted(range(len(sizes)), key=lambda i: (-sizes[i], i)):
        open_groups = [g for g in range(groups) if len(out[g]) < per_group]
        target = min(open_groups, key=lambda g: (sums[g], g))
        out[target].append(index)
        sums[target] += sizes[index]
    return out


def cold_bodies(seed: int, circuits) -> list[bytes]:
    """Group circuits into equal-work bodies of COLD_ITEMS, all 13 targets.

    The seed shuffles the circuits within each body.
    """
    from repro.circuits.spice import write_spice

    sizes = [circuit.num_instances + circuit.num_nets for _, circuit in circuits]
    rng = random.Random(derived_seed(seed, "cold-bodies"))
    bodies = []
    for group in balanced_groups(sizes, COLD_BODIES, COLD_ITEMS):
        rng.shuffle(group)
        bodies.append(encode_body({
            "items": [
                {"netlist": write_spice(circuits[i][1]), "name": circuits[i][0]}
                for i in group
            ]
        }))
    return bodies


def hot_order(seed: int, connection: int, count: int) -> Iterator[int]:
    """Endless seeded choice of body indices for one hot connection."""
    rng = random.Random(derived_seed(seed, "hot-order", connection))
    while True:
        yield rng.randrange(count)


def cold_order(seed: int, count: int) -> list[int]:
    """A seeded cycle over all cold bodies.

    The cycle is replayed in the same order, so at least
    ``COLD_ITEMS * (COLD_BODIES - 1)`` other circuits are looked up
    between two uses of a circuit — more than the cache holds, so the LRU
    misses and evicts on every lookup.
    """
    order = list(range(count))
    random.Random(derived_seed(seed, "cold-order")).shuffle(order)
    return order
