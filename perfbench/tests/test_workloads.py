"""Inputs come from the seed alone; answers are checked to tolerance."""

import itertools
import json

import numpy as np
import pytest

from perfbench import check, workloads


@pytest.fixture(scope="module")
def bundles():
    return {seed: workloads.serving_bundle(seed) for seed in (3, 4)}


def test_hot_bodies_are_byte_identical_per_seed(bundles):
    again = workloads.serving_bundle(3)
    assert workloads.hot_bodies(again) == workloads.hot_bodies(bundles[3])
    assert workloads.hot_bodies(bundles[3]) != workloads.hot_bodies(bundles[4])


def test_cold_bodies_are_byte_identical_per_seed():
    first = workloads.cold_bodies(5, workloads.cold_circuits(5))
    second = workloads.cold_bodies(5, workloads.cold_circuits(5))
    other = workloads.cold_bodies(6, workloads.cold_circuits(6))
    assert first == second
    assert first != other
    assert len(first) == workloads.COLD_BODIES
    for body in first:
        assert len(json.loads(body)["items"]) == workloads.COLD_ITEMS


def test_balanced_groups_even_out_the_work():
    sizes = [800, 600, 500, 300, 100, 100, 50, 30, 20]
    groups = workloads.balanced_groups(sizes, 3, 3)
    assert sorted(i for group in groups for i in group) == list(range(len(sizes)))
    assert all(len(group) == 3 for group in groups)
    sums = [sum(sizes[i] for i in group) for group in groups]
    assert max(sums) - min(sums) <= 100  # a serpentine deal gives 950 vs 730


def test_cold_working_set_exceeds_the_cache():
    assert workloads.COLD_ITEMS * (workloads.COLD_BODIES - 1) > workloads.COLD_CACHE_SIZE


def test_request_orders_follow_the_seed():
    take = lambda seed, conn: list(itertools.islice(workloads.hot_order(seed, conn, 4), 50))
    assert take(1, 0) == take(1, 0)
    assert take(1, 0) != take(1, 1)
    assert take(1, 0) != take(2, 0)
    assert workloads.cold_order(1, 6) == workloads.cold_order(1, 6)
    assert sorted(workloads.cold_order(1, 6)) == list(range(6))


def test_tolerance_matches_the_serving_parity_tests():
    from tests.api.test_backends import CROSS_PRECISION_RTOL

    assert check.RTOL == CROSS_PRECISION_RTOL


def _answer():
    return {"circuit": "e1", "targets": {"CAP": {"values": {"a": 1.0, "b": 2.0}}}}


def test_matches_accepts_within_tolerance_and_rejects_otherwise():
    expected = [("e1", {"CAP": (["a", "b"], np.array([1.0, 2.0]))})]
    good = _answer()
    good["targets"]["CAP"]["values"]["b"] = 2.0 * (1 + 5e-4)
    assert check.matches(json.dumps(good).encode(), expected)

    off = _answer()
    off["targets"]["CAP"]["values"]["b"] = 2.01
    assert not check.matches(json.dumps(off).encode(), expected)

    renamed = _answer()
    renamed["targets"]["CAP"]["values"] = {"a": 1.0, "c": 2.0}
    assert not check.matches(json.dumps(renamed).encode(), expected)

    assert not check.matches(b"not json", expected)
    batch = {"results": [_answer(), _answer()]}
    assert not check.matches(json.dumps(batch).encode(), expected)
