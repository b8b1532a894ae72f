"""Multithreaded hammer over the estimator's two cache tiers.

Regression for the unlocked-cache bugs: ``LatencyEstimator``'s LRU
``OrderedDict`` and the shared ``LayerDesignMemo`` used to be mutated
with no lock, so concurrent ``estimate()`` calls could corrupt the
OrderedDict (``move_to_end``/``popitem`` racing ``__setitem__``), lose
counter increments, or evict past the configured bound.  Both tiers
are locked now; this hammer pins the invariants under real thread
contention.
"""

import threading

import pytest

from repro.core.architecture import Architecture
from repro.fpga.device import get_device
from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimator

THREADS = 8
ROUNDS = 30


def architectures():
    """A small pool of distinct MNIST-space architectures."""
    pool = []
    for sizes, counts in (
        ([5, 7, 5, 7], [9, 18, 18, 36]),
        ([3, 5, 3, 5], [9, 9, 18, 18]),
        ([7, 7, 7, 7], [18, 18, 36, 36]),
        ([5, 5, 5, 5], [9, 18, 36, 36]),
        ([3, 3, 3, 3], [9, 9, 9, 9]),
        ([7, 5, 3, 5], [36, 18, 9, 18]),
    ):
        pool.append(Architecture.from_choices(
            sizes, counts, input_size=28, input_channels=1,
        ))
    return pool


@pytest.fixture()
def estimator():
    platform = Platform.replicated(get_device("pynq-z1"), 1)
    return LatencyEstimator(platform)


def hammer(estimator, pool, errors, results):
    try:
        for round_index in range(ROUNDS):
            for arch in pool:
                estimate = estimator.estimate(arch)
                results.setdefault(arch.fingerprint(), set()).add(
                    estimate.ms
                )
    except BaseException as exc:  # noqa: BLE001 - surfaced by the test
        errors.append(exc)


def test_concurrent_estimate_is_consistent(estimator):
    pool = architectures()
    errors: list[BaseException] = []
    results: dict[str, set[float]] = {}
    threads = [
        threading.Thread(
            target=hammer, args=(estimator, pool, errors, results)
        )
        for _ in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not errors, errors

    # Determinism: every thread saw the same latency per fingerprint.
    assert len(results) == len(pool)
    assert all(len(values) == 1 for values in results.values())

    # Counter integrity: every lookup was counted exactly once.  Misses
    # may exceed the distinct-architecture count (racing threads can
    # both compute a fresh estimate) but hits+misses never lose ticks.
    total_calls = THREADS * ROUNDS * len(pool)
    assert estimator.stats.hits + estimator.stats.misses == total_calls
    assert len(pool) <= estimator.stats.misses <= THREADS * len(pool)
    assert estimator.cache_size == len(pool)

    # The shared layer memo kept its counters intact too.
    memo_stats = estimator.layer_memo_stats
    assert memo_stats.hits + memo_stats.misses == memo_stats.lookups
    assert memo_stats.lookups > 0


def test_concurrent_estimate_respects_the_lru_bound():
    platform = Platform.replicated(get_device("pynq-z1"), 1)
    estimator = LatencyEstimator(platform, max_cache_entries=3)
    pool = architectures()
    errors: list[BaseException] = []
    threads = [
        threading.Thread(
            target=hammer, args=(estimator, pool, errors, {})
        )
        for _ in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not errors, errors
    assert estimator.cache_size <= 3
    assert estimator.stats.evictions > 0


def batch_hammer(estimator, pool, errors, results, offset):
    """Whole rotated batches, repeats included, through estimate_batch."""
    try:
        for round_index in range(ROUNDS // 3):
            shift = (offset + round_index) % len(pool)
            batch = pool[shift:] + pool[:shift] + pool[:2]
            for arch, estimate in zip(batch, estimator.estimate_batch(batch)):
                results.setdefault(arch.fingerprint(), set()).add(
                    (estimate.cycles, estimate.ms)
                )
    except BaseException as exc:  # noqa: BLE001 - surfaced by the test
        errors.append(exc)


@pytest.mark.parametrize("bound", [None, 3])
def test_concurrent_estimate_batch_is_consistent(bound):
    platform = Platform.replicated(get_device("pynq-z1"), 1)
    estimator = LatencyEstimator(platform, max_cache_entries=bound)
    pool = architectures()
    errors: list[BaseException] = []
    results: dict[str, set] = {}
    threads = [
        threading.Thread(
            target=batch_hammer,
            args=(estimator, pool, errors, results, offset),
        )
        for offset in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not errors, errors

    # Every thread saw one result per fingerprint, equal to a fresh
    # single-threaded estimate.
    reference = LatencyEstimator(platform)
    assert len(results) == len(pool)
    for arch in pool:
        expected = reference.estimate(arch)
        assert results[arch.fingerprint()] == {(expected.cycles, expected.ms)}

    # One LRU lookup per input architecture, none lost; the bound holds.
    batch_size = len(pool) + 2
    total = THREADS * (ROUNDS // 3) * batch_size
    assert estimator.stats.hits + estimator.stats.misses == total
    if bound is None:
        assert len(pool) <= estimator.stats.misses <= THREADS * len(pool)
        assert estimator.cache_size == len(pool)
    else:
        assert estimator.cache_size <= bound
        assert estimator.stats.evictions > 0
    memo_stats = estimator.layer_memo_stats
    assert memo_stats.hits + memo_stats.misses == memo_stats.lookups > 0
    kinds = estimator.layer_memo.kind_stats.values()
    assert sum(k.hits for k in kinds) == memo_stats.hits
    assert sum(k.misses for k in kinds) == memo_stats.misses
