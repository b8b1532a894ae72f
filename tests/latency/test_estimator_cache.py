"""The latency estimator's two-tier cache: correctness, bounds, stats."""

import numpy as np
import pytest

from repro.core.architecture import Architecture
from repro.core.search_space import SearchSpace
from repro.configs import MNIST_CONFIG
from repro.fpga import tiling as tiling_mod
from repro.fpga.device import PYNQ_Z1, XC7Z020_DDR_NARROW
from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimator


@pytest.fixture(scope="module")
def space():
    return SearchSpace.from_config(MNIST_CONFIG)


@pytest.fixture(scope="module")
def architectures(space):
    rng = np.random.default_rng(0)
    seen, archs = set(), []
    while len(archs) < 12:
        arch = space.random_architecture(rng)
        if arch.fingerprint() not in seen:
            seen.add(arch.fingerprint())
            archs.append(arch)
    return archs


def platform():
    return Platform.single(PYNQ_Z1)


class TestWholeArchitectureTier:
    def test_cached_estimate_identical_to_fresh(self, architectures):
        cached = LatencyEstimator(platform())
        for arch in architectures:
            first = cached.estimate(arch)
            again = cached.estimate(arch)
            assert again is first  # served from cache, not recomputed
            fresh = LatencyEstimator(platform()).estimate(arch)
            assert fresh.ms == first.ms
            assert fresh.cycles == first.cycles

    def test_hit_miss_statistics(self, architectures):
        estimator = LatencyEstimator(platform())
        for arch in architectures[:5]:
            estimator.estimate(arch)
        assert estimator.stats.misses == 5
        assert estimator.stats.hits == 0
        for arch in architectures[:5]:
            estimator.estimate(arch)
        assert estimator.stats.hits == 5
        assert estimator.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_respects_bound(self, architectures):
        estimator = LatencyEstimator(platform(), max_cache_entries=3)
        for arch in architectures[:5]:
            estimator.estimate(arch)
        assert estimator.cache_size == 3
        assert estimator.stats.evictions == 2
        # The most recent three are hits; the first two were evicted.
        before = estimator.stats.misses
        for arch in architectures[2:5]:
            estimator.estimate(arch)
        assert estimator.stats.misses == before
        estimator.estimate(architectures[0])
        assert estimator.stats.misses == before + 1

    def test_lru_recency_updates_on_hit(self, architectures):
        estimator = LatencyEstimator(platform(), max_cache_entries=2)
        a, b, c = architectures[:3]
        estimator.estimate(a)
        estimator.estimate(b)
        estimator.estimate(a)  # refresh a; b is now least recent
        estimator.estimate(c)  # evicts b
        misses = estimator.stats.misses
        estimator.estimate(a)
        assert estimator.stats.misses == misses  # a survived
        estimator.estimate(b)
        assert estimator.stats.misses == misses + 1  # b was evicted

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError, match="max_cache_entries"):
            LatencyEstimator(platform(), max_cache_entries=0)

    def test_clear_cache_drops_both_tiers(self, architectures):
        estimator = LatencyEstimator(platform())
        estimator.estimate(architectures[0])
        assert estimator.cache_size == 1
        assert len(estimator.layer_memo) > 0
        estimator.clear_cache()
        assert estimator.cache_size == 0
        assert len(estimator.layer_memo) == 0


class TestEstimateBatch:
    def test_preserves_order_and_dedupes(self, architectures):
        estimator = LatencyEstimator(platform())
        batch = [architectures[0], architectures[1], architectures[0],
                 architectures[2], architectures[1]]
        estimates = estimator.estimate_batch(batch)
        assert len(estimates) == 5
        for arch, estimate in zip(batch, estimates):
            assert estimate.architecture.fingerprint() == arch.fingerprint()
        # Three distinct fingerprints -> three misses, two in-batch hits.
        assert estimator.stats.misses == 3
        assert estimator.stats.hits == 2

    def test_matches_single_estimates(self, architectures):
        batched = LatencyEstimator(platform()).estimate_batch(architectures)
        singles = [
            LatencyEstimator(platform()).estimate(a) for a in architectures
        ]
        assert [e.ms for e in batched] == [e.ms for e in singles]


class TestLayerMemoTier:
    def test_memo_hits_across_fingerprints(self, architectures):
        estimator = LatencyEstimator(platform())
        for arch in architectures:
            estimator.estimate(arch)
        stats = estimator.layer_memo_stats
        assert stats.hits > 0, (
            "architectures sharing layer shapes must reuse tiling work"
        )
        assert stats.hit_rate > 0.0

    def test_memo_does_not_change_results(self, architectures):
        with_memo = LatencyEstimator(platform())
        without = LatencyEstimator(platform(), use_layer_memo=False)
        for arch in architectures:
            assert with_memo.estimate(arch).ms == without.estimate(arch).ms
        assert without.layer_memo_stats.lookups == 0

    def test_memo_shared_across_explorer_strategies(self, architectures):
        estimator = LatencyEstimator(platform())
        estimator.estimate(architectures[0])
        # Both spatial strategies ran for every layer of the architecture.
        assert len(estimator.layer_memo) >= architectures[0].depth


def mnist_batch():
    """Five MNIST-space architectures, three of them repeated."""
    choices = [([5, 7, 5, 7], [9, 18, 18, 36]), ([3, 5, 3, 5], [9, 9, 18, 18]),
               ([7, 7, 7, 7], [18, 18, 36, 36]), ([5, 7, 5, 7], [9, 18, 18, 18]),
               ([3, 3, 3, 3], [9, 9, 9, 9])]
    archs = [Architecture.from_choices(k, c, input_size=28) for k, c in choices]
    return archs + [archs[0], archs[2], archs[0]]


def separable_batch():
    """Three depthwise-separable architectures, one repeated."""
    choices = [([3, 3, 3], [16, 32, 32], [1, 2, 1]),
               ([3, 5, 3], [16, 32, 64], [2, 1, 1]),
               ([3, 3, 3], [16, 32, 32], [1, 2, 2])]
    archs = [
        Architecture.from_choices(
            k, c, input_size=32, input_channels=3, strides=s,
            conv_types=["standard", "separable", "separable"])
        for k, c, s in choices
    ]
    return archs + [archs[1]]


def counters(estimator):
    memo = estimator.layer_memo
    return {
        "arch": (estimator.stats.hits, estimator.stats.misses,
                 estimator.stats.evictions),
        "memo": (memo.stats.hits, memo.stats.misses),
        "kinds": {kind: (stats.hits, stats.misses)
                  for kind, stats in sorted(memo.kind_stats.items())},
        "entries": (len(memo), estimator.cache_size),
    }


class TestBatchCounters:
    """One ``estimate_batch`` counts what the same architectures passed
    one at a time through ``estimate`` count: one LRU lookup per input,
    one layer-memo lookup per (layer occurrence, spatial strategy) of
    every distinct miss.  The numbers are pinned from the per-
    architecture estimator."""

    @pytest.fixture(autouse=True)
    def fresh_process_stats(self):
        tiling_mod.reset_process_memo_stats()
        yield
        tiling_mod.reset_process_memo_stats()

    def test_counts_equal_the_per_architecture_estimator(self):
        flat = LatencyEstimator(Platform.single(PYNQ_Z1))
        flat_cycles = [e.cycles for e in flat.estimate_batch(mnist_batch())]
        ddr = LatencyEstimator(Platform.single(XC7Z020_DDR_NARROW))
        ddr_cycles = [e.cycles for e in ddr.estimate_batch(separable_batch())]
        assert flat_cycles == [192600, 63504, 691488, 176400, 14166,
                               192600, 691488, 192600]
        assert ddr_cycles == [397508, 399742, 239173, 399742]
        assert counters(flat) == {
            "arch": (3, 5, 0), "memo": (23, 17),
            "kinds": {"standard": (23, 17)}, "entries": (34, 5),
        }
        assert counters(ddr) == {
            "arch": (1, 3, 0), "memo": (17, 13),
            "kinds": {"depthwise": (7, 5), "pointwise": (7, 5),
                      "standard": (3, 3)},
            "entries": (26, 3),
        }
        assert tiling_mod.process_memo_snapshot() == {
            "all": {"hits": 40, "misses": 30, "hit_rate": 0.5714},
            "depthwise": {"hits": 7, "misses": 5, "hit_rate": 0.5833},
            "pointwise": {"hits": 7, "misses": 5, "hit_rate": 0.5833},
            "standard": {"hits": 26, "misses": 20, "hit_rate": 0.5652},
        }

    def test_lru_counts_and_order_under_a_tight_bound(self):
        """A repeat whose first occurrence the bound evicted mid-batch
        is a miss again, as it was one call at a time; its estimate is
        still computed only once per batch."""
        estimator = LatencyEstimator(Platform.single(PYNQ_Z1),
                                     max_cache_entries=3)
        batch = mnist_batch()
        estimator.estimate_batch(batch)
        assert counters(estimator)["arch"] == (1, 7, 4)
        assert estimator.cache_size == 3
        assert estimator.stats.misses + estimator.stats.hits == len(batch)
        # Same five distinct solves as the unbounded estimator above.
        assert estimator.layer_memo_stats.lookups == 40
        # A B C D E A C A through a 3-entry LRU leaves E, C, A.
        assert list(estimator._cache) == [
            batch[index].fingerprint() for index in (4, 2, 0)]

