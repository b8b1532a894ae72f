"""Tests for the latency estimation facade and the design explorer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.architecture import Architecture
from repro.fpga.device import PYNQ_Z1, XC7Z020_DDR_NARROW
from repro.fpga.platform import Platform
from repro.fpga.tiling import TilingDesigner
from repro.latency.analyzer import FnasAnalyzer
from repro.latency.estimator import (
    ANALYTICAL,
    SIMULATE,
    LatencyEstimate,
    LatencyEstimator,
)
from repro.latency.explorer import DesignExplorer
from repro.scheduling.fnas_sched import alternating_strategies


@pytest.fixture
def arch():
    return Architecture.from_choices(
        [5, 7, 5], [9, 18, 36], input_size=28, input_channels=1
    )


class TestLatencyEstimator:
    def test_analytical_estimate(self, arch, pynq_platform):
        estimator = LatencyEstimator(pynq_platform)
        estimate = estimator.estimate(arch)
        assert estimate.cycles > 0
        assert estimate.ms == pytest.approx(
            pynq_platform.cycles_to_ms(estimate.cycles))
        assert estimate.method == ANALYTICAL
        assert estimate.report is not None

    def test_simulate_estimate_at_least_analytical(self, arch, pynq_platform):
        analytical = LatencyEstimator(pynq_platform).estimate(arch)
        simulated = LatencyEstimator(
            pynq_platform, method=SIMULATE).estimate(arch)
        assert simulated.cycles >= analytical.cycles

    def test_cache_hit_returns_same_object(self, arch, pynq_platform):
        estimator = LatencyEstimator(pynq_platform)
        first = estimator.estimate(arch)
        second = estimator.estimate(arch)
        assert first is second
        assert estimator.cache_size == 1

    def test_clear_cache(self, arch, pynq_platform):
        estimator = LatencyEstimator(pynq_platform)
        estimator.estimate(arch)
        estimator.clear_cache()
        assert estimator.cache_size == 0

    def test_meets(self, arch, pynq_platform):
        estimate = LatencyEstimator(pynq_platform).estimate(arch)
        assert estimate.meets(estimate.ms + 1.0)
        assert not estimate.meets(estimate.ms / 2.0)
        with pytest.raises(ValueError):
            estimate.meets(0.0)

    def test_rejects_unknown_method(self, pynq_platform):
        with pytest.raises(ValueError, match="method"):
            LatencyEstimator(pynq_platform, method="guess")

    def test_explicit_designer_disables_exploration(self, arch,
                                                    pynq_platform):
        fixed = LatencyEstimator(
            pynq_platform, designer=TilingDesigner("max-reuse"))
        explored = LatencyEstimator(pynq_platform)
        assert explored.estimate(arch).cycles <= fixed.estimate(arch).cycles


class TestDesignExplorer:
    def test_best_is_minimum(self, arch, pynq_platform):
        result = DesignExplorer().explore(arch, pynq_platform)
        assert result.best.total_cycles == min(
            c.total_cycles for c in result.evaluated)

    def test_evaluates_all_policy_combinations(self, arch, pynq_platform):
        result = DesignExplorer().explore(arch, pynq_platform)
        combos = {(c.spatial_strategy, c.first_reuse)
                  for c in result.evaluated}
        assert len(combos) == 4

    def test_improvement_at_least_one(self, arch, pynq_platform):
        result = DesignExplorer().explore(arch, pynq_platform)
        assert result.improvement_over_worst >= 1.0


def scalar_chain(architecture, platform):
    """The per-architecture FNAS tool chain, one object at a time: both
    spatial designs, the scalar analyzer for both first-reuse choices,
    and the first minimum in the explorer's order."""
    choices = []
    for spatial in DesignExplorer.SPATIAL_STRATEGIES:
        design = TilingDesigner(spatial).design(architecture, platform)
        for first in DesignExplorer.FIRST_REUSE_CHOICES:
            strategies = alternating_strategies(architecture.depth,
                                                first=first)
            choices.append(
                (FnasAnalyzer(strategies=strategies).analyze(design), design))
    report, design = min(choices, key=lambda choice: choice[0].total_cycles)
    return LatencyEstimate(
        architecture=architecture,
        cycles=report.total_cycles,
        ms=report.total_ms,
        method=ANALYTICAL,
        design=design,
        report=report,
    )


class TestBatchMatchesScalarChain:
    @settings(deadline=None, max_examples=40)
    @given(
        layers_per_arch=st.lists(
            st.lists(
                st.tuples(st.sampled_from([1, 3, 5, 7]),
                          st.sampled_from([4, 9, 16, 18, 36, 64]),
                          st.sampled_from([1, 2]),
                          st.sampled_from(["standard", "separable"])),
                min_size=1, max_size=4),
            min_size=1, max_size=5),
        size=st.sampled_from([8, 14, 28, 32]),
        device=st.sampled_from([PYNQ_Z1, XC7Z020_DDR_NARROW]),
        data=st.data(),
    )
    def test_estimate_batch_equals_scalar_chain(self, layers_per_arch, size,
                                                device, data):
        architectures = []
        for layers in layers_per_arch:
            kernels, counts, strides, types = zip(*layers)
            architectures.append(Architecture.from_choices(
                kernels, counts, input_size=size, input_channels=3,
                strides=strides, conv_types=types,
            ))
        batch = architectures + data.draw(
            st.lists(st.sampled_from(architectures), max_size=3))
        platform = Platform.single(device)
        estimates = LatencyEstimator(platform).estimate_batch(batch)
        for architecture, estimate in zip(batch, estimates):
            expected = scalar_chain(architecture, platform)
            assert estimate == expected
            assert estimate.report == expected.report
            assert estimate.design == expected.design

    def test_explore_builds_every_choice_of_the_scalar_chain(
        self, arch, pynq_platform
    ):
        result = DesignExplorer().explore(arch, pynq_platform)
        assert [(c.spatial_strategy, c.first_reuse) for c in result.evaluated] == [
            (spatial, first)
            for spatial in DesignExplorer.SPATIAL_STRATEGIES
            for first in DesignExplorer.FIRST_REUSE_CHOICES
        ]
        for choice in result.evaluated:
            strategies = alternating_strategies(arch.depth,
                                                first=choice.first_reuse)
            assert choice.design == TilingDesigner(
                choice.spatial_strategy).design(arch, pynq_platform)
            assert choice.report == FnasAnalyzer(
                strategies=strategies).analyze(choice.design)
        assert result.best == min(result.evaluated,
                                  key=lambda c: c.total_cycles)
