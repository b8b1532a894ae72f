"""Tests for the closed-form FNAS-Analyzer (equations (2)-(5))."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.architecture import Architecture
from repro.fpga.device import PYNQ_Z1, XC7Z020_DDR_NARROW, XCZU9EG
from repro.fpga.platform import Platform
from repro.fpga.dram import PhaseLatency
from repro.fpga.tiling import (
    DesignStack,
    LayerDesign,
    TilingDesigner,
    TilingVector,
)
from repro.latency.analyzer import (
    FIRST_REUSE_CHOICES,
    FnasAnalyzer,
    StackedLatencies,
)
from repro.latency.explorer import DesignExplorer
from repro.scheduling.base import IFM_REUSE, OFM_REUSE
from repro.scheduling.fnas_sched import FnasScheduler, alternating_strategies
from repro.scheduling.simulator import PipelineSimulator
from repro.taskgraph.graph import (
    TaskGraphGenerator,
    rc_dependencies,
    resolve_rc_mapping,
)


def design_of(counts, size=16, channels=1, kernel=3, platform=None):
    arch = Architecture.from_choices(
        [kernel] * len(counts), list(counts), input_size=size,
        input_channels=channels,
    )
    platform = platform or Platform.single(PYNQ_Z1)
    return TilingDesigner().design(arch, platform)


class TestStartDelta:
    def make_layers(self):
        arch = Architecture.from_choices([3, 3], [8, 8], input_size=8)
        up = LayerDesign(0, arch.layers[0], TilingVector(2, 1, 8, 8))
        down = LayerDesign(1, arch.layers[1], TilingVector(2, 4, 8, 8))
        return up, down

    def test_ofm_reuse_delta_formula(self):
        up, down = self.make_layers()
        # eq (3): ceil(N0/Tn0)=1, ceil(Tn1/Tm0)=2, ET0 = 3*3*8*8 = 576.
        delta = FnasAnalyzer.start_delta(up, down, OFM_REUSE)
        assert delta == 1 * 2 * 576

    def test_ifm_reuse_delta_formula(self):
        up, down = self.make_layers()
        # eq (4): [(1-1)*ceil(8/2) + 2] * 576
        delta = FnasAnalyzer.start_delta(up, down, IFM_REUSE)
        assert delta == 2 * 576

    def test_ifm_delta_at_least_ofm_delta(self):
        """IFM reuse delays the consumer at least as much as OFM reuse."""
        design = design_of([8, 16, 8])
        for i in range(1, 3):
            up, down = design.layers[i - 1], design.layers[i]
            assert (FnasAnalyzer.start_delta(up, down, IFM_REUSE)
                    >= FnasAnalyzer.start_delta(up, down, OFM_REUSE))

    def test_rejects_unknown_strategy(self):
        up, down = self.make_layers()
        with pytest.raises(ValueError):
            FnasAnalyzer.start_delta(up, down, "mix")


class TestAnalyze:
    def test_single_layer_is_pure_processing(self):
        design = design_of([8])
        report = FnasAnalyzer().analyze(design)
        assert report.total_cycles == design.layers[0].processing_time
        assert report.start_times == (0,)

    def test_start_times_accumulate_deltas(self):
        design = design_of([8, 16, 8])
        report = FnasAnalyzer().analyze(design)
        expected = 0
        strategies = [l.reuse for l in report.layers]
        for i in range(1, 3):
            expected += FnasAnalyzer.start_delta(
                design.layers[i - 1], design.layers[i], strategies[i - 1]
            )
            assert report.layers[i].start_time == expected

    def test_total_ms_uses_platform_clock(self):
        design = design_of([8, 16])
        report = FnasAnalyzer().analyze(design)
        assert report.total_ms == pytest.approx(
            design.platform.cycles_to_ms(report.total_cycles)
        )

    def test_bottleneck_layer(self):
        design = design_of([4, 32, 4])
        report = FnasAnalyzer().analyze(design)
        pts = [l.processing_time for l in report.layers]
        assert report.layers[report.bottleneck_layer].processing_time == max(pts)

    def test_custom_strategy_assignment(self):
        design = design_of([8, 16, 8])
        uniform = FnasAnalyzer(strategies=[OFM_REUSE] * 3).analyze(design)
        alternating = FnasAnalyzer().analyze(design)
        assert uniform.total_cycles <= alternating.total_cycles or True
        # With uniform OFM reuse all deltas use eq (3).
        for layer in uniform.layers:
            assert layer.reuse == OFM_REUSE

    def test_strategy_length_mismatch_raises(self):
        design = design_of([8, 16])
        with pytest.raises(ValueError):
            FnasAnalyzer(strategies=[OFM_REUSE]).analyze(design)


class TestAnalyzerVsSimulator:
    """The analyzer is exact for stall-free FNAS schedules and a lower
    bound in general -- the paper's claimed tightness, checked against
    the event simulator."""

    def simulate(self, design, first_reuse=OFM_REUSE):
        graph = TaskGraphGenerator().generate(design)
        schedule = FnasScheduler(first_reuse=first_reuse).schedule(graph)
        return PipelineSimulator().run(schedule)

    def test_exact_on_paper_like_pipeline(self):
        design = design_of([8, 16, 8, 16])
        report = FnasAnalyzer().analyze(design)
        result = self.simulate(design)
        assert result.total_stall_cycles == 0
        assert report.total_cycles == result.makespan
        assert report.start_times == tuple(result.start_times)

    @settings(deadline=None, max_examples=20)
    @given(
        counts=st.lists(st.sampled_from([4, 8, 16, 32, 64]),
                        min_size=1, max_size=5),
        size=st.sampled_from([8, 14, 16, 28]),
        kernel=st.sampled_from([1, 3, 5]),
    )
    def test_lower_bound_property(self, counts, size, kernel):
        if kernel > size:
            return
        design = design_of(counts, size=size, kernel=kernel)
        report = FnasAnalyzer().analyze(design)
        result = self.simulate(design)
        assert report.total_cycles <= result.makespan

    @settings(deadline=None, max_examples=10)
    @given(
        counts=st.lists(st.sampled_from([9, 18, 36]), min_size=2,
                        max_size=4),
    )
    def test_exact_on_mnist_space_shapes(self, counts):
        design = design_of(counts, size=28, kernel=5)
        report = FnasAnalyzer().analyze(design)
        result = self.simulate(design)
        if result.total_stall_cycles == 0:
            assert report.total_cycles == result.makespan
        else:
            assert report.total_cycles <= result.makespan

    #: Wide-then-narrow channel transitions where the pre-fix analyzer
    #: under-counted the start deltas (the upstream spatial grid is
    #: finer than the downstream's first input window); pinned exact so
    #: the row/col prefix term of ``start_delta`` cannot regress.
    FORMER_START_DELTA_GAPS = (
        (36, 9, 9, 9),
        (36, 9, 9, 18),
        (36, 18, 9, 18),
    )

    @pytest.mark.parametrize("counts", FORMER_START_DELTA_GAPS)
    def test_wide_then_narrow_transitions_are_exact(self, counts):
        design = design_of(list(counts), size=28, kernel=5)
        report = FnasAnalyzer().analyze(design)
        result = self.simulate(design)
        assert result.total_stall_cycles == 0
        assert report.total_cycles == result.makespan
        assert report.start_times == tuple(result.start_times)


def oracle_start_delta(upstream, downstream, upstream_reuse, rc_mapping):
    """The scalar per-boundary start delta, term by term."""
    n_ifm_up = upstream.n_ifm_channel_tiles
    n_ofm_up = upstream.n_ofm_channel_tiles
    needed = min(math.ceil(downstream.tiling.tn / upstream.tiling.tm),
                 n_ofm_up)
    et_up = upstream.effective_execution_time
    if resolve_rc_mapping(upstream, downstream, rc_mapping) == "identity":
        last_rc = 0
    else:
        last_rc = max(rc_dependencies(upstream, downstream, 0))
    if upstream.spec.is_depthwise:
        return (last_rc * n_ofm_up + needed) * et_up
    rc_prefix = last_rc * n_ifm_up * n_ofm_up
    if upstream_reuse == OFM_REUSE:
        return (rc_prefix + n_ifm_up * needed) * et_up
    return (rc_prefix + (n_ifm_up - 1) * n_ofm_up + needed) * et_up


def stack_architectures(layers_per_arch, size):
    """Architectures from drawn ``(kernel, count, stride, type)`` layers."""
    architectures = []
    for layers in layers_per_arch:
        kernels, counts, strides, types = zip(*layers)
        architectures.append(Architecture.from_choices(
            kernels, counts, input_size=size, input_channels=3,
            strides=strides, conv_types=types,
        ))
    return architectures


def scalar_phases(layer, device):
    """The per-layer DRAM phases, from the scalar buffer model."""
    dram = device.dram
    return PhaseLatency(
        load_cycles=dram.transfer_cycles(
            layer.ifm_buffer_bytes + layer.weight_buffer_bytes,
            device.clock_mhz),
        compute_cycles=layer.execution_time,
        write_cycles=dram.transfer_cycles(layer.ofm_buffer_bytes,
                                          device.clock_mhz),
    )


class TestDesignTerms:
    """The array pass of :class:`StackedLatencies` over a whole stack of
    designs equals the scalar analyzer, term by term and report by
    report, for both spatial strategies and both first-reuse choices."""

    @settings(deadline=None, max_examples=60)
    @given(
        layers_per_arch=st.lists(
            st.lists(
                st.tuples(st.sampled_from([1, 3, 5, 7]),
                          st.sampled_from([4, 8, 9, 16, 18, 36, 64]),
                          st.sampled_from([1, 2]),
                          st.sampled_from(["standard", "separable"])),
                min_size=1, max_size=4),
            min_size=1, max_size=3),
        size=st.sampled_from([8, 14, 16, 28]),
        device=st.sampled_from([PYNQ_Z1, XC7Z020_DDR_NARROW]),
        rc_mapping=st.sampled_from(["auto", "identity", "overlap"]),
    )
    # A stride-2 boundary whose row/col grids match: "auto" must still
    # resolve it to overlap, where its last row/col tile is not 0.
    @example(layers_per_arch=[[(7, 18, 1, "standard"), (5, 64, 1, "standard"),
                               (7, 18, 2, "standard")]],
             size=28, device=PYNQ_Z1, rc_mapping="auto")
    def test_terms_equal_start_delta(self, layers_per_arch, size, device,
                                     rc_mapping):
        platform = Platform.single(device)
        stack = DesignStack(stack_architectures(layers_per_arch, size),
                            platform)
        latencies = StackedLatencies(stack, rc_mapping)
        assert len(stack) == 2 * len(layers_per_arch)
        for index in range(len(stack)):
            design = stack.design(index)
            strategy = stack.strategies[index % 2]
            architecture = stack.architectures[index // 2]
            assert design == TilingDesigner(strategy).design(architecture,
                                                             platform)
            start = int(stack.starts[index])
            for row, layer in enumerate(design.layers, start):
                if device.dram is None:
                    assert layer.phases is None
                else:
                    assert layer.phases == scalar_phases(layer, device)
                assert latencies.execution_time[row] == (
                    layer.effective_execution_time)
                assert latencies.processing_time[row] == (
                    layer.effective_processing_time)
            assert tuple(latencies.deltas[start]) == (0, 0)
            for row, (up, down) in enumerate(
                zip(design.layers, design.layers[1:]), start + 1
            ):
                for reuse, delta in zip((OFM_REUSE, IFM_REUSE),
                                        latencies.deltas[row]):
                    assert delta == FnasAnalyzer.start_delta(
                        up, down, reuse, rc_mapping)
                    assert delta == oracle_start_delta(up, down, reuse,
                                                       rc_mapping)
            for first, reuse in enumerate(FIRST_REUSE_CHOICES):
                strategies = alternating_strategies(len(design.layers),
                                                    first=reuse)
                assert latencies.report(index, first) == FnasAnalyzer(
                    strategies=strategies, rc_mapping=rc_mapping,
                ).analyze(design)

    def test_explorer_never_walks_row_col_dependencies(
        self, monkeypatch
    ):
        """The explorer never walks the row/col dependencies, yet its
        reports equal the scalar analyzer's, which does."""
        from repro.latency import analyzer as analyzer_mod

        calls = []
        real = analyzer_mod.rc_dependencies
        monkeypatch.setattr(
            analyzer_mod, "rc_dependencies",
            lambda up, down, tile: calls.append(1) or real(up, down, tile),
        )
        arch = Architecture.from_choices(
            [3, 3, 3], [8, 16, 8], input_size=16, strides=[1, 2, 1])
        result = DesignExplorer().explore(arch, Platform.single(PYNQ_Z1))
        assert len(result.evaluated) == 4
        assert calls == []
        designs = {id(choice.design): choice.design
                   for choice in result.evaluated}
        assert len(designs) == 2
        overlap_boundaries = sum(
            resolve_rc_mapping(up, down, "auto") == "overlap"
            for design in designs.values()
            for up, down in zip(design.layers, design.layers[1:])
        )
        assert overlap_boundaries > 0
        for choice in result.evaluated:
            strategies = alternating_strategies(arch.depth,
                                                first=choice.first_reuse)
            assert choice.report == FnasAnalyzer(
                strategies=strategies).analyze(choice.design)
        assert len(calls) == 2 * overlap_boundaries
