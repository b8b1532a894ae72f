"""Tests for FNAS-Design tiling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.architecture import Architecture, ConvLayerSpec
from repro.fpga.device import PYNQ_Z1
from repro.fpga.platform import Platform
from repro.fpga.tiling import (
    DOUBLE_BUFFER,
    WORD_BYTES,
    LayerDesign,
    TilingDesigner,
    TilingVector,
    _tile_size_candidates,
)


def spec_of(n=8, m=16, k=3, size=16, stride=1):
    return ConvLayerSpec(in_channels=n, out_channels=m, kernel=k,
                         in_rows=size, in_cols=size, stride=stride)


class TestTilingVector:
    def test_dsps(self):
        assert TilingVector(tm=4, tn=3, tr=2, tc=2).dsps == 12

    @pytest.mark.parametrize("field", ["tm", "tn", "tr", "tc"])
    def test_rejects_non_positive(self, field):
        kwargs = dict(tm=1, tn=1, tr=1, tc=1)
        kwargs[field] = 0
        with pytest.raises(ValueError):
            TilingVector(**kwargs)


class TestLayerDesign:
    def test_tile_counts(self):
        design = LayerDesign(0, spec_of(n=8, m=16, size=16),
                             TilingVector(tm=5, tn=3, tr=4, tc=8))
        assert design.n_ifm_channel_tiles == 3   # ceil(8/3)
        assert design.n_ofm_channel_tiles == 4   # ceil(16/5)
        assert design.n_row_tiles == 4
        assert design.n_col_tiles == 2
        assert design.n_rc_tiles == 8
        assert design.task_count == 3 * 4 * 8

    def test_execution_time_formula(self):
        design = LayerDesign(0, spec_of(k=3), TilingVector(2, 2, 4, 5))
        assert design.execution_time == 3 * 3 * 4 * 5

    def test_processing_time_is_et_times_tasks(self):
        design = LayerDesign(0, spec_of(), TilingVector(4, 4, 4, 4))
        assert design.processing_time == (
            design.execution_time * design.task_count
        )

    def test_processing_time_covers_all_macs(self):
        """PT x (Tm*Tn MACs/cycle) >= layer MACs (equality if no ceil waste)."""
        spec = spec_of(n=8, m=16, k=3, size=16)
        design = LayerDesign(0, spec, TilingVector(tm=8, tn=8, tr=16, tc=16))
        assert design.processing_time * design.tiling.dsps == spec.macs

    def test_buffer_sizes(self):
        spec = spec_of(n=8, m=16, k=3, size=16, stride=1)
        design = LayerDesign(0, spec, TilingVector(tm=2, tn=3, tr=4, tc=4))
        assert design.ifm_buffer_bytes == 3 * 6 * 6 * WORD_BYTES
        assert design.ofm_buffer_bytes == 2 * 4 * 4 * WORD_BYTES
        assert design.weight_buffer_bytes == 2 * 3 * 3 * 3 * WORD_BYTES
        assert design.bram_bytes == DOUBLE_BUFFER * (
            design.ifm_buffer_bytes + design.ofm_buffer_bytes
            + design.weight_buffer_bytes
        )

    @pytest.mark.parametrize("tiling,msg", [
        (TilingVector(tm=99, tn=1, tr=1, tc=1), "Tm"),
        (TilingVector(tm=1, tn=99, tr=1, tc=1), "Tn"),
        (TilingVector(tm=1, tn=1, tr=99, tc=1), "Tr"),
        (TilingVector(tm=1, tn=1, tr=1, tc=99), "Tc"),
    ])
    def test_rejects_oversized_tiles(self, tiling, msg):
        with pytest.raises(ValueError, match=msg):
            LayerDesign(0, spec_of(), tiling)


class TestTilingDesigner:
    def test_respects_dsp_budget(self, designer):
        spec = spec_of(n=32, m=64)
        tiling = designer.design_layer(spec, dsp_budget=50,
                                       bram_budget_bytes=10**6)
        assert tiling.dsps <= 50

    def test_respects_bram_budget(self, designer):
        spec = spec_of(n=32, m=64, size=32)
        budget = 20_000
        tiling = designer.design_layer(spec, dsp_budget=100,
                                       bram_budget_bytes=budget)
        design = LayerDesign(0, spec, tiling)
        assert design.bram_bytes <= budget

    def test_raises_when_nothing_fits(self, designer):
        spec = spec_of(n=32, m=64, k=7)
        with pytest.raises(ValueError, match="BRAM"):
            designer.design_layer(spec, dsp_budget=100, bram_budget_bytes=64)

    def test_channel_tiling_minimises_waste(self, designer):
        # 8 in / 16 out with 64 DSPs: Tm=8, Tn=8 gives zero ceil waste.
        spec = spec_of(n=8, m=16)
        tiling = designer.design_layer(spec, dsp_budget=64,
                                       bram_budget_bytes=10**6)
        tiles = (-(-16 // tiling.tm)) * (-(-8 // tiling.tn))
        assert tiles == 2  # optimal: ceil(16/8) * ceil(8/8)

    def test_strategies_produce_valid_designs(self):
        for strategy in ("max-reuse", "min-start"):
            designer = TilingDesigner(spatial_strategy=strategy)
            spec = spec_of(n=8, m=16, size=28)
            tiling = designer.design_layer(spec, 64, 10**6)
            LayerDesign(0, spec, tiling)  # validates

    def test_min_start_tiles_not_larger_than_max_reuse(self):
        spec = spec_of(n=8, m=16, size=28)
        big = TilingDesigner("max-reuse").design_layer(spec, 64, 10**6)
        small = TilingDesigner("min-start").design_layer(spec, 64, 10**6)
        assert small.tr * small.tc <= big.tr * big.tc

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="spatial_strategy"):
            TilingDesigner(spatial_strategy="bogus")

    def test_rejects_zero_dsp_budget(self, designer):
        with pytest.raises(ValueError):
            designer.design_layer(spec_of(), 0, 10**6)

    def test_full_pipeline_design(self, designer, mnist_arch, pynq_platform):
        design = designer.design(mnist_arch, pynq_platform)
        assert len(design.layers) == mnist_arch.depth
        assert design.total_dsps_used <= pynq_platform.total_dsps
        for idx, layer_design in enumerate(design.layers):
            assert layer_design.layer_index == idx
            assert layer_design.spec is mnist_arch.layers[idx]

    def test_pipeline_respects_per_pe_budgets(self, designer, mnist_arch,
                                              pynq_platform):
        design = designer.design(mnist_arch, pynq_platform)
        for layer_design, allocation in zip(design.layers, design.allocations):
            assert layer_design.tiling.dsps <= allocation.dsp_budget
            assert layer_design.bram_bytes <= allocation.bram_budget_bytes

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(1, 64),
        m=st.integers(1, 64),
        k=st.sampled_from([1, 3, 5, 7]),
        size=st.integers(7, 32),
        dsp=st.integers(4, 300),
    )
    def test_designed_layers_always_satisfy_constraints(self, n, m, k, size, dsp):
        if k > size:
            return
        spec = ConvLayerSpec(in_channels=n, out_channels=m, kernel=k,
                             in_rows=size, in_cols=size)
        designer = TilingDesigner()
        bram = 256 * 1024
        tiling = designer.design_layer(spec, dsp, bram)
        design = LayerDesign(0, spec, tiling)
        assert tiling.dsps <= dsp
        assert design.bram_bytes <= bram
        assert tiling.tm <= m and tiling.tn <= n
        assert tiling.tr <= spec.out_rows and tiling.tc <= spec.out_cols


class TestTileCandidates:
    def test_includes_divisors(self):
        assert _tile_size_candidates(12) == [1, 2, 3, 4, 6, 12]

    def test_prime_extent_gets_mid_range_options(self):
        assert _tile_size_candidates(13) == [1, 4, 5, 7, 13]

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            _tile_size_candidates(0)


class TestBothStrategiesPerMiss:
    """A memo miss solves both spatial strategies from one grid."""

    @pytest.fixture(autouse=True)
    def fresh_process_stats(self):
        from repro.fpga import tiling as tiling_mod

        tiling_mod.reset_process_memo_stats()
        yield
        tiling_mod.reset_process_memo_stats()

    @pytest.mark.parametrize("first,second", [
        ("max-reuse", "min-start"),
        ("min-start", "max-reuse"),
    ])
    def test_other_strategy_hits_after_a_miss(self, first, second):
        from repro.fpga.tiling import LayerDesignMemo, process_memo_snapshot

        memo = LayerDesignMemo()
        spec = spec_of(n=8, m=16, size=28)
        TilingDesigner(first, memo=memo).design_layer(spec, 64, 10**6)
        assert (memo.stats.hits, memo.stats.misses) == (0, 1)
        assert len(memo) == 2

        tiling = TilingDesigner(second, memo=memo).design_layer(spec, 64, 10**6)
        assert tiling == TilingDesigner(second).design_layer(spec, 64, 10**6)
        assert (memo.stats.hits, memo.stats.misses) == (1, 1)
        assert memo.stats.hits + memo.stats.misses == memo.stats.lookups == 2
        bucket = memo.kind_stats["standard"]
        assert (bucket.hits, bucket.misses) == (1, 1)
        snapshot = process_memo_snapshot()
        for kind in ("all", "standard"):
            assert snapshot[kind] == {"hits": 1, "misses": 1, "hit_rate": 0.5}
        assert "disk" not in snapshot

    def test_one_call_counts_like_lookups_in_a_row(self):
        """``tilings`` over many lookups counts each as the lookup-then-
        solve sequence would: a repeat of a missed key, under either
        strategy, is a hit."""
        from repro.fpga.tiling import LayerDesignMemo, process_memo_snapshot

        standard = (spec_of(n=8, m=16, size=28), 64, 10**6)
        pointwise = (spec_of(n=8, m=16, size=14, k=1), 32, 10**5)
        lookups = [(standard, "max-reuse"), (pointwise, "min-start"),
                   (standard, "min-start"), (standard, "max-reuse"),
                   (pointwise, "max-reuse")]
        memo = LayerDesignMemo()
        found = memo.tilings(lookups)
        assert (memo.stats.hits, memo.stats.misses) == (3, 2)
        assert {kind: (stats.hits, stats.misses)
                for kind, stats in memo.kind_stats.items()} == {
            "standard": (2, 1), "pointwise": (1, 1)}
        assert process_memo_snapshot()["all"] == {
            "hits": 3, "misses": 2, "hit_rate": 0.6}
        assert len(memo) == 4
        for (key, strategy) in lookups:
            assert found[(key, strategy)] == TilingDesigner(
                strategy).design_layer(*key)
        memo.tilings(lookups)
        assert (memo.stats.hits, memo.stats.misses) == (8, 2)

    def test_explorer_solves_each_layer_once(self, mnist_arch, pynq_platform):
        """The explorer's second designer is answered by the memo."""
        from repro.fpga.tiling import LayerDesignMemo, process_memo_snapshot
        from repro.latency.explorer import DesignExplorer

        memo = LayerDesignMemo()
        DesignExplorer(memo=memo).explore(mnist_arch, pynq_platform)
        depth = mnist_arch.depth
        assert (memo.stats.hits, memo.stats.misses) == (depth, depth)
        assert process_memo_snapshot()["all"]["misses"] == depth
