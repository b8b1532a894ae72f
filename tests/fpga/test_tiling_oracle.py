"""Whole-grid tiling selection against the scalar oracle.

The scalar candidate loops below are the original FNAS-Design
selection: one ``bram_usage`` call per channel and per spatial
candidate, first minimum in row-major order.  ``solve_tilings`` solves
the same selection for a whole batch of layer keys in one padded numpy
pass (closed-form ``Tn`` per ``Tm``, one broadcast ``(Tr, Tc)`` BRAM
grid per key, first lexicographic minimum); these properties hold it
equal to the loops, errors included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.architecture import ConvLayerSpec
from repro.fpga.tiling import (
    DOUBLE_BUFFER,
    WORD_BYTES,
    TilingDesigner,
    TilingVector,
    _KeyColumns,
    _spatial_tilings,
    _tile_size_candidates,
    solve_tilings,
)

STRATEGIES = ("max-reuse", "min-start")


# -- the scalar oracle -------------------------------------------------------

def bram_usage(spec, tm, tn, tr, tc):
    """Double-buffered bytes for a candidate tiling (mirrors LayerDesign)."""
    window_rows = tr * spec.stride + spec.kernel - 1
    window_cols = tc * spec.stride + spec.kernel - 1
    ifm = tn * window_rows * window_cols * WORD_BYTES
    ofm = tm * tr * tc * WORD_BYTES
    if spec.is_depthwise:
        wei = tn * spec.kernel * spec.kernel * WORD_BYTES
    else:
        wei = tm * tn * spec.kernel * spec.kernel * WORD_BYTES
    return DOUBLE_BUFFER * (ifm + ofm + wei)


def oracle_channel_tiling(spec, dsp_budget, bram_budget_bytes):
    if dsp_budget < 1:
        raise ValueError(f"dsp_budget must be >= 1, got {dsp_budget}")
    if spec.is_depthwise:
        return oracle_depthwise_channel_tiling(spec, dsp_budget,
                                               bram_budget_bytes)
    m, n = spec.out_channels, spec.in_channels
    best = None  # (waste, dsps, -tm, tm)
    best_tn = 1
    for tm in range(1, min(m, dsp_budget) + 1):
        tn = min(n, dsp_budget // tm)
        while tn >= 1 and bram_usage(spec, tm, tn, 1, 1) > bram_budget_bytes:
            tn -= 1
        if tn < 1:
            continue
        tiles = (-(-m // tm)) * (-(-n // tn))
        key = (tiles, tm * tn, -tm, tm)
        if best is None or key < best:
            best = key
            best_tn = tn
    if best is None:
        raise ValueError(
            f"no channel tiling fits BRAM budget {bram_budget_bytes}B for "
            f"layer {spec.kernel}x{spec.kernel}/{spec.out_channels} "
            "(even Tm=Tn=1 overflows)"
        )
    return best[3], best_tn


def oracle_depthwise_channel_tiling(spec, dsp_budget, bram_budget_bytes):
    c = spec.in_channels
    best = None  # (tiles, t)
    for t in range(1, min(c, dsp_budget) + 1):
        if bram_usage(spec, t, t, 1, 1) > bram_budget_bytes:
            break
        key = (-(-c // t), t)
        if best is None or key < best:
            best = key
    if best is None:
        raise ValueError(
            f"no channel tiling fits BRAM budget {bram_budget_bytes}B for "
            f"depthwise layer {spec.kernel}x{spec.kernel}/"
            f"{spec.out_channels} (even T=1 overflows)"
        )
    return best[1], best[1]


def oracle_spatial_tiling(spec, tm, tn, bram_budget_bytes, strategy):
    r, c = spec.out_rows, spec.out_cols
    feasible = [
        (tr, tc)
        for tr in _tile_size_candidates(r)
        for tc in _tile_size_candidates(c)
        if bram_usage(spec, tm, tn, tr, tc) <= bram_budget_bytes
    ]
    if not feasible:
        raise ValueError(
            f"no spatial tiling fits BRAM budget {bram_budget_bytes}B for "
            f"layer {spec.kernel}x{spec.kernel}/{spec.out_channels} "
            f"(even 1x1 tiles overflow)"
        )

    def score(rc):
        tr, tc = rc
        tiles = (-(-r // tr)) * (-(-c // tc))
        if strategy == "max-reuse":
            return (-(tr * tc), tiles, abs(tr - tc))
        return (tiles * tr * tc - r * c, tr * tc, abs(tr - tc))

    return min(feasible, key=score)


def oracle_design_layer(spec, dsp_budget, bram_budget_bytes, strategy):
    tm, tn = oracle_channel_tiling(spec, dsp_budget, bram_budget_bytes)
    tr, tc = oracle_spatial_tiling(spec, tm, tn, bram_budget_bytes, strategy)
    return TilingVector(tm=tm, tn=tn, tr=tr, tc=tc)


def outcome(fn, *args):
    """``fn(*args)``, or the ValueError it raised as a comparable value."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def solved_channel_tiling(spec, dsp_budget, bram_budget_bytes):
    """``(Tm, Tn)`` of a one-key batched solve."""
    tiling = solve_tilings([(spec, dsp_budget, bram_budget_bytes)])[0]
    return tiling["max-reuse"].tm, tiling["max-reuse"].tn


def solved_spatial_tilings(spec, tm, tn, bram_budget_bytes):
    """``{strategy: (Tr, Tc)}`` of the batched spatial stage for any
    ``(Tm, Tn)``, or None when no spatial tile fits."""
    chosen, fits = _spatial_tilings(
        _KeyColumns([(spec, 1, bram_budget_bytes)]),
        np.array([tm]), np.array([tn]),
    )
    if not fits[0]:
        return None
    return {strategy: (int(tr[0]), int(tc[0]))
            for strategy, (tr, tc) in chosen.items()}


def oracle_batch(keys):
    """The scalar loops over a batch: the first failing key's error."""
    return [
        {strategy: oracle_design_layer(*key, strategy)
         for strategy in STRATEGIES}
        for key in keys
    ]


# -- inputs ------------------------------------------------------------------

@st.composite
def layer_specs(draw):
    """Standard, pointwise and depthwise layers, kernels 1/3/5/7,
    strides 1/2, square and non-square maps."""
    family = draw(st.sampled_from(["standard", "pointwise", "depthwise"]))
    kernel = 1 if family == "pointwise" else draw(st.sampled_from([1, 3, 5, 7]))
    rows = draw(st.integers(kernel, 40))
    cols = draw(st.sampled_from([rows, draw(st.integers(kernel, 40))]))
    n = draw(st.integers(1, 96))
    m = n if family == "depthwise" else draw(st.integers(1, 96))
    return ConvLayerSpec(
        in_channels=n, out_channels=m, kernel=kernel,
        in_rows=rows, in_cols=cols,
        stride=draw(st.sampled_from([1, 2])),
        kind="depthwise" if family == "depthwise" else "standard",
    )


dsp_budgets = st.integers(1, 700)
#: Budgets from "nothing fits" to "everything fits".
bram_budgets = st.one_of(st.integers(1, 4096), st.integers(4096, 600_000))


# -- properties --------------------------------------------------------------

class TestWholeGridMatchesScalarOracle:
    @settings(deadline=None, max_examples=300)
    @given(spec=layer_specs(), dsp=dsp_budgets, bram=bram_budgets)
    def test_design_layer(self, spec, dsp, bram):
        for strategy in STRATEGIES:
            designer = TilingDesigner(spatial_strategy=strategy)
            assert (outcome(designer.design_layer, spec, dsp, bram)
                    == outcome(oracle_design_layer, spec, dsp, bram, strategy))

    @settings(deadline=None, max_examples=300)
    @given(spec=layer_specs(), dsp=st.integers(-2, 700), bram=bram_budgets)
    def test_channel_tiling(self, spec, dsp, bram):
        assert (outcome(solved_channel_tiling, spec, dsp, bram)
                == outcome(oracle_channel_tiling, spec, dsp, bram))

    @settings(deadline=None, max_examples=300)
    @given(spec=layer_specs(), bram=bram_budgets, data=st.data())
    def test_spatial_tilings_for_any_channel_tile(self, spec, bram, data):
        """Every (Tm, Tn), not only the chosen one: this reaches the
        spatial grid's own "even 1x1 tiles overflow" error."""
        tm = data.draw(st.integers(1, spec.out_channels))
        tn = tm if spec.is_depthwise else data.draw(
            st.integers(1, spec.in_channels))
        chosen = solved_spatial_tilings(spec, tm, tn, bram)
        for strategy in STRATEGIES:
            expected = outcome(oracle_spatial_tiling, spec, tm, tn, bram,
                               strategy)
            if isinstance(expected, tuple) and expected[0] == "ValueError":
                assert chosen is None
            else:
                assert chosen[strategy] == expected

    @settings(deadline=None, max_examples=150)
    @given(spec=layer_specs(), dsp=dsp_budgets, data=st.data())
    def test_infeasible_budgets_raise_the_same_error(self, spec, dsp, data):
        """Below the 1x1, single-channel footprint nothing fits."""
        floor = bram_usage(spec, 1, 1, 1, 1)
        bram = data.draw(st.integers(0, floor - 1))
        for strategy in STRATEGIES:
            designer = TilingDesigner(spatial_strategy=strategy)
            with pytest.raises(ValueError, match="BRAM") as got:
                designer.design_layer(spec, dsp, bram)
            with pytest.raises(ValueError) as want:
                oracle_design_layer(spec, dsp, bram, strategy)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kind", ["standard", "depthwise"])
    def test_tie_breaks_pick_the_first_row_major_minimum(self, kind):
        """Square maps tie (Tr, Tc) with (Tc, Tr) on every key; the
        stable sort must keep the loop's first (smaller Tr) choice."""
        spec = ConvLayerSpec(in_channels=16, out_channels=16, kernel=3,
                             in_rows=12, in_cols=12, kind=kind)
        for bram in range(200, 12_000, 97):
            for strategy in STRATEGIES:
                designer = TilingDesigner(spatial_strategy=strategy)
                assert (outcome(designer.design_layer, spec, 64, bram)
                        == outcome(oracle_design_layer, spec, 64, bram,
                                   strategy))


class TestBatchedSolveMatchesScalarOracle:
    """One batch of many keys equals the loops run key by key."""

    @settings(deadline=None, max_examples=150)
    @given(
        keys=st.lists(
            st.tuples(layer_specs(), st.integers(1, 700),
                      st.integers(4096, 600_000)),
            min_size=1, max_size=12,
        ),
        data=st.data(),
    )
    def test_mixed_batches(self, keys, data):
        """Standard, pointwise and depthwise keys with mixed budgets,
        and duplicate keys, in one solve."""
        keys = keys + data.draw(st.lists(st.sampled_from(keys), max_size=4))
        keys = data.draw(st.permutations(keys))
        assert outcome(solve_tilings, keys) == outcome(oracle_batch, keys)

    @settings(deadline=None, max_examples=100)
    @given(
        keys=st.lists(
            st.tuples(layer_specs(), st.integers(-2, 700),
                      bram_budgets),
            min_size=1, max_size=8,
        ),
    )
    def test_infeasible_key_raises_the_first_error_in_input_order(
        self, keys
    ):
        """Budgets from "nothing fits" up: the batch raises exactly the
        error the first failing key raises on its own."""
        assert outcome(solve_tilings, keys) == outcome(oracle_batch, keys)

    def test_each_key_is_the_one_key_solve(self):
        """Padding to the batch's widest ``Tm`` column and candidate
        grid leaves every key's choice as it is alone."""
        keys = [
            (ConvLayerSpec(3, 512, 7, 224, 224, stride=2), 900, 400_000),
            (ConvLayerSpec(64, 64, 3, 5, 7, kind="depthwise"), 40, 9_000),
            (ConvLayerSpec(1, 1, 1, 1, 1), 1, 64),
            (ConvLayerSpec(96, 16, 1, 13, 13), 2, 5_000),
        ]
        batched = solve_tilings(keys)
        assert batched == [solve_tilings([key])[0] for key in keys]
        assert batched == oracle_batch(keys)
