"""FNAS-Design: tiling parameter selection (paper Section 3.3).

An FPGA cannot hold a whole convolutional layer, so each layer is split
into tiles along four dimensions, giving the design vector
``<Tm, Tn, Tr, Tc>``:

* ``Tn`` -- input feature-map (IFM) channels per tile; the IFM is cut
  into ``ceil(N / Tn)`` channel tiles,
* ``Tm`` -- output feature-map (OFM) channels per tile, ``ceil(M / Tm)``
  channel tiles,
* ``Tr``, ``Tc`` -- OFM rows/columns per tile, ``ceil(R/Tr) * ceil(C/Tc)``
  row/col tiles.

A processing element built from ``Tm x Tn`` DSP slices executes one
*task* -- one (IFM-channel-tile, OFM-channel-tile, row/col-tile) triple --
in ``Kh * Kw * Tr * Tc`` cycles (Zhang et al., FPGA'15 unrolling).

This module selects the vector per layer given a PE's DSP and BRAM
budget.  Channel tiling is chosen to minimise the layer's total compute
cycles (equivalently the ceil-division waste) under the DSP constraint;
spatial tiling maximises the tile area that still fits the double-
buffered on-chip buffers, which maximises data reuse (design principle
P2) at the cost of a slightly later downstream start -- the
:class:`~repro.latency.explorer.DesignExplorer` can revisit that
trade-off with the full analytical model in the loop.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.architecture import Architecture, ConvLayerSpec
from repro.fpga.dram import PhaseLatency
from repro.fpga.platform import PeAllocation, Platform

#: bytes per fixed-point feature/weight word (the paper uses 16-bit).
WORD_BYTES = 2

#: double-buffering factor: compute on one buffer while loading the next.
DOUBLE_BUFFER = 2


@dataclass(frozen=True)
class TilingVector:
    """The raw ``<Tm, Tn, Tr, Tc>`` design parameters for one layer."""

    tm: int
    tn: int
    tr: int
    tc: int

    def __post_init__(self) -> None:
        for attr in ("tm", "tn", "tr", "tc"):
            value = getattr(self, attr)
            if value <= 0:
                raise ValueError(f"{attr} must be positive, got {value}")

    @property
    def dsps(self) -> int:
        """DSP slices consumed: the PE unrolls ``Tm x Tn`` MACs."""
        return self.tm * self.tn


@dataclass(frozen=True)
class LayerDesign:
    """A layer bound to a PE with a concrete tiling vector.

    All tile-count and timing quantities used by FNAS-GG, FNAS-Sched and
    FNAS-Analyzer are derived here once.
    """

    layer_index: int
    spec: ConvLayerSpec
    tiling: TilingVector
    phases: PhaseLatency | None = None

    def __post_init__(self) -> None:
        if self.spec.is_depthwise and self.tiling.tm != self.tiling.tn:
            raise ValueError(
                f"layer {self.layer_index}: depthwise tiling needs Tm == Tn, "
                f"got Tm={self.tiling.tm} Tn={self.tiling.tn}"
            )
        if self.tiling.tm > self.spec.out_channels:
            raise ValueError(
                f"layer {self.layer_index}: Tm {self.tiling.tm} exceeds "
                f"out_channels {self.spec.out_channels}"
            )
        if self.tiling.tn > self.spec.in_channels:
            raise ValueError(
                f"layer {self.layer_index}: Tn {self.tiling.tn} exceeds "
                f"in_channels {self.spec.in_channels}"
            )
        if self.tiling.tr > self.spec.out_rows:
            raise ValueError(
                f"layer {self.layer_index}: Tr {self.tiling.tr} exceeds "
                f"out_rows {self.spec.out_rows}"
            )
        if self.tiling.tc > self.spec.out_cols:
            raise ValueError(
                f"layer {self.layer_index}: Tc {self.tiling.tc} exceeds "
                f"out_cols {self.spec.out_cols}"
            )

    # -- tile counts (paper's |CH_ifm|, |CH_ofm|, |RC|) ---------------------

    @property
    def n_ifm_channel_tiles(self) -> int:
        """``ceil(N / Tn)`` -- IFM channel tiles."""
        return -(-self.spec.in_channels // self.tiling.tn)

    @property
    def n_ofm_channel_tiles(self) -> int:
        """``ceil(M / Tm)`` -- OFM channel tiles."""
        return -(-self.spec.out_channels // self.tiling.tm)

    @property
    def n_row_tiles(self) -> int:
        """``ceil(R / Tr)``."""
        return -(-self.spec.out_rows // self.tiling.tr)

    @property
    def n_col_tiles(self) -> int:
        """``ceil(C / Tc)``."""
        return -(-self.spec.out_cols // self.tiling.tc)

    @property
    def n_rc_tiles(self) -> int:
        """``ceil(R/Tr) * ceil(C/Tc)`` -- row/col tiles (paper's ``|RC|``)."""
        return self.n_row_tiles * self.n_col_tiles

    @property
    def task_count(self) -> int:
        """Tasks executed by this PE per inference.

        Depthwise layers have no channel reduction: each channel tile is
        both the input and the output of its tasks, so the counts do not
        multiply.
        """
        if self.spec.is_depthwise:
            return self.n_ofm_channel_tiles * self.n_rc_tiles
        return (self.n_ifm_channel_tiles * self.n_ofm_channel_tiles
                * self.n_rc_tiles)

    @property
    def dsps(self) -> int:
        """DSP slices this PE consumes.

        A standard PE unrolls ``Tm x Tn`` MACs; a depthwise PE has one
        multiplier lane per channel (``Tm``), there is no cross-channel
        reduction tree to feed.
        """
        if self.spec.is_depthwise:
            return self.tiling.tm
        return self.tiling.dsps

    # -- timing -------------------------------------------------------------

    @property
    def execution_time(self) -> int:
        """Cycles for one task: ``Kh * Kw * Tr * Tc`` (paper's ``ET_i``)."""
        return (self.spec.kernel * self.spec.kernel
                * self.tiling.tr * self.tiling.tc)

    @property
    def processing_time(self) -> int:
        """Cycles to process the whole layer (paper's ``PT_i``).

        Equation (2) of the paper writes ``ET x |CH_ifm| x |CH_ofm|``;
        the row/col tile count is required for the totals to equal the
        layer's MAC workload divided by the PE's MAC throughput (as the
        example graph in Figure 3(e) shows), so it is included here.
        """
        return self.execution_time * self.task_count

    @property
    def effective_execution_time(self) -> int:
        """Steady-state cycles per task under phase overlap.

        Without a :class:`~repro.fpga.dram.PhaseLatency` attached (the
        flat-bandwidth memory model) this *is* ``execution_time``, which
        is what keeps DRAM-less devices byte-identical to the seed; with
        one, a task costs ``max(load, compute, write)`` because the
        double-buffered phases of consecutive tasks overlap.
        """
        if self.phases is None:
            return self.execution_time
        return self.phases.effective_cycles

    @property
    def effective_processing_time(self) -> int:
        """Whole-layer cycles under phase overlap."""
        return self.effective_execution_time * self.task_count

    # -- memory -------------------------------------------------------------

    @property
    def ifm_buffer_bytes(self) -> int:
        """On-chip IFM tile buffer: ``Tn`` channels of the input window."""
        window_rows = self.tiling.tr * self.spec.stride + self.spec.kernel - 1
        window_cols = self.tiling.tc * self.spec.stride + self.spec.kernel - 1
        return self.tiling.tn * window_rows * window_cols * WORD_BYTES

    @property
    def ofm_buffer_bytes(self) -> int:
        """On-chip OFM tile buffer."""
        return self.tiling.tm * self.tiling.tr * self.tiling.tc * WORD_BYTES

    @property
    def weight_buffer_bytes(self) -> int:
        """On-chip weight buffer for one task's filter block.

        ``Tm x Tn`` filters for a standard conv; one ``KxK`` filter per
        channel lane (``Tn``) for depthwise.
        """
        if self.spec.is_depthwise:
            return (self.tiling.tn
                    * self.spec.kernel * self.spec.kernel * WORD_BYTES)
        return (self.tiling.tm * self.tiling.tn
                * self.spec.kernel * self.spec.kernel * WORD_BYTES)

    @property
    def bram_bytes(self) -> int:
        """Total double-buffered on-chip storage for this PE."""
        return DOUBLE_BUFFER * (
            self.ifm_buffer_bytes + self.ofm_buffer_bytes
            + self.weight_buffer_bytes
        )

    @property
    def task_data_bytes(self) -> int:
        """Off-chip bytes moved per task with no reuse (worst case)."""
        return (self.ifm_buffer_bytes + self.ofm_buffer_bytes
                + self.weight_buffer_bytes)


@dataclass(frozen=True)
class PipelineDesign:
    """A full per-layer-PE design for an architecture on a platform."""

    architecture: Architecture
    platform: Platform
    layers: tuple[LayerDesign, ...]
    allocations: tuple[PeAllocation, ...]

    def __post_init__(self) -> None:
        if len(self.layers) != self.architecture.depth:
            raise ValueError(
                f"{len(self.layers)} layer designs for a depth-"
                f"{self.architecture.depth} architecture"
            )

    @property
    def total_dsps_used(self) -> int:
        """DSPs consumed by all PEs (kind-aware: depthwise PEs use Tm)."""
        return sum(d.dsps for d in self.layers)

    def layer(self, index: int) -> LayerDesign:
        """The design of layer ``index``."""
        return self.layers[index]


@dataclass
class MemoStats:
    """Hit/miss counters for a design-reuse memo."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total memo queries."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the memo (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


#: Process-wide tiling-memo counters, keyed by layer-kind bucket plus an
#: ``"all"`` total.  Every :class:`LayerDesignMemo` bumps these alongside
#: its own counters, so the service front ends can report estimator
#: cache behavior in ``/metrics`` without holding references to the
#: per-job estimators that own the memos.
PROCESS_MEMO_STATS: dict[str, MemoStats] = {}

_PROCESS_STATS_LOCK = threading.Lock()


def process_memo_snapshot() -> dict[str, dict[str, float]]:
    """JSON-ready view of the process-wide tiling-memo counters."""
    with _PROCESS_STATS_LOCK:
        return {
            kind: {
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": round(stats.hit_rate, 4),
            }
            for kind, stats in sorted(PROCESS_MEMO_STATS.items())
        }


def reset_process_memo_stats() -> None:
    """Zero the process-wide counters (test isolation)."""
    with _PROCESS_STATS_LOCK:
        PROCESS_MEMO_STATS.clear()


def _bump_process_stats(counts: dict[str, MemoStats]) -> None:
    """Add one call's counts per kind, and to the ``"all"`` bucket.

    A bucket appears once it has been consulted.
    """
    with _PROCESS_STATS_LOCK:
        for kind, delta in counts.items():
            for bucket in ("all", kind):
                stats = PROCESS_MEMO_STATS.setdefault(bucket, MemoStats())
                stats.hits += delta.hits
                stats.misses += delta.misses


#: Everything tiling selection depends on apart from the spatial
#: strategy: ``(layer spec, DSP budget, BRAM budget in bytes)``.
LayerKey = tuple[ConvLayerSpec, int, int]

#: One memo lookup: a layer key and the spatial strategy asked for.
Lookup = tuple[LayerKey, str]

#: Every spatial strategy, in the order the explorer evaluates them.
SPATIAL_STRATEGIES = ("max-reuse", "min-start")


@dataclass
class LayerDesignMemo:
    """Shared memo of per-layer tiling decisions.

    Tiling selection is a pure function of the layer spec, the PE's
    resource budgets and the spatial strategy -- and architectures in a
    search run share most layer configurations -- so one memo shared
    across designs lets every new architecture reuse the tiling work
    done for fingerprints seen earlier.  This is the layer-level tier of
    the latency estimator's two-tier cache.

    Counters mean one lookup per (layer occurrence, spatial strategy),
    however many lookups one call resolves.  Thread-safe: the dict and
    its counters mutate only under an internal lock.  Entries are values
    of a pure function, so a race on the same key stores the same tiling
    twice -- harmless.
    """

    stats: MemoStats = field(default_factory=MemoStats)
    kind_stats: dict[str, MemoStats] = field(default_factory=dict)
    _memo: dict[Lookup, TilingVector] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @staticmethod
    def _kind_bucket(spec: ConvLayerSpec) -> str:
        """Counter bucket for a layer: standard / pointwise / depthwise.

        Pointwise (1x1 standard) convs are counted apart from general
        standard convs so the MobileNet dw/pw path is observable in
        ``/metrics`` without inspecting tilings.
        """
        if spec.is_depthwise:
            return "depthwise"
        if spec.kernel == 1:
            return "pointwise"
        return "standard"

    def __len__(self) -> int:
        with self._lock:
            return len(self._memo)

    def clear(self) -> None:
        """Drop all memoised tilings (counters are kept)."""
        with self._lock:
            self._memo.clear()

    def tilings(self, lookups: list[Lookup]) -> dict[Lookup, TilingVector]:
        """The tiling of every lookup, solving all misses in one pass.

        The lookups count as that many single lookups in a row would,
        each miss followed by a solve that stores every strategy: a
        later lookup of a key an earlier one missed is a hit.  The
        misses are then solved together by :func:`solve_tilings` and
        stored.
        """
        found, pending = self._consult(Counter(lookups))
        if pending:
            solved = [
                ((key, strategy), tiling)
                for key, tilings in zip(pending, solve_tilings(pending))
                for strategy, tiling in tilings.items()
            ]
            with self._lock:
                self._memo.update(solved)
            found.update(solved)
        return found

    def _consult(
        self, occurrences: dict[Lookup, int]
    ) -> tuple[dict[Lookup, TilingVector], list[LayerKey]]:
        """Answer lookups from the memo and count them.

        ``occurrences`` maps each distinct lookup, in first-occurrence
        order, to how often it occurs.  Only a first occurrence can
        miss: after it the lookup was found or its key solved.  Returns
        the tilings found and the keys left to solve, in first-miss
        order, and bumps every counter once under one lock.
        """
        pending: dict[LayerKey, None] = {}
        counts: dict[str, MemoStats] = {}
        with self._lock:
            memo = self._memo
            found = {}
            for lookup, repeats in occurrences.items():
                key = lookup[0]
                bucket = counts.setdefault(self._kind_bucket(key[0]),
                                           MemoStats())
                tiling = memo.get(lookup)
                if tiling is not None:
                    found[lookup] = tiling
                    bucket.hits += repeats
                elif key in pending:
                    bucket.hits += repeats
                else:
                    bucket.misses += 1
                    bucket.hits += repeats - 1
                    pending[key] = None
            for kind, delta in counts.items():
                bucket = self.kind_stats.setdefault(kind, MemoStats())
                for stats in (self.stats, bucket):
                    stats.hits += delta.hits
                    stats.misses += delta.misses
        _bump_process_stats(counts)
        return found, list(pending)


def resolve_tilings(
    lookups: list[Lookup], memo: LayerDesignMemo | None = None
) -> dict[Lookup, TilingVector]:
    """The tiling of every ``(layer key, strategy)`` lookup.

    Through ``memo`` when given; otherwise every distinct key is solved
    in one :func:`solve_tilings` pass.
    """
    if memo is not None:
        return memo.tilings(lookups)
    keys = list(dict.fromkeys(key for key, _ in lookups))
    return {
        (key, strategy): tiling
        for key, tilings in zip(keys, solve_tilings(keys))
        for strategy, tiling in tilings.items()
    }


class TilingDesigner:
    """Selects ``<Tm, Tn, Tr, Tc>`` per layer (the FNAS-Design component).

    Parameters:
        spatial_strategy: ``"max-reuse"`` picks the largest BRAM-fitting
            spatial tile (paper default); ``"min-start"`` picks the
            smallest useful tile, which shortens downstream start times
            at the cost of more ceil waste.  Both are exact w.r.t. the
            constraints; the latency analyzer arbitrates between them in
            :class:`~repro.latency.explorer.DesignExplorer`.
        memo: optional :class:`LayerDesignMemo` shared with other
            designers; repeated layer shapes then skip the tiling search.
    """

    def __init__(
        self,
        spatial_strategy: str = "max-reuse",
        memo: LayerDesignMemo | None = None,
    ):
        if spatial_strategy not in SPATIAL_STRATEGIES:
            raise ValueError(
                f"unknown spatial_strategy {spatial_strategy!r}; expected "
                "'max-reuse' or 'min-start'"
            )
        self.spatial_strategy = spatial_strategy
        self.memo = memo

    def design(
        self, architecture: Architecture, platform: Platform
    ) -> PipelineDesign:
        """Produce a full pipeline design for ``architecture`` on ``platform``."""
        stack = DesignStack([architecture], platform,
                            (self.spatial_strategy,), self.memo)
        return stack.design(0)

    def design_layer(
        self, spec: ConvLayerSpec, dsp_budget: int, bram_budget_bytes: int
    ) -> TilingVector:
        """Choose one layer's tiling under its PE's resource budget."""
        lookup = ((spec, dsp_budget, bram_budget_bytes), self.spatial_strategy)
        return resolve_tilings([lookup], self.memo)[lookup]


class DesignStack:
    """Pipeline designs of many (architecture, spatial strategy) pairs.

    Design ``d = a * len(strategies) + j`` is ``architectures[a]`` under
    ``strategies[j]``.  Its layers are the consecutive rows
    ``starts[d] .. starts[d] + depths[d] - 1`` of the int64 columns,
    which the array pass of :class:`repro.latency.analyzer.StackedLatencies`
    reads.  Each architecture is allocated once and its tilings come
    from one :func:`resolve_tilings` call for the whole stack;
    :class:`PipelineDesign` objects are built only on request.
    """

    def __init__(
        self,
        architectures: list[Architecture],
        platform: Platform,
        strategies: tuple[str, ...] = SPATIAL_STRATEGIES,
        memo: LayerDesignMemo | None = None,
    ):
        self.architectures = list(architectures)
        self.platform = platform
        self.strategies = tuple(strategies)
        self.allocations = [platform.allocate(a) for a in self.architectures]
        lookups = [
            ((spec, allocation.dsp_budget, allocation.bram_budget_bytes),
             strategy)
            for architecture, allocations in zip(self.architectures,
                                                 self.allocations)
            for strategy in self.strategies
            for spec, allocation in zip(architecture.layers, allocations)
        ]
        tilings = resolve_tilings(lookups, memo)
        depths = np.repeat([a.depth for a in self.architectures],
                           len(self.strategies))
        #: First row of every design.
        self.starts = np.concatenate(([0], np.cumsum(depths)[:-1]))
        self.depths = depths
        distinct: dict[Lookup, int] = {}
        rows = [distinct.setdefault(lookup, len(distinct))
                for lookup in lookups]
        chosen = [tilings[lookup] for lookup in distinct]
        #: The chosen tiling of every row.
        self.tilings = [chosen[row] for row in rows]
        table = np.array(
            [(spec.in_channels, spec.out_channels, spec.kernel, spec.stride,
              spec.in_rows, spec.in_cols, spec.is_depthwise,
              tiling.tm, tiling.tn, tiling.tr, tiling.tc)
             for ((spec, _, _), _), tiling in zip(distinct, chosen)],
            dtype=np.int64,
        ).reshape(-1, 11)
        columns = table[rows].T
        (self.in_channels, self.out_channels, self.kernel, self.stride,
         self.in_rows, self.in_cols, depthwise,
         self.tm, self.tn, self.tr, self.tc) = columns
        self.depthwise = depthwise.astype(bool)
        self._phases(np.array([
            allocation.device_index
            for allocations in self.allocations
            for _ in self.strategies
            for allocation in allocations
        ], dtype=np.int64))
        self._designs: dict[int, PipelineDesign] = {}

    def _phases(self, device_index: np.ndarray) -> None:
        """Per-task compute, load and write cycles, and effective ET.

        Rows on a device with a :class:`~repro.fpga.dram.DramModel` get
        ``max(load, compute, write)`` cycles per task (double-buffered
        phases overlap); the load phase streams one task's IFM window
        and weight block, the write phase drains its OFM tile.  Other
        rows keep the flat-bandwidth ``Kh * Kw * Tr * Tc``.
        """
        k, s, tm, tn, tr, tc = (self.kernel, self.stride, self.tm, self.tn,
                                self.tr, self.tc)
        self.compute = k * k * tr * tc
        self.phased = np.zeros(len(k), dtype=bool)
        self.load = np.zeros_like(k)
        self.write = np.zeros_like(k)
        for index, device in enumerate(self.platform.devices):
            dram = getattr(device, "dram", None)
            if dram is None:
                continue
            rows = device_index == index
            ifm = tn * (tr * s + k - 1) * (tc * s + k - 1)
            weights = np.where(self.depthwise, tn, tm * tn) * k * k
            load = dram.transfer_cycles((ifm + weights) * WORD_BYTES,
                                        device.clock_mhz)
            write = dram.transfer_cycles(tm * tr * tc * WORD_BYTES,
                                         device.clock_mhz)
            self.phased |= rows
            self.load = np.where(rows, load, self.load)
            self.write = np.where(rows, write, self.write)
        #: Effective cycles per task of every row.
        self.execution_time = np.where(
            self.phased,
            np.maximum(np.maximum(self.load, self.compute), self.write),
            self.compute,
        )

    def __len__(self) -> int:
        return len(self.starts)

    def design(self, index: int) -> PipelineDesign:
        """The :class:`PipelineDesign` of design ``index`` (built once)."""
        design = self._designs.get(index)
        if design is not None:
            return design
        architecture = self.architectures[index // len(self.strategies)]
        allocations = self.allocations[index // len(self.strategies)]
        start = int(self.starts[index])
        layers = []
        for row, (spec, allocation) in enumerate(
            zip(architecture.layers, allocations), start
        ):
            phases = None
            if self.phased[row]:
                phases = PhaseLatency(
                    load_cycles=int(self.load[row]),
                    compute_cycles=int(self.compute[row]),
                    write_cycles=int(self.write[row]),
                )
            layers.append(LayerDesign(
                layer_index=allocation.layer_index,
                spec=spec,
                tiling=self.tilings[row],
                phases=phases,
            ))
        design = self._designs[index] = PipelineDesign(
            architecture=architecture,
            platform=self.platform,
            layers=tuple(layers),
            allocations=tuple(allocations),
        )
        return design


# -- the batched tiling solve ------------------------------------------------

#: Rank of a masked-out candidate: above every real key.
_NO_CANDIDATE = np.iinfo(np.int64).max


def _first_minimum(valid: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Per row, the column of the lexicographically smallest ``keys``
    among the ``valid`` columns; ties go to the first such column.

    Rows with no valid column get 0 (callers mask them).
    """
    chosen = valid
    for key in keys:
        best = np.where(chosen, key, _NO_CANDIDATE).min(axis=1, keepdims=True)
        chosen = chosen & (key == best)
    return chosen.argmax(axis=1)


def _ceil_div(a, b):
    return -(-a // b)


class _KeyColumns:
    """The fields of many :data:`LayerKey` as int64 columns."""

    def __init__(self, keys: list[LayerKey]):
        (self.n, self.m, self.k, self.s, in_rows, in_cols, depthwise,
         self.dsp, self.bram) = np.array(
            [(spec.in_channels, spec.out_channels, spec.kernel, spec.stride,
              spec.in_rows, spec.in_cols, spec.is_depthwise, dsp, bram)
             for spec, dsp, bram in keys],
            dtype=np.int64,
        ).reshape(-1, 9).T
        self.depthwise = depthwise.astype(bool)
        self.r = _ceil_div(in_rows, self.s)
        self.c = _ceil_div(in_cols, self.s)
        #: Double-buffered BRAM budget in words.
        self.words = self.bram // (WORD_BYTES * DOUBLE_BUFFER)


def solve_tilings(keys: list[LayerKey]) -> list[dict[str, TilingVector]]:
    """Both spatial strategies' tilings of every key, in one numpy pass.

    Channel tiling minimises ``ceil(M/Tm) * ceil(N/Tn)`` under the DSP
    and (1x1-spatial) BRAM limits, ties to fewer DSPs, then a larger
    ``Tm``; depthwise layers use the closed form of
    :func:`_channel_tilings`.  Spatial tiling ranks every BRAM-fitting
    ``(Tr, Tc)`` pair per strategy (:func:`_spatial_tilings`).  Every
    rank keeps the first row-major minimum, as the scalar candidate
    loops it replaces did.

    Raises the ``ValueError`` of the first key, in input order, that
    has no feasible tiling.
    """
    columns = _KeyColumns(keys)
    tm, tn, channel_fits = _channel_tilings(columns)
    spatial, spatial_fits = _spatial_tilings(columns, tm, tn)
    dsp_fits = columns.dsp >= 1
    failing = ~(dsp_fits & channel_fits & spatial_fits)
    if failing.any():
        index = int(failing.argmax())
        raise _infeasible(keys[index], bool(dsp_fits[index]),
                          bool(channel_fits[index]))
    tm, tn = tm.tolist(), tn.tolist()
    spatial = {strategy: (tr.tolist(), tc.tolist())
               for strategy, (tr, tc) in spatial.items()}
    return [
        {strategy: TilingVector(tm=tm[i], tn=tn[i], tr=tr[i], tc=tc[i])
         for strategy, (tr, tc) in spatial.items()}
        for i in range(len(keys))
    ]


def _infeasible(
    key: LayerKey, dsp_fits: bool, channel_fits: bool
) -> ValueError:
    """The error of a key with no feasible tiling, by the stage that failed."""
    spec, dsp_budget, bram_budget_bytes = key
    shape = f"{spec.kernel}x{spec.kernel}/{spec.out_channels}"
    if not dsp_fits:
        return ValueError(f"dsp_budget must be >= 1, got {dsp_budget}")
    if not channel_fits and spec.is_depthwise:
        return ValueError(
            f"no channel tiling fits BRAM budget {bram_budget_bytes}B for "
            f"depthwise layer {shape} (even T=1 overflows)"
        )
    if not channel_fits:
        return ValueError(
            f"no channel tiling fits BRAM budget {bram_budget_bytes}B for "
            f"layer {shape} (even Tm=Tn=1 overflows)"
        )
    return ValueError(
        f"no spatial tiling fits BRAM budget {bram_budget_bytes}B for "
        f"layer {shape} (even 1x1 tiles overflow)"
    )


def _channel_tilings(
    t: _KeyColumns,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(Tm, Tn, fits)`` of every key (``Tm = Tn = 1`` where nothing fits).

    Standard layers: at a 1x1 spatial tile the buffers hold
    ``Tn*(S+K-1)**2 + Tm + Tm*Tn*K*K`` words, linear in ``Tn``, so the
    largest feasible ``Tn`` of every ``Tm`` is one integer division.
    Every key's ``Tm`` column, padded to the batch's longest, is solved
    at once.

    Depthwise layers tie ``Tm == Tn == T``: ``T`` lanes cost ``T`` DSPs
    and hold ``T*((S+K-1)**2 + 1 + K*K)`` words, so the largest feasible
    ``T`` is one division; it sets the fewest channel tiles ``q``, and
    the fewest lanes that still reach ``q`` are ``ceil(C / q)``.
    """
    tm = np.ones_like(t.m)
    tn = np.ones_like(t.m)
    fits = np.zeros(len(t.m), dtype=bool)
    window = (t.s + t.k - 1) ** 2
    standard = np.flatnonzero(~t.depthwise & (t.dsp >= 1))
    if standard.size:
        m, n, kk, dsp, words, window_s = (
            x[standard, None]
            for x in (t.m, t.n, t.k * t.k, t.dsp, t.words, window)
        )
        limit = np.minimum(m, dsp)
        cand_tm = np.arange(1, int(limit.max()) + 1)
        cand_tn = np.minimum(
            np.minimum(n, dsp // cand_tm),
            (words - cand_tm) // (window_s + cand_tm * kk),
        )
        valid = (cand_tm <= limit) & (cand_tn >= 1)
        tiles = _ceil_div(m, cand_tm) * _ceil_div(n, np.maximum(cand_tn, 1))
        best = _first_minimum(valid, tiles, cand_tm * cand_tn, -cand_tm)
        rows = np.arange(standard.size)
        tm[standard] = cand_tm[best]
        tn[standard] = cand_tn[rows, best]
        fits[standard] = valid[rows, best]
    depthwise = np.flatnonzero(t.depthwise & (t.dsp >= 1))
    if depthwise.size:
        c = t.n[depthwise]
        k = t.k[depthwise]
        t_max = np.minimum(
            np.minimum(c, t.dsp[depthwise]),
            t.words[depthwise] // (window[depthwise] + 1 + k * k),
        )
        lanes = _ceil_div(c, _ceil_div(c, np.maximum(t_max, 1)))
        ok = t_max >= 1
        tm[depthwise] = tn[depthwise] = np.where(ok, lanes, 1)
        fits[depthwise] = ok
    return tm, tn, fits


def _padded_candidates(extents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sizes, valid)``: every extent's tile sizes, padded with 1s."""
    lists = [_tile_size_candidates(extent) for extent in extents.tolist()]
    lengths = np.array([len(sizes) for sizes in lists])
    width = int(lengths.max())
    sizes = np.ones((len(lists), width), dtype=np.int64)
    for row, values in enumerate(lists):
        sizes[row, :len(values)] = values
    return sizes, np.arange(width) < lengths[:, None]


def _spatial_tilings(
    t: _KeyColumns, tm: np.ndarray, tn: np.ndarray
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """``({strategy: (Tr, Tc)}, fits)`` of every key under its ``(Tm, Tn)``.

    Candidates are all (Tr, Tc) pairs over the divisor-friendly values
    of R and C, one broadcast grid per key of the exact buffer model of
    :class:`LayerDesign`, padded to the batch's largest candidate count.
    """
    rows, row_valid = _padded_candidates(t.r)
    cols, col_valid = _padded_candidates(t.c)
    r3, c3 = rows[:, :, None], cols[:, None, :]
    s, k = t.s[:, None, None], t.k[:, None, None]
    weights = np.where(t.depthwise, tn, tm * tn) * t.k * t.k
    # Words of the IFM window and the OFM tile for every (Tr, Tc); the
    # weight block does not depend on the spatial tile.
    words = (tn[:, None, None] * (r3 * s + (k - 1)) * (c3 * s + (k - 1))
             + tm[:, None, None] * r3 * c3)
    fit = (row_valid[:, :, None] & col_valid[:, None, :]
           & (words <= (t.words - weights)[:, None, None]))
    flat = (len(tm), -1)
    fit = fit.reshape(flat)
    tr = np.broadcast_to(r3, words.shape).reshape(flat)
    tc = np.broadcast_to(c3, words.shape).reshape(flat)
    tiles = (_ceil_div(t.r[:, None], rows)[:, :, None]
             * _ceil_div(t.c[:, None], cols)[:, None, :]).reshape(flat)
    area = tr * tc
    squareness = np.abs(tr - tc)
    keys = np.arange(len(tm))
    # max-reuse: largest area; ties prefer fewer total tiles (less ceil
    # waste), then squarer tiles.
    max_reuse = _first_minimum(fit, -area, tiles, squareness)
    # min-start: smallest tile that still divides the map without extra
    # waste (``tiles * area - R * C``, ranked without the constant).
    min_start = _first_minimum(fit, tiles * area, area, squareness)
    return {
        "max-reuse": (tr[keys, max_reuse], tc[keys, max_reuse]),
        "min-start": (tr[keys, min_start], tc[keys, min_start]),
    }, fit.any(axis=1)


@functools.lru_cache(maxsize=None)
def _tile_size_candidates(extent: int) -> list[int]:
    """Useful tile sizes for a spatial extent: divisors plus the extent itself.

    Divisors avoid ragged edge tiles; a handful of near-divisor sizes are
    added for prime extents so the search is never starved of choices.
    Cached, so every caller shares one list: do not mutate it.
    """
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    sizes = {d for d in range(1, extent + 1) if extent % d == 0}
    # Ensure some mid-range options exist even when extent is prime.
    for frac in (2, 3, 4):
        sizes.add(max(1, -(-extent // frac)))
    return sorted(sizes)
