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
import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

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
    #: Reuse-independent analyzer terms per ``rc_mapping``, filled
    #: lazily by :func:`repro.latency.analyzer.design_terms`.
    analyzer_terms: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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


def _bump_process_stats(bucket: str, hit: bool) -> None:
    with _PROCESS_STATS_LOCK:
        for kind in ("all", bucket):
            stats = PROCESS_MEMO_STATS.setdefault(kind, MemoStats())
            if hit:
                stats.hits += 1
            else:
                stats.misses += 1


def _bump_disk_stats(hit: bool) -> None:
    """Count a disk-tier consultation (memory-tier misses only).

    Deliberately *not* folded into the ``"all"`` bucket: ``all`` keeps
    meaning "memory-tier lookups" so pre-existing dashboards and tests
    read unchanged, and the ``disk`` bucket's hit rate directly answers
    "is the shared on-disk memo warming this worker?".
    """
    with _PROCESS_STATS_LOCK:
        stats = PROCESS_MEMO_STATS.setdefault("disk", MemoStats())
        if hit:
            stats.hits += 1
        else:
            stats.misses += 1


class TilingDiskCache:
    """Tier 2 of the tiling memo: a shared on-disk cache directory.

    Workers in a :class:`~repro.service.pool.WorkerPool` each own a
    process-private :class:`LayerDesignMemo` (tier 1).  Pointing them
    all at one ``TilingDiskCache`` -- conventionally
    ``<result-store>/tiling`` -- makes tiling selection a fleet-wide
    pure-function cache: worker N's layer enumeration warms worker M,
    and a campaign resumed tomorrow starts with yesterday's designs.

    The file contract mirrors :class:`~repro.service.store.ResultStore`:

    * keys are SHA-256 hashes of the canonical JSON of the inputs
      (layer spec fields, resource budgets, spatial strategy) -- the
      same canonical-hash idiom the store uses for plans;
    * entries are single JSON files written via temp-file +
      :func:`os.replace`, so concurrent writers race benignly (same
      key => same pure-function value) and readers never see a partial
      write in place;
    * a torn, truncated or otherwise invalid file is a **silent
      miss** -- the tiling is recomputed and the entry rewritten --
      exactly the corrupt-entry contract of ``ResultStore.get_bytes``;
    * :meth:`~repro.service.store.ResultStore.gc` ages and
      budget-evicts these files alongside result entries (they are
      always evictable: every entry is a recomputable cache line).

    All I/O errors are swallowed: a read-only or vanished cache
    directory degrades to the in-memory memo, never to a crash.
    """

    def __init__(self, directory: str):
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            pass

    @staticmethod
    def entry_key(
        spec: ConvLayerSpec,
        dsp_budget: int,
        bram_budget_bytes: int,
        spatial_strategy: str,
    ) -> str:
        """Canonical hash of everything tiling selection depends on."""
        canonical = json.dumps(
            {
                "spec": {
                    "in_channels": spec.in_channels,
                    "out_channels": spec.out_channels,
                    "kernel": spec.kernel,
                    "in_rows": spec.in_rows,
                    "in_cols": spec.in_cols,
                    "stride": spec.stride,
                    "kind": spec.kind,
                },
                "dsp_budget": dsp_budget,
                "bram_budget_bytes": bram_budget_bytes,
                "spatial_strategy": spatial_strategy,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(
        self,
        spec: ConvLayerSpec,
        dsp_budget: int,
        bram_budget_bytes: int,
        spatial_strategy: str,
    ) -> TilingVector | None:
        """The cached tiling, or None on miss *or any invalid entry*."""
        key = self.entry_key(spec, dsp_budget, bram_budget_bytes,
                             spatial_strategy)
        try:
            raw = self._path(key).read_bytes()
            fields = json.loads(raw)["tiling"]
            return TilingVector(
                tm=fields["tm"], tn=fields["tn"],
                tr=fields["tr"], tc=fields["tc"],
            )
        except (OSError, ValueError, KeyError, TypeError):
            # Missing, torn, truncated, or corrupt: a silent miss.
            return None

    def put(
        self,
        spec: ConvLayerSpec,
        dsp_budget: int,
        bram_budget_bytes: int,
        spatial_strategy: str,
        tiling: TilingVector,
    ) -> None:
        """Write-through one tiling (atomic rename; errors swallowed)."""
        key = self.entry_key(spec, dsp_budget, bram_budget_bytes,
                             spatial_strategy)
        payload = json.dumps(
            {"tiling": {"tm": tiling.tm, "tn": tiling.tn,
                        "tr": tiling.tr, "tc": tiling.tc}},
            sort_keys=True,
        )
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass


#: The process-wide disk tier every :class:`LayerDesignMemo` consults,
#: or None when no cache directory has been configured.
_DISK_CACHE: TilingDiskCache | None = None


def configure_disk_cache(directory: str | None) -> None:
    """Point (or unpoint, with None) the disk tier at ``directory``.

    Process-wide by design: a worker serves many estimators over its
    lifetime and all of them should share the one on-disk tier.  Pool
    workers call this once per task from the directory the dispatcher
    hands them (``<result-store>/tiling``); forked children inherit
    the parent's setting until told otherwise.
    """
    global _DISK_CACHE
    _DISK_CACHE = None if directory is None else TilingDiskCache(directory)


def disk_cache() -> TilingDiskCache | None:
    """The currently configured disk tier (None when unset)."""
    return _DISK_CACHE


@dataclass
class LayerDesignMemo:
    """Shared memo of per-layer tiling decisions.

    Tiling selection is a pure function of the layer spec, the PE's
    resource budgets and the spatial strategy -- and architectures in a
    search run share most layer configurations -- so one memo shared
    across :class:`TilingDesigner` instances lets every new architecture
    reuse the tiling work done for fingerprints seen earlier.  This is
    the layer-level tier of the latency estimator's two-tier cache.

    Thread-safe: the memo is shared by every designer an estimator
    builds, and estimators are themselves shared across service and
    evaluation threads, so the dict and its counters mutate only under
    an internal lock.  Entries are values of a pure function, so a race
    on the same key stores the same tiling twice -- harmless.
    """

    stats: MemoStats = field(default_factory=MemoStats)
    kind_stats: dict[str, MemoStats] = field(default_factory=dict)
    _memo: dict[tuple, TilingVector] = field(default_factory=dict)
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

    def lookup(
        self,
        spec: ConvLayerSpec,
        dsp_budget: int,
        bram_budget_bytes: int,
        spatial_strategy: str,
    ) -> TilingVector | None:
        """Return the memoised tiling for this layer shape, if any.

        Two tiers: the in-process dict first, then the shared on-disk
        cache when one is configured (see :func:`configure_disk_cache`).
        A disk hit is promoted into the memory tier, so each shape pays
        disk I/O at most once per process.
        """
        key = (spec, dsp_budget, bram_budget_bytes, spatial_strategy)
        bucket = self._kind_bucket(spec)
        with self._lock:
            tiling = self._memo.get(key)
            kind = self.kind_stats.setdefault(bucket, MemoStats())
            if tiling is None:
                self.stats.misses += 1
                kind.misses += 1
            else:
                self.stats.hits += 1
                kind.hits += 1
        _bump_process_stats(bucket, hit=tiling is not None)
        if tiling is None and _DISK_CACHE is not None:
            tiling = _DISK_CACHE.get(spec, dsp_budget, bram_budget_bytes,
                                     spatial_strategy)
            _bump_disk_stats(hit=tiling is not None)
            if tiling is not None:
                with self._lock:
                    self._memo[key] = tiling
        return tiling

    def store(
        self,
        spec: ConvLayerSpec,
        dsp_budget: int,
        bram_budget_bytes: int,
        spatial_strategy: str,
        tiling: TilingVector,
    ) -> None:
        """Memoise a freshly computed tiling (write-through to disk)."""
        key = (spec, dsp_budget, bram_budget_bytes, spatial_strategy)
        with self._lock:
            self._memo[key] = tiling
        if _DISK_CACHE is not None:
            _DISK_CACHE.put(spec, dsp_budget, bram_budget_bytes,
                            spatial_strategy, tiling)


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
        if spatial_strategy not in ("max-reuse", "min-start"):
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
        allocations = platform.allocate(architecture)
        layer_designs = []
        for allocation, spec in zip(allocations, architecture.layers):
            tiling = self.design_layer(spec, allocation.dsp_budget,
                                       allocation.bram_budget_bytes)
            design = LayerDesign(
                layer_index=allocation.layer_index,
                spec=spec,
                tiling=tiling,
            )
            phases = self._phase_latency(design, allocation.device)
            if phases is not None:
                design = LayerDesign(
                    layer_index=design.layer_index,
                    spec=spec,
                    tiling=tiling,
                    phases=phases,
                )
            layer_designs.append(design)
        return PipelineDesign(
            architecture=architecture,
            platform=platform,
            layers=tuple(layer_designs),
            allocations=tuple(allocations),
        )

    @staticmethod
    def _phase_latency(design: LayerDesign, device) -> PhaseLatency | None:
        """Per-task load/compute/write phases on a DRAM-modeled device.

        ``None`` (the flat-bandwidth seed behavior) when the device has
        no :class:`~repro.fpga.dram.DramModel` attached.  The load phase
        streams one task's IFM window and weight block; the write phase
        drains its OFM tile; both are rescaled to accelerator-clock
        cycles by the DRAM model.
        """
        dram = getattr(device, "dram", None)
        if dram is None:
            return None
        clock = device.clock_mhz
        load_bytes = design.ifm_buffer_bytes + design.weight_buffer_bytes
        return PhaseLatency(
            load_cycles=dram.transfer_cycles(load_bytes, clock),
            compute_cycles=design.execution_time,
            write_cycles=dram.transfer_cycles(design.ofm_buffer_bytes, clock),
        )

    def design_layer(
        self, spec: ConvLayerSpec, dsp_budget: int, bram_budget_bytes: int
    ) -> TilingVector:
        """Choose one layer's tiling under its PE's resource budget.

        Channel tiling and the spatial feasibility grid do not depend on
        the spatial strategy, so a memo miss solves every strategy from
        one grid and stores them all: the explorer's designer for the
        other strategy then answers the same layer from the memo.
        """
        if self.memo is not None:
            cached = self.memo.lookup(
                spec, dsp_budget, bram_budget_bytes, self.spatial_strategy
            )
            if cached is not None:
                return cached
        tm, tn = self._choose_channel_tiling(spec, dsp_budget, bram_budget_bytes)
        spatial = self._choose_spatial_tilings(spec, tm, tn, bram_budget_bytes)
        tilings = {
            strategy: TilingVector(tm=tm, tn=tn, tr=tr, tc=tc)
            for strategy, (tr, tc) in spatial.items()
        }
        if self.memo is not None:
            for strategy, tiling in tilings.items():
                self.memo.store(
                    spec, dsp_budget, bram_budget_bytes, strategy, tiling
                )
        return tilings[self.spatial_strategy]

    @staticmethod
    def _choose_channel_tiling(
        spec: ConvLayerSpec, dsp_budget: int, bram_budget_bytes: int
    ) -> tuple[int, int]:
        """Minimise ``ceil(M/Tm) * ceil(N/Tn)`` under DSP *and* BRAM limits.

        The layer's cycle count is proportional to the channel-tile
        product, so that is the primary objective.  A candidate is only
        feasible if its buffers fit BRAM at the smallest spatial tile
        (1x1) -- the weight buffer ``Tm*Tn*K*K`` alone can dominate for
        large kernels.  Ties prefer fewer DSPs, then a larger ``Tm``
        (OFM parallelism keeps partial sums local, reducing output
        traffic).

        At a 1x1 tile the buffers hold ``Tn*(S+K-1)**2 + Tm + Tm*Tn*K*K``
        words, linear in ``Tn``, so the largest feasible ``Tn`` of every
        ``Tm`` is one integer division; the whole ``Tm`` column is solved
        at once and ranked with one :func:`numpy.lexsort`.
        """
        if dsp_budget < 1:
            raise ValueError(f"dsp_budget must be >= 1, got {dsp_budget}")
        if spec.is_depthwise:
            return TilingDesigner._choose_depthwise_channel_tiling(
                spec, dsp_budget, bram_budget_bytes
            )
        m, n, k = spec.out_channels, spec.in_channels, spec.kernel
        words = bram_budget_bytes // (WORD_BYTES * DOUBLE_BUFFER)
        window = (spec.stride + k - 1) ** 2
        tm = np.arange(1, min(m, dsp_budget) + 1)
        tn = np.minimum(
            np.minimum(n, dsp_budget // tm),
            (words - tm) // (window + tm * (k * k)),
        )
        feasible = tn >= 1
        if not feasible.any():
            raise ValueError(
                f"no channel tiling fits BRAM budget {bram_budget_bytes}B for "
                f"layer {spec.kernel}x{spec.kernel}/{spec.out_channels} "
                "(even Tm=Tn=1 overflows)"
            )
        tm, tn = tm[feasible], tn[feasible]
        tiles = (-(-m // tm)) * (-(-n // tn))
        best = np.lexsort((-tm, tm * tn, tiles))[0]
        return int(tm[best]), int(tn[best])

    @staticmethod
    def _choose_depthwise_channel_tiling(
        spec: ConvLayerSpec, dsp_budget: int, bram_budget_bytes: int
    ) -> tuple[int, int]:
        """Depthwise channel tiling: one tied ``Tm == Tn == T`` knob.

        There is no channel reduction, so a depthwise PE is ``T``
        independent single-channel lanes costing ``T`` DSPs (not
        ``T x T``).  Minimise ``ceil(C / T)`` channel tiles under the
        DSP and (1x1-spatial) BRAM limits; ties prefer fewer lanes.

        At a 1x1 tile ``T`` lanes hold ``T*((S+K-1)**2 + 1 + K*K)``
        words, so the largest feasible ``T`` is one division; it sets
        the fewest channel tiles ``q``, and the fewest lanes that still
        reach ``q`` are ``ceil(C / q)``.
        """
        c, k = spec.in_channels, spec.kernel
        words = bram_budget_bytes // (WORD_BYTES * DOUBLE_BUFFER)
        lane_words = (spec.stride + k - 1) ** 2 + 1 + k * k
        t_max = min(c, dsp_budget, words // lane_words)
        if t_max < 1:
            raise ValueError(
                f"no channel tiling fits BRAM budget {bram_budget_bytes}B for "
                f"depthwise layer {spec.kernel}x{spec.kernel}/"
                f"{spec.out_channels} (even T=1 overflows)"
            )
        tiles = -(-c // t_max)
        lanes = -(-c // tiles)
        return lanes, lanes

    @staticmethod
    def _choose_spatial_tilings(
        spec: ConvLayerSpec, tm: int, tn: int, bram_budget_bytes: int
    ) -> dict[str, tuple[int, int]]:
        """Choose ``Tr, Tc`` under the BRAM budget, for every strategy.

        Candidates are all (Tr, Tc) pairs over the divisor-friendly
        values of R and C; feasibility is one broadcast grid of the
        exact buffer model of :class:`LayerDesign`.  Each strategy ranks
        the feasible pairs with a stable :func:`numpy.lexsort`, so ties
        go to the first pair in row-major ``(Tr, Tc)`` order.
        """
        r, c = spec.out_rows, spec.out_cols
        s, k = spec.stride, spec.kernel
        rows = np.array(_tile_size_candidates(r))
        cols = np.array(_tile_size_candidates(c))
        weights = tn * k * k if spec.is_depthwise else tm * tn * k * k
        # Words of the IFM window and the OFM tile for every (Tr, Tc);
        # the weight block does not depend on the spatial tile.
        words = (tn * np.multiply.outer(rows * s + (k - 1), cols * s + (k - 1))
                 + tm * np.multiply.outer(rows, cols))
        budget = bram_budget_bytes // (WORD_BYTES * DOUBLE_BUFFER) - weights
        fit_r, fit_c = np.nonzero(words <= budget)
        if fit_r.size == 0:
            raise ValueError(
                f"no spatial tiling fits BRAM budget {bram_budget_bytes}B for "
                f"layer {spec.kernel}x{spec.kernel}/{spec.out_channels} "
                f"(even 1x1 tiles overflow)"
            )
        tr, tc = rows[fit_r], cols[fit_c]
        area = tr * tc
        tiles = (-(-r // rows))[fit_r] * (-(-c // cols))[fit_c]
        squareness = np.abs(tr - tc)
        # max-reuse: largest area; ties prefer fewer total tiles (less
        # ceil waste), then squarer tiles.
        max_reuse = np.lexsort((squareness, tiles, -area))[0]
        # min-start: smallest tile that still divides the map without
        # extra waste (``tiles * area - R * C``, ranked without the
        # constant).
        min_start = np.lexsort((squareness, area, tiles * area))[0]
        return {
            "max-reuse": (int(tr[max_reuse]), int(tc[max_reuse])),
            "min-start": (int(tr[min_start]), int(tc[min_start])),
        }


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
