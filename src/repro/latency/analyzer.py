"""FNAS-Analyzer: closed-form pipeline latency (paper Section 3.6).

For a PE pipeline under FNAS-Sched, the latency of one inference
decomposes into each PE's *start time* plus the last PE's *processing
time* (stalls are avoided by the ready-to-run queue, so the closed form
is a tight lower bound on the simulated makespan):

* ``ET_i = Kh_i * Kw_i * Tr_i * Tc_i``   -- cycles per task (eq. before (2));
* ``PT_i = ET_i * #tasks_i``             -- a PE's total compute (eq. (2));
* ``dt_ofm(i)`` -- extra start delay of layer ``i`` when layer ``i-1``
  runs **OFM reuse** (eq. (3)): one upstream OFM tile completes every
  ``ceil(N_{i-1}/Tn_{i-1})`` tasks, and one downstream IFM tile needs
  ``ceil(Tn_i / Tm_{i-1})`` of them::

      dt_ofm(i) = ceil(N_{i-1}/Tn_{i-1}) * ceil(Tn_i/Tm_{i-1}) * ET_{i-1}

* ``dt_ifm(i)`` -- start delay when layer ``i-1`` runs **IFM reuse**
  (eq. (4)): the upstream PE touches every input tile once per output
  sweep, so the first OFM tile only completes near the end of the sweep::

      dt_ifm(i) = [ (ceil(N_{i-1}/Tn_{i-1}) - 1) * ceil(M_{i-1}/Tm_{i-1})
                    + ceil(Tn_i/Tm_{i-1}) ] * ET_{i-1}

* both formulas implicitly assume the downstream's first input tile is
  assembled from the upstream's *first* row/col tile only.  When the
  upstream spatial grid is finer than the downstream's first input
  window (wide-then-narrow channel transitions tile the upstream map
  more finely), the upstream PE must additionally finish every task of
  the ``m`` whole row/col tiles preceding the last one needed, adding
  ``m * ceil(N_{i-1}/Tn_{i-1}) * ceil(M_{i-1}/Tm_{i-1}) * ET_{i-1}``
  to either delta.  FNAS-Sched orders row/col tiles outermost, so this
  prefix term is exact for both reuse strategies; which upstream tiles
  the first downstream tile needs is decided by the same overlap rule
  FNAS-GG uses (:func:`repro.taskgraph.graph.rc_dependencies`).

* ``Latsys = sum of per-layer start deltas + PT_last``  (eq. (5)).

The start deltas accumulate along the pipeline: layer ``i`` starts
``dt(i)`` after layer ``i-1``, where which formula applies is decided by
layer ``i-1``'s reuse strategy.  Equation (5) in the paper spells this
out for the alternating assignment (odd layers OFM reuse, even layers
IFM reuse); this implementation accepts any strategy assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fpga.dram import PhaseLatency
from repro.fpga.tiling import (
    DesignStack,
    LayerDesign,
    PipelineDesign,
    _ceil_div,
)
from repro.scheduling.base import IFM_REUSE, OFM_REUSE
from repro.scheduling.fnas_sched import alternating_strategies
from repro.taskgraph.graph import rc_dependencies, resolve_rc_mapping


@dataclass(frozen=True)
class LayerLatency:
    """Per-layer timing terms of the closed-form model.

    ``execution_time`` / ``processing_time`` are the *effective* values
    the pipeline math uses: on DRAM-modeled devices a task costs
    ``max(load, compute, write)`` under double-buffered phase overlap
    (the per-phase breakdown is in ``phases``); on flat-bandwidth
    devices they equal the seed's pure-compute numbers and ``phases``
    is ``None``.
    """

    layer_index: int
    reuse: str
    execution_time: int
    processing_time: int
    start_delta: int
    start_time: int
    phases: PhaseLatency | None = None

    @property
    def finish_bound(self) -> int:
        """Lower bound on this PE's finish: start + effective work."""
        return self.start_time + self.processing_time

    @property
    def bound(self) -> str:
        """Dominating phase (``"compute"`` on flat-bandwidth devices)."""
        if self.phases is None:
            return "compute"
        return self.phases.bound


@dataclass(frozen=True)
class LatencyReport:
    """Full analyzer output for one pipeline design."""

    layers: tuple[LayerLatency, ...]
    total_cycles: int
    total_ms: float

    @property
    def start_times(self) -> tuple[int, ...]:
        """Analytical start time per PE."""
        return tuple(layer.start_time for layer in self.layers)

    @property
    def bottleneck_layer(self) -> int:
        """Index of the PE with the largest processing time."""
        return max(self.layers, key=lambda l: l.processing_time).layer_index


class FnasAnalyzer:
    """Closed-form latency analysis of a pipeline design.

    Parameters:
        strategies: overrides the alternating reuse assignment.
        rc_mapping: row/col dependency mode mirrored from FNAS-GG
            (``"auto"``, ``"identity"`` or ``"overlap"``); keep it equal
            to the task-graph generator's setting so the closed form
            models the same dependency structure the simulator executes.
    """

    def __init__(
        self,
        strategies: list[str] | None = None,
        rc_mapping: str = "auto",
    ):
        self.strategies = strategies
        self.rc_mapping = rc_mapping

    def analyze(self, design: PipelineDesign) -> LatencyReport:
        """Compute the eq. (5) latency for ``design``."""
        n_layers = len(design.layers)
        strategies = self.strategies or alternating_strategies(n_layers)
        if len(strategies) != n_layers:
            raise ValueError(
                f"{len(strategies)} strategies for {n_layers} layers"
            )
        layers: list[LayerLatency] = []
        start = 0
        for idx, layer in enumerate(design.layers):
            if idx == 0:
                delta = 0
            else:
                delta = self.start_delta(design.layers[idx - 1], layer,
                                         strategies[idx - 1], self.rc_mapping)
            start += delta
            layers.append(
                LayerLatency(
                    layer_index=idx,
                    reuse=strategies[idx],
                    execution_time=layer.effective_execution_time,
                    processing_time=layer.effective_processing_time,
                    start_delta=delta,
                    start_time=start,
                    phases=layer.phases,
                )
            )
        # Eq. (5): start-time accumulation plus the last PE's processing
        # time.  Since upstream PEs can keep feeding the last PE after it
        # starts, the pipeline drains when the *slowest suffix* finishes;
        # taking the max over finish bounds keeps the bound tight when an
        # interior PE dominates.
        total_cycles = max(layer.finish_bound for layer in layers)
        total_ms = design.platform.cycles_to_ms(total_cycles)
        return LatencyReport(
            layers=tuple(layers),
            total_cycles=total_cycles,
            total_ms=total_ms,
        )

    @staticmethod
    def start_delta(
        upstream: LayerDesign,
        downstream: LayerDesign,
        upstream_reuse: str,
        rc_mapping: str = "auto",
    ) -> int:
        """Start-time gap between two adjacent PEs (eqs. (3) / (4)).

        Both equations count upstream tasks until the downstream's
        first IFM tile is assembled; the row/col prefix term extends
        them to upstream grids finer than the downstream's first input
        window (each earlier row/col tile costs a full channel sweep).
        """
        return _pick_delta(
            _boundary_deltas(upstream, downstream, rc_mapping), upstream_reuse
        )


def _pick_delta(deltas: tuple[int, int], upstream_reuse: str) -> int:
    """The delta of ``deltas`` that ``upstream_reuse`` selects."""
    if upstream_reuse == OFM_REUSE:
        return deltas[0]
    if upstream_reuse == IFM_REUSE:
        return deltas[1]
    raise ValueError(f"unknown reuse strategy {upstream_reuse!r}")


def _boundary_deltas(
    upstream: LayerDesign, downstream: LayerDesign, rc_mapping: str
) -> tuple[int, int]:
    """``(OFM-reuse, IFM-reuse)`` start deltas across one boundary."""
    n_ifm_up = upstream.n_ifm_channel_tiles
    n_ofm_up = upstream.n_ofm_channel_tiles
    ofm_tiles_needed = math.ceil(downstream.tiling.tn / upstream.tiling.tm)
    ofm_tiles_needed = min(ofm_tiles_needed, n_ofm_up)
    et_up = upstream.effective_execution_time
    last_rc = _last_rc_tile_needed(upstream, downstream, rc_mapping)
    if upstream.spec.is_depthwise:
        # No channel reduction upstream: within a row/col sweep the
        # k-th OFM tile completes after exactly k+1 tasks (one task
        # per channel tile), and both reuse orderings coincide on the
        # diagonal task set.
        delta = (last_rc * n_ofm_up + ofm_tiles_needed) * et_up
        return delta, delta
    rc_prefix = last_rc * n_ifm_up * n_ofm_up
    return (
        (rc_prefix + n_ifm_up * ofm_tiles_needed) * et_up,
        (rc_prefix + (n_ifm_up - 1) * n_ofm_up + ofm_tiles_needed) * et_up,
    )


def _last_rc_tile_needed(
    upstream: LayerDesign, downstream: LayerDesign, rc_mapping: str
) -> int:
    """Index of the last upstream row/col tile feeding the downstream's
    first IFM tile (0 when the grids map one-to-one)."""
    mode = resolve_rc_mapping(upstream, downstream, rc_mapping)
    if mode == "identity":
        return 0
    return max(rc_dependencies(upstream, downstream, 0))


#: The first-layer reuse choices of :class:`StackedLatencies`, by column.
FIRST_REUSE_CHOICES = (OFM_REUSE, IFM_REUSE)


class StackedLatencies:
    """The closed form of every design of a :class:`DesignStack` at once.

    The same eqs. (2)-(5) as :meth:`FnasAnalyzer.analyze`, as int64
    array arithmetic over every layer of every design, for both
    alternating reuse assignments: column ``f`` of the two-column arrays
    is the assignment whose layer 0 uses ``FIRST_REUSE_CHOICES[f]``.
    Each boundary's last row/col tile uses the closed form of
    ``max(rc_dependencies(up, down, 0))``: the last upstream row tile
    the downstream's first input window reaches is
    ``min(ceil(in_r1 / Tr_up), rows_up) - 1``, and likewise for columns.
    """

    def __init__(self, stack: DesignStack, rc_mapping: str = "auto"):
        self.stack = stack
        s = stack
        n_ifm = _ceil_div(s.in_channels, s.tn)
        n_ofm = _ceil_div(s.out_channels, s.tm)
        out_rows = _ceil_div(s.in_rows, s.stride)
        out_cols = _ceil_div(s.in_cols, s.stride)
        rows = _ceil_div(out_rows, s.tr)
        cols = _ceil_div(out_cols, s.tc)
        tasks = n_ofm * rows * cols * np.where(s.depthwise, 1, n_ifm)
        et = s.execution_time
        #: Effective per-task and per-layer cycles of every row.
        self.execution_time = et
        self.processing_time = et * tasks

        # Row i's boundary is upstream row i-1 -> downstream row i.
        up, down = slice(None, -1), slice(1, None)
        needed = np.minimum(_ceil_div(s.tn[down], s.tm[up]), n_ofm[up])
        if rc_mapping == "identity":
            last_rc = np.zeros_like(needed)
        else:
            first_rows = np.minimum(out_rows[down], s.tr[down])
            first_cols = np.minimum(out_cols[down], s.tc[down])
            # The first tile's input window ends here (same-padding
            # halo, clamped to the map), as in ``rc_dependencies``.
            reach = s.kernel[down] - (s.kernel[down] - 1) // 2
            in_r1 = np.minimum(s.in_rows[down],
                               (first_rows - 1) * s.stride[down] + reach)
            in_c1 = np.minimum(s.in_cols[down],
                               (first_cols - 1) * s.stride[down] + reach)
            last_row = np.minimum(_ceil_div(in_r1, s.tr[up]), rows[up]) - 1
            last_col = np.minimum(_ceil_div(in_c1, s.tc[up]), cols[up]) - 1
            last_rc = last_row * cols[up] + last_col
            if rc_mapping == "auto":
                identity = ((rows[up] * cols[up] == rows[down] * cols[down])
                            & (rows[up] == rows[down]) & (s.stride[down] == 1))
                last_rc = np.where(identity, 0, last_rc)
        et_up, n_ifm_up, n_ofm_up = et[up], n_ifm[up], n_ofm[up]
        depthwise = (last_rc * n_ofm_up + needed) * et_up
        prefix = last_rc * n_ifm_up * n_ofm_up
        ofm = np.where(s.depthwise[up], depthwise,
                       (prefix + n_ifm_up * needed) * et_up)
        ifm = np.where(s.depthwise[up], depthwise,
                       (prefix + (n_ifm_up - 1) * n_ofm_up + needed) * et_up)
        #: ``(OFM-reuse, IFM-reuse)`` start delta into every row from
        #: the row before it; zero at every design's first layer.
        self.deltas = np.zeros((len(et), 2), dtype=np.int64)
        self.deltas[1:] = np.stack((ofm, ifm), axis=1)
        self.deltas[s.starts] = 0

        # Alternating assignments: the upstream layer of a boundary uses
        # the first choice's reuse at an even position in its design, the
        # other reuse at an odd one.
        upstream = np.arange(len(et)) - np.repeat(s.starts, s.depths) - 1
        uses_ifm = ((upstream & 1)[:, None] ^ np.array([0, 1])).astype(bool)
        #: Start delta and start time of every row under each choice.
        self.start_delta = np.where(uses_ifm, self.deltas[:, 1:],
                                    self.deltas[:, :1])
        reach = np.cumsum(self.start_delta, axis=0)
        self.start_time = reach - np.repeat(reach[s.starts], s.depths, axis=0)
        #: Eq. (5) latency of every design under each choice.
        self.total_cycles = np.maximum.reduceat(
            self.start_time + self.processing_time[:, None], s.starts, axis=0
        )

    def report(self, index: int, first: int) -> LatencyReport:
        """The :class:`LatencyReport` of design ``index`` under choice
        ``first``, equal to ``FnasAnalyzer(strategies).analyze(design)``."""
        design = self.stack.design(index)
        start = int(self.stack.starts[index])
        rows = slice(start, start + len(design.layers))
        strategies = alternating_strategies(len(design.layers),
                                            FIRST_REUSE_CHOICES[first])
        execution_time = self.execution_time[rows].tolist()
        processing_time = self.processing_time[rows].tolist()
        start_delta = self.start_delta[rows, first].tolist()
        start_time = self.start_time[rows, first].tolist()
        total_cycles = int(self.total_cycles[index, first])
        return LatencyReport(
            layers=tuple(
                LayerLatency(
                    layer_index=idx,
                    reuse=strategies[idx],
                    execution_time=execution_time[idx],
                    processing_time=processing_time[idx],
                    start_delta=start_delta[idx],
                    start_time=start_time[idx],
                    phases=layer.phases,
                )
                for idx, layer in enumerate(design.layers)
            ),
            total_cycles=total_cycles,
            total_ms=design.platform.cycles_to_ms(total_cycles),
        )
