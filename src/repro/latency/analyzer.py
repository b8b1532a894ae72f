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
from typing import NamedTuple

from repro.fpga.dram import PhaseLatency
from repro.fpga.tiling import LayerDesign, PipelineDesign
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
        terms = design_terms(design, self.rc_mapping)
        layers: list[LayerLatency] = []
        start = 0
        for idx, layer in enumerate(design.layers):
            if idx == 0:
                delta = 0
            else:
                delta = _pick_delta(terms.deltas[idx - 1], strategies[idx - 1])
            start += delta
            execution_time, processing_time = terms.times[idx]
            layers.append(
                LayerLatency(
                    layer_index=idx,
                    reuse=strategies[idx],
                    execution_time=execution_time,
                    processing_time=processing_time,
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


class DesignTerms(NamedTuple):
    """The reuse-independent terms of one design's closed form."""

    #: ``(effective ET, effective PT)`` of every layer.
    times: tuple[tuple[int, int], ...]
    #: ``(OFM-reuse, IFM-reuse)`` start delta of every layer boundary.
    deltas: tuple[tuple[int, int], ...]


def design_terms(design: PipelineDesign, rc_mapping: str) -> DesignTerms:
    """The :class:`DesignTerms` of ``design``, computed once per design.

    No term depends on the reuse assignment, so they are computed on the
    first call for each ``rc_mapping`` and kept on the design itself:
    every later :meth:`FnasAnalyzer.analyze` of the same design (the
    explorer tries two first-layer reuse choices) reads them back
    instead of redoing the row/col dependency walk.  Two threads racing
    on a fresh design compute the same pure value; either store wins.
    """
    terms = design.analyzer_terms.get(rc_mapping)
    if terms is None:
        layers = design.layers
        terms = DesignTerms(
            times=tuple(
                (layer.effective_execution_time,
                 layer.effective_processing_time)
                for layer in layers
            ),
            deltas=tuple(
                _boundary_deltas(upstream, downstream, rc_mapping)
                for upstream, downstream in zip(layers, layers[1:])
            ),
        )
        design.analyzer_terms[rc_mapping] = terms
    return terms


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
