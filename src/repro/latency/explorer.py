"""Design-space exploration over FNAS-Design variants.

The paper's FNAS-Design picks one tiling per layer; this explorer puts
the analyzer in the loop and compares the candidate design policies
(spatial strategy x first-layer reuse choice), returning the design and
reuse assignment with the lowest analytical latency.  It implements the
"best parameters can be obtained according to [8, 13]" step as an
explicit, testable search instead of a fixed heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.architecture import Architecture
from repro.fpga.platform import Platform
from repro.fpga.tiling import (
    SPATIAL_STRATEGIES,
    DesignStack,
    LayerDesignMemo,
    PipelineDesign,
)
from repro.latency.analyzer import (
    FIRST_REUSE_CHOICES,
    LatencyReport,
    StackedLatencies,
)


@dataclass(frozen=True)
class ExplorationChoice:
    """One evaluated point of the design space."""

    spatial_strategy: str
    first_reuse: str
    design: PipelineDesign
    report: LatencyReport

    @property
    def total_cycles(self) -> int:
        """Analytical latency of this choice."""
        return self.report.total_cycles


@dataclass(frozen=True)
class ExplorationResult:
    """Best design plus every evaluated alternative."""

    best: ExplorationChoice
    evaluated: tuple[ExplorationChoice, ...]

    @property
    def improvement_over_worst(self) -> float:
        """Cycles(worst) / cycles(best) across the evaluated designs."""
        worst = max(c.total_cycles for c in self.evaluated)
        return worst / self.best.total_cycles


class DesignExplorer:
    """Exhaustive search over the small FNAS-Design policy space.

    Every architecture of a call is allocated once, its tilings for
    both spatial strategies come from one batched solve, and all four
    choices of every architecture are evaluated in one array pass of
    :class:`~repro.latency.analyzer.StackedLatencies`.  An optional
    :class:`~repro.fpga.tiling.LayerDesignMemo` is shared by every call,
    so repeated layer shapes -- common across the architectures of one
    search run -- skip the tiling solve entirely.
    """

    SPATIAL_STRATEGIES = SPATIAL_STRATEGIES
    FIRST_REUSE_CHOICES = FIRST_REUSE_CHOICES

    def __init__(self, memo: LayerDesignMemo | None = None):
        self.memo = memo

    def explore(
        self, architecture: Architecture, platform: Platform
    ) -> ExplorationResult:
        """Evaluate every policy combination and return the best design."""
        latencies, best = self._evaluate([architecture], platform)
        choices = tuple(
            self._choice(latencies, design, first)
            for design in range(len(self.SPATIAL_STRATEGIES))
            for first in range(len(self.FIRST_REUSE_CHOICES))
        )
        return ExplorationResult(best=choices[best[0]], evaluated=choices)

    def best_choices(
        self, architectures: list[Architecture], platform: Platform
    ) -> list[ExplorationChoice]:
        """The best choice of every architecture; only the winners'
        designs and reports are built."""
        latencies, best = self._evaluate(architectures, platform)
        per_arch = len(self.FIRST_REUSE_CHOICES)
        return [
            self._choice(latencies, index * len(self.SPATIAL_STRATEGIES)
                         + choice // per_arch, choice % per_arch)
            for index, choice in enumerate(best)
        ]

    def _evaluate(
        self, architectures: list[Architecture], platform: Platform
    ) -> tuple[StackedLatencies, list[int]]:
        """The array pass over every choice, and each architecture's best
        choice: the first minimum in (spatial strategy, first reuse)
        order, the tie-break of ``min()`` over :attr:`evaluated`."""
        stack = DesignStack(architectures, platform, self.SPATIAL_STRATEGIES,
                            self.memo)
        latencies = StackedLatencies(stack)
        totals = latencies.total_cycles.reshape(len(architectures), -1)
        return latencies, totals.argmin(axis=1).tolist()

    def _choice(
        self, latencies: StackedLatencies, design: int, first: int
    ) -> ExplorationChoice:
        return ExplorationChoice(
            spatial_strategy=self.SPATIAL_STRATEGIES[
                design % len(self.SPATIAL_STRATEGIES)],
            first_reuse=self.FIRST_REUSE_CHOICES[first],
            design=latencies.stack.design(design),
            report=latencies.report(design, first),
        )
