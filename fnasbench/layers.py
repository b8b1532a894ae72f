"""Spans around the in-process layers of a search, and their metrics.

Shared by the ``search`` and ``estimate`` workloads.  Times are
reported per unit of work (a trial on ``search``, an architecture on
``estimate``) so they do not depend on how much work fitted into the
run; the ``..._per_arch.<space>`` times are per freshly estimated
architecture (an architecture-cache miss).
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from typing import Any

from repro.api import Session
from repro.core.controller import LstmController
from repro.core.evaluator import SurrogateAccuracyEvaluator
from repro.core.search_space import SearchSpace
from repro.fpga.tiling import TilingDesigner
from repro.latency.analyzer import FnasAnalyzer
from repro.latency.estimator import LatencyEstimator
from repro.latency.explorer import DesignExplorer

from fnasbench.common import Outcome
from fnasbench.tracing import Tracer
from fnasbench.workloads import SPACES

#: (class, method, span name) of every wrapped layer entry point.
LAYER_METHODS = (
    (Session, "run", "session"),
    (LstmController, "sample_batch", "controller.sample"),
    (LstmController, "update_batch", "controller.update"),
    (SearchSpace, "decode", "search_space.decode"),
    (LatencyEstimator, "estimate_batch", "estimator"),
    (DesignExplorer, "explore", "explorer"),
    (TilingDesigner, "design", "tiling.design"),
    (FnasAnalyzer, "analyze", "analyzer.analyze"),
    (SurrogateAccuracyEvaluator, "evaluate", "evaluator.evaluate"),
)


def space_of(trace_id: str) -> str:
    """Trace ids are ``<space>/r<round>``."""
    return trace_id.split("/", 1)[0]


class LayerTrace:
    """Wraps the layers, and keeps the cache counters of each space's estimators."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._seen: weakref.WeakSet[LatencyEstimator] = weakref.WeakSet()
        #: space -> [(architecture-cache counters, layer-memo counters)]
        self.cache_stats: dict[str, list[tuple[Any, Any]]] = defaultdict(list)
        for owner, attribute, name in LAYER_METHODS:
            observe = self._observe_estimator if owner is LatencyEstimator else None
            self.tracer.wrap(owner, attribute, name, root=owner is Session,
                             observe=observe)

    def _observe_estimator(self, estimator: LatencyEstimator) -> None:
        if estimator not in self._seen:
            self._seen.add(estimator)
            self.cache_stats[space_of(self.tracer.trace_id)].append(
                (estimator.stats, estimator.layer_memo_stats))

    def start(self, trace_id: str | None) -> None:
        """Attribute the spans that follow to ``trace_id`` (``None``: record none)."""
        self.tracer.trace_id = trace_id

    def finish(self, outcome: Outcome, units: int) -> None:
        """Unwrap, and record the layer metrics and spans on ``outcome``."""
        self.tracer.restore()
        totals = self.tracer.totals(lambda span: space_of(span.trace_id))
        by_name: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for (_, name), entry in totals.items():
            for key, value in entry.items():
                by_name[name][key] += value
        per_unit = max(units, 1)

        def ms(name: str, key: str = "total_ms") -> float:
            return by_name[name][key] / per_unit

        outcome.timing("session.self_ms", ms("session", "self_ms"), "ms")
        outcome.timing("controller.sample_ms", ms("controller.sample"), "ms")
        outcome.timing("controller.update_ms", ms("controller.update"), "ms")
        outcome.timing("search_space.decode_ms", ms("search_space.decode"), "ms")
        outcome.timing("estimator.self_ms", ms("estimator", "self_ms"), "ms")
        outcome.timing("explorer.self_ms", ms("explorer", "self_ms"), "ms")
        outcome.timing("tiling.design_ms", ms("tiling.design"), "ms")
        outcome.metric("tiling.design_calls",
                       by_name["tiling.design"]["calls"] / per_unit, "count")
        outcome.timing("analyzer.analyze_ms", ms("analyzer.analyze"), "ms")
        outcome.metric("analyzer.analyze_calls",
                       by_name["analyzer.analyze"]["calls"] / per_unit, "count")
        outcome.timing("evaluator.evaluate_ms", ms("evaluator.evaluate"), "ms")
        for space in SPACES:
            counters = self.cache_stats.get(space, [])
            hits = sum(arch.hits for arch, _ in counters)
            misses = sum(arch.misses for arch, _ in counters)
            memo_hits = sum(memo.hits for _, memo in counters)
            memo_lookups = sum(memo.lookups for _, memo in counters)
            outcome.metric(f"estimator.arch_hit_rate.{space}",
                           hits / max(hits + misses, 1), "ratio")
            outcome.metric(f"tiling.layer_memo_hit_rate.{space}",
                           memo_hits / max(memo_lookups, 1), "ratio")
            fresh = max(misses, 1)
            outcome.timing(f"tiling.design_ms_per_arch.{space}",
                           totals.get((space, "tiling.design"), {}).get("total_ms", 0.0)
                           / fresh, "ms")
            outcome.timing(f"analyzer.analyze_ms_per_arch.{space}",
                           totals.get((space, "analyzer.analyze"), {}).get("total_ms", 0.0)
                           / fresh, "ms")
        outcome.extra["layers"] = {
            f"{space}:{name}": entry for (space, name), entry in sorted(totals.items())
        }
        outcome.spans = self.tracer.to_json()


def pruned_metrics(outcome: Outcome, pruned: dict[str, tuple[int, int]]) -> None:
    """``search.pruned_share.<space>`` from ``{space: (pruned, total)}``."""
    for space in SPACES:
        count, total = pruned.get(space, (0, 0))
        outcome.metric(f"search.pruned_share.{space}", count / max(total, 1), "ratio")

