"""The paired-search engine: one NAS baseline plus FNAS runs per spec.

:func:`run_paired_plan` is the engine behind Table 1 and Figures 6/7.
It consumes a declarative :class:`~repro.plans.RunPlan` -- the search
configuration (controller / evaluator / estimator registry keys, seed,
trials) comes from ``plan.search`` and the execution policy (batching,
evaluation workers, checkpointing, shard fan-out) from
``plan.execution`` -- and has two execution modes:

* the default in-process mode, which runs the NAS baseline and each
  FNAS spec sequentially (with the batched/parallel options), and
* **campaign mode** (``plan.execution.campaign_mode``), which expresses
  the same runs as orchestration shards: each search becomes a
  checkpointed, resumable shard, optionally fanned across a process
  pool.  Re-invoking with the same checkpoint directory resumes
  interrupted searches.  Both modes produce identical trial ledgers
  (pinned by tests), so campaign mode is purely an execution policy.

:func:`run_paired_search` remains as the kwarg entry point -- a thin
shim that lowers its arguments onto a plan and calls the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.api import (
    build_controller,
    build_estimator,
    build_evaluator,
    landscape_seed,
    resolve_execution,
)
from repro.core.evaluator import AccuracyEvaluator, ParallelEvaluator
from repro.core.search import FnasSearch, NasSearch, SearchResult
from repro.core.search_space import SearchSpace
from repro.experiments.configs import ExperimentConfig, get_config
from repro.fpga.device import DEVICE_CATALOG
from repro.fpga.platform import Platform
from repro.plans import RunPlan, ScenarioPlan, SearchPlan, spec_key

#: Signature of the progress emitter threaded through the engine
#: (kind, scope, message) -- :meth:`repro.api.Session.emit` satisfies it.
EmitFn = Callable[[str, str, str], None]


@dataclass
class PairedSearchOutcome:
    """One NAS baseline run plus FNAS runs at several timing specs."""

    config: ExperimentConfig
    platform: Platform
    nas: SearchResult
    fnas: dict[float, SearchResult]  # keyed by required latency (ms)

    @property
    def nas_best_accuracy(self) -> float:
        """Accuracy of the NAS baseline's best child."""
        return self.nas.best().accuracy

    @property
    def nas_best_latency_ms(self) -> float:
        """Latency of the NAS baseline's best child."""
        latency = self.nas.best().latency_ms
        assert latency is not None  # runner always attaches an estimator
        return latency

    def fnas_for(self, spec_ms: float | str) -> SearchResult:
        """Tolerant FNAS lookup by timing spec.

        ``fnas`` is keyed by raw floats, which is exact-match hostile:
        JSON round-trips stringify keys, and a spec recomputed through
        string formatting may differ in the last ulp.  This accepts a
        float or its string form and matches with a relative tolerance,
        raising a listing ``KeyError`` when nothing is close.
        """
        target = float(spec_ms)
        result = self.fnas.get(target)
        if result is not None:
            return result
        for key, candidate in self.fnas.items():
            if math.isclose(key, target, rel_tol=1e-9, abs_tol=1e-12):
                return candidate
        known = ", ".join(spec_key(k) for k in sorted(self.fnas))
        raise KeyError(f"no FNAS run at {spec_ms!r} ms; specs: {known}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form with stable *string* spec keys.

        FNAS results are keyed by :func:`repro.plans.spec_key` strings
        (``"2.5"``, ``"10"``) so the document round-trips through JSON
        without float-key mangling; :meth:`from_dict` restores the
        float-keyed mapping.
        """
        from repro.core.serialization import search_result_to_dict

        return {
            "dataset": self.config.dataset,
            "devices": [d.name for d in self.platform.devices],
            "nas": search_result_to_dict(self.nas),
            "fnas": {
                spec_key(spec): search_result_to_dict(result)
                for spec, result in self.fnas.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PairedSearchOutcome":
        """Rebuild an outcome from :meth:`to_dict` (catalog platforms)."""
        from repro.core.serialization import search_result_from_dict
        from repro.fpga.device import get_device

        devices = [get_device(name) for name in data["devices"]]
        return cls(
            config=get_config(data["dataset"]),
            platform=Platform(devices=tuple(devices)),
            nas=search_result_from_dict(data["nas"]),
            fnas={
                float(key): search_result_from_dict(result)
                for key, result in data["fnas"].items()
            },
        )


def make_controller(space: SearchSpace, seed: int):
    """The default controller used across experiments (registry ``lstm``)."""
    return build_controller(SearchPlan(seed=seed), space)


def run_paired_plan(
    plan: RunPlan,
    dataset: str | None = None,
    platform: Platform | None = None,
    specs_ms: list[float] | None = None,
    evaluator: AccuracyEvaluator | None = None,
    emit: EmitFn | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> PairedSearchOutcome:
    """Run NAS once and FNAS once per timing spec on one dataset/platform.

    The plan's scenario supplies the dataset, device and specs unless
    the explicit arguments override them (the figure runners iterate
    over devices/datasets and pass each explicitly; overrides also
    admit non-catalog :class:`~repro.fpga.platform.Platform` objects,
    which plain plan data cannot name).

    Each search gets its own controller and RNG stream (all derived
    from ``plan.search.seed``) so runs are independent, reproducible
    and comparable -- the protocol behind Table 1 and Figures 6/7.
    ``evaluator`` overrides the plan's evaluator key with a live
    instance (in-process mode only).  ``emit`` receives per-search
    progress events.  ``should_stop`` cancels cooperatively between
    trials (:class:`~repro.core.search.SearchCancelled`; snapshots
    first when the execution policy checkpoints).
    """
    scenario = plan.scenario
    if dataset is None:
        if not scenario.datasets:
            raise ValueError("the plan's scenario names no datasets")
        dataset = scenario.datasets[0]
    if platform is None:
        from repro.api import build_platform

        platform = build_platform(scenario)
    if specs_ms is None:
        specs_ms = list(scenario.specs_ms)
    if plan.execution.campaign_mode:
        return _run_paired_campaign(
            plan, dataset, platform, specs_ms, evaluator, emit,
            should_stop=should_stop,
        )
    search_plan = plan.search
    config = get_config(dataset)
    space = SearchSpace.from_config(config)
    seed = search_plan.seed
    n_trials = (search_plan.trials if search_plan.trials is not None
                else config.trials)
    if evaluator is None:
        evaluator = build_evaluator(
            search_plan, space, config, landscape_seed(plan)
        )
    pool: ParallelEvaluator | None = None
    if plan.execution.eval_workers > 1:
        evaluator = pool = ParallelEvaluator(
            evaluator, max_workers=plan.execution.eval_workers
        )
    estimator = build_estimator(search_plan, platform)

    def _notify(kind: str, name: str, message: str) -> None:
        if emit is not None:
            emit(kind, name, message)

    try:
        _notify("start", "nas", f"{n_trials} trials on {dataset}")
        nas = NasSearch(
            space,
            evaluator,
            controller=build_controller(search_plan, space, seed),
            latency_estimator=estimator,
        ).run(n_trials, np.random.default_rng(seed),
              batch_size=plan.execution.batch_size,
              should_stop=should_stop)
        _notify("finish", "nas", f"{len(nas.trials)} trials")

        fnas_results: dict[float, SearchResult] = {}
        for offset, spec in enumerate(specs_ms, start=1):
            name = f"fnas-{spec_key(spec)}ms"
            _notify("start", name, f"{n_trials} trials on {dataset}")
            search = FnasSearch(
                space,
                evaluator,
                estimator,
                required_latency_ms=spec,
                controller=build_controller(search_plan, space, seed + offset),
                min_latency_fallback=search_plan.min_latency_fallback,
            )
            fnas_results[spec] = search.run(
                n_trials, np.random.default_rng(seed + offset),
                batch_size=plan.execution.batch_size,
                should_stop=should_stop,
            )
            _notify("finish", name, f"{len(fnas_results[spec].trials)} trials")
    finally:
        if pool is not None:
            pool.close()
    return PairedSearchOutcome(
        config=config, platform=platform, nas=nas, fnas=fnas_results
    )


def run_paired_search(
    dataset: str,
    platform: Platform,
    specs_ms: list[float],
    trials: int | None = None,
    seed: int = 0,
    evaluator: AccuracyEvaluator | None = None,
    batch_size: int = 1,
    shard_workers: int = 1,
    *,
    eval_workers: int | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int | None = None,
) -> PairedSearchOutcome:
    """Kwarg entry point -- a thin shim over the plan API.

    Lowers its arguments onto a :class:`~repro.plans.RunPlan` and calls
    :func:`run_paired_plan`; prefer building the plan yourself and
    running it through :class:`repro.api.Session`.  The execution
    keywords are :class:`~repro.plans.ExecutionPolicy` fields.
    """
    execution = resolve_execution(
        batch_size=batch_size,
        eval_workers=eval_workers,
        shard_workers=shard_workers,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    plan = RunPlan(
        workload="paired",
        search=SearchPlan(seed=seed, trials=trials),
        execution=execution,
        scenario=_scenario_for(dataset, platform, specs_ms),
    )
    return run_paired_plan(
        plan, dataset=dataset, platform=platform, specs_ms=list(specs_ms),
        evaluator=evaluator,
    )


def _scenario_for(
    dataset: str, platform: Platform, specs_ms: list[float]
) -> ScenarioPlan:
    """Best-effort scenario for a legacy call (documents the run).

    Non-catalog platforms cannot be named by plan data; the scenario
    then records no device and the engine uses the explicit platform
    object.
    """
    names = {d.name for d in platform.devices}
    devices: tuple[str, ...] = ()
    boards = 1
    if len(names) == 1 and next(iter(names)) in DEVICE_CATALOG:
        devices = (next(iter(names)),)
        boards = len(platform.devices)
    return ScenarioPlan(
        datasets=(dataset,),
        devices=devices,
        boards=boards,
        specs_ms=tuple(specs_ms),
        include_nas=True,
    )


def _campaign_device(platform: Platform) -> tuple[str, int]:
    """Map a platform onto (catalog device name, board count).

    Campaign shards are plain data, so the platform must be expressible
    as N copies of one catalog device -- which covers every platform the
    paper's experiments use.
    """
    names = {d.name for d in platform.devices}
    if len(names) != 1:
        raise ValueError(
            "campaign mode needs a homogeneous platform, got devices "
            + ", ".join(sorted(names))
        )
    name = next(iter(names))
    if name not in DEVICE_CATALOG:
        raise ValueError(
            f"campaign mode needs a catalog device, got {name!r} "
            f"(known: {', '.join(sorted(DEVICE_CATALOG))})"
        )
    return name, len(platform.devices)


def _run_paired_campaign(
    plan: RunPlan,
    dataset: str,
    platform: Platform,
    specs_ms: list[float],
    evaluator: AccuracyEvaluator | None,
    emit: EmitFn | None,
    should_stop: Callable[[], bool] | None = None,
) -> PairedSearchOutcome:
    """Campaign-mode body of :func:`run_paired_plan`.

    Builds one NAS shard plus one FNAS shard per spec with exactly the
    seeds the in-process mode uses (controller ``seed + offset``, one
    shared surrogate landscape at the base seed), so the merged
    outcome's ledgers match the serial mode byte for byte.
    """
    from repro.orchestration import Campaign, ShardSpec

    if evaluator is not None:
        raise ValueError(
            "campaign mode rebuilds the evaluator from the plan's registry "
            "key inside each shard; pass evaluator=None (or run with an "
            "in-process ExecutionPolicy)"
        )
    config = get_config(dataset)
    device, boards = _campaign_device(platform)
    search_plan = plan.search
    seed = search_plan.seed
    n_trials = (search_plan.trials if search_plan.trials is not None
                else config.trials)
    common = dict(
        dataset=dataset,
        device=device,
        boards=boards,
        surrogate_seed=landscape_seed(plan),
        trials=n_trials,
        batch_size=plan.execution.batch_size,
        eval_workers=max(1, plan.execution.eval_workers),
        controller=search_plan.controller,
        evaluator=search_plan.evaluator,
        estimator=search_plan.estimator,
        min_latency_fallback=search_plan.min_latency_fallback,
    )
    shards = [ShardSpec(kind="nas", seed=seed, **common)]
    for offset, spec in enumerate(specs_ms, start=1):
        shards.append(
            ShardSpec(kind="fnas", spec_ms=spec, seed=seed + offset, **common)
        )
    progress = None
    if emit is not None:
        def progress(event):
            emit(event.kind, event.shard_id, event.message)
    outcome = Campaign(
        shards,
        checkpoint_dir=plan.execution.checkpoint_dir,
        checkpoint_every=plan.execution.checkpoint_every,
        progress=progress,
    ).run(max_workers=plan.execution.shard_workers,
          should_stop=should_stop)
    nas = outcome.outcomes[0].result
    fnas_results = {
        spec: outcome.outcomes[i].result
        for i, spec in enumerate(specs_ms, start=1)
    }
    return PairedSearchOutcome(
        config=config, platform=platform, nas=nas, fnas=fnas_results
    )
