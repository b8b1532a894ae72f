"""``search``: batched FNAS plans, one per space, through ``Session.run``.

The paper's inner loop with realistic cache reuse: the controller,
decode, the latency estimator and the surrogate evaluator all do real
work.  Plans run in rounds of one plan per space until the time is up;
each ``Session.run`` uses the default thread back end and an in-memory
store, so no HTTP, pool, journal or disk tier is involved.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from repro.api import Session
from repro.service.store import canonical_payload_bytes, encode_result

from fnasbench import common, workloads
from fnasbench.common import Outcome


def setup() -> None:
    """Nothing beyond the imports: ``Session.run`` builds per plan."""


def teardown(state: None) -> None:
    """Nothing to release."""


def result_bytes(plan, result) -> bytes:
    """The canonical scrubbed bytes the result store would keep."""
    return canonical_payload_bytes(encode_result(plan, result))


def _spec_holds(plan, result) -> bool:
    """Every trained trial meets the spec; every pruned one violates it."""
    spec = plan.scenario.specs_ms[0]
    return bool(result.trials) and all(
        (trial.latency_ms <= spec) == trial.trained for trial in result.trials)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """Run the ``search`` workload for ``seconds`` and check it."""
    outcome = Outcome("search", seed, traced=trace)
    layer_trace = None
    if trace:
        from fnasbench.layers import LayerTrace

        layer_trace = LayerTrace()
    walls: list[float] = []
    # Per whole round: trials, busy seconds and median plan latency, as
    # measured and at nominal host speed.  Each plan is corrected by the
    # host-speed samples taken right before and after it.
    rounds: dict[str, list[float]] = defaultdict(list)
    by_space = defaultdict(lambda: [0, 0, 0, 0.0])  # pruned, trials, repeats, wall
    first_round = []  # (plan, result) of round 0, for the digest
    started = time.perf_counter()
    round_index = 0
    outcome.speed.sample(2)
    while round_index == 0 or time.perf_counter() - started < seconds:
        round_trials, round_ms, round_nominal_ms = 0, [], []
        for space, plan in workloads.search_round(seed, round_index):
            if layer_trace is not None:
                layer_trace.start(f"{space}/r{round_index}")
            outcome.requests += 1
            mark = outcome.speed.mark() - 2  # the samples just before this plan
            begin = time.perf_counter()
            try:
                result = Session.from_plan(plan).run()
            except Exception as exc:  # noqa: BLE001 - counted, reported
                outcome.failed_requests += 1
                outcome.extra.setdefault("errors", []).append(repr(exc))
                continue
            wall = time.perf_counter() - begin
            outcome.speed.sample(2)
            walls.append(wall)
            round_trials += len(result.trials)
            round_ms.append(wall * 1e3)
            round_nominal_ms.append(wall * 1e3 / outcome.speed.factor(since=mark))
            # Output checks and counts stay outside the timed call.
            outcome.check(f"spec/{space}-s{plan.search.seed}", _spec_holds(plan, result))
            entry = by_space[space]
            entry[0] += result.pruned_count
            entry[1] += len(result.trials)
            entry[2] += len(result.trials) - len(
                {trial.architecture.fingerprint() for trial in result.trials})
            entry[3] += wall
            if round_index == 0:
                first_round.append((plan, result))
        if round_ms:
            rounds["units"].append(round_trials)
            rounds["seconds"].append(sum(round_ms) / 1e3)
            rounds["seconds_nominal"].append(sum(round_nominal_ms) / 1e3)
            rounds["p50_ms"].append(common.quantile(round_ms, 0.5))
            rounds["p50_ms_nominal"].append(common.quantile(round_nominal_ms, 0.5))
        round_index += 1
    trials = sum(entry[1] for entry in by_space.values())
    if layer_trace is not None:
        layer_trace.finish(outcome, trials)
    units = sum(rounds["units"])
    outcome.metric(outcome.e2e("throughput_per_s"), units / sum(rounds["seconds_nominal"]),
                   "1/s", units / sum(rounds["seconds"]))
    outcome.metric(outcome.e2e("latency_p50_ms"), common.median(rounds["p50_ms_nominal"]),
                   "ms", common.median(rounds["p50_ms"]))
    outcome.metric(outcome.e2e("peak_rss_mb"), common.peak_rss_mb(), "MB")

    outcome.extra["round0_digest"] = common.digest(
        [result_bytes(plan, result) for plan, result in first_round])
    pick = int(np.random.default_rng([seed, 6]).integers(len(first_round)))
    plan, result = first_round[pick]
    outcome.check("deterministic_rerun",
                  result_bytes(plan, Session.from_plan(plan).run())
                  == result_bytes(plan, result))
    if layer_trace is not None:
        from fnasbench.layers import pruned_metrics

        pruned_metrics(outcome, {space: (e[0], e[1]) for space, e in by_space.items()})

    common.measure_setup(outcome, "search")
    outcome.extra.update({
        "trials": trials,
        "plans": len(walls),
        "rounds": round_index,
        "trials_per_s": trials / sum(walls),
        "plan_latency_ms": common.tail_summary([wall * 1e3 for wall in walls]),
        "per_space": {
            space: {"trials_per_s": e[1] / e[3], "pruned_share": e[0] / e[1],
                    "repeat_share": e[2] / e[1]}
            for space, e in by_space.items()
        },
        "pruned_share": sum(e[0] for e in by_space.values()) / max(trials, 1),
        "repeat_share": sum(e[2] for e in by_space.values()) / max(trials, 1),
    })
    return outcome
