"""``estimate``: distinct architectures through fresh latency estimators.

The uncached per-architecture cost of the FNAS tool chain (tiling,
then the analyzer), apart from the cache-assisted search loop.  Each
round builds a fresh default :class:`LatencyEstimator` per space and
hands it batches of architectures no estimator has seen in this run,
so the architecture cache never answers and each estimator's layer
memo warms over the same amount of work in every round.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimate, LatencyEstimator
from repro.registry import DEVICES
from repro.scheduling.base import IN_ORDER
from repro.scheduling.fnas_sched import FnasScheduler
from repro.scheduling.simulator import PipelineSimulator
from repro.taskgraph.graph import TaskGraphGenerator

from fnasbench import common, workloads
from fnasbench.common import Outcome

#: Largest design (in tile tasks) the cycle simulator is run on; the
#: simulator takes about a second per 50 000 tasks, and every cifar10
#: and imagenet architecture has hundreds of thousands.
SIMULATE_MAX_TASKS = 20_000
SIMULATE_SAMPLE = 3
RERUN_SAMPLE = 8


def setup() -> list[Platform]:
    """The target platform of every space."""
    return [Platform.replicated(DEVICES[device], 1)
            for _, device, _ in workloads.SPACE_PLANS]


def teardown(state: list[Platform]) -> None:
    """Nothing to release."""


def _tasks(estimate: LatencyEstimate) -> int:
    return sum(layer.task_count for layer in estimate.design.layers)


def _in_order_cycles(estimate: LatencyEstimate) -> int:
    """Cycles of the event simulation of the estimate's own design, run
    in the nominal task order the closed form models.

    The analyzer is documented and property-tested to be at most this.
    The ``simulate`` back end uses the ready-to-run queue instead, which
    may legitimately beat the nominal order on depthwise pipelines.
    """
    graph = TaskGraphGenerator().generate(estimate.design)
    schedule = FnasScheduler(first_reuse=estimate.report.layers[0].reuse,
                             policy=IN_ORDER).schedule(graph)
    return PipelineSimulator().run(schedule).makespan


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """Run the ``estimate`` workload for ``seconds`` and check it."""
    outcome = Outcome("estimate", seed, traced=trace)
    platforms = setup()
    stream = workloads.EstimateStream(seed)
    layer_trace = None
    if trace:
        from fnasbench.layers import LayerTrace

        layer_trace = LayerTrace()
    batch_ms: list[float] = []
    busy = defaultdict(float)  # space -> seconds inside estimate_batch
    fingerprints = defaultdict(list)  # space -> every fingerprint estimated
    over_spec = defaultdict(int)  # space -> estimates above the space's spec
    first_round = defaultdict(list)  # space -> [(architecture, estimate)]
    specs = {space: spec for space, _, spec in workloads.SPACE_PLANS}
    arch_hits = 0
    # Per whole round: architectures, busy seconds and median batch
    # latency, as measured and at nominal host speed.
    rounds: dict[str, list[float]] = defaultdict(list)
    started = time.perf_counter()
    round_index = 0
    while round_index == 0 or (time.perf_counter() - started < seconds
                               and round_index < workloads.ESTIMATE_MAX_ROUNDS):
        if layer_trace is not None:
            layer_trace.start(None)  # making inputs decodes; that is not measured
        inputs = stream.next_round()
        mark = outcome.speed.mark()
        outcome.speed.sample()
        round_ms = []
        for (space, batches), platform in zip(inputs, platforms):
            estimator = LatencyEstimator(platform)
            if layer_trace is not None:
                layer_trace.start(f"{space}/r{round_index}")
            for batch in batches:
                outcome.requests += 1
                begin = time.perf_counter()
                try:
                    estimates = estimator.estimate_batch(batch)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    outcome.failed_requests += 1
                    outcome.extra.setdefault("errors", []).append(repr(exc))
                    continue
                elapsed = time.perf_counter() - begin
                busy[space] += elapsed
                batch_ms.append(elapsed * 1e3)
                round_ms.append(elapsed * 1e3)
                fingerprints[space].extend(arch.fingerprint() for arch in batch)
                over_spec[space] += sum(est.ms > specs[space] for est in estimates)
                if round_index == 0:
                    first_round[space].extend(zip(batch, estimates))
            arch_hits += estimator.stats.hits
        outcome.speed.sample()
        if round_ms:
            factor = outcome.speed.factor(since=mark)
            latency = common.quantile(round_ms, 0.5)
            rounds["units"].append(len(round_ms) * workloads.ESTIMATE_BATCH_SIZE)
            rounds["seconds"].append(sum(round_ms) / 1e3)
            rounds["seconds_nominal"].append(sum(round_ms) / 1e3 / factor)
            rounds["p50_ms"].append(latency)
            rounds["p50_ms_nominal"].append(latency / factor)
        round_index += 1
    count = sum(len(entries) for entries in fingerprints.values())
    if layer_trace is not None:
        layer_trace.finish(outcome, count)
    units = sum(rounds["units"])
    outcome.metric(outcome.e2e("throughput_per_s"), units / sum(rounds["seconds_nominal"]),
                   "1/s", units / sum(rounds["seconds"]))
    outcome.metric(outcome.e2e("latency_p50_ms"), common.median(rounds["p50_ms_nominal"]),
                   "ms", common.median(rounds["p50_ms"]))
    outcome.metric(outcome.e2e("peak_rss_mb"), common.peak_rss_mb(), "MB")

    # Output checks, outside the timed section.
    rng = np.random.default_rng([seed, 7])
    pruned = {}
    distinct = 0
    digest_blobs = []
    for space, platform in zip(workloads.SPACES, platforms):
        unique = len(set(fingerprints[space]))
        distinct += unique
        outcome.check(f"distinct/{space}", unique == len(fingerprints[space]))
        pruned[space] = (over_spec[space], len(fingerprints[space]))
        first = first_round[space]
        digest_blobs.extend(f"{arch.fingerprint()}:{est.cycles}".encode()
                            for arch, est in first)
        fresh = LatencyEstimator(platform)
        for index in rng.choice(len(first), size=RERUN_SAMPLE, replace=False):
            arch, est = first[int(index)]
            outcome.check(f"rerun/{space}/{index}",
                          fresh.estimate(arch).cycles == est.cycles)
        small = [(arch, est) for arch, est in first
                 if _tasks(est) <= SIMULATE_MAX_TASKS]
        if small:
            for index in rng.choice(len(small), size=min(SIMULATE_SAMPLE, len(small)),
                                    replace=False):
                est = small[int(index)][1]
                outcome.check(f"analyzer_le_simulator/{space}/{index}",
                              est.cycles <= _in_order_cycles(est))
    outcome.check("arch_cache_never_hit", arch_hits == 0)
    if layer_trace is not None:
        from fnasbench.layers import pruned_metrics

        pruned_metrics(outcome, pruned)

    common.measure_setup(outcome, "estimate")
    outcome.extra.update({
        "architectures": count,
        "rounds": round_index,
        "estimates_per_s": count / sum(busy.values()),
        "batch_latency_ms": common.tail_summary(batch_ms),
        "round0_digest": common.digest(digest_blobs),
        "per_space": {
            space: {"ms_per_arch": busy[space] * 1e3 / len(fingerprints[space]),
                    "pruned_share": pruned[space][0] / pruned[space][1]}
            for space in workloads.SPACES
        },
        "pruned_share": sum(p for p, _ in pruned.values()) / max(count, 1),
        "repeat_share": 1.0 - distinct / max(count, 1),
    })
    return outcome
