"""``service``: closed-loop HTTP clients against the async gateway.

Two client threads (one per core of the reference box) each submit a
plan through :class:`ServiceClient`, wait on the job's Server-Sent
Events stream for the end frame, then fetch ``/result``, and repeat.
The gateway runs in-process on a :class:`SearchService` with the
process back end and two pool workers, over a store directory whose
journal already holds a history of completed jobs.  Jobs are short,
so admission, queueing, pool dispatch, the store and the tiling disk
tier are a visible share of job latency.

Layers are observed from outside: client-side timestamps,
``SearchService.add_job_listener`` and bus events (traced run only),
and ``GET /metrics``.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
import urllib.request
from collections import defaultdict
from pathlib import Path
from typing import Any

import numpy as np

from repro.api import Session
from repro.events import JobCompleted, JobQueued, JobStarted, SearchStarted, ShardCached
from repro.plans import plan_hash
from repro.service import GatewayRunner, JobJournal, ServiceClient
from repro.service.journal import JOURNAL_FILENAME
from repro.service.store import canonical_payload_bytes, encode_result

from fnasbench import common, workloads
from fnasbench.common import Outcome, quantile
from fnasbench.workloads import SERVICE_CLIENTS, SERVICE_WORKERS

#: Jobs re-run in-process after the timed section, compared byte for byte.
INPROCESS_SAMPLE = 3
#: Per-request socket timeout of the clients, seconds.
CLIENT_TIMEOUT = 120.0
#: The clients pause between segments of this length, once in-flight
#: jobs are done, so that host-speed samples sit next to the timings.
SEGMENT_SECONDS = 5.0


def seed_store(store_dir: Path, seed: int) -> None:
    """Write the journal history of completed jobs into ``store_dir``."""
    store_dir.mkdir(parents=True)
    with JobJournal(store_dir / JOURNAL_FILENAME) as journal:
        for job_id, digest, doc in workloads.journal_history(seed):
            journal.record("queued", digest, job_id, priority=0, plan_doc=doc)
            journal.record("running", digest, job_id)
            journal.record("done", digest, job_id)


def setup(store_dir: str) -> dict[str, Any]:
    """Replay the journal, bind the gateway, and check it answers."""
    runner = GatewayRunner(store_dir=store_dir, backend="process",
                           workers=SERVICE_WORKERS)
    begin = time.perf_counter()
    runner.start()
    start_ms = (time.perf_counter() - begin) * 1e3
    ServiceClient(runner.base_url, timeout=CLIENT_TIMEOUT).health()
    return {"runner": runner, "start_ms": start_ms}


def teardown(state: dict[str, Any]) -> None:
    """Drain the gateway; the service and its pool shut down with it."""
    state["runner"].stop()


class _Recorder:
    """Bus events and job-listener notifications, with arrival times."""

    def __init__(self) -> None:
        self.events: list[tuple[Any, float]] = []
        self.notified: list[tuple[str, float]] = []

    def on_event(self, event: Any) -> None:
        self.events.append((event, time.perf_counter()))

    def on_job(self, job_id: str) -> None:
        self.notified.append((job_id, time.perf_counter()))


def _client_loop(base_url: str, stream, lock: threading.Lock, stop_at: float,
                 records: list[dict[str, Any]]) -> None:
    """One closed-loop client: submit, wait for the end frame, fetch."""
    client = ServiceClient(base_url, timeout=CLIENT_TIMEOUT)
    while True:
        with lock:
            if time.perf_counter() >= stop_at:
                return
            item = next(stream)
        record: dict[str, Any] = {"item": item, "submit": time.perf_counter()}
        try:
            info = client.submit(item.plan)
            record["submitted"] = time.perf_counter()
            record["job_id"] = info["job_id"]
            record["deduped"] = bool(info.get("deduped")) or info["state"] == "done"
            state = None
            for frame in client.stream_events(info["job_id"]):
                if frame["event"] == "end":
                    state = frame["data"].get("state")
            record["end"] = time.perf_counter()
            record["state"] = state
            record["bytes"] = client.result_bytes(info["job_id"])
            record["result"] = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - counted as a failed job
            record["error"] = repr(exc)
        records.append(record)


def _warm_pool(base_url: str, seed: int) -> None:
    """Start every pool worker with one job each, before timing.

    A long-lived service pays worker start-up once, not per job.  The
    warm-up plans use seeds the measured stream never draws.
    """
    client = ServiceClient(base_url, timeout=CLIENT_TIMEOUT)
    jobs = [client.submit(workloads.warmup_plan(seed, n))["job_id"]
            for n in range(SERVICE_WORKERS)]
    for job_id in jobs:
        client.wait(job_id, timeout=CLIENT_TIMEOUT, poll=0.05)


def _succeeded(record: dict[str, Any]) -> bool:
    return "error" not in record and record["state"] == "done"


def _run_clients(base_url: str, stream, lock: threading.Lock, stop_at: float,
                 records: list[dict[str, Any]]) -> None:
    """Run the closed-loop clients until ``stop_at`` and their jobs are done."""
    clients = [
        threading.Thread(target=_client_loop, name=f"bench-client-{n}",
                         args=(base_url, stream, lock, stop_at, records))
        for n in range(SERVICE_CLIENTS)
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=CLIENT_TIMEOUT * 3)
    if any(client.is_alive() for client in clients):
        raise RuntimeError("a service client did not finish in time")


def _fetch_metrics(base_url: str) -> dict[str, Any]:
    with urllib.request.urlopen(f"{base_url}/metrics", timeout=CLIENT_TIMEOUT) as reply:
        return json.loads(reply.read())


def _sweep_shard_matches(sweep_bytes: bytes, search_item, search_bytes: bytes) -> bool:
    """The sweep's copy of a shared shard equals the search's own result."""
    spec = search_item.plan.scenario.specs_ms[0]
    for shard in json.loads(sweep_bytes)["shards"]:
        if shard["spec"]["spec_ms"] == spec:
            return shard["result"] == json.loads(search_bytes)
    return False


def _p(samples: list[float], fraction: float) -> float:
    return quantile(samples, fraction) if samples else 0.0


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """Run the ``service`` workload for ``seconds`` and check it."""
    outcome = Outcome("service", seed, traced=trace)
    store_dir = common.OUTPUT_DIR / f"service-store-seed{seed}-trace{int(trace)}"
    shutil.rmtree(store_dir, ignore_errors=True)
    try:
        seed_store(store_dir, seed)
        _run(outcome, store_dir, seed, seconds, trace)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return outcome


def _run(outcome: Outcome, store_dir: Path, seed: int, seconds: float,
         trace: bool) -> None:
    outcome.speed.sample(5)
    if trace:
        replay_ms = []
        for _ in range(3):
            begin = time.perf_counter()
            JobJournal.pending_jobs(JobJournal.replay(store_dir / JOURNAL_FILENAME))
            replay_ms.append((time.perf_counter() - begin) * 1e3)
        outcome.timing("journal.replay_ms", common.median(replay_ms), "ms")
    state = setup(str(store_dir))
    runner = state["runner"]
    recorder = _Recorder()
    if trace:
        runner.service.add_job_listener(recorder.on_job)
        runner.service.bus.subscribe(recorder.on_event)
    records: list[dict[str, Any]] = []
    wall = nominal = 0.0  # seconds in segments, as measured and at nominal speed
    try:
        _warm_pool(runner.base_url, seed)
        lock = threading.Lock()
        stream = workloads.service_stream(seed)
        started = time.perf_counter()
        while wall == 0.0 or time.perf_counter() - started < seconds:
            mark = outcome.speed.mark()
            outcome.speed.sample(3)
            first = len(records)
            begin = time.perf_counter()
            _run_clients(runner.base_url, stream, lock, begin + SEGMENT_SECONDS, records)
            elapsed = time.perf_counter() - begin
            outcome.speed.sample(3)
            factor = outcome.speed.factor(since=mark)
            for record in records[first:]:
                record["factor"] = factor
            wall += elapsed
            nominal += elapsed / factor
        metrics = _fetch_metrics(runner.base_url)
    finally:
        teardown(state)

    ok = [r for r in records if _succeeded(r)]
    outcome.requests = len(records)
    outcome.failed_requests = len(records) - len(ok)
    latencies = [(r["result"] - r["submit"]) * 1e3 for r in ok]
    outcome.metric(outcome.e2e("throughput_per_s"), len(ok) / nominal, "1/s", len(ok) / wall)
    outcome.metric(outcome.e2e("latency_p50_ms"),
                   _p([ms / r["factor"] for ms, r in zip(latencies, ok)], 0.5),
                   "ms", _p(latencies, 0.5))
    outcome.metric(outcome.e2e("peak_rss_mb"), common.peak_rss_mb(SERVICE_WORKERS), "MB")
    if trace:
        _layer_metrics(outcome, records, recorder, metrics, state["start_ms"])

    # Output checks, outside the timed section.
    first_bytes: dict[str, bytes] = {}
    for record in sorted(ok, key=lambda r: r["item"].index):
        item = record["item"]
        if item.kind == "resubmit":
            outcome.check(f"resubmit/{item.index}",
                          first_bytes.get(plan_hash(item.plan)) == record["bytes"])
        else:
            first_bytes.setdefault(plan_hash(item.plan), record["bytes"])
    by_index = {r["item"].index: r for r in ok}
    for record in ok:
        item = record["item"]
        if item.kind == "sweep" and item.ref in by_index:
            outcome.check(f"shard_memo/{item.index}", _sweep_shard_matches(
                record["bytes"], by_index[item.ref]["item"], by_index[item.ref]["bytes"]))
    rng = np.random.default_rng([seed, 8])
    executed = [r for r in ok if r["item"].kind != "resubmit"]
    for index in rng.choice(len(executed), size=min(INPROCESS_SAMPLE, len(executed)),
                            replace=False):
        record = executed[int(index)]
        plan = record["item"].plan
        local = canonical_payload_bytes(encode_result(plan, Session.from_plan(plan).run()))
        outcome.check(f"inprocess/{record['item'].index}", local == record["bytes"])

    common.measure_setup(outcome, "service", str(store_dir))
    kinds = defaultdict(int)
    for record in records:
        kinds[record["item"].kind] += 1
    pruned = trials = 0
    for record in ok:
        for result in _search_results(record["bytes"]):
            trials += len(result["trials"])
            pruned += result["pruned_count"]
    outcome.extra.update({
        "jobs": len(ok),
        "jobs_per_s": len(ok) / wall,
        "job_latency_ms": common.tail_summary(latencies),
        "submissions_by_kind": dict(kinds),
        "repeat_share": kinds["resubmit"] / max(len(records), 1),
        "sweep_share": kinds["sweep"] / max(len(records), 1),
        "pruned_share": pruned / max(trials, 1),
        "metrics_endpoint": {key: metrics.get(key) for key in ("jobs", "store", "pool")},
    })


def _search_results(blob: bytes) -> list[dict[str, Any]]:
    """The search ledgers inside a ``/result`` document."""
    doc = json.loads(blob)
    if "shards" in doc:
        return [shard["result"] for shard in doc["shards"]]
    return [doc]


def _layer_metrics(outcome: Outcome, records: list[dict[str, Any]],
                   recorder: _Recorder, metrics: dict[str, Any],
                   start_ms: float) -> None:
    """Per-layer metrics of the gateway, queue, pool, store and memo."""
    ok = [r for r in records if "error" not in r]
    submit = [(r["submitted"] - r["submit"]) * 1e3 for r in ok]
    result = [(r["result"] - r["end"]) * 1e3 for r in ok]
    last_notice: dict[str, list[float]] = defaultdict(list)
    for job_id, at in recorder.notified:
        last_notice[job_id].append(at)
    delivery = []
    for record in ok:
        if record["deduped"]:
            continue
        before = [at for at in last_notice.get(record["job_id"], ()) if at <= record["end"]]
        if before:
            delivery.append((record["end"] - max(before)) * 1e3)
    stamps: dict[str, dict[str, float]] = defaultdict(dict)
    shards_run = shards_cached = 0
    for event, at in recorder.events:
        if isinstance(event, (JobQueued, JobStarted, JobCompleted)):
            stamps[event.scope].setdefault(type(event).__name__, at)
        elif isinstance(event, ShardCached):
            shards_cached += 1
        elif isinstance(event, SearchStarted) and event.scope != "sweep":
            shards_run += 1
    queue_wait = [(s["JobStarted"] - s["JobQueued"]) * 1e3
                  for s in stamps.values() if {"JobQueued", "JobStarted"} <= s.keys()]
    run_ms = [(s["JobCompleted"] - s["JobStarted"]) * 1e3
              for s in stamps.values() if {"JobStarted", "JobCompleted"} <= s.keys()]
    for name, samples in (("gateway.submit_ms", submit), ("gateway.delivery_ms", delivery),
                          ("service.queue_wait_ms", queue_wait),
                          ("service.run_ms", run_ms)):
        outcome.timing(f"{name}.p50", _p(samples, 0.5), "ms")
        outcome.timing(f"{name}.p90", _p(samples, 0.9), "ms")
        outcome.extra[f"{name}.samples"] = len(samples)
    outcome.timing("gateway.result_ms.p50", _p(result, 0.5), "ms")
    outcome.timing("gateway.start_ms", start_ms, "ms")
    pool = metrics["pool"]
    outcome.metric("pool.dispatch", pool["pool.dispatch"], "count")
    outcome.metric("pool.worker_spawn", pool["worker.spawn"], "count")
    outcome.metric("pool.worker_reuse", pool["worker.reuse"], "count")
    store = metrics["store"]
    outcome.metric("store.hit_rate", store["hits"] / max(store["hits"] + store["misses"], 1),
                   "ratio")
    outcome.metric("campaign.shard_cached_share",
                   shards_cached / max(shards_cached + shards_run, 1), "ratio")
