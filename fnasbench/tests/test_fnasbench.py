"""The benchmark's own tests: generators, metric names, tracing, the command.

Run from the repository root with ``python3 -m pytest fnasbench/tests -q``.
The last tests run the benchmark command itself for a second per
workload, so the file takes over a minute.
"""

import itertools
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

from repro.configs import get_config
from repro.orchestration.shards import ShardSpec, plan_shards
from repro.plans import RunPlan, plan_hash

from fnasbench import common, workloads
from fnasbench.tracing import Tracer

ROOT = common.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- generators ----------------------------------------------------------------


def test_search_rounds_are_deterministic_per_seed():
    assert workloads.search_round(4, 2) == workloads.search_round(4, 2)
    assert workloads.search_round(4, 2) != workloads.search_round(5, 2)
    assert workloads.search_round(4, 2) != workloads.search_round(4, 3)


def _stream_fingerprints(seed, rounds):
    stream = workloads.EstimateStream(seed)
    return [[(space, [a.fingerprint() for a in batch])
             for space, batches in stream.next_round() for batch in batches]
            for _ in range(rounds)]


def test_estimate_stream_is_deterministic_per_seed():
    assert _stream_fingerprints(1, 2) == _stream_fingerprints(1, 2)
    assert _stream_fingerprints(1, 1) != _stream_fingerprints(2, 1)


def test_estimate_stream_never_repeats_a_fingerprint():
    seen = {space: [] for space in workloads.SPACES}
    for round_ in _stream_fingerprints(3, 3):
        for space, fingerprints in round_:
            seen[space].extend(fingerprints)
    for fingerprints in seen.values():
        assert len(fingerprints) == len(set(fingerprints))


def test_estimate_rounds_fit_in_the_smallest_space():
    per_round = workloads.ESTIMATE_BATCHES_PER_ROUND * workloads.ESTIMATE_BATCH_SIZE
    smallest = min(get_config(space).space_size for space in workloads.SPACES)
    assert workloads.ESTIMATE_MAX_ROUNDS * per_round <= smallest


def _service_items(seed, count):
    return list(itertools.islice(workloads.service_stream(seed), count))


def test_service_stream_is_deterministic_per_seed():
    assert _service_items(7, 60) == _service_items(7, 60)
    assert _service_items(7, 60) != _service_items(8, 60)


def test_service_stream_shares_match_what_is_stated():
    items = _service_items(11, 2000)
    share = {kind: sum(i.kind == kind for i in items) / len(items)
             for kind in ("resubmit", "sweep")}
    assert share["resubmit"] == pytest.approx(workloads.RESUBMIT_SHARE, abs=0.005)
    assert workloads.SWEEP_SHARE - 0.03 <= share["sweep"] <= workloads.SWEEP_SHARE
    assert workloads.RESUBMIT_SHARE == 0.25 and workloads.SWEEP_SHARE == 0.15


def test_service_items_refer_to_completed_items_and_share_shards():
    items = _service_items(12, 300)
    for item in items:
        if item.kind == "search":
            continue
        assert item.ref <= item.index - workloads.SERVICE_CLIENTS
        original = items[item.ref]
        if item.kind == "resubmit":
            assert original.kind != "resubmit"
            assert plan_hash(item.plan) == plan_hash(original.plan)
        else:
            assert original.kind == "search"
            shard = ShardSpec.from_plan(original.plan).shard_hash
            assert shard in {s.shard_hash for s in plan_shards(item.plan)}


def test_journal_history_is_deterministic_and_hashed_by_the_program():
    first = list(itertools.islice(workloads.journal_history(5), 50))
    assert first == list(itertools.islice(workloads.journal_history(5), 50))
    for _, digest, doc in first[:5]:
        assert plan_hash(RunPlan.from_dict(doc)) == digest
    stream_hashes = {plan_hash(i.plan) for i in _service_items(5, 200)}
    assert not stream_hashes & {digest for _, digest, _ in first}


# -- BENCHMARK.json ------------------------------------------------------------


def test_metric_names_units_and_bounds_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == ["search", "estimate", "service"]


# -- tracing and host-speed correction -----------------------------------------


class _Layer:
    def outer(self):
        time.sleep(0.01)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.02)


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", "inner")
    layer = _Layer()
    try:
        layer.outer()  # no trace id yet: passes through unrecorded
        assert tracer.spans == []
        tracer.trace_id = "t"
        layer.outer()
    finally:
        tracer.restore()
    outer, first, second = tracer.spans
    assert first.parent == 0 and second.parent == 0 and outer.parent is None
    self_ns = tracer.self_ns()
    assert self_ns[0] == outer.duration_ns - first.duration_ns - second.duration_ns
    assert self_ns[1] == first.duration_ns
    assert _Layer.__dict__["outer"].__name__ == "outer"  # restored


def test_host_speed_scales_durations_and_rates_oppositely():
    speed = common.HostSpeed()
    speed.samples = [2 * common.REFERENCE_SECONDS] * 3  # a host at half speed
    assert speed.correct(10.0, "ms") == pytest.approx(5.0)
    assert speed.correct(10.0, "1/s") == pytest.approx(20.0)
    assert speed.correct(10.0, "count") == 10.0


# -- the command -----------------------------------------------------------------


def _run(*args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, "fnasbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


#: Layers each workload must exercise in a traced run.
EXERCISED = {
    "search": ("controller.sample_ms", "search_space.decode_ms", "estimator.self_ms",
               "tiling.design_ms", "analyzer.analyze_ms", "evaluator.evaluate_ms",
               "session.self_ms"),
    "estimate": ("estimator.self_ms", "explorer.self_ms", "tiling.design_ms",
                 "analyzer.analyze_ms"),
    "service": ("gateway.submit_ms.p50", "gateway.delivery_ms.p50",
                "service.queue_wait_ms.p50", "service.run_ms.p50", "pool.dispatch",
                "campaign.shard_cached_share", "journal.replay_ms"),
}


@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_prints_every_metric_with_its_unit(trace):
    completed = _run("--workload", "all", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace))
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    merged = json.loads(lines[-1])
    assert set(merged) == {"correct", "attempted", "failed", "metrics"}
    assert merged["correct"] and merged["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in wanted:
            assert any(re.fullmatch(rf"{re.escape(metric['name'])} \S+ "
                                    rf"{re.escape(metric['unit'])}", line)
                       for line in lines), (workload, metric["name"])
            assert f"{workload}.{metric['name']}" in merged["metrics"]
        if trace:
            record = json.loads((common.OUTPUT_DIR
                                 / f"{workload}-seed1-trace1.json").read_text())
            absent = set(record["extra"]["layers_not_exercised"])
            assert not absent & set(EXERCISED[workload]), workload


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "fnasbench", tmp_path / "fnasbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "search", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, timeout=180)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
