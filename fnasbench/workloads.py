"""Seeded workload generators: the only inputs the program receives.

Every generator takes the workload seed as an argument and is a pure
function of it, so the same seed gives the same plans, architectures
and journal history on every machine.  ``HELD_OUT_SEED`` is reserved:
tune nothing on it, and use it to confirm a claim made on other seeds.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.configs import get_config
from repro.core.architecture import Architecture
from repro.core.search_space import SearchSpace
from repro.plans import ExecutionPolicy, RunPlan, ScenarioPlan, SearchPlan, plan_hash

#: The seed kept out of tuning, for confirming a claim on fresh inputs.
HELD_OUT_SEED = 7919

#: (dataset, device, timing spec in ms) of the ``search`` and
#: ``estimate`` workloads: one pair per search space.
SPACE_PLANS = (
    ("mnist", "pynq-z1", 5.0),
    ("cifar10", "pynq-z1", 2.0),
    ("imagenet", "xczu9eg", 5.0),
    ("mobilenet", "xc7z020-ddr-narrow", 20.0),
)
SPACES = tuple(dataset for dataset, _, _ in SPACE_PLANS)

SEARCH_TRIALS = 300
SEARCH_BATCH_SIZE = 32

ESTIMATE_BATCH_SIZE = 32
#: Batches each fresh estimator receives per round (per space).
ESTIMATE_BATCHES_PER_ROUND = 4
#: The mnist space holds 6561 distinct architectures; this many rounds
#: use 5120 of them, and a run stops early rather than run out.
ESTIMATE_MAX_ROUNDS = 40

#: (dataset, device, timing specs in ms) the ``service`` plans draw from.
SERVICE_PAIRS = (
    ("mnist", "pynq-z1", (2.0, 5.0, 10.0, 20.0)),
    ("mobilenet", "xc7z020-ddr-wide", (1.0, 2.5, 5.0, 10.0)),
)
_SERVICE_SPECS = {dataset: specs for dataset, _, specs in SERVICE_PAIRS}
SERVICE_TRIALS = 60
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2
#: Every block of the service stream holds exactly this many
#: resubmits and sweeps, in a seeded order; the rest are novel searches,
#: which cycle through every (pair, spec) combination equally often.
SERVICE_BLOCK = 40
RESUBMITS_PER_BLOCK = 10
SWEEPS_PER_BLOCK = 6
RESUBMIT_SHARE = RESUBMITS_PER_BLOCK / SERVICE_BLOCK
SWEEP_SHARE = SWEEPS_PER_BLOCK / SERVICE_BLOCK
#: Completed jobs in the journal the service replays at start-up.
JOURNAL_HISTORY_JOBS = 20_000

#: Plan seeds of the service stream stay below this; the journal
#: history uses seeds above it, so history never answers a stream plan.
_STREAM_SEED_LIMIT = 1_000_000_000


def sub_seed(seed: int, *parts: int) -> int:
    """A 31-bit seed derived from ``seed`` and a path of indices."""
    state = np.random.SeedSequence([seed, *parts]).generate_state(1)[0]
    return int(state) % _STREAM_SEED_LIMIT


# -- search -------------------------------------------------------------------


def search_plan(dataset: str, device: str, spec_ms: float, seed: int) -> RunPlan:
    """One batched FNAS plan of the ``search`` workload."""
    return RunPlan(
        workload="search",
        search=SearchPlan(trials=SEARCH_TRIALS, seed=seed),
        execution=ExecutionPolicy(batch_size=SEARCH_BATCH_SIZE),
        scenario=ScenarioPlan(datasets=(dataset,), devices=(device,),
                              specs_ms=(spec_ms,)),
    )


def search_round(seed: int, round_index: int) -> list[tuple[str, RunPlan]]:
    """Round ``round_index`` of the ``search`` workload: one plan per space."""
    return [
        (dataset, search_plan(dataset, device, spec,
                              sub_seed(seed, round_index, index)))
        for index, (dataset, device, spec) in enumerate(SPACE_PLANS)
    ]


# -- estimate -----------------------------------------------------------------


class EstimateStream:
    """Distinct random architectures per space, handed out in rounds.

    Each round gives every space ``ESTIMATE_BATCHES_PER_ROUND`` batches
    of ``ESTIMATE_BATCH_SIZE`` architectures.  No fingerprint repeats
    within a space over the whole stream, so an architecture-level
    cache can never answer.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._spaces = [SearchSpace.from_config(get_config(dataset))
                        for dataset in SPACES]
        self._rngs = [np.random.default_rng([seed, index])
                      for index in range(len(SPACES))]
        self._seen: list[set[str]] = [set() for _ in SPACES]

    def _fresh(self, index: int) -> Architecture:
        space, rng, seen = self._spaces[index], self._rngs[index], self._seen[index]
        for _ in range(10_000):
            tokens = [int(rng.integers(len(space.choices_at(step))))
                      for step in range(space.num_decisions)]
            architecture = space.decode(tokens)
            fingerprint = architecture.fingerprint()
            if fingerprint not in seen:
                seen.add(fingerprint)
                return architecture
        raise RuntimeError(f"space {space.name} ran out of fresh architectures")

    def next_round(self) -> list[tuple[str, list[list[Architecture]]]]:
        """``[(space, batches)]`` for every space, in ``SPACES`` order."""
        return [
            (dataset, [[self._fresh(index) for _ in range(ESTIMATE_BATCH_SIZE)]
                       for _ in range(ESTIMATE_BATCHES_PER_ROUND)])
            for index, dataset in enumerate(SPACES)
        ]


# -- service ------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceItem:
    """One submission of the ``service`` stream.

    ``kind`` is ``"search"`` (a novel plan), ``"resubmit"`` (the exact
    plan of item ``ref``) or ``"sweep"`` (two specs, one of which is
    the shard of search item ``ref``).
    """

    index: int
    kind: str
    plan: RunPlan
    ref: int | None = None


def _service_search(dataset: str, device: str, spec_ms: float,
                    seed: int) -> RunPlan:
    return RunPlan(
        workload="search",
        search=SearchPlan(trials=SERVICE_TRIALS, seed=seed),
        scenario=ScenarioPlan(datasets=(dataset,), devices=(device,),
                              specs_ms=(spec_ms,), surrogate_seed=0),
    )


def service_stream(seed: int) -> Iterator[ServiceItem]:
    """The endless, seeded submission stream of the ``service`` workload.

    Each block of ``SERVICE_BLOCK`` items is a seeded shuffle of
    ``RESUBMITS_PER_BLOCK`` resubmits, ``SWEEPS_PER_BLOCK`` sweeps and
    novel searches, and novel searches draw their dataset/device pair
    and spec from seeded shuffles of all combinations, so every seed
    offers the same mix.  An item
    refers only to items at least ``SERVICE_CLIENTS`` places earlier:
    with that many closed-loop clients drawing from the stream in
    order, those have completed by the time it is submitted, so a
    resubmit is a whole-plan hit and a sweep finds its shared shard in
    the store.  Where no such item exists yet, a novel search is
    submitted instead.
    """
    rng = np.random.default_rng([seed, 3])
    items: list[ServiceItem] = []
    searches: list[tuple[int, str, str, float, int]] = []
    swept: set[tuple[int, float]] = set()
    kinds: list[str] = []
    combos: list[tuple[str, str, float]] = []
    while True:
        if not kinds:
            kinds = (["resubmit"] * RESUBMITS_PER_BLOCK + ["sweep"] * SWEEPS_PER_BLOCK
                     + ["search"] * (SERVICE_BLOCK - RESUBMITS_PER_BLOCK
                                     - SWEEPS_PER_BLOCK))
            rng.shuffle(kinds)
        kind = kinds.pop()
        index = len(items)
        ready = index - SERVICE_CLIENTS
        item = None
        if kind == "resubmit" and ready >= 0:
            ref = int(rng.integers(ready + 1))
            ref = items[ref].ref if items[ref].kind == "resubmit" else ref
            item = ServiceItem(index, "resubmit", items[ref].plan, ref)
        elif kind == "sweep":
            eligible = [entry for entry in searches if entry[0] <= ready]
            if eligible:
                ref, dataset, device, spec, plan_seed = eligible[
                    int(rng.integers(len(eligible)))]
                extra = float(rng.choice([s for s in _SERVICE_SPECS[dataset]
                                          if s != spec]))
                if (ref, extra) not in swept:
                    swept.add((ref, extra))
                    plan = RunPlan(
                        workload="sweep",
                        search=SearchPlan(trials=SERVICE_TRIALS, seed=plan_seed),
                        scenario=ScenarioPlan(
                            datasets=(dataset,), devices=(device,),
                            seeds=(plan_seed,),
                            specs_ms=tuple(sorted((spec, extra))),
                            surrogate_seed=0),
                    )
                    item = ServiceItem(index, "sweep", plan, ref)
        if item is None:
            if not combos:
                combos = [(dataset, device, spec)
                          for dataset, device, specs in SERVICE_PAIRS for spec in specs]
                rng.shuffle(combos)
            dataset, device, spec = combos.pop()
            plan_seed = sub_seed(seed, 4, index)
            searches.append((index, dataset, device, spec, plan_seed))
            item = ServiceItem(index, "search",
                               _service_search(dataset, device, spec, plan_seed))
        items.append(item)
        yield item


def warmup_plan(seed: int, number: int) -> RunPlan:
    """A service plan outside the stream, to start a pool worker with."""
    dataset, device, specs = SERVICE_PAIRS[number % len(SERVICE_PAIRS)]
    return _service_search(dataset, device, specs[0],
                           _STREAM_SEED_LIMIT - 1 - sub_seed(seed, 9, number) % 1000)


def journal_history(seed: int, jobs: int = JOURNAL_HISTORY_JOBS
                    ) -> Iterator[tuple[str, str, dict]]:
    """``(job_id, plan_hash, plan_doc)`` of completed history jobs.

    Plan documents are real service plans with seeds outside the
    stream's range.  Documents are made by editing one template per
    pair; the first of each pair is checked against
    :func:`repro.plans.plan_hash` so the hashes are the program's own.
    """
    rng = np.random.default_rng([seed, 5])
    templates = []
    for dataset, device, specs in SERVICE_PAIRS:
        doc = _service_search(dataset, device, specs[0], 0).to_dict()
        templates.append((doc, specs))
    checked: set[int] = set()
    for number in range(jobs):
        pair = int(rng.integers(len(templates)))
        template, specs = templates[pair]
        doc = copy.deepcopy(template)
        doc["search"]["seed"] = _STREAM_SEED_LIMIT + number
        doc["scenario"]["specs_ms"] = [float(rng.choice(specs))]
        digest = hashlib.sha256(json.dumps(
            doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        if pair not in checked:
            checked.add(pair)
            if plan_hash(RunPlan.from_dict(doc)) != digest:
                raise RuntimeError("journal history hash differs from plan_hash")
        yield f"j-{digest[:12]}", digest, doc
