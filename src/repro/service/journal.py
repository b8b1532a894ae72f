"""Crash-consistent job journal: the service's durable queue memory.

A :class:`JobJournal` is an append-only JSONL file recording every job
lifecycle transition a :class:`~repro.service.SearchService` performs:

* ``queued`` -- carries the full canonical plan document and priority,
  so the journal alone can rebuild the submission;
* ``leased`` -- a remote agent claimed the job; carries the agent id
  and lease term, so leases survive a coordinator restart (the
  restarted service restores the lease instead of re-queueing, and the
  still-running agent keeps its claim);
* ``running`` / ``lease-expired`` / ``done`` / ``failed`` /
  ``cancelled`` -- state-only markers keyed by the job's plan hash.

Appends are flushed line-by-line, so a SIGKILLed service loses at most
the entry it was writing -- and JSONL tolerates exactly that failure
mode: :func:`JobJournal.replay` simply ignores a torn trailing line.
Combined with the service's per-hash checkpoint fallback and the
content-addressed :class:`~repro.service.store.ResultStore`, the
journal makes ``repro serve`` restart-safe: on startup the service
replays the journal, re-queues every job whose last recorded state is
``queued`` or ``running``, and those jobs then *resume* from their
checkpoints instead of restarting (see
:meth:`~repro.service.SearchService` ``recover`` and the
``service-smoke`` CI job, which SIGKILLs a live server mid-job and
asserts the restarted one finishes the work byte-identically).

Only hash-addressable jobs are journaled: a job submitted with a live
evaluator override cannot be rebuilt from its plan document, so it is
deliberately left out (exactly as it is left out of the result store).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Journal line schema tag (bumped on incompatible layout changes).
JOURNAL_SCHEMA = 1

#: Default journal filename, conventionally inside the result store's
#: directory (one directory = one durable service state: results +
#: journal, which is also what lets ``repro store gc`` find the
#: journal from ``--store-dir`` alone).
JOURNAL_FILENAME = "journal.jsonl"

#: Ops a journal line may carry, in rough lifecycle order.  ``leased``
#: marks a remote agent claiming the job (the entry carries the agent id
#: and lease term, so a restarted coordinator can restore the lease);
#: ``lease-expired`` marks the coordinator reclaiming it.  Both are
#: additive: readers predating them simply skip the ops and still treat
#: the job as non-terminal, so the schema tag stays at 1.
JOURNAL_OPS = ("queued", "running", "leased", "lease-expired", "done",
               "failed", "cancelled")

#: Last-recorded states that make a job recoverable after a crash.
#: ``leased`` and ``lease-expired`` are non-terminal: the coordinator
#: died while an agent held (or had just lost) the job.
_RECOVERABLE_STATES = ("queued", "running", "leased", "lease-expired")


@dataclass(frozen=True)
class PendingJob:
    """One journal-recovered submission awaiting re-queueing.

    Attributes:
        plan_doc: the canonical plan document recorded at submit time
            (parse with :meth:`repro.plans.RunPlan.from_dict`).
        plan_hash: the job's canonical plan hash.
        priority: the priority of the *latest* recorded submission.
        last_state: the last journaled state (``queued``, ``running``,
            ``leased`` or ``lease-expired``) -- non-``queued`` jobs
            resume from their per-hash checkpoints when the service has
            a checkpoint root.
        agent: for ``last_state == "leased"``, the id of the agent that
            held the lease when the coordinator died; the restarted
            coordinator restores the lease to it (with a fresh grace
            deadline) instead of re-queueing, so a still-running agent
            keeps its claim.
        lease_seconds: the lease term recorded at claim time (``None``
            when the journal predates leases).
        tenant: the tenant recorded on the latest submission (``None``
            for anonymous submissions or pre-tenancy journals); a
            recovering service re-queues the job under the same
            tenant, so per-tenant accounting and quotas survive
            restarts.
    """

    plan_doc: dict[str, Any]
    plan_hash: str
    priority: int
    last_state: str
    agent: str | None = None
    lease_seconds: float | None = None
    tenant: str | None = None


class JobJournal:
    """Append-only JSONL log of service job transitions.

    Parameters:
        path: the journal file; created (with parents) on first append.

    Appends are serialized by an internal lock and flushed to the OS
    immediately, so a process crash (the SIGKILL case the journal
    exists for) never loses an acknowledged entry.  :meth:`close` turns
    further appends into no-ops rather than errors -- teardown paths
    and crash-simulation tests can drop the journal without racing
    in-flight workers.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._file = None
        self._closed = False

    def record(
        self,
        op: str,
        plan_hash: str,
        job_id: str,
        priority: int | None = None,
        plan_doc: dict[str, Any] | None = None,
        note: str | None = None,
        agent: str | None = None,
        lease_seconds: float | None = None,
        tenant: str | None = None,
    ) -> None:
        """Append one transition line (no-op after :meth:`close`).

        ``queued`` entries must carry ``plan_doc`` and ``priority`` --
        they are what replay rebuilds submissions from (and may carry
        the admitting ``tenant``, which is what makes per-tenant
        accounting crash-durable); ``leased`` entries must carry
        ``agent`` (and should carry ``lease_seconds``) so a restarted
        coordinator can restore the lease; the other ops are state
        markers.
        """
        if op not in JOURNAL_OPS:
            raise ValueError(
                f"unknown journal op {op!r}; expected one of "
                + ", ".join(JOURNAL_OPS)
            )
        if op == "queued" and plan_doc is None:
            raise ValueError("'queued' journal entries must carry the plan")
        if op == "leased" and agent is None:
            raise ValueError("'leased' journal entries must carry the agent")
        entry: dict[str, Any] = {
            "schema": JOURNAL_SCHEMA,
            "op": op,
            "hash": plan_hash,
            "job": job_id,
        }
        if priority is not None:
            entry["priority"] = priority
        if plan_doc is not None:
            entry["plan"] = plan_doc
        if note is not None:
            entry["note"] = note
        if agent is not None:
            entry["agent"] = agent
        if lease_seconds is not None:
            entry["lease_seconds"] = float(lease_seconds)
        if tenant is not None:
            entry["tenant"] = tenant
        line = json.dumps(entry, sort_keys=True)
        with self._lock:
            if self._closed:
                return
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._repair_torn_tail()
                self._file = open(self.path, "a", encoding="utf-8")
            self._file.write(line + "\n")
            self._file.flush()

    def _repair_torn_tail(self) -> None:
        """Drop a torn trailing line before the first append.

        A SIGKILL can leave the file ending mid-line; replay tolerates
        that, but appending straight after the partial text would glue
        the new entry onto it -- *mid-file* corruption that replay
        rightly refuses, permanently bricking restarts.  The torn
        fragment was never durably acknowledged (that is the journal's
        documented loss bound), so truncating it restores an all-valid
        file before new entries land.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
        if not data or data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1  # 0 when no complete line exists
        with open(self.path, "rb+") as repair:
            repair.truncate(keep)

    def close(self) -> None:
        """Close the file; later :meth:`record` calls become no-ops."""
        with self._lock:
            self._closed = True
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "JobJournal":
        """Context-manager entry: the journal itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit closes the journal."""
        self.close()

    # -- replay ---------------------------------------------------------------

    @staticmethod
    def replay(path: str | Path) -> list[dict[str, Any]]:
        """Parse a journal file into its entry list.

        Tolerates the one corruption a crash can cause -- a torn final
        line -- by ignoring any line that fails to parse as a JSON
        object; a malformed line *followed by* well-formed ones would
        mean outside interference and raises instead.
        """
        entries: list[dict[str, Any]] = []
        bad_at: int | None = None
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                if not isinstance(entry, dict):
                    raise ValueError("journal lines must be JSON objects")
            except ValueError:
                bad_at = number
                continue
            if bad_at is not None:
                raise ValueError(
                    f"{path}: line {bad_at} is corrupt but line {number} "
                    "parses; only a torn *trailing* line is recoverable"
                )
            if entry.get("schema") != JOURNAL_SCHEMA:
                raise ValueError(
                    f"{path}: unsupported journal schema "
                    f"{entry.get('schema')!r} on line {number}"
                )
            entries.append(entry)
        return entries

    @staticmethod
    def pending_jobs(entries: list[dict[str, Any]]) -> list[PendingJob]:
        """Reduce replayed entries to the jobs a restart must re-queue.

        A job is pending when its *last* recorded transition is
        non-terminal (``queued``, ``running``, ``leased`` or
        ``lease-expired``) -- i.e. the service died before the job
        reached a terminal state -- and some ``queued`` entry recorded
        its plan.  Results come back in first-seen order (the original
        submission order), each carrying the most recent plan document,
        priority and tenant recorded for its hash, plus the lease
        holder when the last transition was a claim.  Hand-corrupted
        entries degrade as :meth:`_fold` describes; none raises.
        """
        return [
            PendingJob(plan_doc=job.plan, plan_hash=digest,
                       priority=job.priority, last_state=job.state,
                       agent=job.agent, lease_seconds=job.lease_seconds,
                       tenant=job.tenant)
            for digest, job in JobJournal._fold(entries).items()
            if job.state in _RECOVERABLE_STATES and job.plan is not None
        ]

    @staticmethod
    def live_jobs(
        entries: list[dict[str, Any]],
    ) -> list[tuple[str, dict[str, Any] | None]]:
        """``(plan_hash, plan_doc)`` for every non-terminal job.

        The store-GC liveness reduction: a job whose *last* recorded
        transition is non-terminal may still complete (a recovering
        coordinator will re-queue it; a leased agent may upload its
        result), so every store entry its plan references must
        survive collection.  Unlike :meth:`pending_jobs` this keeps
        jobs whose journal never captured a plan document
        (``plan_doc`` is then ``None``): their whole-plan hash is
        still live even though their shards cannot be enumerated --
        GC must err toward keeping.  Order is first-seen submission
        order.
        """
        return [
            (digest, job.plan)
            for digest, job in JobJournal._fold(entries).items()
            if job.state in _RECOVERABLE_STATES
        ]

    @staticmethod
    def _fold(entries: list[dict[str, Any]]) -> dict[str, "_JobFold"]:
        """One pass: each job's last recorded state, in first-seen order.

        Entries with an unknown ``op`` are skipped.  Two corruptions
        the writer never produces degrade toward keeping and
        re-queuing rather than dropping the job:

        * a ``hash`` that is not a string keys the job by its ``str()``
          (recovery resubmits the plan, which re-derives the real
          hash);
        * a ``queued`` entry without a plan object still counts as the
          job's transition to ``queued``, but the job keeps the plan,
          priority and tenant of its latest ``queued`` entry that did
          carry a plan.
        """
        jobs: dict[str, _JobFold] = {}
        for entry in entries:
            op = entry.get("op")
            if op not in JOURNAL_OPS:
                continue
            digest = entry.get("hash")
            if not isinstance(digest, str):
                digest = str(digest)
            job = jobs.get(digest)
            if job is None:
                job = jobs[digest] = _JobFold(op)
            job.state = op
            plan = entry.get("plan")
            if op == "queued" and isinstance(plan, dict):
                job.plan = plan
                tenant = entry.get("tenant")
                job.tenant = (tenant if isinstance(tenant, str) and tenant
                              else None)
                try:
                    job.priority = int(entry.get("priority", 0))
                except (TypeError, ValueError):
                    job.priority = 0
            if op == "leased":
                agent = entry.get("agent")
                lease = entry.get("lease_seconds")
                job.agent = agent if isinstance(agent, str) and agent else None
                job.lease_seconds = (float(lease)
                                     if isinstance(lease, (int, float))
                                     else None)
            else:
                job.agent = job.lease_seconds = None
        return jobs


@dataclass
class _JobFold:
    """One job's accumulated journal state (see :meth:`JobJournal._fold`)."""

    state: str
    plan: dict[str, Any] | None = None
    priority: int = 0
    tenant: str | None = None
    agent: str | None = None
    lease_seconds: float | None = None
