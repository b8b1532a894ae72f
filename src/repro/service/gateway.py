"""Asyncio HTTP/1.1 gateway: the service's one HTTP front end.

``repro serve`` fronts one :class:`~repro.service.SearchService` with
a :class:`Gateway`: a single ``asyncio`` event loop (stdlib only -- no
third-party dependency), so hundreds of concurrent clients can hold
connections open while events are *pushed* to them.  The whole wire
surface is :attr:`Gateway.ROUTES` -- one row per route (submit, list,
status, cancel, event pages with ``?since=N&wait=S`` long-poll, a
Server-Sent Events stream, canonical result bytes, ``/health``,
``/metrics``, ``/shutdown`` and the ``/agents`` federation protocol
spoken by :class:`~repro.service.agent.WorkerAgent`).  ``/result``
serves the result store's canonical bytes verbatim, so two
submissions of an identical plan receive byte-identical bodies.

Event delivery is push-based end to end: the service's
:meth:`~repro.service.SearchService.add_job_listener` hook fires on
every append to a job's event log, an :class:`_EventFanout` relays the
wakeup onto the event loop (``call_soon_threadsafe``), and each SSE or
long-poll connection sleeps on its own ``asyncio.Event`` until *its*
job moves -- no busy polling anywhere.  The per-job event log stays
the single source of truth: a wakeup only means "re-read the log from
your cursor", so a lost or coalesced wakeup can delay but never drop
or duplicate an event.

SSE frames carry the event cursor as the SSE ``id:`` field::

    id: 7
    event: search-finished
    data: {"event": "search-finished", ...}

so ``GET /jobs/<id>/events?since=7`` resumes exactly after the last
frame a client saw.  Comment heartbeats (``: ping``) flow during quiet
stretches; a terminal job ends the stream with an ``event: end`` frame
carrying the final state.

Admission (:func:`admit_submission`) applies API-key tenancy, quotas
(429 + ``Retry-After``), fair-share priority weighting, and bounded
accept-queue backpressure (503).  ``max_connections`` additionally
caps open sockets (503 at accept).  Request bodies beyond
:data:`MAX_BODY_BYTES` are refused with 413 before they are read, and
a client stalling mid-body past :data:`REQUEST_TIMEOUT_SECONDS` gets
408.

On SIGTERM, Ctrl-C or ``POST /shutdown`` the gateway *drains*: the
listener closes, streams end with a final frame, running jobs finish
(or are checkpoint-cancelled after ``drain_grace`` seconds; ``0``
cancels them at once, and so does a second SIGTERM or Ctrl-C), and the
service shuts down -- flushing the job journal -- before the process
exits.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
from http import HTTPStatus
from typing import Any, Callable, Iterator, NamedTuple
from urllib.parse import parse_qs, unquote, urlparse

from repro.events import event_from_dict
from repro.plans import RunPlan, plan_hash
from repro.service.metrics import MetricsRegistry
from repro.service.service import (
    JobHandle,
    SearchService,
    StaleLeaseError,
    UnknownAgentError,
    UnknownJobError,
)
from repro.service.tenants import (
    QuotaExceededError,
    TenantAuthError,
    TenantRegistry,
    api_key_from_headers,
    check_quota,
    fair_share_priority,
)

#: Largest request body the gateway accepts (413 beyond this).  Plans
#: are small JSON documents; remote-agent result uploads are the
#: biggest legitimate bodies and sit far below this.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Read timeout for one request head or body (408 when a client stalls
#: mid-body; idle keep-alive connections are just closed).
REQUEST_TIMEOUT_SECONDS = 30.0

#: Seconds of stream silence before an SSE comment heartbeat is sent
#: (keeps proxies from timing the connection out and detects dead
#: peers, since the write fails fast on a reset socket).
SSE_HEARTBEAT_SECONDS = 15.0

#: Upper bound on the ``wait=`` a long-poll may request, seconds.
#: Clients re-issue the poll; the bound keeps a forgotten connection
#: from parking forever.
LONG_POLL_MAX_WAIT = 30.0

#: Job states after which a job's event log can no longer grow
#: (until an explicit resubmission, which opens a new stream).
_TERMINAL_STATES = ("done", "failed", "cancelled")

#: Cap on request head (request line + headers) size, bytes.
_MAX_HEADER_BYTES = 32 * 1024


class BodyTooLargeError(RuntimeError):
    """A request body exceeds :data:`MAX_BODY_BYTES` (HTTP 413).

    Deliberately *not* a ``ValueError``: a malformed request maps
    ``ValueError`` to 400, and an oversized body must surface as 413.
    """


class BackpressureError(RuntimeError):
    """The service's accept queue is saturated (HTTP 503).

    Attributes:
        retry_after: suggested client wait before retrying, seconds.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


def validate_content_length(raw: str | None,
                            limit: int = MAX_BODY_BYTES) -> int:
    """Parse and bound a ``Content-Length`` header value.

    Returns the length (0 for a missing header).  Raises
    :class:`ValueError` for non-integer or negative values (HTTP 400)
    and :class:`BodyTooLargeError` beyond ``limit`` (HTTP 413) --
    *before* any body byte is read, so oversized uploads cost nothing.
    """
    if raw is None:
        return 0
    try:
        length = int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"invalid Content-Length {raw!r}") from None
    if length < 0:
        raise ValueError(f"invalid Content-Length {raw!r}")
    if length > limit:
        raise BodyTooLargeError(
            f"request body of {length} bytes exceeds the {limit}-byte limit"
        )
    return length


def health_payload(service: SearchService) -> dict[str, Any]:
    """The ``/health`` JSON document."""
    states: dict[str, int] = {}
    for handle in service.jobs():
        state = handle.state
        states[state] = states.get(state, 0) + 1
    return {"status": "ok", "jobs": states,
            "agents": len(service.agents()),
            "store_entries": len(service.store)}


def events_payload(handle: JobHandle, since: int) -> dict[str, Any]:
    """The ``/jobs/<id>/events`` JSON page.

    The state is read *before* the event log: the service appends a
    job's final events and flips it to a terminal state under one lock
    hold, so a page whose ``state`` is terminal is guaranteed to carry
    the complete tail of the log.  Read the other way round, a client
    could see ``"state": "done"`` with the completion events missing
    and stop polling one page early.
    """
    state = handle.state
    events = handle.events(since=since)
    return {
        "job_id": handle.job_id,
        "state": state,
        "since": since,
        "next": since + len(events),
        "events": [e.to_dict() for e in events],
    }


def admit_submission(
    service: SearchService,
    tenants: TenantRegistry | None,
    headers: dict[str, str],
    plan: RunPlan,
    priority: int,
    max_pending: int | None = None,
) -> tuple[JobHandle, bool]:
    """The one admission path every submission goes through.

    Runs, in order: tenant authentication (:class:`TenantAuthError`
    -> 401/403), dedup short-circuit (a plan the service already
    tracks as queued/running/done coalesces regardless of quotas -- it
    adds no load), per-tenant quota checks
    (:class:`QuotaExceededError` -> 429), service-wide backpressure
    (``max_pending`` queued jobs -> :class:`BackpressureError` ->
    503), fair-share priority weighting, and finally
    :meth:`SearchService.submit`.  Returns ``(handle, deduped)``,
    where ``deduped`` means the service already knew this plan (the
    wire field old clients rely on).
    """
    tenant = None
    if tenants is not None:
        tenant = tenants.authenticate(api_key_from_headers(headers))
    tenant_name = None if tenant is None else tenant.name
    existing = service.job_by_hash(plan_hash(plan))
    if existing is not None and existing.state in ("queued", "running",
                                                   "done"):
        # Coalesce: the service hands back the job it already tracks,
        # so this submission adds no load and bypasses quota checks.
        return service.submit(plan, priority=priority,
                              tenant=tenant_name), True
    effective = priority
    if tenant is not None:
        load = service.tenant_load(tenant_name)
        check_quota(tenant, load["queued"], load["running"])
        effective = fair_share_priority(
            priority, tenant.weight, load["queued"] + load["running"])
    if max_pending is not None and service.queued_count() >= max_pending:
        raise BackpressureError(
            f"accept queue is full ({max_pending} queued jobs); "
            "retry shortly"
        )
    handle = service.submit(plan, priority=effective, tenant=tenant_name)
    return handle, existing is not None


def require_tenant(tenants: TenantRegistry | None,
                   headers: dict[str, str]) -> None:
    """Authenticate a tenant-gated route when tenancy is enabled.

    No-op without a registry (open mode).  Raises
    :class:`TenantAuthError` subclasses for missing/unknown keys.
    """
    if tenants is not None:
        tenants.authenticate(api_key_from_headers(headers))


class _Request(NamedTuple):
    """One parsed request, as the route handlers see it."""

    method: str
    path: str
    query: str
    headers: dict[str, str]
    body: bytes


class _HttpError(Exception):
    """Internal control flow: respond ``status`` with a JSON error."""

    def __init__(self, status: int, message: str,
                 headers: dict[str, str] | None = None,
                 close: bool = False, **extra: Any):
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}
        self.headers = headers or {}
        self.close = close


class _EventFanout:
    """Relays service-thread event appends onto per-connection wakeups.

    One service job listener feeds every SSE/long-poll connection: a
    connection registers an ``asyncio.Event`` under its job id, the
    listener (running on a service worker thread) sets it via
    ``loop.call_soon_threadsafe``, and the connection re-reads the
    job's event log from its cursor.  Setting an already-set event is
    a no-op, so bursts coalesce instead of queueing.
    """

    def __init__(self, service: SearchService,
                 loop: asyncio.AbstractEventLoop):
        self._service = service
        self._loop = loop
        self._lock = threading.Lock()
        self._watchers: dict[str, set[asyncio.Event]] = {}
        self._listener = service.add_job_listener(self._notify)

    def _notify(self, job_id: str) -> None:
        # Runs on a service worker thread, possibly under the service
        # lock: copy the watcher set and hand the set() to the loop.
        with self._lock:
            watchers = self._watchers.get(job_id)
            if not watchers:
                return
            targets = list(watchers)
        for event in targets:
            try:
                self._loop.call_soon_threadsafe(event.set)
            except RuntimeError:  # loop already closed (teardown race)
                return

    @contextlib.contextmanager
    def watcher(self, job_id: str) -> Iterator[asyncio.Event]:
        """Register a wakeup event for ``job_id`` for a ``with`` block."""
        event = asyncio.Event()
        with self._lock:
            self._watchers.setdefault(job_id, set()).add(event)
        try:
            yield event
        finally:
            with self._lock:
                group = self._watchers.get(job_id)
                if group is not None:
                    group.discard(event)
                    if not group:
                        del self._watchers[job_id]

    def watching(self) -> int:
        """How many connections currently wait on job events."""
        with self._lock:
            return sum(len(group) for group in self._watchers.values())

    def wake_all(self) -> None:
        """Wake every watcher (drain: streams re-check and wind down)."""
        with self._lock:
            targets = [e for group in self._watchers.values()
                       for e in group]
        for event in targets:
            event.set()

    def close(self) -> None:
        """Detach from the service's listener hook."""
        self._service.remove_job_listener(self._listener)


class Gateway:
    """The asyncio front end over one :class:`SearchService`.

    Build it, ``await`` :meth:`start`, and the gateway serves until
    :meth:`request_drain` (called by ``POST /shutdown``, and through
    :meth:`interrupt` by SIGTERM/SIGINT under :func:`run_gateway`);
    :meth:`wait_drained` completes once the drain has finished and the
    service is shut down.

    Parameters:
        service: the service to front.
        tenants: optional :class:`TenantRegistry`; with one bound, job
            routes require API keys and submissions pass quota +
            fair-share admission.
        max_pending: bound on service-wide queued jobs (503 beyond).
        max_connections: bound on concurrently open sockets (503 at
            accept beyond it).
        drain_grace: seconds a drain waits for running jobs before
            checkpoint-cancelling them (``None`` = wait indefinitely).
    """

    def __init__(self, service: SearchService,
                 tenants: TenantRegistry | None = None,
                 max_pending: int | None = None,
                 max_connections: int | None = None,
                 drain_grace: float | None = None):
        self.service = service
        self.tenants = tenants
        self.max_pending = max_pending
        self.max_connections = max_connections
        self.drain_grace = drain_grace
        self.metrics = MetricsRegistry(service)
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._fanout: _EventFanout | None = None
        self._connections = 0
        self._streams = 0
        self._draining = False
        self._drained: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 8765) -> None:
        """Bind and start serving (non-blocking; returns once bound)."""
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        self._fanout = _EventFanout(self.service, self._loop)
        self.metrics.gauge("open_connections", lambda: self._connections)
        self.metrics.gauge("active_streams", lambda: self._streams)
        self.metrics.gauge("event_watchers", self._fanout.watching)
        self._server = await asyncio.start_server(
            self._on_connection, host, port, limit=_MAX_HEADER_BYTES)

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        assert self._server is not None, "gateway not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """Whether a drain has begun (new work is being refused)."""
        return self._draining

    def request_drain(self) -> None:
        """Begin a graceful drain (idempotent; event-loop thread only).

        Stops accepting connections, ends open event streams with a
        final frame, lets running jobs finish (checkpoint-cancelling
        them after ``drain_grace`` seconds, if set), shuts the service
        down -- flushing its job journal -- and finally releases
        :meth:`wait_drained`.
        """
        if self._draining:
            return
        self._draining = True
        assert self._loop is not None
        self._loop.create_task(self._drain())

    def interrupt(self) -> None:
        """SIGTERM/SIGINT: begin a drain, or cut a running one short.

        The first signal calls :meth:`request_drain`; a signal during
        the drain checkpoint-cancels the running jobs at once, as an
        expired ``drain_grace`` would.
        """
        if self._draining:
            self._cancel_running()
        else:
            self.request_drain()

    async def wait_drained(self) -> None:
        """Block until a requested drain has fully completed."""
        assert self._drained is not None, "gateway not started"
        await self._drained.wait()

    async def _drain(self) -> None:
        assert self._server is not None and self._fanout is not None
        self._server.close()
        self._fanout.wake_all()
        grace_timer: threading.Timer | None = None
        if self.drain_grace is not None:
            grace_timer = threading.Timer(
                self.drain_grace, self._cancel_running)
            grace_timer.daemon = True
            grace_timer.start()
        # shutdown() joins worker threads; keep the loop free so open
        # streams can deliver their final frames meanwhile.
        await asyncio.to_thread(self.service.shutdown, True, False)
        if grace_timer is not None:
            grace_timer.cancel()
        self._fanout.wake_all()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        self._fanout.close()
        await self._server.wait_closed()
        assert self._drained is not None
        self._drained.set()

    def _cancel_running(self) -> None:
        """Checkpoint-cancel still-running jobs (grace expiry, signal)."""
        for handle in self.service.jobs():
            if handle.state == "running":
                try:
                    self.service.cancel(handle.job_id)
                except UnknownJobError:
                    pass

    # -- connection handling -------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        if (self.max_connections is not None
                and self._connections >= self.max_connections):
            self.metrics.inc("connection_rejections")
            with contextlib.suppress(Exception):
                writer.write(_render(
                    503,
                    json.dumps({"error": "connection limit reached"})
                    .encode(),
                    headers={"Retry-After": "1"}, close=True))
                await writer.drain()
            writer.close()
            return
        self._connections += 1
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # peer went away mid-exchange; nothing to clean up
        finally:
            self._connections -= 1
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        while not self._draining:
            request = await self._read_request(reader, writer)
            if request is None:
                return
            self.metrics.inc("requests")
            try:
                close = await self._dispatch(request, writer)
            except _HttpError as exc:
                self._send_json(writer, exc.status, exc.payload,
                                headers=exc.headers, close=exc.close)
                close = exc.close
            await writer.drain()
            if (close or request.headers.get("connection", "").lower()
                    == "close"):
                return

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> _Request | None:
        """Read one request; None closes the connection silently."""
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), REQUEST_TIMEOUT_SECONDS)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None  # clean close (or half a request, equally dead)
        except asyncio.TimeoutError:
            return None  # idle keep-alive connection: just close
        except asyncio.LimitOverrunError:
            self._send_json(writer, 431,
                            {"error": "request headers too large"},
                            close=True)
            return None
        try:
            request_line, header_lines = self._split_head(head)
            method, target = self._parse_request_line(request_line)
            headers = self._parse_headers(header_lines)
        except ValueError as exc:
            self._send_json(writer, 400, {"error": str(exc)}, close=True)
            return None
        try:
            length = validate_content_length(headers.get("content-length"))
        except BodyTooLargeError as exc:
            # The body was never read, so the connection is unusable
            # for another request: refuse and close.
            self._send_json(writer, 413, {"error": str(exc)}, close=True)
            return None
        except ValueError as exc:
            self._send_json(writer, 400, {"error": str(exc)}, close=True)
            return None
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), REQUEST_TIMEOUT_SECONDS)
            except asyncio.TimeoutError:
                self._send_json(
                    writer, 408,
                    {"error": "client stalled mid-body; connection closed"},
                    close=True)
                return None
            except (asyncio.IncompleteReadError, ConnectionError):
                return None
        url = urlparse(target)
        return _Request(method, unquote(url.path), url.query, headers, body)

    @staticmethod
    def _split_head(head: bytes) -> tuple[str, list[str]]:
        text = head.decode("latin-1")
        lines = text.split("\r\n")
        if not lines or not lines[0]:
            raise ValueError("empty request line")
        return lines[0], [line for line in lines[1:] if line]

    @staticmethod
    def _parse_request_line(line: str) -> tuple[str, str]:
        parts = line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ValueError(f"malformed request line {line!r}")
        return parts[0].upper(), parts[1]

    @staticmethod
    def _parse_headers(lines: list[str]) -> dict[str, str]:
        headers: dict[str, str] = {}
        for line in lines:
            name, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        return headers

    # -- routing -------------------------------------------------------------

    async def _dispatch(self, request: _Request,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns True when the connection must close."""
        if request.method not in ("GET", "POST"):
            raise _HttpError(405, f"method {request.method} not allowed")
        parts = [p for p in request.path.split("/") if p]
        for method, pattern, handler, gated in self.ROUTES:
            if method == request.method:
                params = _match_route(pattern, parts)
                if params is not None:
                    break
        else:
            raise _HttpError(404, f"unknown path {request.path!r}")
        try:
            if gated:
                require_tenant(self.tenants, request.headers)
            return bool(await handler(self, writer, request, **params))
        except (UnknownJobError, UnknownAgentError) as exc:
            raise _HttpError(404, str(exc)) from None
        except StaleLeaseError as exc:
            raise _HttpError(409, str(exc)) from None
        except TenantAuthError as exc:
            raise _HttpError(exc.status, str(exc)) from None
        except QuotaExceededError as exc:
            self.metrics.inc("quota_rejections")
            raise _HttpError(
                429, str(exc), tenant=exc.tenant, limit=exc.limit,
                headers={"Retry-After": f"{exc.retry_after:g}"}) from None
        except BackpressureError as exc:
            self.metrics.inc("backpressure_rejections")
            raise _HttpError(
                503, str(exc),
                headers={"Retry-After": f"{exc.retry_after:g}"}) from None

    # -- route bodies --------------------------------------------------------
    #
    # Each takes (writer, request, **path placeholders) and returns True
    # only when it consumed the connection.

    async def _get_health(self, writer: asyncio.StreamWriter,
                          request: _Request) -> None:
        self._send_json(writer, 200, health_payload(self.service))

    async def _get_metrics(self, writer: asyncio.StreamWriter,
                           request: _Request) -> None:
        self._send_json(writer, 200, self.metrics.snapshot())

    async def _list_jobs(self, writer: asyncio.StreamWriter,
                         request: _Request) -> None:
        self._send_json(
            writer, 200, {"jobs": [h.info() for h in self.service.jobs()]})

    async def _get_job(self, writer: asyncio.StreamWriter,
                       request: _Request, job: str) -> None:
        self._send_json(writer, 200, self.service.job(job).info())

    async def _post_job(self, writer: asyncio.StreamWriter,
                        request: _Request) -> None:
        try:
            doc = _parse_json_object(request.body)
            plan = RunPlan.from_dict(doc["plan"])
            priority = int(doc.get("priority", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad submission: {exc}") from None
        if self._draining:
            raise _HttpError(
                503, "gateway is draining; resubmit elsewhere",
                headers={"Retry-After": "1"})
        # submit touches the journal and the result store (disk):
        # off the loop it goes.
        handle, deduped = await asyncio.to_thread(
            admit_submission, self.service, self.tenants, request.headers,
            plan, priority, self.max_pending)
        self.metrics.inc("submissions")
        self._send_json(writer, 200, handle.info() | {"deduped": deduped})

    async def _cancel_job(self, writer: asyncio.StreamWriter,
                          request: _Request, job: str) -> None:
        state = await asyncio.to_thread(self.service.cancel, job)
        self._send_json(
            writer, 200, self.service.job(job).info() | {"state": state})

    async def _get_result(self, writer: asyncio.StreamWriter,
                          request: _Request, job: str) -> None:
        handle = self.service.job(job)
        state = handle.state
        if state != "done":
            raise _HttpError(409, f"job {job} is {state}, not done",
                             state=state)
        blob = await asyncio.to_thread(handle.stored_result_bytes)
        if blob is None:
            raise _HttpError(
                406, f"workload {handle.plan.workload!r} has no result "
                "codec; inspect the job in-process instead")
        writer.write(_render(200, blob))

    async def _shutdown(self, writer: asyncio.StreamWriter,
                        request: _Request) -> bool:
        # Reply first, then drain: the flush must win the race against
        # the listener closing.
        self._send_json(writer, 200, {"status": "shutting down"},
                        close=True)
        await writer.drain()
        self.request_drain()
        return True

    async def _list_agents(self, writer: asyncio.StreamWriter,
                           request: _Request) -> None:
        self._send_json(writer, 200, {"agents": self.service.agents()})

    async def _register_agent(self, writer: asyncio.StreamWriter,
                              request: _Request) -> None:
        try:
            doc = _parse_json_object(request.body)
            name = doc.get("name")
            agent_id = doc.get("agent_id")
            for value in (name, agent_id):
                if value is not None and not isinstance(value, str):
                    raise ValueError("name/agent_id must be strings")
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad registration: {exc}") from None
        self._send_json(
            writer, 200,
            self.service.register_agent(name=name, agent_id=agent_id))

    async def _agent_heartbeat(self, writer: asyncio.StreamWriter,
                               request: _Request, agent: str) -> None:
        try:
            jobs = _parse_json_object(request.body).get("jobs", [])
            if not isinstance(jobs, list):
                raise ValueError("'jobs' must be a list of job ids")
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad heartbeat: {exc}") from None
        self._send_json(
            writer, 200,
            self.service.heartbeat(agent, [str(j) for j in jobs]))

    async def _agent_claim(self, writer: asyncio.StreamWriter,
                           request: _Request, agent: str) -> None:
        claim = await asyncio.to_thread(self.service.claim_job, agent)
        self._send_json(writer, 200, {"job": claim})

    async def _agent_leave(self, writer: asyncio.StreamWriter,
                           request: _Request, agent: str) -> None:
        self.service.deregister_agent(agent)
        self._send_json(writer, 200, {"status": "left"})

    async def _agent_events(self, writer: asyncio.StreamWriter,
                            request: _Request, agent: str, job: str) -> None:
        try:
            events = [event_from_dict(item) for item
                      in _parse_json_object(request.body)["events"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad upload: {exc}") from None
        recorded = self.service.record_agent_events(agent, job, events)
        self._send_json(writer, 200, {"recorded": recorded})

    async def _agent_complete(self, writer: asyncio.StreamWriter,
                              request: _Request, agent: str,
                              job: str) -> None:
        try:
            doc = _parse_json_object(request.body)
            outcome = doc["outcome"]
            if outcome not in ("done", "failed", "cancelled"):
                raise ValueError(f"unknown outcome {outcome!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad upload: {exc}") from None
        info = await asyncio.to_thread(
            self.service.complete_job, agent, job, outcome,
            doc.get("payload"), doc.get("message"),
            int(doc.get("completed", 0)))
        self._send_json(writer, 200, info)

    # -- event delivery ------------------------------------------------------

    async def _get_events(self, writer: asyncio.StreamWriter,
                          request: _Request, job: str) -> None:
        """``/jobs/<id>/events``: immediate page, or long-poll with
        ``wait=S``."""
        handle = self.service.job(job)
        params = parse_qs(request.query)
        try:
            since = int(params.get("since", ["0"])[0])
            wait = float(params.get("wait", ["0"])[0])
        except ValueError as exc:
            raise _HttpError(400, f"bad query parameter: {exc}") from None
        wait = max(0.0, min(wait, LONG_POLL_MAX_WAIT))
        if wait:
            self.metrics.inc("long_polls")
        assert self._loop is not None and self._fanout is not None
        deadline = self._loop.time() + wait
        with self._fanout.watcher(job) as wakeup:
            while True:
                wakeup.clear()
                payload = events_payload(handle, since)
                remaining = deadline - self._loop.time()
                if (payload["events"] or remaining <= 0 or self._draining
                        or payload["state"] in _TERMINAL_STATES):
                    self._send_json(writer, 200, payload)
                    return
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(wakeup.wait(), remaining)

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             request: _Request, job: str) -> bool:
        """``/jobs/<id>/events/stream``: Server-Sent Events until the
        job is terminal (or the gateway drains); consumes the
        connection."""
        handle = self.service.job(job)  # 404 before headers go out
        params = parse_qs(request.query)
        try:
            cursor = int(params.get("since", ["0"])[0])
        except ValueError as exc:
            raise _HttpError(400, f"bad query parameter: {exc}") from None
        self.metrics.inc("sse_streams")
        self._streams += 1
        assert self._fanout is not None
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n\r\n")
            with self._fanout.watcher(job) as wakeup:
                while True:
                    wakeup.clear()
                    # State *before* events: the service appends the
                    # final events and flips to a terminal state under
                    # one lock hold, so a terminal state observed here
                    # guarantees the read below returns the full log.
                    # The opposite order can end the stream with the
                    # tail events unsent.
                    state = handle.state
                    draining = self._draining
                    events = handle.events(since=cursor)
                    for event in events:
                        cursor += 1
                        writer.write(_sse_frame(cursor, event.type_tag,
                                                event.to_dict()))
                    if events:
                        self.metrics.inc("sse_events", len(events))
                        await writer.drain()
                    if state in _TERMINAL_STATES or draining:
                        reason = ("draining"
                                  if state not in _TERMINAL_STATES
                                  else "terminal")
                        writer.write(_sse_frame(
                            cursor, "end",
                            {"state": state, "next": cursor,
                             "reason": reason}))
                        await writer.drain()
                        return True
                    try:
                        await asyncio.wait_for(
                            wakeup.wait(), SSE_HEARTBEAT_SECONDS)
                    except asyncio.TimeoutError:
                        writer.write(b": ping\n\n")
                        await writer.drain()
        finally:
            self._streams -= 1

    # -- plumbing ------------------------------------------------------------

    def _send_json(self, writer: asyncio.StreamWriter, status: int,
                   payload: dict[str, Any],
                   headers: dict[str, str] | None = None,
                   close: bool = False) -> None:
        writer.write(_render(status, json.dumps(payload).encode(),
                             headers=headers, close=close))

    #: The whole HTTP surface, one row per route: ``(method, path
    #: pattern, handler, tenant-gated?)``.  A ``{job}``/``{agent}``
    #: segment matches any one path segment and reaches the handler as
    #: that keyword argument.  ``POST /jobs`` is not gated here because
    #: :func:`admit_submission` authenticates it once the body parses.
    ROUTES = (
        ("GET", "/health", _get_health, False),
        ("GET", "/metrics", _get_metrics, False),
        ("GET", "/jobs", _list_jobs, True),
        ("POST", "/jobs", _post_job, False),
        ("GET", "/jobs/{job}", _get_job, True),
        ("POST", "/jobs/{job}/cancel", _cancel_job, True),
        ("GET", "/jobs/{job}/events", _get_events, True),
        ("GET", "/jobs/{job}/events/stream", _stream_events, True),
        ("GET", "/jobs/{job}/result", _get_result, True),
        ("POST", "/shutdown", _shutdown, True),
        ("GET", "/agents", _list_agents, False),
        ("POST", "/agents", _register_agent, False),
        ("POST", "/agents/{agent}/heartbeat", _agent_heartbeat, False),
        ("POST", "/agents/{agent}/claim", _agent_claim, False),
        ("POST", "/agents/{agent}/leave", _agent_leave, False),
        ("POST", "/agents/{agent}/jobs/{job}/events", _agent_events, False),
        ("POST", "/agents/{agent}/jobs/{job}/complete", _agent_complete,
         False),
    )


def _match_route(pattern: str, parts: list[str]) -> dict[str, str] | None:
    """Match request path segments against one route pattern.

    Returns the ``{placeholder}`` captures (empty for a literal route)
    or None when the path does not fit.
    """
    wanted = pattern.strip("/").split("/")
    if len(wanted) != len(parts):
        return None
    params: dict[str, str] = {}
    for want, got in zip(wanted, parts):
        if want.startswith("{"):
            params[want[1:-1]] = got
        elif want != got:
            return None
    return params


def _render(status: int, blob: bytes,
            headers: dict[str, str] | None = None,
            close: bool = False) -> bytes:
    """Serialize one HTTP/1.1 response with a JSON body."""
    reason = HTTPStatus(status).phrase
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(blob)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + blob


def _sse_frame(cursor: int, tag: str, data: dict[str, Any]) -> bytes:
    """One SSE frame: ``id``/``event``/``data`` lines + blank line."""
    return (f"id: {cursor}\nevent: {tag}\n"
            f"data: {json.dumps(data)}\n\n").encode()


def _parse_json_object(body: bytes) -> dict[str, Any]:
    """Parse a request body as a JSON object (ValueError otherwise)."""
    data = json.loads(body or b"{}")
    if not isinstance(data, dict):
        raise ValueError("request body must be a JSON object")
    return data


class GatewayRunner:
    """Host a :class:`Gateway` on a background thread (tests, benches).

    The asyncio loop lives on a daemon thread; :meth:`start` (or the
    ``with`` statement) returns once the port is bound, and
    :meth:`stop` requests a drain and joins the thread.  When built
    without an explicit ``service``, one is created from
    ``service_kwargs`` and shut down with the gateway.
    """

    def __init__(self, service: SearchService | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 tenants: TenantRegistry | None = None,
                 max_pending: int | None = None,
                 max_connections: int | None = None,
                 drain_grace: float | None = None,
                 **service_kwargs: Any):
        self.host = host
        self._port_requested = port
        self.service = (service if service is not None
                        else SearchService(**service_kwargs))
        self._options = dict(
            tenants=tenants, max_pending=max_pending,
            max_connections=max_connections, drain_grace=drain_grace)
        self.gateway: Gateway | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def base_url(self) -> str:
        """The served endpoint, e.g. ``http://127.0.0.1:43521``."""
        assert self.port is not None, "gateway not started"
        return f"http://{self.host}:{self.port}"

    def start(self) -> "GatewayRunner":
        """Launch the loop thread; returns once the port is bound."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="gateway-runner", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("gateway failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("gateway failed to start") \
                from self._startup_error
        return self

    async def _main(self) -> None:
        gateway = Gateway(self.service, **self._options)
        try:
            await gateway.start(self.host, self._port_requested)
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._startup_error = exc
            self._ready.set()
            return
        self.gateway = gateway
        self.port = gateway.port
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await gateway.wait_drained()

    def stop(self, timeout: float = 60.0) -> None:
        """Drain the gateway and join the loop thread (idempotent)."""
        if self._thread is None:
            return
        if self._thread.is_alive() and self._loop is not None \
                and self.gateway is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.gateway.request_drain)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("gateway thread did not stop in time")
        self._thread = None

    def __enter__(self) -> "GatewayRunner":
        """Context-manager entry: start and return the runner."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: drain and join."""
        self.stop()


def run_gateway(
    host: str = "127.0.0.1",
    port: int = 8765,
    service: SearchService | None = None,
    tenants: TenantRegistry | None = None,
    max_pending: int | None = None,
    max_connections: int | None = None,
    drain_grace: float | None = None,
    on_start: Callable[[Gateway], None] | None = None,
    **service_kwargs: Any,
) -> None:
    """Serve the gateway until SIGTERM/SIGINT or ``/shutdown``.

    The blocking entry point behind ``repro serve``: builds a
    :class:`SearchService` from ``service_kwargs`` when none is
    passed, installs signal handlers that trigger a graceful drain
    (:meth:`Gateway.interrupt`; a second signal cancels running jobs),
    and returns only after the drain has flushed the journal and shut
    the service down.  ``on_start`` is called with the gateway once
    it is bound (so ``port=0`` callers can learn :attr:`Gateway.port`).
    """
    if service is None:
        service = SearchService(**service_kwargs)

    async def main() -> None:
        gateway = Gateway(
            service, tenants=tenants, max_pending=max_pending,
            max_connections=max_connections, drain_grace=drain_grace)
        await gateway.start(host, port)
        if on_start is not None:
            on_start(gateway)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(sig, gateway.interrupt)
        await gateway.wait_drained()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        # No signal-handler support: stop hard but cooperatively --
        # checkpoints make the next run a resume.
        service.shutdown(wait=True, cancel_running=True)
