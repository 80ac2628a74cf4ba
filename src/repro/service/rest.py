"""Stdlib-only REST front door for the job service (``repro-serve``).

No framework, no dependencies: :class:`http.server.ThreadingHTTPServer`
plus JSON bodies.  The API surface (see ``docs/OPERATIONS.md`` for
request/response examples of every route):

=======  ============================  ===================================
Method   Path                          Meaning
=======  ============================  ===================================
GET      ``/healthz``                  liveness probe
GET      ``/api/stats``                queue + kernel-cache counters
GET      ``/api/workloads``            registered workload names
POST     ``/api/jobs``                 submit ``{workload, config?, seed?,
                                       priority?, deadline_s?, tenant?}``
GET      ``/api/jobs``                 all jobs (no result payloads)
GET      ``/api/jobs/<id>``            one job record (result when done)
GET      ``/api/jobs/<id>/result``     block up to ``?timeout_s=`` for it
GET      ``/api/jobs/<id>/events``     long-poll the job's event stream
POST     ``/api/jobs/<id>/cancel``     cancel queued/running job
GET      ``/api/cluster/stats``        per-GPU view of the scheduler
=======  ============================  ===================================

``POST /api/jobs`` answers ``202 Accepted`` with the job record; a
memoized or coalesced submission comes back with ``memo_hit: true``
(and, for a memo hit, ``state: "done"`` plus the cached result —
the second identical submission never simulates anything).

The server fronts either backend: the plain
:class:`~repro.service.jobs.JobQueue` (``--workers N``) or the cluster
:class:`~repro.service.scheduler.ClusterScheduler` (``--gpus N``, the
default).  The scheduler-only routes (events, cancel, cluster stats)
and submit fields (priority, deadline_s, tenant) answer ``404`` /
``400`` respectively when the plain queue is mounted.

Run it::

    repro-serve --gpus 4 --policy sjf --port 8000
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ServiceError
from repro.functional import kernelcache
from repro.service.jobs import JobQueue
from repro.service.scheduler import POLICIES, ClusterScheduler

_JOB_PATH = re.compile(
    r"^/api/jobs/([A-Za-z0-9_.-]+)(/result|/events|/cancel)?$")

#: Cap on blocking-result waits so a stuck client cannot pin a handler
#: thread forever.
MAX_RESULT_WAIT_S = 300.0

#: Cap on a single events long-poll; clients re-poll with ``since``.
MAX_EVENTS_WAIT_S = 60.0

#: Largest request body the server reads (a job submission is a few
#: hundred bytes); a longer declared ``Content-Length`` answers 413.
MAX_BODY_BYTES = 1 << 20

#: The full route manifest: ``(method, path)`` for every endpoint the
#: server answers.  ``tools/check_operations_doc.py`` asserts that
#: ``docs/OPERATIONS.md`` documents every row, so adding a route here
#: without documenting it fails CI.
API_ROUTES = (
    ("GET", "/healthz"),
    ("GET", "/api/stats"),
    ("GET", "/api/workloads"),
    ("POST", "/api/jobs"),
    ("GET", "/api/jobs"),
    ("GET", "/api/jobs/<id>"),
    ("GET", "/api/jobs/<id>/result"),
    ("GET", "/api/jobs/<id>/events"),
    ("POST", "/api/jobs/<id>/cancel"),
    ("GET", "/api/cluster/stats"),
)


class ServiceHandler(BaseHTTPRequestHandler):
    """One request; the queue/scheduler lives on the server object."""

    server_version = "repro-serve/1.1"
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------
    @property
    def queue(self):
        """The mounted backend: a JobQueue or a ClusterScheduler."""
        return self.server.queue  # type: ignore[attr-defined]

    @property
    def scheduler(self) -> ClusterScheduler | None:
        """The backend if it is a ClusterScheduler, else ``None``."""
        queue = self.queue
        return queue if isinstance(queue, ClusterScheduler) else None

    def log_message(self, format: str, *args) -> None:
        """Route http.server's per-request lines to stderr (or drop
        them when the server was built with ``quiet=True``)."""
        if getattr(self.server, "quiet", False):
            return
        sys.stderr.write("[repro-serve] %s\n" % (format % args))

    def _send(self, code: int, payload: dict) -> None:
        """Serialize *payload* and send it with the right headers."""
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        """Send the standard error envelope ``{"error": message}``."""
        self._send(code, {"error": message})

    def _read_json(self) -> dict | None:
        """Parse the request body as a JSON object (else answer 400).

        The declared ``Content-Length`` is checked before anything is
        read: a negative length would block the read until the client
        hangs up, and an oversized one would be buffered whole.  Both
        close the connection, since their body stays unread.
        """
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._error(400, "Content-Length is not an integer")
            return None
        if length < 0 or length > MAX_BODY_BYTES:
            self.close_connection = True
            if length < 0:
                self._error(400, "Content-Length must not be negative")
            else:
                self._error(413, f"request body over {MAX_BODY_BYTES} "
                                 "bytes")
            return None
        try:
            raw = self.rfile.read(length) if length else b"{}"
            body = json.loads(raw or b"{}")
        except (ValueError, OSError):
            self._error(400, "request body is not valid JSON")
            return None
        if not isinstance(body, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return body

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        """Dispatch all GET routes (see :data:`API_ROUTES`)."""
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._send(200, {"ok": True})
            return
        if path == "/api/stats":
            stats = self.queue.stats()
            stats["kernelcache"] = kernelcache.counters()
            self._send(200, stats)
            return
        if path == "/api/workloads":
            self._send(200, {"workloads": sorted(self.queue.registry)})
            return
        if path == "/api/jobs":
            self._send(200, {"jobs": self.queue.jobs()})
            return
        if path == "/api/cluster/stats":
            scheduler = self.scheduler
            if scheduler is None:
                self._error(404, "cluster stats need the scheduler "
                                 "backend (repro-serve --gpus N)")
                return
            self._send(200, scheduler.cluster_stats())
            return
        match = _JOB_PATH.match(path)
        if match is None:
            self._error(404, f"no route for {path}")
            return
        job_id, tail = match.group(1), match.group(2) or ""
        if tail == "/cancel":
            self._error(404, "cancel is POST /api/jobs/<id>/cancel")
            return
        try:
            if tail == "":
                self._send(200, self.queue.status(job_id))
                return
            if tail == "/events":
                self._get_events(job_id, query)
                return
            timeout = _query_float(query, "timeout_s", default=30.0)
            timeout = min(timeout, MAX_RESULT_WAIT_S)
            result = self.queue.result(job_id, timeout=timeout)
        except ServiceError as exc:
            code = 404 if "unknown job id" in str(exc) else 500
            self._error(code, str(exc))
        except TimeoutError as exc:
            self._error(408, str(exc))
        else:
            self._send(200, {"job_id": job_id, "result": result})

    def _get_events(self, job_id: str, query: str) -> None:
        """``GET /api/jobs/<id>/events`` — long-poll the event stream.

        ``?since=N`` skips the first N events (pass the previous
        response's ``next_since``); ``?timeout_s=`` bounds the wait.
        Timing out is a normal ``200`` with an empty list, never 408.
        """
        scheduler = self.scheduler
        if scheduler is None:
            self._error(404, "event streaming needs the scheduler "
                             "backend (repro-serve --gpus N)")
            return
        since = int(_query_float(query, "since", default=0.0))
        timeout = _query_float(query, "timeout_s", default=10.0)
        timeout = min(max(timeout, 0.0), MAX_EVENTS_WAIT_S)
        events, state = scheduler.events(job_id, since, timeout=timeout)
        self._send(200, {"job_id": job_id, "state": state,
                         "events": events,
                         "next_since": since + len(events)})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        """Dispatch POST routes: job submission and cancellation."""
        path = self.path.partition("?")[0]
        match = _JOB_PATH.match(path)
        if match is not None and match.group(2) == "/cancel":
            self._post_cancel(match.group(1))
            return
        if path != "/api/jobs":
            self._error(404, f"no route for {path}")
            return
        body = self._read_json()
        if body is None:
            return
        workload = body.get("workload")
        if not isinstance(workload, str):
            self._error(400, "missing required field 'workload'")
            return
        config = body.get("config") or {}
        if not isinstance(config, dict):
            self._error(400, "'config' must be a JSON object")
            return
        try:
            seed = int(body.get("seed", 0))
        except (TypeError, ValueError):
            self._error(400, "'seed' must be an integer")
            return
        scheduling = {}
        for field, caster in (("priority", int), ("deadline_s", float),
                              ("tenant", str)):
            value = body.get(field)
            if value is None:
                continue
            try:
                scheduling[field] = caster(value)
            except (TypeError, ValueError):
                self._error(400, f"{field!r} must be a {caster.__name__}")
                return
        if scheduling and self.scheduler is None:
            self._error(400, f"{sorted(scheduling)} need the scheduler "
                             "backend (repro-serve --gpus N)")
            return
        try:
            job = self.queue.submit(workload, config, seed, **scheduling)
        except ServiceError as exc:
            self._error(400, str(exc))
            return
        self._send(202, job.to_dict())

    def _post_cancel(self, job_id: str) -> None:
        """``POST /api/jobs/<id>/cancel`` — instant for queued jobs,
        cooperative (next shard boundary) for running ones."""
        scheduler = self.scheduler
        if scheduler is None:
            self._error(404, "cancellation needs the scheduler "
                             "backend (repro-serve --gpus N)")
            return
        try:
            record = scheduler.cancel(job_id)
        except ServiceError as exc:
            code = 404 if "unknown job id" in str(exc) else 500
            self._error(code, str(exc))
            return
        self._send(200, record)


def _query_float(query: str, name: str, default: float) -> float:
    """Pull one float query parameter out of a raw query string."""
    for pair in query.split("&"):
        key, _, value = pair.partition("=")
        if key == name:
            try:
                return float(value)
            except ValueError:
                return default
    return default


def make_server(queue, host: str = "127.0.0.1",
                port: int = 0, *, quiet: bool = False
                ) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server; ``port=0`` picks a
    free port — read it back from ``server.server_address``.  *queue*
    is either a :class:`~repro.service.jobs.JobQueue` or a
    :class:`~repro.service.scheduler.ClusterScheduler`."""
    server = ThreadingHTTPServer((host, port), ServiceHandler)
    server.queue = queue  # type: ignore[attr-defined]
    server.quiet = quiet  # type: ignore[attr-defined]
    return server


def main(argv: list[str] | None = None) -> int:
    """``repro-serve`` entry point.

    Mounts the cluster scheduler by default (``--gpus``/``--policy``);
    ``--workers N`` instead mounts the plain PR 6 job queue, which has
    no priorities, cancellation or event streams.
    """
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the GPU simulator as an async job service.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument("--gpus", type=int, default=2,
                        help="simulated GPU workers for the cluster "
                             "scheduler (default 2)")
    parser.add_argument("--policy", choices=sorted(POLICIES),
                        default="fifo",
                        help="job allocation policy (default fifo)")
    parser.add_argument("--workers", type=int, default=None,
                        help="mount the plain JobQueue with N worker "
                             "threads instead of the cluster scheduler")
    parser.add_argument("--no-persist", action="store_true",
                        help="keep the job memo table in memory only "
                             "(default: persisted under the repro "
                             "cache dir)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request logging")
    args = parser.parse_args(argv)
    if args.workers is not None:
        queue = JobQueue(workers=args.workers)
        backend = f"queue workers={args.workers}"
    else:
        queue = ClusterScheduler(
            gpus=args.gpus, policy=args.policy,
            memo_path=None if args.no_persist else "<default>")
        backend = f"gpus={args.gpus} policy={args.policy}"
    server = make_server(queue, args.host, args.port, quiet=args.quiet)
    host, port = server.server_address[:2]
    print(f"repro-serve listening on http://{host}:{port} ({backend})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        queue.shutdown(wait=False)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
