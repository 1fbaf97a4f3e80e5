"""``vase serve``: the synthesis flow as a live HTTP service.

Stdlib only — :class:`http.server.ThreadingHTTPServer` fronting a
:class:`~repro.serve.queue.JobManager`.  Endpoints:

* ``POST /jobs`` — submit VASS source + whitelisted options; 202 with
  the job id (== telemetry run id), 400 on validation failure, 503
  when the bounded queue is full;
* ``GET /jobs`` — all known jobs, brief form;
* ``GET /jobs/<id>`` — full status, including the available artifacts;
* ``POST /jobs/<id>/cancel`` — cancel a queued or running job (202;
  409 once terminal); queued jobs are dequeued immediately, running
  jobs stop cooperatively at the flow's next cancellation point;
* ``GET /jobs/<id>/events`` — the job's telemetry stream as
  Server-Sent Events: replay from seq 0 (or ``Last-Event-ID`` /
  ``?since=N``), then live tail with heartbeats, ending with an
  ``end`` frame once the job is terminal and fully delivered;
* ``GET /jobs/<id>/report|netlist|spice|explain`` — rendered
  artifacts (404 until the job succeeded);
* ``GET /metrics`` — Prometheus exposition of the live registry plus
  the ``vase_serve_jobs_queued``/``_running``/``_done_total`` server
  series;
* ``GET /history``, ``GET /stats`` — the run ledger as JSON;
* ``GET /healthz`` — liveness; ``POST /shutdown`` — graceful stop.

With a ``token`` configured, every endpoint except ``GET /healthz``
requires ``Authorization: Bearer <token>`` and answers 401 otherwise.

Concurrency model: every request runs on its own handler thread
(SSE streams hold theirs for the job's lifetime), synthesis runs on
the manager's resident worker pool, and all of them meet only at the
telemetry bus and the manager's locks — the handler never calls into
the flow directly.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.serve.queue import (
    JobConflictError,
    JobManager,
    JobOptionsError,
    QueueFullError,
    UnknownJobError,
)
from repro.serve.sse import (
    END_EVENT,
    format_comment,
    format_event,
    format_message,
)

#: largest accepted POST body (VASS sources are small)
MAX_BODY_BYTES = 2 * 1024 * 1024

#: allowed top-level keys of a POST /jobs body
SUBMIT_KEYS = ("source", "entity", "label", "options")

#: artifact names servable under /jobs/<id>/<name>
ARTIFACT_TYPES = {
    "report": "text/markdown; charset=utf-8",
    "netlist": "text/plain; charset=utf-8",
    "spice": "text/plain; charset=utf-8",
    "explain": "text/html; charset=utf-8",
}

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def render_server_metrics(manager: JobManager) -> str:
    """The /metrics body: live registry + server job gauges."""
    from repro.instrument import metrics, render_prometheus
    from repro.instrument.promexport import render_family

    counts = manager.counts()
    text = render_prometheus(metrics().snapshot())
    text += render_family(
        "vase_serve_jobs_queued", "gauge",
        "Jobs waiting in the serve queue.",
        [({}, counts["queued"])],
    )
    text += render_family(
        "vase_serve_jobs_running", "gauge",
        "Jobs currently executing on the worker pool.",
        [({}, counts["running"])],
    )
    text += render_family(
        "vase_serve_jobs_done_total", "counter",
        "Completed jobs by outcome.",
        [({"outcome": name}, value)
         for name, value in sorted(counts["done"].items())],
    )
    return text


class VaseServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the serve-layer wiring."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        manager: JobManager,
        heartbeat_s: float = 10.0,
        verbose: bool = False,
        token: Optional[str] = None,
    ):
        super().__init__(address, VaseServeHandler)
        self.manager = manager
        self.heartbeat_s = heartbeat_s
        self.verbose = verbose
        #: bearer token every request (except /healthz) must present;
        #: None disables authentication (loopback binds)
        self.token = token


class VaseServeHandler(BaseHTTPRequestHandler):
    server_version = "vase-serve"

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: D102 - quiet by default
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    # -- response helpers ----------------------------------------------------

    def _send_body(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload, status: int = 200) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self._send_body(status, body, "application/json; charset=utf-8")

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    # -- bearer-token authentication -----------------------------------------

    def _authorized(self) -> bool:
        token = getattr(self.server, "token", None)
        if not token:
            return True
        header = self.headers.get("Authorization") or ""
        return header == f"Bearer {token}"

    def _send_unauthorized(self) -> None:
        body = (json.dumps(
            {"error": "missing or invalid bearer token"}, indent=2
        ) + "\n").encode("utf-8")
        self.send_response(401)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("WWW-Authenticate", "Bearer")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib API
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        query = parse_qs(url.query)
        try:
            if parts == ["healthz"]:
                # Liveness stays unauthenticated: probes must not need
                # the token.
                return self._send_json({"status": "ok"})
            if not self._authorized():
                return self._send_unauthorized()
            if not parts:
                return self._get_index()
            if parts == ["metrics"]:
                body = render_server_metrics(self.manager).encode("utf-8")
                return self._send_body(200, body, PROM_CONTENT_TYPE)
            if parts == ["history"]:
                return self._get_history(query)
            if parts == ["stats"]:
                return self._get_stats()
            if parts == ["jobs"]:
                return self._send_json({
                    "jobs": [
                        job.as_dict(brief=True)
                        for job in self.manager.jobs()
                    ],
                })
            if parts[0] == "jobs" and len(parts) == 2:
                return self._send_json(self.manager.get(parts[1]).as_dict())
            if parts[0] == "jobs" and len(parts) == 3:
                job = self.manager.get(parts[1])
                if parts[2] == "events":
                    return self._stream_events(job, query)
                if parts[2] in ARTIFACT_TYPES:
                    return self._get_artifact(job, parts[2])
            return self._send_error_json(404, f"no such path: {url.path}")
        except UnknownJobError as err:
            return self._send_error_json(404, str(err))
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away mid-stream

    def do_POST(self) -> None:  # noqa: N802 - stdlib API
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        if not self._authorized():
            return self._send_unauthorized()
        if parts == ["jobs"]:
            return self._post_job()
        if parts[:1] == ["jobs"] and len(parts) == 3 \
                and parts[2] == "cancel":
            return self._post_cancel(parts[1])
        if parts == ["shutdown"]:
            return self._post_shutdown()
        return self._send_error_json(404, f"no such path: {url.path}")

    # -- endpoints -----------------------------------------------------------

    def _get_index(self) -> None:
        self._send_json({
            "service": "vase serve",
            "endpoints": [
                "POST /jobs", "GET /jobs", "GET /jobs/<id>",
                "POST /jobs/<id>/cancel",
                "GET /jobs/<id>/events (SSE)",
                *(f"GET /jobs/<id>/{name}" for name in
                  sorted(ARTIFACT_TYPES)),
                "GET /metrics", "GET /history", "GET /stats",
                "GET /healthz", "POST /shutdown",
            ],
        })

    def _read_json_body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise JobOptionsError("a JSON request body is required")
        if length > MAX_BODY_BYTES:
            raise JobOptionsError(
                f"request body too large ({length} bytes, "
                f"limit {MAX_BODY_BYTES})"
            )
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise JobOptionsError(f"request body is not JSON: {err}")
        if not isinstance(payload, dict):
            raise JobOptionsError("request body must be a JSON object")
        return payload

    def _post_job(self) -> None:
        try:
            payload = self._read_json_body()
            unknown = sorted(set(payload) - set(SUBMIT_KEYS))
            if unknown:
                raise JobOptionsError(
                    f"unknown field(s): {', '.join(unknown)} "
                    f"(allowed: {', '.join(SUBMIT_KEYS)})"
                )
            options = payload.get("options")
            if options is not None and not isinstance(options, dict):
                raise JobOptionsError("options must be a JSON object")
            job = self.manager.submit(
                source=payload.get("source", ""),
                entity=payload.get("entity"),
                label=payload.get("label"),
                options=options,
            )
        except QueueFullError as err:
            return self._send_error_json(503, str(err))
        except JobOptionsError as err:
            return self._send_error_json(400, str(err))
        self._send_json({
            "id": job.id,
            "status": job.status,
            "links": {
                "status": f"/jobs/{job.id}",
                "events": f"/jobs/{job.id}/events",
            },
        }, status=202)

    def _post_cancel(self, job_id: str) -> None:
        """Cancel a queued or running job (202; 404 unknown, 409
        already terminal)."""
        try:
            job = self.manager.cancel(job_id)
        except UnknownJobError as err:
            return self._send_error_json(404, str(err))
        except JobConflictError as err:
            return self._send_error_json(409, str(err))
        self._send_json({
            "id": job.id,
            "status": job.status,
            "cancel_requested": True,
        }, status=202)

    def _post_shutdown(self) -> None:
        self._send_json({"status": "shutting down"})
        # shutdown() blocks until the serve loop (another thread)
        # exits, which is exactly the graceful semantics we want; the
        # response above is already on the wire.
        self.server.shutdown()

    def _get_artifact(self, job, name: str) -> None:
        text = job.artifacts.get(name)
        if text is None:
            detail = (
                "job not finished yet" if not job.terminal
                else "artifact unavailable for this outcome"
            )
            return self._send_error_json(
                404, f"no {name!r} artifact for job {job.id} ({detail})"
            )
        self._send_body(200, text.encode("utf-8"), ARTIFACT_TYPES[name])

    def _get_history(self, query) -> None:
        ledger = self.manager.options.ledger
        if ledger is None:
            return self._send_error_json(404, "run ledger is disabled")
        limit = None
        if "limit" in query:
            try:
                limit = max(1, int(query["limit"][0]))
            except ValueError:
                return self._send_error_json(400, "limit must be an integer")
        records = ledger.tail(
            limit=limit,
            outcome=query.get("outcome", [None])[0],
            source=query.get("source", [None])[0],
        )
        self._send_json({
            "ledger": str(ledger.path),
            "records": [record.as_dict() for record in records],
        })

    def _get_stats(self) -> None:
        from repro.instrument import summarize

        ledger = self.manager.options.ledger
        if ledger is None:
            return self._send_error_json(404, "run ledger is disabled")
        stats = summarize(ledger.records())
        stats["ledger"] = str(ledger.path)
        self._send_json(stats)

    # -- the SSE stream ------------------------------------------------------

    def _stream_events(self, job, query) -> None:
        """Replay the job's events from ``since`` and tail live.

        The per-run seqs are dense and the per-job log is append-only,
        so a subscriber joining at any point gets seq ``since+1 .. N``
        with no gaps or duplicates; heartbeat comments keep the
        connection visibly alive through quiet stretches, and the
        stream closes itself with an ``end`` frame once the job is
        terminal and everything has been delivered.
        """
        last = -1
        if "since" in query:
            try:
                last = int(query["since"][0])
            except ValueError:
                return self._send_error_json(400, "since must be an integer")
        elif self.headers.get("Last-Event-ID"):
            try:
                last = int(self.headers["Last-Event-ID"])
            except ValueError:
                last = -1
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        heartbeat = getattr(self.server, "heartbeat_s", 10.0)
        if job.events.dropped:
            self.wfile.write(format_comment(
                f"{job.events.dropped} event(s) dropped from the "
                f"replay buffer"
            ))
        while True:
            events, closed = job.events.wait(last, timeout=heartbeat)
            for event in events:
                self.wfile.write(format_event(event))
                last = event.seq
            if events:
                self.wfile.flush()
            elif closed:
                # Terminal and fully delivered: end the stream.
                self.wfile.write(format_message(
                    json.dumps({"id": job.id, "status": job.status}),
                    event=END_EVENT,
                ))
                self.wfile.flush()
                return
            else:
                self.wfile.write(format_comment("heartbeat"))
                self.wfile.flush()


def create_server(
    host: str,
    port: int,
    manager: JobManager,
    heartbeat_s: float = 10.0,
    verbose: bool = False,
    token: Optional[str] = None,
) -> VaseServer:
    """A configured (not yet serving) :class:`VaseServer`.

    Pass ``port=0`` to bind an ephemeral port (tests); the bound
    address is ``server.server_address``.  ``token`` arms bearer-token
    authentication: every request except ``GET /healthz`` must carry
    ``Authorization: Bearer <token>`` or is answered with 401 (the CLI
    *requires* a token for non-loopback binds).
    """
    return VaseServer(
        (host, port), manager, heartbeat_s=heartbeat_s, verbose=verbose,
        token=token,
    )
