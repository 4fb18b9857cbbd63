"""The socket daemon: frames in, job lifecycle out.

:class:`ReproServer` binds a TCP (default, loopback) or Unix-domain
listener, accepts any number of client connections, and serves each on
its own thread.  Every request frame carries an ``op``; every response
carries ``ok`` plus op-specific fields.  The operations:

=========  =================================================================
op         behaviour
=========  =================================================================
ping       liveness probe; echoes the registered job kinds
submit     admit a job (``kind``/``params``/``priority``); replies with the
           job snapshot, or ``busy`` + ``retry_after`` when the queue is
           full
status     one snapshot of a job by ``id``
result     block (up to ``timeout``) until the job is terminal, then reply
           with the snapshot
cancel     request cancellation; ``cancelled`` reports whether it took
jobs       snapshots of every job the daemon knows, submission order
kinds      the registered job-kind names
watch      stream ``event`` frames as the job transitions, ending with a
           ``final`` snapshot frame once terminal
metrics    a Prometheus-style text snapshot of the manager's live
           telemetry (plus traced subsystems when ``REPRO_TRACE`` is on)
shutdown   begin graceful shutdown (``drain`` true by default) and ack
=========  =================================================================

``submit`` additionally accepts a ``trace`` object (``trace_id`` /
``span_id``) — the client's propagated trace context, adopted so the
job's server-side and worker-side spans join the client's trace.

Failure shape: ``{"ok": false, "error": <code>, "message": ...}`` where
``code`` is one of ``bad-request``, ``unknown-op``, ``unknown-job``,
``unknown-kind``, ``busy`` (adds ``retry_after``), or ``shutting-down``.
A protocol violation (undecodable frame) ends only that connection;
other clients and the manager are untouched.

The daemon *process* model matters: connection handlers and queue
workers are threads in the daemon, but job bodies run inside the
executor's disposable worker processes, so the blast radius of a
crashing job is one task attempt.  See ``docs/serving.md``.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading

from repro import config, obs
from repro.obs import telemetry
from repro.serve.jobs import (
    TERMINAL_STATES,
    JobSpec,
    UnknownJobKind,
    job_kinds,
)
from repro.serve.manager import JobManager, ServerBusy
from repro.serve.protocol import ProtocolError, recv_frame, send_frame

__all__ = ["ReproServer", "default_address"]

DEFAULT_HOST = "127.0.0.1"

#: How long one ``result`` / ``watch`` call may block before replying
#: with whatever state it has (clients re-issue to keep waiting).
MAX_BLOCK_S = 30.0


def default_address() -> tuple[str | None, str, int]:
    """(unix socket path | None, host, port) from ``REPRO_SERVE_*``."""
    path = config.env_str("REPRO_SERVE_SOCKET") or None
    host = config.env_str("REPRO_SERVE_HOST") or DEFAULT_HOST
    port = config.env_int_opt("REPRO_SERVE_PORT") or 0
    return path, host, port


class ReproServer:
    """Accepts connections and maps protocol frames onto a manager."""

    def __init__(self, manager: JobManager | None = None, *,
                 host: str = DEFAULT_HOST, port: int = 0,
                 socket_path: str | None = None) -> None:
        self.manager = manager if manager is not None else JobManager()
        self.socket_path = socket_path
        if socket_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(socket_path)
            self._listener = socket.socket(socket.AF_UNIX,
                                           socket.SOCK_STREAM)
            self._listener.bind(socket_path)
            self._listener.listen()
            self.address: str | tuple[str, int] = socket_path
        else:
            self._listener = socket.create_server((host, port))
            self.address = self._listener.getsockname()[:2]
        self._listener.settimeout(0.2)
        self._stop = threading.Event()
        self._drain = True
        self._conn_threads: list[threading.Thread] = []
        self._accept_thread: threading.Thread | None = None

    # -- running --------------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept and serve until :meth:`request_shutdown`; then drain."""
        self.manager.start()
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self._listener.accept()
                except TimeoutError:
                    continue
                except OSError:
                    break
                t = threading.Thread(target=self._serve_connection,
                                     args=(conn,), daemon=True)
                t.start()
                self._conn_threads.append(t)
        finally:
            self._wind_down()

    def serve_in_thread(self) -> threading.Thread:
        """Run :meth:`serve_forever` on a daemon thread (tests, CLI)."""
        t = threading.Thread(target=self.serve_forever,
                             name="repro-serve", daemon=True)
        t.start()
        self._accept_thread = t
        return t

    def request_shutdown(self, drain: bool = True) -> None:
        """Flag the accept loop to exit; safe from any thread/signal."""
        self._drain = drain
        self._stop.set()

    def close(self, drain: bool = True,
              timeout: float | None = 10.0) -> None:
        """Shut down and wait for the accept loop to finish."""
        self.request_shutdown(drain=drain)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)

    def _wind_down(self) -> None:
        self._listener.close()
        self.manager.shutdown(drain=self._drain)
        for t in self._conn_threads:
            t.join(timeout=1.0)
        if self.socket_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.socket_path)

    # -- per-connection loop --------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while True:
                try:
                    request = recv_frame(conn)
                except ProtocolError:
                    return  # this stream is unrecoverable; drop it
                if request is None:
                    return
                try:
                    done = self._dispatch(conn, request)
                except (BrokenPipeError, ConnectionResetError,
                        ProtocolError):
                    return
                if done:
                    return

    def _dispatch(self, conn: socket.socket, request: dict) -> bool:
        """Handle one request; True when the connection should close."""
        op = request.get("op")
        handler = getattr(self, f"_op_{str(op).replace('-', '_')}", None)
        if op is None or handler is None:
            send_frame(conn, {
                "ok": False, "error": "unknown-op",
                "message": f"unknown op {op!r}",
            })
            return False
        return bool(handler(conn, request))

    # -- operations -----------------------------------------------------------

    def _op_ping(self, conn: socket.socket, request: dict) -> bool:
        send_frame(conn, {"ok": True, "kinds": job_kinds()})
        return False

    def _op_kinds(self, conn: socket.socket, request: dict) -> bool:
        send_frame(conn, {"ok": True, "kinds": job_kinds()})
        return False

    def _op_submit(self, conn: socket.socket, request: dict) -> bool:
        kind = request.get("kind")
        params = request.get("params") or {}
        if not isinstance(kind, str) or not isinstance(params, dict):
            send_frame(conn, {
                "ok": False, "error": "bad-request",
                "message": "submit needs a string 'kind' and an object "
                           "'params'",
            })
            return False
        spec = JobSpec(kind=kind, params=params,
                       priority=int(request.get("priority", 0)))
        trace = obs.TraceContext.from_wire(request.get("trace"))
        try:
            handle = self.manager.submit(spec, trace=trace)
        except UnknownJobKind as exc:
            send_frame(conn, {"ok": False, "error": "unknown-kind",
                              "message": str(exc)})
            return False
        except ServerBusy as exc:
            send_frame(conn, {"ok": False, "error": "busy",
                              "message": str(exc),
                              "retry_after": exc.retry_after})
            return False
        except RuntimeError as exc:
            send_frame(conn, {"ok": False, "error": "shutting-down",
                              "message": str(exc)})
            return False
        send_frame(conn, {"ok": True, "job": handle.snapshot()})
        return False

    def _handle_for(self, conn: socket.socket, request: dict):
        job_id = request.get("id")
        handle = (self.manager.get(job_id)
                  if isinstance(job_id, str) else None)
        if handle is None:
            send_frame(conn, {"ok": False, "error": "unknown-job",
                              "message": f"unknown job id {job_id!r}"})
        return handle

    def _op_status(self, conn: socket.socket, request: dict) -> bool:
        handle = self._handle_for(conn, request)
        if handle is not None:
            send_frame(conn, {"ok": True, "job": handle.snapshot()})
        return False

    def _op_result(self, conn: socket.socket, request: dict) -> bool:
        handle = self._handle_for(conn, request)
        if handle is None:
            return False
        timeout = min(float(request.get("timeout", MAX_BLOCK_S)),
                      MAX_BLOCK_S)
        finished = handle.wait(timeout=timeout)
        send_frame(conn, {"ok": True, "done": finished,
                          "job": handle.snapshot()})
        return False

    def _op_cancel(self, conn: socket.socket, request: dict) -> bool:
        handle = self._handle_for(conn, request)
        if handle is not None:
            took = self.manager.cancel(handle.id)
            send_frame(conn, {"ok": True, "cancelled": took,
                              "job": handle.snapshot()})
        return False

    def _op_jobs(self, conn: socket.socket, request: dict) -> bool:
        send_frame(conn, {
            "ok": True,
            "jobs": [h.snapshot() for h in self.manager.jobs()],
        })
        return False

    def _op_watch(self, conn: socket.socket, request: dict) -> bool:
        handle = self._handle_for(conn, request)
        if handle is None:
            return False
        timeout = min(float(request.get("timeout", MAX_BLOCK_S)),
                      MAX_BLOCK_S)
        seen = 0
        while True:
            events = handle.wait_events(seen, timeout=timeout)
            seen += len(events)
            for event in events:
                send_frame(conn, {"ok": True, "event": event})
            # Stop on the terminal event itself, not on handle.terminal:
            # the job may finish after wait_events returned, and its last
            # event must still be sent.
            if not events or events[-1]["state"] in TERMINAL_STATES:
                break
        send_frame(conn, {"ok": True, "final": True,
                          "job": handle.snapshot()})
        return False

    def _op_metrics(self, conn: socket.socket, request: dict) -> bool:
        text = telemetry.exposition(self.manager.telemetry())
        send_frame(conn, {"ok": True, "metrics": text})
        return False

    def _op_shutdown(self, conn: socket.socket, request: dict) -> bool:
        drain = bool(request.get("drain", True))
        send_frame(conn, {"ok": True, "draining": drain})
        self.request_shutdown(drain=drain)
        return True
