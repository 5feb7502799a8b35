"""The HTTP face of the serve daemon: stdlib ``ThreadingHTTPServer`` routing.

One thread per connection (reads are lock-free against the registry's
snapshots, so concurrency here is real), JSON in/out, HTTP/1.1 keep-alive.
Errors map by layer: malformed payloads (:class:`~.codec.ValidationError`,
bad JSON, bad query parameters, a resize to an uncharacterized driver size)
→ 400, unknown designs/nets
(:class:`~.registry.UnknownDesignError`) → 404, well-formed requests the
engine rejects (:class:`~repro.errors.ReproError`: cycles, unknown cases'
nets, solver failures) → 422, anything else → 500 ``{"error": "internal"}``
(an answer, never a dropped connection the client would re-send on).

Routes::

    GET  /healthz                      liveness + attached-design count
    GET  /stats                        registry-wide RunInfo counters
    GET  /designs                      attached designs (name, seq, nets)
    POST /designs                      attach (AttachRequest body)
    DELETE /designs/{name}             detach
    GET  /designs/{name}               = /designs/{name}/wns
    GET  /designs/{name}/wns           summary (WNS/WHS, array reductions only)
    GET  /designs/{name}/slack         endpoint slack table (?mode=&limit=)
    GET  /designs/{name}/report        full lossless TimingReport.to_dict
    GET  /designs/{name}/events/{net}  one net's solved events
    GET  /designs/{name}/diff          last edit batch's ReportDiff (?limit=)
    GET  /designs/{name}/stats         per-design counters + last RunInfo
    POST /designs/{name}/edits         atomic edit batch (EditRequest body)
    POST /shutdown                     graceful stop (responds, then exits)

Serve over TCP (``TimingServer(port=0)`` picks a free port) or over a unix
domain socket (``TimingServer(socket_path=...)``) for single-host use with
filesystem permissions instead of a port.
"""

from __future__ import annotations

import json
import socket
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import ReproError
from ..api.config import SessionConfig
from .codec import (
    AttachRequest,
    EditRequest,
    ValidationError,
    diff_payload,
    events_payload,
    slack_payload,
    summary_payload,
)
from .registry import AttachedDesign, DesignRegistry, UnknownDesignError

__all__ = ["TimingServer"]


class _UnixHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to an ``AF_UNIX`` path instead of a port."""

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        # Skip HTTPServer.server_bind: it derives server_name/port from a
        # (host, port) tuple, which a unix address does not have.
        socket.socket.bind(self.socket, self.server_address)
        self.server_name = str(self.server_address)
        self.server_port = 0


def _int_param(query: Dict[str, Any], key: str, default: int) -> int:
    values = query.get(key)
    if not values:
        return default
    try:
        return int(values[-1])
    except (TypeError, ValueError):
        raise ValidationError(f"query parameter {key!r} must be an integer, "
                              f"got {values[-1]!r}") from None


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: warm queries reuse the connection
    server_version = "repro-serve"

    # --- plumbing ---------------------------------------------------------------------
    def setup(self) -> None:
        # Nagle + delayed ACK stall keep-alive round-trips at ~40 ms each;
        # disable Nagle on TCP (unix sockets have none to disable).
        self.disable_nagle_algorithm = self.request.family != socket.AF_UNIX
        super().setup()

    @property
    def registry(self) -> DesignRegistry:
        return self.server.registry  # type: ignore[attr-defined]

    def address_string(self) -> str:
        # On AF_UNIX sockets client_address is b'' / ''; the base class would
        # crash formatting it.
        if isinstance(self.client_address, (bytes, str)):
            return "unix"
        return super().address_string()

    def log_message(self, format: str, *args: Any) -> None:
        log = getattr(self.server, "log", None)  # type: ignore[attr-defined]
        if log is not None:
            log("%s - %s" % (self.address_string(), format % args))

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        length = self.headers.get("Content-Length")
        if length is None:
            raise ValidationError("request body required (with Content-Length)")
        try:
            raw = self.rfile.read(int(length))
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}") from None

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        query = parse_qs(split.query)
        try:
            handled = self._route(method, parts, query)
        except ValidationError as exc:
            self._send_json(400, {"error": "validation", "message": str(exc)})
            return
        except UnknownDesignError as exc:
            self._send_json(404, {"error": "unknown_design", "message": str(exc)})
            return
        except ReproError as exc:
            self._send_json(422, {"error": "rejected", "message": str(exc)})
            return
        except Exception as exc:
            self.log_message("internal error on %s %s\n%s", method, split.path,
                             traceback.format_exc())
            self._send_json(500, {"error": "internal", "message": str(exc)})
            return
        if not handled:
            self._send_json(404, {"error": "no_route",
                                  "message": f"no route for {method} {split.path}"})

    # --- routing ----------------------------------------------------------------------
    def _route(self, method: str, parts: list, query: Dict[str, Any]) -> bool:
        if parts == ["healthz"] and method == "GET":
            self._send_json(200, {"status": "ok",
                                  "designs": len(self.registry.names())})
            return True
        if parts == ["stats"] and method == "GET":
            self._send_json(200, self.registry.stats_payload())
            return True
        if parts == ["shutdown"] and method == "POST":
            self._send_json(200, {"status": "shutting down"})
            self.wfile.flush()
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return True
        if not parts or parts[0] != "designs":
            return False
        if len(parts) == 1:
            if method == "GET":
                self._send_json(200, self.registry.list_payload())
                return True
            if method == "POST":
                request = AttachRequest.from_payload(self._read_json())
                design = self.registry.attach(request)
                snapshot = design.snapshot
                self._send_json(
                    201, summary_payload(design.name, snapshot.seq, snapshot.report)
                )
                return True
            return False
        name = parts[1]
        if len(parts) == 2:
            if method == "DELETE":
                self.registry.detach(name)
                self._send_json(200, {"detached": name})
                return True
            if method == "GET":
                return self._design_get(self.registry.get(name), "wns", None, query)
            return False
        design = self.registry.get(name)
        if method == "POST" and parts[2:] == ["edits"]:
            request = EditRequest.from_payload(self._read_json())
            old_seq = design.snapshot.seq
            snapshot = design.apply_edits(request)
            payload = summary_payload(design.name, snapshot.seq, snapshot.report)
            assert snapshot.diff is not None
            payload["diff"] = diff_payload(
                snapshot.diff, old_seq=old_seq, new_seq=snapshot.seq,
                limit=_int_param(query, "limit", 20),
            )
            self._send_json(200, payload)
            return True
        if method == "GET" and len(parts) == 3:
            return self._design_get(design, parts[2], None, query)
        if method == "GET" and len(parts) == 4 and parts[2] == "events":
            return self._design_get(design, "events", parts[3], query)
        return False

    def _design_get(self, design: AttachedDesign, view: str, net: Optional[str],
                    query: Dict[str, Any]) -> bool:
        if view == "stats":
            self._send_json(200, design.stats_payload())
            return True
        snapshot = design.record_query()
        name, seq, report = design.name, snapshot.seq, snapshot.report
        if view == "wns":
            self._send_json(200, summary_payload(name, seq, report))
        elif view == "slack":
            mode = (query.get("mode") or ["setup"])[-1]
            self._send_json(200, slack_payload(
                name, seq, report, mode=mode,
                limit=_int_param(query, "limit", 20)))
        elif view == "report":
            payload = report.to_dict()
            payload["seq"] = seq
            self._send_json(200, payload)
        elif view == "diff":
            if snapshot.diff is None:
                self._send_json(200, {"design": name, "seq": seq, "diff": None})
            else:
                self._send_json(200, {
                    "design": name, "seq": seq,
                    "diff": diff_payload(snapshot.diff, old_seq=seq - 1,
                                         new_seq=seq,
                                         limit=_int_param(query, "limit", 20)),
                })
        elif view == "events":
            assert net is not None
            try:
                self._send_json(200, events_payload(name, seq, report, net))
            except KeyError:
                self._send_json(404, {
                    "error": "unknown_net",
                    "message": f"design {name!r} has no net {net!r}",
                })
        else:
            return False
        return True

    # --- verbs ------------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class TimingServer:
    """The daemon: a registry plus an HTTP server bound to a port or a socket.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`);
    ``socket_path`` switches to an ``AF_UNIX`` socket instead.  Use
    :meth:`serve_forever` for a foreground daemon (the CLI) or
    :meth:`start_background` + :meth:`close` from tests::

        with TimingServer(port=0) as server:
            client = ServeClient(port=server.port)
            ...
    """

    def __init__(
        self,
        registry: Optional[DesignRegistry] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[str] = None,
        config: Optional[SessionConfig] = None,
        log=None,
    ) -> None:
        if registry is None:
            registry = DesignRegistry(config)
        elif config is not None:
            raise ReproError("pass either a registry or a config, not both")
        self.registry = registry
        self.socket_path = socket_path
        if socket_path is not None:
            self._http = _UnixHTTPServer(socket_path, _Handler)
        else:
            self._http = ThreadingHTTPServer((host, port), _Handler)
        self._http.daemon_threads = True
        self._http.registry = registry  # type: ignore[attr-defined]
        self._http.log = log  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._started = False

    # --- addressing -------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        if self.socket_path is not None:
            return (self.socket_path, 0)
        return self._http.server_address[:2]

    @property
    def host(self) -> str:
        return str(self.address[0])

    @property
    def port(self) -> int:
        return self.address[1]

    def describe(self) -> str:
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"http://{self.host}:{self.port}"

    # --- lifecycle --------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or the ``POST /shutdown`` route)."""
        self._started = True
        try:
            self._http.serve_forever(poll_interval=0.1)
        finally:
            self._cleanup()

    def start_background(self) -> "TimingServer":
        """Serve from a daemon thread (tests and the benchmark)."""
        if self._thread is not None:
            raise ReproError("server is already running")
        self._started = True
        self._thread = threading.Thread(
            target=self._http.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-serve", daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._http.shutdown()

    def close(self) -> None:
        """Stop serving, join the background thread, release every design."""
        if self._started:
            # BaseServer.shutdown blocks until a serve loop exits — only safe
            # after one actually started.
            self._http.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._cleanup()

    def _cleanup(self) -> None:
        self._http.server_close()
        self.registry.close()
        if self.socket_path is not None:
            try:
                import os

                os.unlink(self.socket_path)
            except OSError:
                pass

    def __enter__(self) -> "TimingServer":
        return self.start_background()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
