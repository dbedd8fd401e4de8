"""The serve layer's transports: HTTP on asyncio streams, and stdio.

The HTTP side is a deliberately small HTTP/1.1 implementation on
:func:`asyncio.start_server` — no web framework, matching the repo's
zero-dependency discipline.  Four routes:

* ``GET /healthz`` — liveness probe, ``ok``;
* ``GET /metrics`` — the service registry rendered through the
  Prometheus text exposition (:func:`repro.obs.export.to_prometheus`);
* ``POST /query`` — a Scenario JSON body in, one answer envelope
  ``{"schema", "served_from", "scenario_hash", "result"}`` out; an
  invalid scenario gets a 400 and any other engine failure a 500, each
  with an ``{"error"}`` body;
* ``POST /query/stream`` — the same query as newline-delimited JSON:
  one ``{"event", "data", "timing"}`` progress record per engine event
  (fed from the ``obs`` flight-recorder stream), then the final
  ``{"served_from", ..., "result"}`` line, or an ``{"error"}`` line if
  the engine fails after the 200 head went out.

Keep-alive is honoured on the plain routes; streaming responses close
the connection (their length is unknown up front and the stdlib-only
client stays trivial that way).

The stdio mode (:func:`serve_lines`) is the same service over JSON
lines — one request object per input line, concurrent handling, one
response object per output line correlated by the caller's ``id`` —
which is what the tests and subprocess harnesses drive.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Callable, Dict, Optional

from repro.obs.export import to_prometheus
from repro.serve.service import StudyService
from repro.study.scenario import Scenario

__all__ = ["ANSWER_SCHEMA_VERSION", "serve_lines", "start_server"]

_LOG = logging.getLogger(__name__)

#: Version of the ``/query`` answer envelope (and the stdio final line).
ANSWER_SCHEMA_VERSION = 1

_JSON = "application/json; charset=utf-8"
_TEXT = "text/plain; charset=utf-8"
#: The Prometheus text exposition content type ``/metrics`` must serve.
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

#: Largest request body the server buffers.  A scenario is a few KiB;
#: a bigger declared length gets a 413 and a close before any of the
#: body is read, so one request cannot make the server buffer gigabytes.
_MAX_BODY_BYTES = 1 << 20


def _head(
    status: int,
    content_type: str,
    length: Optional[int],
    keep_alive: bool,
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}",
        f"Content-Type: {content_type}",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _answer_payload(answer) -> Dict[str, object]:
    return {
        "schema": ANSWER_SCHEMA_VERSION,
        "served_from": answer.served_from,
        "scenario_hash": answer.scenario_hash,
        "result": answer.result.as_dict(),
    }


def _report_failure(exc: Exception) -> str:
    """Log an engine failure's traceback; return its ``error`` text."""
    _LOG.error("engine failure", exc_info=exc)
    return f"{type(exc).__name__}: {exc}"


def _content_length(headers: Dict[str, str]) -> Optional[int]:
    """The declared body length; ``None`` when it is not a count.

    A length that cannot be trusted leaves the rest of the stream
    unframed, so the caller answers 400 and closes the connection.
    """
    try:
        length = int(headers.get("content-length") or 0)
    except ValueError:
        return None
    return length if length >= 0 else None


def _scenario_from_body(body: bytes) -> Scenario:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    # Accept both a bare scenario dict and a {"scenario": {...}} wrapper
    # (the CLI's render_json envelope round-trips through the latter).
    source = payload.get("scenario", payload)
    if not isinstance(source, dict):
        raise ValueError("'scenario' must be a JSON object")
    try:
        return Scenario.from_dict(source)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid scenario: {exc}") from exc


async def _handle_connection(
    service: StudyService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            request_line = await reader.readline()
            if not request_line:
                break
            parts = request_line.decode("latin-1", "replace").split()
            if len(parts) != 3:
                writer.write(_head(400, _TEXT, 0, keep_alive=False))
                break
            method, target, version = parts
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1", "replace").partition(
                    ":"
                )
                headers[name.strip().lower()] = value.strip()
            length = _content_length(headers)
            if length is None or length > _MAX_BODY_BYTES:
                status, error = (
                    (400, "Content-Length must be a non-negative integer")
                    if length is None
                    else (413, f"request body exceeds {_MAX_BODY_BYTES} bytes")
                )
                payload = json.dumps({"error": error}).encode("utf-8")
                writer.write(
                    _head(status, _JSON, len(payload), keep_alive=False)
                )
                writer.write(payload)
                break
            body = await reader.readexactly(length) if length else b""
            keep_alive = (
                version == "HTTP/1.1"
                and headers.get("connection", "").lower() != "close"
            )

            if method == "GET" and target == "/healthz":
                payload = b"ok\n"
                writer.write(_head(200, _TEXT, len(payload), keep_alive))
                writer.write(payload)
            elif method == "GET" and target == "/metrics":
                text = to_prometheus(service.telemetry.snapshot())
                payload = text.encode("utf-8")
                writer.write(
                    _head(200, _PROMETHEUS, len(payload), keep_alive)
                )
                writer.write(payload)
            elif method == "POST" and target == "/query":
                try:
                    scenario = _scenario_from_body(body)
                    answer = await service.submit(scenario)
                except ValueError as exc:
                    status, reply = 400, {"error": str(exc)}
                except Exception as exc:  # noqa: BLE001 — an engine failure
                    status, reply = 500, {"error": _report_failure(exc)}
                else:
                    status, reply = 200, _answer_payload(answer)
                payload = json.dumps(reply).encode("utf-8")
                writer.write(_head(status, _JSON, len(payload), keep_alive))
                writer.write(payload)
            elif method == "POST" and target == "/query/stream":
                await _stream_query(service, writer, body)
                keep_alive = False
            else:
                payload = json.dumps(
                    {"error": f"no route for {method} {target}"}
                ).encode("utf-8")
                writer.write(_head(404, _JSON, len(payload), keep_alive))
                writer.write(payload)

            await writer.drain()
            if not keep_alive:
                break
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        try:
            await _shut_down(writer)
        except (OSError, asyncio.CancelledError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            # Server shutdown cancels handlers mid-close; the coroutine
            # ends here either way, so suppressing is safe.
            pass


async def _shut_down(writer: asyncio.StreamWriter) -> None:
    """Flush the response, then shut the socket down for writing.

    A pool worker forked while this connection was open holds a copy of
    its socket (:mod:`repro.parallel` keeps workers for the process's
    lifetime), and ``close()`` sends no FIN while any copy is open, so a
    client reading a streamed answer to EOF would hang.  ``shutdown()``
    sends the FIN however many processes hold the socket.
    """
    if writer.transport.is_closing():
        return
    # write_eof() on a non-empty buffer defers the shutdown until the
    # buffer drains, and a close() in the meantime skips it; with a zero
    # high-water mark drain() returns only once the buffer is empty.
    writer.transport.set_write_buffer_limits(0)
    await writer.drain()
    writer.write_eof()


async def _stream_query(
    service: StudyService, writer: asyncio.StreamWriter, body: bytes
) -> None:
    """Answer one query as ndjson: progress records, then the result."""
    try:
        scenario = _scenario_from_body(body)
    except ValueError as exc:
        payload = json.dumps({"error": str(exc)}).encode("utf-8")
        writer.write(_head(400, _JSON, len(payload), keep_alive=False))
        writer.write(payload)
        return
    writer.write(
        _head(200, "application/x-ndjson; charset=utf-8", None, False)
    )

    def progress(record: Dict[str, object]) -> None:
        # Called on the loop thread by the service's progress sink; each
        # call writes one complete line, so records never interleave.
        writer.write((json.dumps(record) + "\n").encode("utf-8"))

    try:
        answer = await service.submit(scenario, progress=progress)
    except Exception as exc:  # noqa: BLE001 — the 200 head is already out
        final: Dict[str, object] = {"error": _report_failure(exc)}
    else:
        final = _answer_payload(answer)
    writer.write((json.dumps(final) + "\n").encode("utf-8"))


async def start_server(
    service: StudyService, host: str = "127.0.0.1", port: int = 8750
) -> "asyncio.base_events.Server":
    """Bind the HTTP front end; returns the asyncio server (port 0 OK)."""

    async def handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(handler, host, port)


# ---------------------------------------------------------------------------
# stdio / JSON-lines mode
# ---------------------------------------------------------------------------


async def serve_lines(
    service: StudyService,
    reader: "asyncio.StreamReader",
    write: Callable[[str], None],
) -> int:
    """Serve JSON-lines requests until the reader reaches EOF.

    Each input line is ``{"id": ..., "scenario": {...}, "stream":
    bool}``; requests are handled concurrently (the single-flight and
    batching layers see them together), and every output line carries
    the request's ``id`` back:

    * progress (``"stream": true`` only): ``{"id", "event", "data",
      "timing"}``;
    * final: ``{"id", "schema", "served_from", "scenario_hash",
      "result"}``;
    * failure: ``{"id", "error"}``.

    ``write`` must emit one complete line per call (it is only ever
    called from the event-loop thread).  Returns the request count.
    """
    tasks = []
    while True:
        raw = await reader.readline()
        if not raw:
            break
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        text = text.strip()
        if not text:
            continue
        tasks.append(asyncio.ensure_future(_serve_line(service, text, write)))
    if tasks:
        await asyncio.gather(*tasks)
    return len(tasks)


async def _serve_line(
    service: StudyService, text: str, write: Callable[[str], None]
) -> None:
    request_id: object = None
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("each request line must be a JSON object")
        request_id = payload.get("id")
        source = payload.get("scenario")
        if not isinstance(source, dict):
            raise ValueError("request needs a 'scenario' object")
        scenario = Scenario.from_dict(source)
        progress: Optional[Callable[[Dict[str, object]], None]] = None
        if payload.get("stream"):
            def progress(record: Dict[str, object]) -> None:
                write(json.dumps({"id": request_id, **record}) + "\n")

        answer = await service.submit(scenario, progress=progress)
        write(
            json.dumps({"id": request_id, **_answer_payload(answer)}) + "\n"
        )
    except Exception as exc:  # noqa: BLE001 — every failure maps to a line
        write(json.dumps({"id": request_id, "error": str(exc)}) + "\n")
