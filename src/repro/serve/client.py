"""A tiny stdlib-only client for the serve layer's HTTP front end.

:class:`ServeClient` wraps :mod:`http.client` — no third-party HTTP
stack, mirroring the server's zero-dependency discipline — and speaks
the three things a caller needs: answers (:meth:`query`), streamed
progress (:meth:`query_stream`), and operations (:meth:`health`,
:meth:`metrics`).
"""

from __future__ import annotations

import http.client
import json
from typing import Callable, Dict, Optional, Union

from repro.study.scenario import Scenario

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """A non-200 answer from the service.

    Attributes:
        status: the HTTP status code.
        detail: the server's ``error`` message when it sent one.
    """

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(f"serve request failed ({status}): {detail}")
        self.status = status
        self.detail = detail


def _scenario_payload(scenario: Union[Scenario, Dict[str, object]]) -> str:
    payload = (
        scenario.as_dict() if isinstance(scenario, Scenario) else scenario
    )
    return json.dumps(payload)


class ServeClient:
    """A blocking client for one serve endpoint.

    Args:
        host / port: where the service listens.
        timeout: per-request socket timeout in seconds — long engine
            runs (cold frontier/fleet queries) need headroom here.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8750,
        timeout: float = 300.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    # -- queries -----------------------------------------------------------

    def query(
        self, scenario: Union[Scenario, Dict[str, object]]
    ) -> Dict[str, object]:
        """POST one scenario; returns the answer envelope.

        The envelope is ``{"schema", "served_from", "scenario_hash",
        "result"}`` — rebuild the typed result with
        :meth:`repro.study.StudyResult.from_dict`.
        """
        conn = self._connect()
        try:
            conn.request(
                "POST",
                "/query",
                body=_scenario_payload(scenario),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = response.read().decode("utf-8")
            if response.status != 200:
                raise ServeError(response.status, _error_detail(body))
            return json.loads(body)
        finally:
            conn.close()

    def query_stream(
        self,
        scenario: Union[Scenario, Dict[str, object]],
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> Dict[str, object]:
        """POST one scenario on the streaming route.

        ``on_event`` receives each ndjson progress record
        (``{"event", "data", "timing"}``) as it arrives; the final
        answer envelope is returned, and a final ``{"error"}`` line
        raises :class:`ServeError`.
        """
        conn = self._connect()
        try:
            conn.request(
                "POST",
                "/query/stream",
                body=_scenario_payload(scenario),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            if response.status != 200:
                body = response.read().decode("utf-8")
                raise ServeError(response.status, _error_detail(body))
            final: Optional[Dict[str, object]] = None
            for raw in response:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = json.loads(line)
                if "result" in record:
                    final = record
                elif "error" in record:
                    # A Connection: close response owns the socket, and
                    # conn.close() below does not close it.
                    response.close()
                    raise ServeError(response.status, str(record["error"]))
                elif on_event is not None:
                    on_event(record)
            if final is None:
                raise ServeError(200, "stream ended without a result line")
            return final
        finally:
            conn.close()

    # -- operations --------------------------------------------------------

    def health(self) -> bool:
        """Whether the liveness probe answers."""
        try:
            conn = self._connect()
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                return response.status == 200
            finally:
                conn.close()
        except OSError:
            return False

    def metrics(self) -> str:
        """The Prometheus text exposition of the service registry."""
        conn = self._connect()
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            body = response.read().decode("utf-8")
            if response.status != 200:
                raise ServeError(response.status, _error_detail(body))
            return body
        finally:
            conn.close()


def _error_detail(body: str) -> str:
    try:
        payload = json.loads(body)
        if isinstance(payload, dict) and "error" in payload:
            return str(payload["error"])
    except json.JSONDecodeError:
        pass
    return body.strip() or "no detail"
