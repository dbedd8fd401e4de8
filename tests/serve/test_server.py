"""The HTTP and stdio transports in front of StudyService.

Blocking-client calls (``ServeClient`` wraps ``http.client``) must run
off the event loop via ``run_in_executor`` — calling them inline from a
coroutine would block the loop the server itself runs on.
"""

import asyncio
import json

import pytest

from repro import study
from repro.core.parameters import FaultModel
from repro.optimize import DesignSpace
from repro.parallel import map_timed
from repro.serve import (
    ANSWER_SCHEMA_VERSION,
    ResultStore,
    ServeClient,
    ServeError,
    StudyService,
    serve_lines,
    start_server,
)
from repro.serve.server import _scenario_from_body
from repro.study import EstimatorPolicy, Scenario, SystemSpec

MODEL = FaultModel(2500.0, 500.0, 1.0, 1.0, 25.0)


def scenario_dict(mission=0.5, trials=300, seed=3, engine="batch"):
    return Scenario(
        question="loss_probability",
        system=SystemSpec(model=MODEL),
        mission_years=mission,
        policy=EstimatorPolicy(engine=engine, trials=trials, seed=seed),
    ).as_dict()


def with_server(test_body, store=None, jobs=1):
    """Run ``await test_body(client)`` against a live server on port 0."""

    async def main():
        service = StudyService(store=store, jobs=jobs)
        server = await start_server(service, port=0)
        port = server.sockets[0].getsockname()[1]
        client = ServeClient(port=port)
        loop = asyncio.get_running_loop()

        def call(fn, *args, **kwargs):
            return loop.run_in_executor(None, lambda: fn(*args, **kwargs))

        try:
            return await test_body(client, call, service)
        finally:
            server.close()
            await server.wait_closed()
            await service.close()

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# HTTP routes
# ---------------------------------------------------------------------------


def test_healthz_and_metrics():
    async def body(client, call, service):
        assert await call(client.health)
        text = await call(client.metrics)
        return text

    text = with_server(body)
    # The service registry is live from construction; a scrape before
    # any query still renders (possibly empty) valid exposition text.
    for line in text.splitlines():
        assert line.startswith("# TYPE") or " " in line


def test_query_cold_then_hot(tmp_path):
    async def body(client, call, service):
        cold = await call(client.query, scenario_dict())
        hot = await call(client.query, scenario_dict())
        metrics = await call(client.metrics)
        return cold, hot, metrics

    cold, hot, metrics = with_server(body, store=ResultStore(tmp_path))
    assert cold["schema"] == ANSWER_SCHEMA_VERSION
    assert cold["served_from"] == "engine"
    assert hot["served_from"] == "store"
    assert hot["result"] == cold["result"]
    assert len(cold["scenario_hash"]) == 32
    assert cold["result"]["question"] == "loss_probability"
    assert "repro_serve_requests_total 2" in metrics
    assert "repro_cache_serve_hit_total 1" in metrics


def test_query_accepts_wrapped_scenario_envelope(tmp_path):
    async def body(client, call, service):
        # The CLI's render_json envelope wraps the scenario; POSTing it
        # back verbatim must work.
        envelope = {"command": "study", "scenario": scenario_dict()}
        return await call(client.query, envelope)

    answer = with_server(body, store=ResultStore(tmp_path))
    assert answer["served_from"] == "engine"


def test_bad_request_is_a_400_not_a_crash():
    async def body(client, call, service):
        with pytest.raises(ServeError) as bad_json:
            await call(client.query, {"question": "no_such_question"})
        # The connection survives the error: a good query still works.
        answer = await call(client.query, scenario_dict())
        return bad_json.value, answer

    error, answer = with_server(body)
    assert error.status == 400
    assert "invalid scenario" in str(error)
    assert answer["served_from"] == "engine"


def test_unknown_route_is_404():
    async def body(client, call, service):
        def raw_get():
            conn = client._connect()
            try:
                conn.request("GET", "/nope")
                response = conn.getresponse()
                return response.status, response.read()
            finally:
                conn.close()

        return await call(raw_get)

    status, payload = with_server(body)
    assert status == 404
    assert b"no route" in payload


def test_stream_query_yields_progress_then_result():
    events = []

    async def body(client, call, service):
        return await call(
            client.query_stream, scenario_dict(engine="auto"), events.append
        )

    answer = with_server(body)
    assert answer["served_from"] == "engine"
    kinds = [record["event"] for record in events]
    assert kinds[0] == "study_start"
    assert kinds[-1] == "study_end"
    assert "estimate" in kinds


def test_scenario_from_body_rejects_garbage():
    for garbage in (b"{ not json", b"[1, 2]", b'{"scenario": 7}'):
        with pytest.raises(ValueError):
            _scenario_from_body(garbage)


def raw_exchange(request: bytes) -> bytes:
    """Send raw request bytes to a live server; return everything it
    writes back before closing the connection."""

    async def body(client, call, service):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", client.port
        )
        try:
            writer.write(request)
            await writer.drain()
            return await asyncio.wait_for(reader.read(), timeout=60)
        finally:
            writer.close()
            await writer.wait_closed()

    return with_server(body)


def post_query(payload) -> bytes:
    data = json.dumps(payload).encode("utf-8")
    return raw_exchange(
        b"POST /query HTTP/1.1\r\nConnection: close\r\n"
        + f"Content-Length: {len(data)}\r\n\r\n".encode("latin-1")
        + data
    )


@pytest.mark.parametrize("length", [b"abc", b"-5", b"1.5"])
def test_malformed_content_length_is_a_400_and_close(length):
    response = raw_exchange(
        b"POST /query HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n{}"
    )
    head, _, payload = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert b"Content-Length" in payload


@pytest.mark.parametrize(
    "payload,section",
    [
        ({"question": "loss_probability", "system": "x"}, "system"),
        (
            {"question": "loss_probability", "system": {"model": 3}},
            "system.model",
        ),
        ({"question": "loss_probability", "policy": [1]}, "policy"),
        ({"question": "sweep", "sweep": "MV"}, "sweep"),
        ({"question": "frontier", "space": 1}, "space"),
        ({"question": "fleet_survival", "timeline": [2]}, "timeline"),
        (
            {
                "question": "loss_probability",
                "system": {"model": MODEL.as_dict(), "scheme": "6,4"},
            },
            "system.scheme",
        ),
    ],
)
def test_non_object_section_is_a_400(payload, section):
    response = post_query(payload)
    assert response.startswith(b"HTTP/1.1 400 ")
    error = json.loads(response.partition(b"\r\n\r\n")[2])["error"]
    assert f"'{section}' must be a JSON object" in error


_EPOCH = {"start_year": 0.0, "model": MODEL.as_dict()}


@pytest.mark.parametrize(
    "timeline,path",
    [
        ({"years": 10, "epochs": ["x"]}, "timeline.epochs[0]"),
        (
            {"years": 10, "epochs": [{"start_year": 0.0, "model": 5}]},
            "timeline.epochs[0].model",
        ),
        (
            {"years": 10, "epochs": [_EPOCH, dict(_EPOCH, shocks=[1])]},
            "timeline.epochs[1].shocks",
        ),
        (
            {"years": 10, "epochs": [_EPOCH], "migrations": ["y"]},
            "timeline.migrations[0]",
        ),
        (
            {
                "years": 10,
                "epochs": [_EPOCH],
                "migrations": [{"year": 5, "risk": "x"}],
            },
            "timeline.migrations[0].risk",
        ),
    ],
)
def test_non_object_timeline_entry_is_a_400(timeline, path):
    response = post_query({"question": "fleet_survival", "timeline": timeline})
    assert response.startswith(b"HTTP/1.1 400 ")
    error = json.loads(response.partition(b"\r\n\r\n")[2])["error"]
    assert f"'{path}' must be a JSON object" in error


_SHOCKS = {"rate_per_year": 0.5, "regions": 2, "replica_penetration": 0.5}
_RISK = {
    "name": "camera RAW",
    "mean_years_to_endangered": 8.0,
    "mean_years_endangered_to_dead": 5.0,
    "migration_sweep_years": 1.0,
}


#: A :func:`fleet_scenario` value that deletes the field instead.
MISSING = object()


def fleet_scenario(path, value):
    """A small, valid shocked and migrating fleet scenario with the
    timeline field at ``path`` set to ``value`` (or deleted, for
    :data:`MISSING`)."""
    timeline = {
        "years": 2,
        "epochs": [
            dict(_EPOCH, shocks=dict(_SHOCKS)),
            dict(_EPOCH, start_year=1.0),
        ],
        "migrations": [{"year": 1.0, "risk": dict(_RISK)}],
    }
    *parents, key = path.replace("[", ".").replace("]", "").split(".")
    section = timeline
    for name in parents:
        section = section[int(name) if name.isdigit() else name]
    if value is MISSING:
        del section[key]
    else:
        section[key] = value
    return {
        "question": "fleet_survival",
        "members": 200,
        "timeline": timeline,
    }


@pytest.mark.parametrize(
    "path,value",
    [
        # Reaches the chunk kernel, which crashes and drops the
        # connection.
        ("migrations[0].year", float("nan")),
        # Would run silently as a different plan.
        ("replicas", 2.7),
        ("epochs[0].shocks.regions", 2.5),
        ("epochs[0].shocks.rate_per_year", float("nan")),
        ("epochs[0].shocks.latent", "false"),
        # Would fail with an error naming no field, or the wrong one.
        ("years", float("nan")),
        ("years", [1]),
        ("epochs", 5),
        ("epochs[1].start_year", float("nan")),
        ("epochs[0].hazard_multiplier", float("nan")),
        # Missing required fields used to read as wrong types.
        ("years", MISSING),
        ("epochs", MISSING),
        ("epochs[1].start_year", MISSING),
        ("epochs[0].model", MISSING),
    ],
)
def test_malformed_timeline_field_is_a_400_naming_its_path(path, value):
    response = post_query(fleet_scenario(path, value))
    assert response.startswith(b"HTTP/1.1 400 "), response[:80]
    error = json.loads(response.partition(b"\r\n\r\n")[2])["error"]
    assert f"'timeline.{path}'" in error
    if value is MISSING:
        assert error.endswith(f"'timeline.{path}' is required")


def scenario_with(path, value):
    """A valid scenario holding the field at ``path`` (a frontier
    question with one erasure scheme for ``space.*``, a sweep for
    ``sweep.*``, an erasure code for ``system.scheme.*``), with that
    field set to ``value``."""
    payload = scenario_dict()
    if path.startswith("space."):
        space = DesignSpace(erasure_schemes=("6,4",))
        payload.update(question="frontier", space=space.as_dict())
    elif path.startswith("sweep."):
        payload.update(
            question="sweep",
            sweep={"parameter": "MDL", "values": [5.0, 50.0]},
        )
    elif path.startswith("system.scheme."):
        payload["system"]["scheme"] = {"n": 6, "k": 4}
    *parents, key = path.replace("[", ".").replace("]", "").split(".")
    section = payload
    for name in parents:
        section = section[int(name) if name.isdigit() else name]
    section[int(key) if key.isdigit() else key] = value
    return payload


@pytest.mark.parametrize(
    "path,value",
    [
        ("mission_years", float("nan")),
        ("system.replicas", 2.7),
        ("system.model.MV", [1]),
        ("policy.trials", True),
        # Each of these used to run silently as a different question,
        # or fail naming no field.
        ("sweep.values", "123"),
        ("system.scheme.n", 6.5),
        ("system.scheme.k", True),
        ("space.replica_counts[0]", 2.5),
        ("space.audit_rates[0]", float("nan")),
        ("space.media", 5),
        ("space.media[0]", 5),
        # Read with str(), these ran as engine '7' or failed naming no
        # field.
        ("question", 7),
        ("policy.engine", 7),
        ("policy.engine", "warp"),
        ("policy.variance_reduction", 5),
        # Unknown enumerated values used to fail naming no field.
        ("sweep.metric", "foo"),
        ("sweep.parameter", "XX"),
        ("space.media[0]", "drive:nope"),
        ("space.placements[0]", "nowhere"),
        ("space.erasure_schemes[0]", "6;4"),
    ],
)
def test_malformed_number_is_a_400_naming_its_path(path, value):
    response = post_query(scenario_with(path, value))
    assert response.startswith(b"HTTP/1.1 400 ")
    error = json.loads(response.partition(b"\r\n\r\n")[2])["error"]
    assert f"'{path}'" in error


def test_oversized_body_is_a_413_and_close_before_reading_it():
    # Only the head is sent: a server that tried to buffer the declared
    # gigabyte would wait out the exchange's timeout instead.
    response = raw_exchange(
        b"POST /query HTTP/1.1\r\nContent-Length: 1000000000\r\n\r\n"
    )
    head, _, payload = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 ")
    assert b"Connection: close" in head
    assert "exceeds" in json.loads(payload)["error"]


@pytest.mark.parametrize(
    "payload,path",
    [
        ({"question": "mttdl", "system": {}}, "system.model"),
        (
            {
                "question": "sweep",
                "system": {"model": MODEL.as_dict()},
                "sweep": {"values": [1.0]},
            },
            "sweep.parameter",
        ),
    ],
)
def test_empty_or_partial_section_is_a_400_naming_the_field(payload, path):
    response = post_query(payload)
    assert response.startswith(b"HTTP/1.1 400 ")
    error = json.loads(response.partition(b"\r\n\r\n")[2])["error"]
    assert f"'{path}' is required" in error


def test_removed_variance_reduction_is_a_400():
    payload = scenario_dict()
    payload["policy"]["variance_reduction"] = "qmc"
    response = post_query(payload)
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"variance_reduction" in response


def test_frontier_variance_reduction_is_a_400():
    payload = scenario_dict()
    payload.update(question="frontier", space=DesignSpace().as_dict())
    payload["policy"]["variance_reduction"] = "cv"
    response = post_query(payload)
    assert response.startswith(b"HTTP/1.1 400 ")
    error = json.loads(response.partition(b"\r\n\r\n")[2])["error"]
    assert "'policy.variance_reduction'" in error


def test_frontier_bias_is_a_400():
    payload = scenario_dict()
    payload.update(question="frontier", space=DesignSpace().as_dict())
    payload["policy"].update(engine="is", bias=50.0)
    response = post_query(payload)
    assert response.startswith(b"HTTP/1.1 400 ")
    error = json.loads(response.partition(b"\r\n\r\n")[2])["error"]
    assert "'policy.bias'" in error


def test_removed_splitting_engine_is_a_400():
    payload = scenario_dict()
    payload["policy"]["engine"] = "splitting"
    response = post_query(payload)
    assert response.startswith(b"HTTP/1.1 400 ")
    error = json.loads(response.partition(b"\r\n\r\n")[2])["error"]
    assert "'policy.engine'" in error
    assert "'is'" in error


@pytest.fixture
def failing_event_engine(monkeypatch):
    """``study.run`` raises for event-engine questions only."""
    real_run = study.run

    def run(scenario, **kwargs):
        if scenario.policy.engine == "event":
            raise RuntimeError("engine exploded")
        return real_run(scenario, **kwargs)

    monkeypatch.setattr(study, "run", run)


def test_engine_failure_is_a_500_and_the_server_keeps_serving(
    failing_event_engine,
):
    async def body(client, call, service):
        with pytest.raises(ServeError) as failed:
            await call(client.query, scenario_dict(engine="event"))
        answer = await call(client.query, scenario_dict())
        return failed.value, answer

    error, answer = with_server(body)
    assert error.status == 500
    assert error.detail == "RuntimeError: engine exploded"
    assert answer["served_from"] == "engine"


def test_stream_engine_failure_ends_with_an_error_line(failing_event_engine):
    async def body(client, call, service):
        with pytest.raises(ServeError) as failed:
            await call(client.query_stream, scenario_dict(engine="event"))
        answer = await call(client.query_stream, scenario_dict())
        return failed.value, answer

    error, answer = with_server(body)
    assert error.status == 200
    assert error.detail == "RuntimeError: engine exploded"
    assert answer["served_from"] == "engine"


def test_parallel_stream_ends_while_workers_hold_its_socket():
    # A map at another size first, so that the server's jobs=2 answer
    # forks fresh workers while the stream's connection is open,
    # whichever pool this process already had.
    map_timed(abs, [-1, -2, -3], 3)
    fleet = {
        "question": "fleet_survival",
        "members": 20_000,  # two chunks, so the answer uses the pool
        "timeline": {"years": 0.05, "epochs": [_EPOCH]},
        "policy": {"seed": 7},
    }

    async def body(client, call, service):
        # The workers' copies of the socket keep close() from sending a
        # FIN; a server that only closed would hang this call until its
        # timeout.
        quick = ServeClient(port=client.port, timeout=60.0)
        return await call(quick.query_stream, fleet)

    answer = with_server(body, jobs=2)
    local = study.run(Scenario.from_dict(fleet), jobs=1)
    assert answer["result"]["value"] == local.value
    assert answer["result"]["losses"] == local.losses


# ---------------------------------------------------------------------------
# stdio / JSON-lines mode
# ---------------------------------------------------------------------------


def run_stdio(lines):
    """Feed request lines through serve_lines; return output records."""

    async def main():
        service = StudyService()
        reader = asyncio.StreamReader()
        for line in lines:
            reader.feed_data((json.dumps(line) + "\n").encode("utf-8"))
        reader.feed_eof()
        out = []
        count = await serve_lines(service, reader, out.append)
        await service.close()
        return count, [json.loads(line) for line in out]

    return asyncio.run(main())


def test_serve_lines_round_trip():
    count, records = run_stdio(
        [
            {"id": "a", "scenario": scenario_dict()},
            {"id": "b", "scenario": scenario_dict(mission=1.0)},
            {"id": "oops", "scenario": {"question": "bogus"}},
        ]
    )
    assert count == 3
    by_id = {}
    for record in records:
        by_id.setdefault(record["id"], []).append(record)
    assert by_id["a"][-1]["served_from"] in ("engine", "inflight")
    assert by_id["b"][-1]["result"]["question"] == "loss_probability"
    assert "error" in by_id["oops"][-1]


def test_serve_lines_streamed_request_gets_progress_records():
    count, records = run_stdio(
        [{"id": 1, "scenario": scenario_dict(engine="auto"), "stream": True}]
    )
    assert count == 1
    assert [r for r in records if r.get("event") == "study_start"]
    final = records[-1]
    assert final["id"] == 1
    assert final["schema"] == ANSWER_SCHEMA_VERSION
    assert "result" in final


def test_serve_lines_identical_lines_share_one_engine_run():
    request = {"id": None, "scenario": scenario_dict()}
    lines = [dict(request, id=i) for i in range(4)]

    async def main():
        service = StudyService()
        reader = asyncio.StreamReader()
        for line in lines:
            reader.feed_data((json.dumps(line) + "\n").encode("utf-8"))
        reader.feed_eof()
        out = []
        await serve_lines(service, reader, out.append)
        stats = service.telemetry.snapshot().counters
        await service.close()
        return [json.loads(line) for line in out], stats

    records, stats = asyncio.run(main())
    assert len(records) == 4
    assert stats["serve.engine_runs"] == 1
    values = {json.dumps(r["result"], sort_keys=True) for r in records}
    assert len(values) == 1
