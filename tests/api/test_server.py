"""HTTP front end: routes, status-code mapping, JSON errors, shutdown."""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import (
    ApiServer,
    ErrorPayload,
    PredictRequest,
    PredictResponse,
    ServerInfo,
    StatsSnapshot,
    StructurePayload,
)
from repro import wire
from repro.models import HydraModel, ModelConfig
from repro.serving import ModelRegistry, ServiceConfig
from tests.helpers import (
    FRAMING_FAULTS,
    make_molecule_graphs,
    parse_responses,
    raw_exchange,
    raw_post,
)


def make_registry(**models) -> ModelRegistry:
    registry = ModelRegistry()
    for name, seed in (models or {"tiny": 0}).items():
        registry.register_model(
            name, HydraModel(ModelConfig(hidden_dim=8, num_layers=2), seed=seed)
        )
    return registry


@pytest.fixture
def server():
    with ApiServer(make_registry(), port=0, workers=1) as api_server:
        yield api_server


def get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def post(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def post_error(url: str, body: bytes) -> tuple[int, ErrorPayload]:
    """POST raw bytes, expecting a JSON error body."""
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30):
            raise AssertionError("expected an HTTP error")
    except urllib.error.HTTPError as err:
        return err.code, ErrorPayload.from_json_dict(json.loads(err.read()))


def predict_body(count: int = 1, model: str | None = None, seed: int = 0) -> dict:
    graphs = make_molecule_graphs(count, seed=seed)
    return PredictRequest.from_graphs(graphs, model=model).to_json_dict()


class TestRoutes:
    def test_healthz(self, server):
        status, payload = get(server.url + "/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["models"] == ["tiny"]

    def test_models_returns_server_info(self, server):
        status, payload = get(server.url + "/v1/models")
        assert status == 200
        info = ServerInfo.from_json_dict(payload)
        assert [model["name"] for model in info.models] == ["tiny"]

    def test_predict_returns_schema_valid_response(self, server):
        status, payload = post(server.url + "/v1/predict", predict_body(2))
        assert status == 200
        response = PredictResponse.from_json_dict(payload)
        assert response.model == "tiny"
        assert len(response.results) == 2
        for result in response.results:
            assert np.isfinite(result.energy)
            assert result.forces.shape == (result.n_atoms, 3)
            assert np.isfinite(result.forces).all()

    def test_stats_after_traffic(self, server):
        post(server.url + "/v1/predict", predict_body(1))
        status, payload = get(server.url + "/v1/stats")
        assert status == 200
        snapshot = StatsSnapshot.from_json_dict(payload)
        assert snapshot.models["tiny"]["serving"]["requests"] == 1
        assert "batching" in snapshot.models["tiny"]
        plans = snapshot.models["tiny"]["plans"]
        assert plans["enabled"] is True
        assert plans["plans_compiled"] + plans["plan_fallbacks"] >= 1


class TestErrorMapping:
    def test_invalid_json_is_400(self, server):
        status, error = post_error(server.url + "/v1/predict", b"{not json")
        assert status == 400
        assert error.code == "invalid_request"
        assert "JSON" in error.message

    def test_schema_violation_is_400(self, server):
        body = json.dumps({"schema_version": "v1", "structures": [{"bogus": 1}]})
        status, error = post_error(server.url + "/v1/predict", body.encode())
        assert status == 400
        assert error.code == "invalid_request"

    def test_empty_body_is_400(self, server):
        status, error = post_error(server.url + "/v1/predict", b"")
        assert status == 400
        assert "body" in error.message

    def test_malformed_content_length_is_400(self, server):
        """A garbage header is the client's fault, not an internal error."""
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/predict")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"]["code"] == "invalid_request"
        finally:
            connection.close()

    @pytest.mark.parametrize("lengths", [["+5"], ["1_0"], ["3", "5"]])
    def test_content_length_must_be_digits_and_agree(self, server, lengths):
        """``int()`` took ``+5`` and ``1_0``, and repeats framed on the
        first value; both are now one typed 400, then a close."""
        status, payload = raw_post(
            server.url + "/v1/predict",
            [("Content-Length", length) for length in lengths],
            b"{}{}{}{}{}",
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert payload["error"]["message"].startswith("malformed Content-Length header: ")

    def test_agreeing_repeated_content_lengths_frame_as_one(self, server):
        body = json.dumps(predict_body(1)).encode()
        length = str(len(body))
        status, payload = raw_post(
            server.url + "/v1/predict",
            [("Content-Length", length), ("Content-Length", length), ("Connection", "close")],
            body,
        )
        assert status == 200
        assert len(PredictResponse.from_json_dict(payload).results) == 1

    def test_rejected_body_does_not_desync_keepalive(self, server):
        """An early-rejected POST must not leave body bytes on the socket.

        The handler rejects a missing Content-Length before reading the
        body; if it kept the connection alive, the unread bytes would be
        parsed as the next request line.  The contract: the connection
        closes, and a *fresh* connection (what any client then opens)
        works normally.
        """
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            body = json.dumps(predict_body(1)).encode()
            connection.putrequest("POST", "/v1/predict", skip_accept_encoding=True)
            # Lie by omission: body sent, no Content-Length header.
            connection.endheaders()
            connection.send(body)
            response = connection.getresponse()
            assert response.status == 400
            response.read()
            assert response.will_close  # server dropped the desynced connection
        finally:
            connection.close()
        # The server is unharmed for subsequent clients.
        status, _ = post(server.url + "/v1/predict", predict_body(1))
        assert status == 200

    def test_unknown_model_is_404(self, server):
        body = json.dumps(predict_body(1, model="nope"))
        status, error = post_error(server.url + "/v1/predict", body.encode())
        assert status == 404
        assert error.code == "unknown_model"
        assert "nope" in error.message

    def test_unknown_route_is_404_json(self, server):
        try:
            urllib.request.urlopen(server.url + "/v2/everything", timeout=10)
            raise AssertionError("expected an HTTP error")
        except urllib.error.HTTPError as err:
            assert err.code == 404
            assert ErrorPayload.from_json_dict(json.loads(err.read())).code == "not_found"

    def test_overload_is_429(self):
        """A tiny queue bound turns the second structure of one call into 429."""
        config = ServiceConfig(max_pending=1)
        with ApiServer(make_registry(), config=config, workers=1) as server:
            body = json.dumps(predict_body(6)).encode()
            status, error = post_error(server.url + "/v1/predict", body)
            assert status == 429
            assert error.code == "overloaded"
            assert "retry" in error.message


class TestFraming:
    @pytest.mark.parametrize(
        "raw, status, code, message", FRAMING_FAULTS, ids=[str(f[1]) for f in FRAMING_FAULTS]
    )
    def test_parser_faults_get_a_typed_answer_then_close(self, server, raw, status, code, message):
        """Stdlib's own page was HTML, and an unknown method was a 501."""
        (response,) = parse_responses(raw_exchange(server.url, raw))
        envelope = {"code": code, "message": message, "status": status}
        assert response == (status, {"schema_version": "v1", "error": envelope})

    def test_stalled_body_is_dropped_after_the_idle_bound(self, server, monkeypatch):
        """A client that promises 10 bytes and sends 2 used to hold its
        handler thread forever."""
        monkeypatch.setattr(wire, "IDLE_TIMEOUT_S", 0.3)
        start = time.monotonic()
        stalled = b"POST /v1/predict HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}"
        assert raw_exchange(server.url, stalled, timeout=5.0) == b""
        assert 0.25 < time.monotonic() - start < 2.0
        assert get(server.url + "/v1/healthz")[0] == 200


def post_raw(url: str, body: bytes, headers: dict | None = None):
    """POST and return (status, response headers, parsed JSON body)."""
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json", **(headers or {})}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), json.loads(err.read())


class TestOverloadProtection:
    """Per-client quotas, identity headers, Retry-After, saturation."""

    def test_429_carries_retry_after_header(self):
        config = ServiceConfig(max_pending=1)
        with ApiServer(make_registry(), config=config, workers=1) as server:
            body = json.dumps(predict_body(6)).encode()
            status, headers, payload = post_raw(server.url + "/v1/predict", body)
            assert status == 429
            assert int(headers["Retry-After"]) >= 1

    def test_rate_quota_keyed_on_client_header(self):
        config = ServiceConfig(client_rate=0.001, client_burst=1.0)
        with ApiServer(make_registry(), config=config, workers=1) as server:
            url = server.url + "/v1/predict"
            body = json.dumps(predict_body(1)).encode()
            identity = {"X-Repro-Client": "tenant-a"}
            status, _, _ = post_raw(url, body, headers=identity)
            assert status == 200
            status, headers, payload = post_raw(url, body, headers=identity)
            assert status == 429
            assert payload["error"]["code"] == "overloaded"
            assert "rate quota" in payload["error"]["message"]
            # The honest hint rides both the header and the body.
            assert int(headers["Retry-After"]) >= 1
            assert payload["error"]["retry_after_s"] > 0
            # Anonymous requests and other tenants are unaffected.
            assert post_raw(url, body)[0] == 200
            assert post_raw(url, body, headers={"X-Repro-Client": "tenant-b"})[0] == 200

    def test_body_client_id_charges_the_same_bucket(self):
        config = ServiceConfig(client_rate=0.001, client_burst=1.0)
        with ApiServer(make_registry(), config=config, workers=1) as server:
            url = server.url + "/v1/predict"
            obj = predict_body(1)
            obj["client_id"] = "tenant-a"
            body = json.dumps(obj).encode()
            assert post_raw(url, body)[0] == 200
            # Second request names the same tenant via the header instead.
            status, _, _ = post_raw(
                url, json.dumps(predict_body(1)).encode(),
                headers={"X-Repro-Client": "tenant-a"},
            )
            assert status == 429

    def test_invalid_priority_header_is_400(self, server):
        body = json.dumps(predict_body(1)).encode()
        status, _, payload = post_raw(
            server.url + "/v1/predict", body, headers={"X-Repro-Priority": "express"}
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "X-Repro-Priority" in payload["error"]["message"]

    def test_oversized_client_header_is_400(self, server):
        body = json.dumps(predict_body(1)).encode()
        status, _, payload = post_raw(
            server.url + "/v1/predict", body, headers={"X-Repro-Client": "x" * 200}
        )
        assert status == 400
        assert "client" in payload["error"]["message"].lower()

    def test_priority_header_accepted_on_success_path(self, server):
        body = json.dumps(predict_body(1)).encode()
        status, _, payload = post_raw(
            server.url + "/v1/predict", body,
            headers={"X-Repro-Priority": "background", "X-Repro-Client": "batch-job"},
        )
        assert status == 200
        assert PredictResponse.from_json_dict(payload).results

    def test_healthz_reports_saturation(self, server):
        post(server.url + "/v1/predict", predict_body(1))
        status, payload = get(server.url + "/v1/healthz")
        assert status == 200
        saturation = payload["saturation"]
        assert saturation["queue_depth"] == 0
        assert saturation["estimated_wait_s"] >= 0.0
        assert saturation["brownout_level"] == 0
        assert saturation["brownout_state"] == "normal"

    def test_stats_carry_admission_section(self, server):
        post(server.url + "/v1/predict", predict_body(1))
        status, payload = get(server.url + "/v1/stats")
        assert status == 200
        section = payload["models"]["tiny"]["admission"]
        assert section["lanes"]["interactive"]["admitted"] >= 1
        assert section["brownout"]["state"] == "normal"
        assert "shed_predicted" in payload["models"]["tiny"]["batching"]


class TestModelSelection:
    def test_single_model_is_implicit_default(self, server):
        status, payload = post(server.url + "/v1/predict", predict_body(1))
        assert status == 200 and payload["model"] == "tiny"

    def test_multi_model_requires_explicit_name(self):
        registry = make_registry(alpha=0, beta=1)
        with ApiServer(registry, workers=1) as server:
            body = json.dumps(predict_body(1)).encode()
            status, error = post_error(server.url + "/v1/predict", body)
            assert status == 400
            assert "request.model is required" in error.message
            status, payload = post(server.url + "/v1/predict", predict_body(1, model="beta"))
            assert status == 200 and payload["model"] == "beta"

    def test_multi_model_with_configured_default(self):
        registry = make_registry(alpha=0, beta=1)
        with ApiServer(registry, workers=1, default_model="alpha") as server:
            status, payload = post(server.url + "/v1/predict", predict_body(1))
            assert status == 200 and payload["model"] == "alpha"


class TestLifecycle:
    def test_close_is_graceful_and_idempotent(self):
        server = ApiServer(make_registry(), workers=2).start()
        post(server.url + "/v1/predict", predict_body(2))
        server.close()
        server.close()  # idempotent
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(server.url + "/v1/healthz", timeout=2)

    def test_ephemeral_port_is_reported(self, server):
        assert server.port > 0
        assert server.url.endswith(str(server.port))


class TestWireExactness:
    def test_identical_request_hits_cache_with_identical_numbers(self, server):
        body = predict_body(1)
        _, first = post(server.url + "/v1/predict", body)
        _, second = post(server.url + "/v1/predict", body)
        assert first["results"][0]["cached"] is False
        assert second["results"][0]["cached"] is True
        assert first["results"][0]["energy"] == second["results"][0]["energy"]
        assert first["results"][0]["forces"] == second["results"][0]["forces"]

    def test_wire_positions_do_not_perturb_results(self, server):
        """positions -> JSON -> positions is the identity, so keys collide."""
        graph = make_molecule_graphs(1, seed=4)[0]
        payload = StructurePayload.from_graph(graph)
        round_tripped = StructurePayload.from_json_dict(
            json.loads(json.dumps(payload.to_json_dict()))
        )
        body = PredictRequest(structures=[payload]).to_json_dict()
        body_rt = PredictRequest(structures=[round_tripped]).to_json_dict()
        _, first = post(server.url + "/v1/predict", body)
        _, second = post(server.url + "/v1/predict", body_rt)
        assert second["results"][0]["cached"] is True  # same structure hash
        assert first["results"][0]["key"] == second["results"][0]["key"]
