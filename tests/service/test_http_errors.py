"""HTTP error paths of the gateway: status codes, bodies and headers
for the failure modes clients actually hit."""

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.plans import RunPlan, ScenarioPlan, SearchPlan
from repro.service.client import ServiceClient
from repro.service.gateway import MAX_BODY_BYTES, GatewayRunner
from repro.service.tenants import Tenant, TenantRegistry


def search_plan(seed=0, trials=2):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


@pytest.fixture()
def open_front_end(tmp_path):
    """A gateway with no tenant registry (open access)."""
    with GatewayRunner(workers=1, checkpoint_dir=str(tmp_path / "ckpt"),
                       drain_grace=0) as runner:
        yield runner


@pytest.fixture()
def tenant_front_end(tmp_path):
    """A gateway requiring API keys, with tight quotas on 'acme'."""
    registry = TenantRegistry([
        Tenant(name="acme", api_key="k-acme", max_running=1, max_queued=2),
        Tenant(name="beta", api_key="k-beta"),
    ])
    with GatewayRunner(workers=1, tenants=registry,
                       checkpoint_dir=str(tmp_path / "ckpt"),
                       drain_grace=0) as runner:
        yield runner


def post(base_url, path, payload, headers=None):
    body = payload if isinstance(payload, bytes) \
        else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"{base_url}{path}", data=body,
        headers={"Content-Type": "application/json", **(headers or {})})
    return urllib.request.urlopen(request, timeout=10)


class TestMalformedRequests:
    def test_malformed_json_is_400(self, open_front_end):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(open_front_end.base_url, "/jobs", b"{not json")
        assert err.value.code == 400
        assert "error" in json.loads(err.value.read())

    def test_json_without_a_plan_is_400(self, open_front_end):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(open_front_end.base_url, "/jobs", {"nope": 1})
        assert err.value.code == 400

    def test_non_object_json_is_400(self, open_front_end):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(open_front_end.base_url, "/jobs", b"[1, 2, 3]")
        assert err.value.code == 400

    def test_invalid_since_parameter_is_400(self, open_front_end):
        client = ServiceClient(open_front_end.base_url)
        info = client.submit(search_plan())
        client.wait(info["job_id"], timeout=120)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"{open_front_end.base_url}/jobs/{info['job_id']}"
                "/events?since=banana", timeout=10)
        assert err.value.code == 400


class TestUnknownRoutes:
    @pytest.mark.parametrize("path", ["/nope", "/agents/x", "/jobs/x/what"])
    def test_unknown_get_routes_are_404(self, open_front_end, path):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"{open_front_end.base_url}{path}", timeout=10)
        assert err.value.code == 404

    def test_unknown_post_routes_are_404(self, open_front_end):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(open_front_end.base_url, "/nope", {"x": 1})
        assert err.value.code == 404

    @pytest.mark.parametrize("method, path", [
        ("GET", "/shutdown"), ("POST", "/health"), ("GET", "/jobs/x/cancel"),
        ("POST", "/jobs/x/events"), ("GET", "/agents/x/claim"),
    ])
    def test_known_path_under_the_wrong_method_is_404(
            self, open_front_end, method, path):
        conn = http.client.HTTPConnection(
            open_front_end.host, open_front_end.port, timeout=10)
        try:
            conn.request(method, path, body=b"{}" if method == "POST"
                         else None)
            resp = conn.getresponse()
            assert resp.status == 404
            assert json.loads(resp.read()) == {
                "error": f"unknown path {path!r}"}
        finally:
            conn.close()

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH"])
    def test_other_methods_are_405(self, open_front_end, method):
        conn = http.client.HTTPConnection(
            open_front_end.host, open_front_end.port, timeout=10)
        try:
            conn.request(method, "/health")
            resp = conn.getresponse()
            assert resp.status == 405
            assert json.loads(resp.read()) == {
                "error": f"method {method} not allowed"}
        finally:
            conn.close()

    def test_unknown_job_id_is_404(self, open_front_end):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"{open_front_end.base_url}/jobs/j-missing", timeout=10)
        assert err.value.code == 404


class TestOversizedPayloads:
    def test_declared_oversize_is_refused_with_413(self, open_front_end):
        # Declare a body one byte over the cap; the gateway must
        # refuse before reading it, so no body is ever sent here.
        conn = http.client.HTTPConnection(
            open_front_end.host, open_front_end.port, timeout=10)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 413
        finally:
            conn.close()

    def test_negative_content_length_is_400(self, open_front_end):
        conn = http.client.HTTPConnection(
            open_front_end.host, open_front_end.port, timeout=10)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "-5")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
        finally:
            conn.close()


class TestApiKeys:
    def test_missing_key_is_401(self, tenant_front_end):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(tenant_front_end.base_url, "/jobs",
                 {"plan": search_plan().to_dict()})
        assert err.value.code == 401

    def test_unknown_key_is_403(self, tenant_front_end):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(tenant_front_end.base_url, "/jobs",
                 {"plan": search_plan().to_dict()},
                 headers={"X-API-Key": "k-wrong"})
        assert err.value.code == 403

    def test_reads_require_a_key_too(self, tenant_front_end):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"{tenant_front_end.base_url}/jobs/j-x", timeout=10)
        assert err.value.code == 401

    def test_health_and_metrics_stay_open(self, tenant_front_end):
        for path in ("/health", "/metrics"):
            with urllib.request.urlopen(
                    f"{tenant_front_end.base_url}{path}",
                    timeout=10) as resp:
                assert resp.status == 200

    def test_valid_key_is_admitted_and_attributed(self, tenant_front_end):
        client = ServiceClient(tenant_front_end.base_url, api_key="k-beta")
        info = client.submit(search_plan(seed=50))
        assert info["tenant"] == "beta"
        assert client.wait(info["job_id"], timeout=120)["state"] == "done"


class TestQuotaBreaches:
    def test_running_quota_is_429_with_retry_after(self, tenant_front_end):
        client = ServiceClient(tenant_front_end.base_url, max_retries=0,
                               api_key="k-acme")
        blocker = client.submit(search_plan(seed=60, trials=60))
        try:
            deadline = time.monotonic() + 60
            while client.status(blocker["job_id"])["state"] != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.05)
            with pytest.raises(urllib.error.HTTPError) as err:
                post(tenant_front_end.base_url, "/jobs",
                     {"plan": search_plan(seed=61).to_dict()},
                     headers={"X-API-Key": "k-acme"})
            assert err.value.code == 429
            assert float(err.value.headers["Retry-After"]) > 0
            body = json.loads(err.value.read())
            assert body["tenant"] == "acme"
            assert body["limit"] == "running"
        finally:
            client.cancel(blocker["job_id"])

    def test_quota_is_per_tenant_not_global(self, tenant_front_end):
        acme = ServiceClient(tenant_front_end.base_url, max_retries=0,
                             api_key="k-acme")
        beta = ServiceClient(tenant_front_end.base_url, api_key="k-beta")
        blocker = acme.submit(search_plan(seed=62, trials=60))
        try:
            deadline = time.monotonic() + 60
            while acme.status(blocker["job_id"])["state"] != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.05)
            # acme is at its running limit; beta is unaffected.
            info = beta.submit(search_plan(seed=63))
            assert info["tenant"] == "beta"
            assert beta.wait(info["job_id"], timeout=120)["state"] == "done"
        finally:
            acme.cancel(blocker["job_id"])
