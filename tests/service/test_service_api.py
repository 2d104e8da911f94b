"""HTTP API end-to-end over the local forked fabric: submission
lifecycle, store-backed resubmission, in-flight coalescing, overlapping
cells, quotas, priority scheduling, event streaming, and drain."""

import json

import pytest

from repro.__main__ import main
from repro.service import (
    ReproService,
    ServiceClient,
    ServiceError,
    TenantQuotas,
)
from repro.service.state import load_manifest

_SPEC = {"workload": "histogram", "version": "elzar", "scale": "test"}


def _start(tmp_path, **kwargs):
    service = ReproService(str(tmp_path / "store.sqlite"), port=0, **kwargs)
    host, port = service.start()
    return service, host, port


@pytest.fixture()
def service(tmp_path):
    service, host, port = _start(tmp_path, max_running=2)
    try:
        yield service, host, port
    finally:
        service.stop()


def _client(host, port, tenant="alice"):
    return ServiceClient(host, port, tenant=tenant)


def _forked_reference(tmp_path, versions="elzar", injections=None):
    """Counts from `python -m repro campaign` forked mode, own store."""
    report = str(tmp_path / "ref.json")
    argv = ["campaign", "--scale", "test", "--quiet",
            "--benchmarks", "histogram", "--versions", versions,
            "--workers", "2", "--store", str(tmp_path / "ref.sqlite"),
            "--json", report]
    if injections is not None:
        argv += ["--injections", str(injections)]
    assert main(argv) == 0
    with open(report) as fh:
        return json.load(fh)


class TestLifecycle:
    def test_submit_runs_bit_identical_to_forked_cli(self, service,
                                                     tmp_path, capsys):
        reference = _forked_reference(tmp_path)
        _, host, port = service
        client = _client(host, port)
        submitted = client.submit(_SPEC)
        assert submitted["id"].startswith("c")
        record = client.wait(submitted["id"])
        capsys.readouterr()
        assert record["status"] == "succeeded"
        assert record["result"]["counts"] == \
            reference["cells"][0]["counts"]
        assert record["result"]["injections_used"] == 40
        assert record["tenant"] == "alice"

    def test_resubmit_after_completion_is_pure_store_hit(self, service):
        _, host, port = service
        client = _client(host, port)
        first = client.wait(client.submit(_SPEC)["id"])
        second = client.wait(client.submit(_SPEC)["id"])
        assert second["result"]["counts"] == first["result"]["counts"]
        assert second["result"]["injections_executed"] == 0
        assert second["result"]["injections_from_store"] == 40

    def test_results_endpoint_requires_terminal_state(self, service):
        _, host, port = service
        client = _client(host, port)
        campaign_id = client.submit({**_SPEC, "injections": 200})["id"]
        # Racing the campaign: either it is still running (409) or it
        # already finished (200) — both are legal; a 409 must carry
        # the structured code.
        try:
            client.results(campaign_id)
        except ServiceError as exc:
            assert exc.status == 409
            assert exc.payload["code"] == "not-finished"
        client.wait(campaign_id)
        results = client.results(campaign_id)
        assert results["result"]["injections_used"] == 200

    def test_unknown_campaign_404(self, service):
        _, host, port = service
        with pytest.raises(ServiceError) as exc:
            _client(host, port).campaign("c9999-deadbeef")
        assert exc.value.status == 404

    def test_invalid_spec_400(self, service):
        _, host, port = service
        with pytest.raises(ServiceError) as exc:
            _client(host, port).submit({"workload": "nope",
                                        "version": "elzar"})
        assert exc.value.status == 400
        assert exc.value.payload["code"] == "invalid-spec"
        assert exc.value.payload["field"] == "workload"

    def test_retired_engine_400(self, service):
        # The record-only "decoded" tier is gone: a fresh spec naming
        # it gets the structured unknown-engine error.
        _, host, port = service
        with pytest.raises(ServiceError) as exc:
            _client(host, port).submit({**_SPEC, "engine": "decoded"})
        assert exc.value.status == 400
        assert exc.value.payload["code"] == "invalid-spec"
        assert exc.value.payload["field"] == "engine"

    def test_status_endpoint(self, service):
        _, host, port = service
        client = _client(host, port)
        client.wait(client.submit(_SPEC)["id"])
        status = client.status()
        assert status["service"] == "repro"
        assert status["campaigns"]["succeeded"] >= 1
        assert status["draining"] is False


class TestCoalescing:
    def test_identical_inflight_specs_coalesce(self, service):
        _, host, port = service
        client = _client(host, port)
        other = _client(host, port, tenant="bob")
        spec = {**_SPEC, "injections": 120}
        leader_id = client.submit(spec)["id"]
        follower = other.submit(spec)
        assert follower["coalesced_with"] == leader_id
        leader_rec = client.wait(leader_id)
        follower_rec = other.wait(follower["id"])
        assert follower_rec["status"] == leader_rec["status"] == "succeeded"
        assert follower_rec["result"] == leader_rec["result"]
        assert follower_rec["coalesced_with"] == leader_id
        # The follower adopted — the work ran exactly once.
        assert leader_rec["result"]["injections_executed"] == 120

    def test_overlapping_caps_share_shards(self, service, tmp_path,
                                           capsys):
        # Same cell, different budgets: shards are cap-independent
        # slices of one pre-drawn plan list, so the 20-injection
        # campaign is a strict prefix of the 40-injection one. Run
        # them concurrently; each must match its serial reference
        # (no double-counting), and both key the same store spec.
        ref40 = _forked_reference(tmp_path, injections=40)
        ref20 = _forked_reference(tmp_path, injections=20)
        capsys.readouterr()
        _, host, port = service
        client = _client(host, port)
        big = client.submit({**_SPEC, "injections": 40})["id"]
        small = client.submit({**_SPEC, "injections": 20})["id"]
        big_rec = client.wait(big)
        small_rec = client.wait(small)
        assert big_rec["result"]["counts"] == ref40["cells"][0]["counts"]
        assert small_rec["result"]["counts"] == ref20["cells"][0]["counts"]
        assert big_rec["result"]["spec_key"] == \
            small_rec["result"]["spec_key"]
        assert big_rec["result"]["injections_used"] == 40
        assert small_rec["result"]["injections_used"] == 20


class TestQuotas:
    def test_over_budget_submission_rejected_429(self, tmp_path):
        service, host, port = _start(
            tmp_path, quotas=TenantQuotas(max_injections=50))
        try:
            with pytest.raises(ServiceError) as exc:
                _client(host, port).submit({**_SPEC, "injections": 51})
            assert exc.value.status == 429
            assert exc.value.payload["code"] == "quota-exceeded"
            assert exc.value.payload["quota"] == "max_injections"
        finally:
            service.stop()

    def test_concurrency_quota_rejects_then_frees(self, tmp_path):
        service, host, port = _start(
            tmp_path, quotas=TenantQuotas(max_concurrent=1), max_running=2)
        try:
            client = _client(host, port, tenant="bob")
            first = client.submit({**_SPEC, "injections": 120})["id"]
            with pytest.raises(ServiceError) as exc:
                client.submit({**_SPEC, "seed": 7})
            assert exc.value.status == 429
            assert exc.value.payload["quota"] == "max_concurrent"
            assert exc.value.payload["tenant"] == "bob"
            # Another tenant is unaffected.
            other_id = _client(host, port, tenant="carol").submit(
                {**_SPEC, "seed": 7})["id"]
            client.wait(first)
            # Settling released bob's slot.
            second = client.submit({**_SPEC, "seed": 9})["id"]
            client.wait(second)
            _client(host, port, tenant="carol").wait(other_id)
        finally:
            service.stop()


class TestPriority:
    def test_higher_priority_queued_campaign_runs_first(self, tmp_path):
        service, host, port = _start(tmp_path, max_running=1)
        try:
            client = _client(host, port)
            blocker = client.submit({**_SPEC, "injections": 120})["id"]
            low = client.submit({**_SPEC, "seed": 1, "priority": 0})["id"]
            high = client.submit({**_SPEC, "seed": 2, "priority": 5})["id"]
            for campaign_id in (blocker, low, high):
                client.wait(campaign_id)
            low_rec = client.campaign(low)
            high_rec = client.campaign(high)
            assert high_rec["started"] <= low_rec["started"]
        finally:
            service.stop()


class TestEvents:
    def test_stream_replays_and_follows_to_settlement(self, service):
        _, host, port = service
        client = _client(host, port)
        campaign_id = client.submit(_SPEC)["id"]
        events = list(client.stream_events(campaign_id))
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "campaign-started"
        assert "campaign-finished" in kinds
        assert kinds[-1] == "campaign-settled"
        assert all(e["campaign"] == campaign_id for e in events)
        done = [e for e in events
                if e["kind"] in ("shard-completed", "shard-store-hit")]
        assert sum(int(e["n"]) for e in done) == 40

    def test_stream_after_completion_serves_history(self, service):
        _, host, port = service
        client = _client(host, port)
        campaign_id = client.submit(_SPEC)["id"]
        client.wait(campaign_id)
        events = list(client.stream_events(campaign_id))
        assert [e["kind"] for e in events][0] == "campaign-started"
        assert [e["kind"] for e in events][-1] == "campaign-settled"


class TestDrain:
    def test_drain_interrupts_and_writes_manifest(self, tmp_path):
        service, host, port = _start(tmp_path, max_running=1)
        client = _client(host, port)
        running = client.submit({**_SPEC, "injections": 400})["id"]
        queued = client.submit({**_SPEC, "seed": 3})["id"]
        # Let the running campaign land at least one shard first.
        import time
        for _ in range(600):
            record = client.campaign(running)
            if record.get("progress", {}).get("shards_done", 0) >= 1:
                break
            time.sleep(0.05)
        service.initiate_drain()
        assert service.wait_drained(timeout=60.0)
        service.stop()

        manifest = load_manifest(str(tmp_path / "store.sqlite.manifest.json"))
        assert manifest is not None and manifest["reason"] == "drain"
        by_id = {c["id"]: c for c in manifest["campaigns"]}
        assert by_id[queued]["status"] == "interrupted"
        assert by_id[running]["status"] in ("interrupted", "succeeded")

        # Completed shards survived: a fresh service over the same
        # store resumes instead of recomputing.
        service2, host2, port2 = _start(tmp_path, max_running=1)
        try:
            client2 = _client(host2, port2)
            resumed = client2.wait(
                client2.submit({**_SPEC, "injections": 400})["id"],
                timeout=600.0)
            assert resumed["status"] == "succeeded"
            assert resumed["result"]["injections_from_store"] >= 10
        finally:
            service2.stop()

    def test_submissions_rejected_while_draining(self, tmp_path):
        service, host, port = _start(tmp_path, max_running=1)
        client = _client(host, port)
        client.submit({**_SPEC, "injections": 400})
        service._drain_flag.set()  # drain begins on the loop thread...
        service.initiate_drain()
        try:
            client.submit({**_SPEC, "seed": 11})
        except ServiceError as exc:
            assert exc.status == 503
            assert exc.payload["code"] == "service-draining"
        except OSError:
            pass  # ...and may finish first, closing the listener
        finally:
            service.stop()
