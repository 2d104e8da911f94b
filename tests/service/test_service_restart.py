"""Service crash-recovery: manifest durability and cold-start resume.

The restart manifest is the service's only memory across incarnations;
these tests pin its torn-write behaviour (checksummed, atomic, degrades
to "no manifest") and the recovery loop built on it: a service killed
mid-campaign restarts, resubmits the interrupted spec by itself, and
completes it from the store's banked shard prefix with zero re-executed
shards."""

import json
import time

import pytest

from repro.chaos.hooks import ChaosRule, ChaosSpec, chaos_active
from repro.service import ReproService, ServiceClient
from repro.service.state import (
    Campaign,
    CampaignFeed,
    load_manifest,
    write_manifest,
)

_SPEC = {"workload": "histogram", "version": "native", "scale": "test"}


def _start(tmp_path, **kwargs):
    service = ReproService(str(tmp_path / "store.sqlite"), port=0, **kwargs)
    host, port = service.start()
    return service, host, port


class _Loop:
    def call_soon_threadsafe(self, fn, *args):
        fn(*args)


def _campaign(request, cid="c0001-aaaaaaaa", status="interrupted"):
    campaign = Campaign(id=cid, tenant="alice", request=request,
                        digest="aaaaaaaa", feed=CampaignFeed(_Loop()))
    campaign.status = status
    return campaign


class TestManifestDurability:
    def _one(self, tmp_path):
        from repro.service.spec import parse_request

        path = str(tmp_path / "manifest.json")
        write_manifest(path, [_campaign(parse_request(_SPEC))],
                       reason="drain")
        return path

    def test_round_trip(self, tmp_path):
        path = self._one(tmp_path)
        payload = load_manifest(path)
        assert payload is not None and payload["reason"] == "drain"
        assert payload["campaigns"][0]["status"] == "interrupted"

    def test_missing_manifest_is_none(self, tmp_path):
        assert load_manifest(str(tmp_path / "nope.json")) is None

    def test_truncated_manifest_degrades_to_none(self, tmp_path):
        path = self._one(tmp_path)
        body = open(path).read()
        with open(path, "w") as fh:
            fh.write(body[:len(body) // 2])  # torn write
        assert load_manifest(path) is None

    def test_tampered_manifest_fails_checksum(self, tmp_path):
        path = self._one(tmp_path)
        payload = json.load(open(path))
        payload["campaigns"][0]["tenant"] = "mallory"
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert load_manifest(path) is None

    def test_wrong_version_is_none(self, tmp_path):
        path = self._one(tmp_path)
        payload = json.load(open(path))
        payload["version"] = 999
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert load_manifest(path) is None


class TestColdStartRecovery:
    def test_restart_resumes_interrupted_campaign_from_store(self, tmp_path):
        # Incarnation 1: the service.event chaos seam drains (SIGTERM
        # semantics) at the second completed shard, so exactly 2 of the
        # campaign's 4 shards are banked when the manifest is written.
        spec = ChaosSpec(scenario="svc-restart", seed=0, rules=[
            ChaosRule(point="service.event", action="drain",
                      match={"kind": "shard-completed"}, after=1),
        ])
        service, host, port = _start(tmp_path, max_running=1)
        client = ServiceClient(host, port, tenant="alice")
        with chaos_active(spec):
            submitted = client.submit(_SPEC)["id"]
            assert service.wait_drained(timeout=120.0)
            service.stop()

        manifest = load_manifest(str(tmp_path / "store.sqlite.manifest.json"))
        assert manifest is not None
        row = next(c for c in manifest["campaigns"] if c["id"] == submitted)
        assert row["status"] == "interrupted"
        assert row["progress"]["shards_done"] == 2
        assert row["progress"]["spec_key"]  # recovery's store pointer

        # Incarnation 2: same store, nobody resubmits — the service
        # recovers the manifest row on its own and completes it from
        # the banked prefix, re-executing zero banked shards.
        service2, host2, port2 = _start(tmp_path, max_running=1)
        try:
            client2 = ServiceClient(host2, port2, tenant="alice")
            recovered = None
            deadline = time.time() + 120.0
            while time.time() < deadline:
                rows = client2.campaigns()["campaigns"]
                recovered = next(
                    (r for r in rows if r.get("resumed_from") == submitted),
                    None)
                if recovered and recovered["status"] == "succeeded":
                    break
                time.sleep(0.1)
            assert recovered is not None, "manifest row was never resubmitted"
            assert recovered["status"] == "succeeded"
            result = recovered["result"]
            assert result["shards_from_store"] == 2
            assert result["shards_executed"] == 2
            assert result["injections_from_store"] == 20
        finally:
            service2.stop()

    def test_row_naming_retired_engine_is_resubmitted(self, tmp_path):
        # Manifests written before the record-only "decoded" engine was
        # retired name it. Recovery runs such a row on "compiled"
        # (bit-identical counts; engines are not in store keys) rather
        # than skipping it as an invalid spec.
        from dataclasses import replace

        from repro.service.spec import parse_request

        request = replace(parse_request(_SPEC), engine="decoded")
        write_manifest(str(tmp_path / "store.sqlite.manifest.json"),
                       [_campaign(request)], reason="drain")
        service, host, port = _start(tmp_path, max_running=1)
        try:
            client = ServiceClient(host, port, tenant="alice")
            recovered = None
            deadline = time.time() + 120.0
            while time.time() < deadline:
                recovered = next(
                    (r for r in client.campaigns()["campaigns"]
                     if r.get("resumed_from") == "c0001-aaaaaaaa"), None)
                if recovered and recovered["status"] == "succeeded":
                    break
                time.sleep(0.1)
            assert recovered is not None, "manifest row was skipped"
            assert recovered["status"] == "succeeded"
            assert recovered["spec"]["engine"] == "compiled"
        finally:
            service.stop()

    def test_torn_manifest_starts_fresh_without_crashing(self, tmp_path):
        manifest_path = tmp_path / "store.sqlite.manifest.json"
        manifest_path.write_text('{"version": 1, "campaigns": [{"tr')
        service, host, port = _start(tmp_path)
        try:
            client = ServiceClient(host, port, tenant="alice")
            time.sleep(0.2)  # let the recovery task run (and no-op)
            assert client.campaigns()["campaigns"] == []
            # The service still works end to end.
            record = client.wait(client.submit(_SPEC)["id"])
            assert record["status"] == "succeeded"
        finally:
            service.stop()

    def test_no_resume_flag_restores_explicit_resubmit(self, tmp_path):
        from repro.service.spec import parse_request

        write_manifest(str(tmp_path / "store.sqlite.manifest.json"),
                       [_campaign(parse_request(_SPEC))], reason="drain")
        service, host, port = _start(tmp_path, resume_manifest=False)
        try:
            client = ServiceClient(host, port, tenant="alice")
            time.sleep(0.2)
            assert client.campaigns()["campaigns"] == []
        finally:
            service.stop()
