"""ReproService: fault injection as a long-running, multi-tenant API.

One process owns one result store and serves campaign submissions over
HTTP (see docs/SERVICE.md for the wire API):

- ``POST /campaigns`` — validate (:mod:`.spec`), admit (:mod:`.admission`),
  queue; returns the campaign id immediately.
- ``GET /campaigns/{id}`` — lifecycle status plus live partial counts.
- ``GET /campaigns/{id}/events`` — the campaign's lab event stream as
  close-delimited NDJSON (recent history replays first).
- ``GET /campaigns/{id}/results`` — final counts with provenance
  (how many injections were executed vs served from the store).

Concurrency model: the HTTP server, the scheduler, and all campaign
bookkeeping run on one asyncio loop (optionally hosted on a background
thread via :meth:`ReproService.start`); campaign execution blocks, so
each running campaign occupies a slot in a thread pool. Under the
local fabric each slot forks its own shard workers; under the cluster
fabric (``cluster_workers > 0``) all slots lease shards through one
:class:`~repro.cluster.coordinator.ClusterCoordinator`, whose
fair-share scheduler interleaves their grants by priority.

Duplicate submissions are cheap twice over. An identical spec
(*digest*, which excludes execution knobs) submitted while the
original is still in flight is **coalesced**: the follower occupies no
scheduler slot and adopts the leader's outcome. An identical spec
submitted after completion re-runs, but every shard is served from the
content-addressed store, so it costs ~0 compute
(``injections_executed == 0`` in its result proves it).

Graceful drain (SIGTERM/SIGINT): stop admitting (503), cancel queued
campaigns, interrupt running ones at their next shard boundary
(completed shards are already persisted), write a restart manifest,
exit. Interrupted specs resume from the store when resubmitted.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..chaos.hooks import chaos_point
from ..chaos.policy import SERVICE_POLL
from ..cpu.interpreter import stored_engine
from ..lab.events import CampaignInterrupted, EventBus
from .admission import AdmissionController, QuotaExceeded, TenantQuotas
from .http import (
    HttpError,
    HttpRequest,
    read_request,
    send_json,
    send_ndjson_line,
    start_ndjson,
)
from .runner import CampaignRunner
from .spec import CampaignRequest, SpecError, parse_request
from .state import (
    FAILED,
    INTERRUPTED,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    TERMINAL,
    Campaign,
    CampaignFeed,
    load_manifest,
    result_summary,
    write_manifest,
)

_CAMPAIGN_SEQ = itertools.count(1)

#: Exit status of a chaos-"kill"ed service process (SIGKILL stand-in:
#: no drain, no manifest write beyond what already landed).
KILL_STATUS = 9


class ReproService:
    """The always-on campaign service. See the module docstring for
    the architecture; lifecycle::

        service = ReproService(store_path, port=0)
        host, port = service.start()       # background loop thread
        ...
        service.initiate_drain()           # or SIGTERM via serve_forever
        service.stop()
    """

    def __init__(
        self,
        store_path: str,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        quotas: Optional[TenantQuotas] = None,
        quota_overrides: Optional[Dict[str, TenantQuotas]] = None,
        cluster_workers: int = 0,
        lease_timeout: float = 30.0,
        max_running: int = 2,
        manifest_path: Optional[str] = None,
        resume_manifest: bool = True,
    ):
        self.store_path = store_path
        self.manifest_path = manifest_path or f"{store_path}.manifest.json"
        #: Cold-start recovery: resubmit the manifest's interrupted and
        #: queued campaigns on start (each resumes from its banked
        #: store shards). ``False`` restores the old explicit-resubmit
        #: behaviour.
        self.resume_manifest = resume_manifest
        self.admission = AdmissionController(quotas, quota_overrides)
        self.max_running = max(1, max_running)
        self.cluster_workers = cluster_workers
        self.lease_timeout = lease_timeout
        self._requested = (host, port)
        self.host: Optional[str] = None
        self.port: Optional[int] = None

        self._campaigns: Dict[str, Campaign] = {}
        self._order: List[str] = []          # submission order (for listing)
        self._pending: List[str] = []        # queued, scheduler-visible
        self._running: Dict[str, Campaign] = {}
        self._followers: Dict[str, List[str]] = {}   # leader id -> followers
        self._inflight: Dict[str, str] = {}  # spec digest -> leader id

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor = None
        self._runner: Optional[CampaignRunner] = None
        self._coordinator = None
        self._worker_procs: List = []

        self._draining = False
        #: Cross-thread drain signal: local-fabric interrupt guards
        #: (EventBus subscribers on runner threads) poll it per event.
        self._drain_flag = threading.Event()
        #: Set once drain has fully settled (manifest written).
        self._drained = threading.Event()
        self._stopped = False

    # Lifecycle ---------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind and serve on a background loop thread; returns the
        bound (host, port) — port 0 picks an ephemeral one."""
        from concurrent.futures import ThreadPoolExecutor

        if self.cluster_workers:
            from ..cluster.cli import spawn_local_workers
            from ..cluster.coordinator import ClusterCoordinator
            from ..cluster.lease import LeasePolicy

            self._coordinator = ClusterCoordinator(
                store_path=self.store_path,
                policy=LeasePolicy(lease_timeout=self.lease_timeout),
            )
            _, cport = self._coordinator.start()
            self._worker_procs = spawn_local_workers(
                "127.0.0.1", cport, self.cluster_workers)
            # Coordinator-side events (lease grants, shard commits)
            # carry the campaign tag; route them into that campaign's
            # feed. Fires on the coordinator's loop thread — publish
            # is thread-safe.
            self._coordinator.events.subscribe(self._route_cluster_event)

        self._runner = CampaignRunner(self.store_path,
                                      coordinator=self._coordinator)
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_running, thread_name_prefix="repro-campaign")

        ready = threading.Event()
        failure: List[BaseException] = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                host, port = self._requested
                self._server = loop.run_until_complete(
                    asyncio.start_server(self._serve, host, port))
                sock = self._server.sockets[0]
                self.host, self.port = sock.getsockname()[:2]
            except BaseException as exc:
                failure.append(exc)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True))
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(target=_run, daemon=True,
                                        name="repro-service")
        self._thread.start()
        ready.wait()
        if failure:
            self._teardown_fabric()
            raise failure[0]
        if self.resume_manifest:
            self._loop.call_soon_threadsafe(
                lambda: self._loop.create_task(self._recover_from_manifest()))
        return self.host, self.port

    def initiate_drain(self) -> None:
        """Thread/signal-safe: begin a graceful drain. Returns at
        once; :meth:`wait_drained` / :meth:`stop` observe completion."""
        self._drain_flag.set()
        if self._loop is not None:
            self._loop.call_soon_threadsafe(
                lambda: self._loop.create_task(self._drain()))

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        return self._drained.wait(timeout)

    def stop(self, drain_timeout: float = 60.0) -> None:
        """Drain (if not already) and tear everything down."""
        if self._stopped:
            return
        self._stopped = True
        if self._loop is not None:
            self.initiate_drain()
            self.wait_drained(drain_timeout)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._teardown_fabric()

    def serve_forever(self) -> int:
        """CLI mode: start, handle SIGTERM/SIGINT as graceful drain,
        block until drained, tear down. Returns an exit code."""
        import signal

        host, port = self.start()
        print(f"-- repro service listening on {host}:{port} "
              f"(store {self.store_path})", flush=True)

        def _on_signal(signum, frame):
            print(f"-- signal {signum}: draining "
                  "(finishing leased shards, admitting nothing)", flush=True)
            self.initiate_drain()

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _on_signal)
        try:
            while not self.wait_drained(timeout=0.5):
                pass
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        self.stop()
        print(f"-- drained; manifest at {self.manifest_path}", flush=True)
        return 0

    def _teardown_fabric(self) -> None:
        if self._coordinator is not None:
            self._coordinator.stop()
            self._coordinator = None
        if self._worker_procs:
            from ..cluster.cli import reap_workers

            reap_workers(self._worker_procs)
            self._worker_procs = []

    # Submission / scheduling (loop thread) -----------------------------------

    def _submit(self, tenant: str, request: CampaignRequest) -> Campaign:
        if self._draining:
            raise HttpError(503, {"code": "service-draining",
                                  "message": "service is draining; "
                                             "resubmit after restart"})
        digest = request.digest()
        # Charge admission before creating any record: a rejected
        # submission leaves no trace.
        self.admission.admit(tenant, request.injections)

        campaign_id = f"c{next(_CAMPAIGN_SEQ):04d}-{digest[:8]}"
        campaign = Campaign(
            id=campaign_id, tenant=tenant, request=request, digest=digest,
            feed=CampaignFeed(self._loop),
        )
        self._campaigns[campaign_id] = campaign
        self._order.append(campaign_id)

        leader_id = self._inflight.get(digest)
        if leader_id is not None:
            # Identical spec already in flight: adopt its outcome
            # instead of queueing a duplicate (bit-identical by the
            # determinism contract, so nothing is lost).
            campaign.coalesced_with = leader_id
            self._followers.setdefault(leader_id, []).append(campaign_id)
            campaign.feed.publish({
                "kind": "campaign-coalesced", "ts": time.time(),
                "campaign": campaign_id, "leader": leader_id,
            })
        else:
            self._inflight[digest] = campaign_id
            self._pending.append(campaign_id)
            self._pump()
        return campaign

    def _pump(self) -> None:
        """Start queued campaigns while slots are free: highest
        priority first, then submission order."""
        while (not self._draining and self._pending
               and len(self._running) < self.max_running):
            best = max(self._pending,
                       key=lambda cid: (self._campaigns[cid].request.priority,
                                        -self._order.index(cid)))
            self._pending.remove(best)
            campaign = self._campaigns[best]
            campaign.status = RUNNING
            campaign.started = time.time()
            self._running[best] = campaign
            self._loop.create_task(self._run_one(campaign))

    async def _recover_from_manifest(self) -> None:
        """Cold-start recovery (loop thread): resubmit every campaign
        the previous incarnation cut short. The manifest supplies the
        specs; the content-addressed store supplies the work already
        done — each resubmission replays its banked shard prefix for
        free and executes only the remainder. A missing or torn
        manifest (checksum mismatch) recovers nothing, loudly doing
        nothing rather than quietly doing the wrong thing."""
        payload = load_manifest(self.manifest_path)
        if payload is None:
            return
        for row in payload.get("campaigns", []):
            if row.get("status") not in (INTERRUPTED, QUEUED):
                continue
            spec = row.get("spec") or {}
            if isinstance(spec, dict) and "engine" in spec:
                spec = {**spec, "engine": stored_engine(spec["engine"])}
            try:
                request = parse_request(spec)
                campaign = self._submit(
                    str(row.get("tenant") or "anonymous"), request)
            except (SpecError, QuotaExceeded, HttpError):
                continue  # stale/over-quota rows never block startup
            campaign.resumed_from = str(row.get("id"))
            banked_shards = banked_injections = None
            spec_key = (row.get("progress") or {}).get("spec_key")
            if spec_key:
                banked_shards, banked_injections = self._probe_banked(
                    str(spec_key))
            campaign.feed.publish({
                "kind": "campaign-resumed", "ts": time.time(),
                "campaign": campaign.id,
                "resumed_from": campaign.resumed_from,
                "banked_shards": banked_shards,
                "banked_injections": banked_injections,
            })

    def _probe_banked(self, spec_key: str) -> Tuple[int, int]:
        """(shards, injections) of the contiguous completed prefix the
        store already holds for ``spec_key`` — the part of a recovered
        campaign that costs nothing to 're'-execute."""
        from ..lab.store import ResultStore

        store = ResultStore(self.store_path)
        try:
            shards, injections, _ = store.spec_progress(spec_key)
        finally:
            store.close()
        return shards, injections

    async def _run_one(self, campaign: Campaign) -> None:
        try:
            outcome = await self._loop.run_in_executor(
                self._executor, self._run_campaign_sync, campaign)
        except (CampaignInterrupted, KeyboardInterrupt):
            self._settle(campaign, INTERRUPTED, error={
                "code": "interrupted",
                "message": "service drained before the campaign finished; "
                           "completed shards are persisted — resubmit the "
                           "identical spec to resume",
            })
            return
        except BaseException as exc:
            self._settle(campaign, FAILED, error={
                "code": "campaign-failed",
                "message": f"{type(exc).__name__}: {exc}",
            })
            return

        summary = result_summary(outcome)
        info = outcome.info
        if (self._draining and info.stopped_early
                and (campaign.request.ci_target is None
                     or (info.ci_halfwidth or 1.0)
                     > campaign.request.ci_target)):
            # Cluster-fabric drains don't raise: the cell returns its
            # completed contiguous prefix. Early stop during a drain
            # that the adaptive rule can't claim is an interruption.
            self._settle(campaign, INTERRUPTED, result=summary, error={
                "code": "interrupted",
                "message": "drained mid-campaign; partial counts cover the "
                           "completed shard prefix only",
            })
            return
        self._settle(campaign, SUCCEEDED, result=summary)

    def _settle(self, campaign: Campaign, status: str, *,
                result: Optional[Dict] = None,
                error: Optional[Dict] = None) -> None:
        """Terminal transition: record, release, resolve followers."""
        campaign.status = status
        campaign.result = result
        campaign.error = error
        campaign.finished = time.time()
        campaign.feed.publish({
            "kind": "campaign-settled", "ts": campaign.finished,
            "campaign": campaign.id, "status": status,
        })
        campaign.feed.close()
        self._running.pop(campaign.id, None)
        self.admission.release(campaign.tenant, campaign.request.injections)
        if self._inflight.get(campaign.digest) == campaign.id:
            del self._inflight[campaign.digest]
        for follower_id in self._followers.pop(campaign.id, ()):
            follower = self._campaigns[follower_id]
            follower.status = status
            follower.result = result
            follower.error = error
            follower.started = follower.started or campaign.started
            follower.finished = campaign.finished
            follower.feed.publish({
                "kind": "campaign-settled", "ts": campaign.finished,
                "campaign": follower_id, "status": status,
                "leader": campaign.id,
            })
            follower.feed.close()
            self.admission.release(follower.tenant,
                                   follower.request.injections)
        self._pump()

    # Campaign execution (runner threads) -------------------------------------

    def _run_campaign_sync(self, campaign: Campaign):
        bus = EventBus()
        feed = campaign.feed
        progress = campaign.progress

        def publish(event) -> None:
            data = event.as_dict()
            data["campaign"] = campaign.id
            if event.kind == "campaign-started":
                progress["shards_total"] = event.data.get("shards", 0)
                progress["injections_total"] = event.data.get("injections", 0)
                # Stashed so a restart manifest can tell the next
                # incarnation where this campaign's rows live.
                if event.data.get("spec_key"):
                    progress["spec_key"] = event.data["spec_key"]
            elif event.kind in ("shard-completed", "shard-store-hit"):
                progress["shards_done"] = progress.get("shards_done", 0) + 1
                progress["injections_done"] = (
                    progress.get("injections_done", 0)
                    + int(event.data.get("n", 0)))
            feed.publish(data)
            # The service-restart seam, pinned to event kinds so a
            # scenario can die at an exact point in a campaign's life:
            # "kill" is SIGKILL (no drain, no manifest); "drain" is
            # SIGTERM (graceful: manifest written, then the interrupt
            # guard below fires at this very shard boundary).
            rule = chaos_point("service.event", kind=event.kind,
                               campaign=campaign.id)
            if rule is not None:
                if rule.action == "kill":
                    os._exit(KILL_STATUS)
                elif rule.action == "drain":
                    self.initiate_drain()
            # Local fabric: honour a drain at the next shard boundary
            # (the event fires after the shard is persisted, so nothing
            # is lost). Cluster cells drain inside the coordinator.
            if (self._coordinator is None and self._drain_flag.is_set()
                    and event.kind != "campaign-finished"):
                raise CampaignInterrupted("service draining")

        bus.subscribe(publish)
        return self._runner.run_request(campaign.request, events=bus,
                                        campaign_id=campaign.id)

    def _route_cluster_event(self, event) -> None:
        """Coordinator bus -> per-campaign feed, by campaign tag.
        Runs on the coordinator's loop thread."""
        campaign_id = event.data.get("campaign")
        if not campaign_id:
            return
        campaign = self._campaigns.get(campaign_id)
        if campaign is not None:
            data = event.as_dict()
            campaign.feed.publish(data)

    # Drain -------------------------------------------------------------------

    async def _drain(self) -> None:
        if self._draining:
            return
        self._draining = True
        # Queued (never started) campaigns are cancelled outright;
        # their specs live on in the manifest.
        for campaign_id in list(self._pending):
            self._pending.remove(campaign_id)
            self._settle(self._campaigns[campaign_id], INTERRUPTED, error={
                "code": "interrupted",
                "message": "cancelled while queued: service drained",
            })
        if self._coordinator is not None:
            self._coordinator.request_drain()
        while self._running:
            await asyncio.sleep(SERVICE_POLL.backoff)
        write_manifest(self.manifest_path,
                       [self._campaigns[cid] for cid in self._order],
                       reason="drain")
        if self._server is not None:
            self._server.close()
        self._drained.set()

    # HTTP --------------------------------------------------------------------

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                await self._route(request, writer)
            except HttpError as exc:
                await send_json(writer, exc.status, {"error": exc.payload})
            except (ConnectionError, OSError):
                pass
            except Exception as exc:
                try:
                    await send_json(writer, 500, {"error": {
                        "code": "internal",
                        "message": f"{type(exc).__name__}: {exc}"}})
                except (ConnectionError, OSError):
                    pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _lookup(self, campaign_id: str) -> Campaign:
        campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            raise HttpError(404, {"code": "not-found",
                                  "message": f"no campaign {campaign_id!r}"})
        return campaign

    async def _route(self, request: HttpRequest,
                     writer: asyncio.StreamWriter) -> None:
        method, path = request.method, request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]

        if path == "/status" and method == "GET":
            await send_json(writer, 200, self._status_payload())
            return
        if path == "/campaigns" and method == "POST":
            await self._post_campaign(request, writer)
            return
        if path == "/campaigns" and method == "GET":
            tenant = request.headers.get("x-repro-tenant", "").strip()
            rows = [self._campaigns[cid].as_dict() for cid in self._order
                    if not tenant or self._campaigns[cid].tenant == tenant]
            await send_json(writer, 200, {"campaigns": rows})
            return
        if len(parts) >= 2 and parts[0] == "campaigns":
            if method != "GET":
                raise HttpError(405, {"code": "method-not-allowed",
                                      "message": f"{method} {path}"})
            campaign = self._lookup(parts[1])
            if len(parts) == 2:
                await send_json(writer, 200, campaign.as_dict())
                return
            if len(parts) == 3 and parts[2] == "events":
                await self._stream_events(campaign, writer)
                return
            if len(parts) == 3 and parts[2] == "results":
                await self._get_results(campaign, writer)
                return
        raise HttpError(404, {"code": "not-found",
                              "message": f"{method} {path}"})

    def _status_payload(self) -> Dict:
        by_status: Dict[str, int] = {}
        for campaign in self._campaigns.values():
            by_status[campaign.status] = by_status.get(campaign.status, 0) + 1
        payload = {
            "service": "repro",
            "store": self.store_path,
            "draining": self._draining,
            "max_running": self.max_running,
            "campaigns": by_status,
            "admission": self.admission.snapshot(),
        }
        if self._coordinator is not None:
            payload["cluster"] = {
                "workers": self._coordinator.worker_count,
                "active_sessions": self._coordinator.active_sessions,
            }
        return payload

    async def _post_campaign(self, request: HttpRequest,
                             writer: asyncio.StreamWriter) -> None:
        payload = request.json()
        try:
            spec = parse_request(payload)
        except SpecError as exc:
            raise HttpError(400, exc.as_dict()) from None
        try:
            campaign = self._submit(request.tenant, spec)
        except QuotaExceeded as exc:
            raise HttpError(429, exc.as_dict()) from None
        await send_json(writer, 201, {
            "id": campaign.id,
            "status": campaign.status,
            "digest": campaign.digest,
            "coalesced_with": campaign.coalesced_with,
        })

    async def _get_results(self, campaign: Campaign,
                           writer: asyncio.StreamWriter) -> None:
        if campaign.status not in TERMINAL:
            raise HttpError(409, {
                "code": "not-finished",
                "message": f"campaign {campaign.id} is {campaign.status}; "
                           "poll GET /campaigns/{id} or stream /events",
                "status": campaign.status,
            })
        if campaign.result is None:
            raise HttpError(409, {
                "code": "no-results",
                "message": f"campaign {campaign.id} ended {campaign.status} "
                           "without counts",
                "status": campaign.status,
                "error": campaign.error,
            })
        await send_json(writer, 200, {
            "id": campaign.id,
            "status": campaign.status,
            "spec": campaign.request.as_dict(),
            "result": campaign.result,
        })

    async def _stream_events(self, campaign: Campaign,
                             writer: asyncio.StreamWriter) -> None:
        # A coalesced follower's own feed only carries lifecycle
        # markers; stream the leader's feed (same events by
        # construction — that's what coalescing means).
        feed = campaign.feed
        if campaign.coalesced_with is not None:
            leader = self._campaigns.get(campaign.coalesced_with)
            if leader is not None:
                feed = leader.feed
        history, queue = feed.subscribe()
        await start_ndjson(writer)
        try:
            for event in history:
                await send_ndjson_line(writer, event)
            while queue is not None:
                event = await queue.get()
                if event is None:  # feed closed
                    break
                await send_ndjson_line(writer, event)
        finally:
            if queue is not None:
                feed.unsubscribe(queue)
