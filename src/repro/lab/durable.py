"""Durable campaign orchestration: store + checkpoint + scheduler +
adaptive sampling, behind one call.

:func:`run_durable_campaign` is the one campaign path
(:func:`repro.faults.campaign.run_campaign` is a store-less wrapper
over it): golden run, pre-drawn serial fault plans, per-injection
classification, with the injection loop replaced by shard bookkeeping:

1. partition the plan list into contiguous shards (the replay unit);
2. serve every shard already in the result store (``shard-store-hit``);
3. schedule the rest onto supervised forked workers (the cell's
   checkpoint set is built before they fork, so they inherit it),
   persisting each shard's counts the moment it completes — *before*
   telemetry fires, so an interrupt (Ctrl-C or a subscriber raising)
   never loses work;
4. optionally stop early once the Wilson 95% CI half-width of every
   outcome class is below ``ci_target``, evaluated over the contiguous
   completed shard *prefix* so the stopping point — and therefore the
   counted outcome multiset — is identical for every worker count.

Determinism contract: for a fixed (module, entry, args, config,
shard_size, ci_target) the returned counts are bit-identical across
worker counts, across interrupt/resume cycles, and across store
hit/miss mixtures.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.campaign import (
    CampaignConfig,
    _cell_checkpoints,
    draw_model_plans,
    golden_profile,
    resolve_workers,
    run_plans,
)
from ..faults.models import get_model
from ..faults.outcomes import CampaignResult
from ..ir.module import Module
from .checkpoint import (
    DEFAULT_SHARD_SIZE,
    CampaignSpec,
    ShardPlan,
    build_spec,
    ensure_golden,
    golden_digest,
    load_completed,
    partition,
)
from .events import EventBus
from .sampling import AdaptiveStop
from .scheduler import SchedulerPolicy, ShardScheduler
from .store import ResultStore, default_store


@contextmanager
def _engine_compile_events(events: EventBus):
    """Bridge segment-compiler telemetry onto the campaign's bus: every
    :func:`repro.cpu.compiled.ensure_compiled` invocation that did work
    while the campaign runs surfaces as an ``engine-compile`` event
    (module digest, block/segment counts, compile wall time, code-cache
    hit/miss split). In-process compiles only — a forked shard worker's
    compiles stay in the worker, like its other events."""
    from ..cpu.compiled import add_compile_hook, remove_compile_hook

    def hook(payload):
        events.emit("engine-compile", **payload)

    add_compile_hook(hook)
    try:
        yield
    finally:
        remove_compile_hook(hook)


@dataclass
class LabRunInfo:
    """What the lab did to produce a campaign result."""

    shards_total: int
    shards_from_store: int
    shards_executed: int
    injections_from_store: int
    injections_executed: int
    #: Injections counted into the result (< the cap under adaptive stop).
    injections_used: int
    stopped_early: bool
    #: Max Wilson CI half-width over outcome classes at the stopping
    #: point (only computed when a ci_target was given).
    ci_halfwidth: Optional[float]
    #: False when the store was disabled (or the spec was unkeyable).
    durable: bool
    #: Batched lanes that died unreported and were reclassified
    #: sequentially (each one costs a full extra run; a persistently
    #: nonzero count means batching is misbehaving for the cell). Only
    #: lanes run in *this* process are counted — forked shard workers
    #: report outcome counts alone, so their degradations stay local.
    batch_lanes_degraded: int = 0


@dataclass
class DurableCampaign:
    result: CampaignResult
    info: LabRunInfo
    spec: Optional[CampaignSpec]


def _prefix_status(shards: Sequence[ShardPlan],
                   results: Dict[int, Counter],
                   stopper: Optional[AdaptiveStop]
                   ) -> Tuple[Optional[int], int, Counter]:
    """Walk shards in index order accumulating completed counts.
    Returns (stop position or None, completed prefix length, cumulative
    counts over that prefix). The stop position is the first shard at
    which the stopping rule is satisfied — a pure function of the shard
    sequence, so identical for every execution schedule."""
    cumulative: Counter = Counter()
    for position, shard in enumerate(shards):
        counts = results.get(shard.index)
        if counts is None:
            return None, position, cumulative
        cumulative = cumulative + counts
        if stopper is not None and stopper.satisfied(cumulative):
            return position, position + 1, cumulative
    return len(shards) - 1, len(shards), cumulative


def run_durable_campaign(
    module: Module,
    entry: str,
    args: Sequence,
    workload: str = "",
    version: str = "",
    config: Optional[CampaignConfig] = None,
    *,
    store: Optional[ResultStore] = None,
    events: Optional[EventBus] = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    ci_target: Optional[float] = None,
    min_injections: int = 50,
    policy: Optional[SchedulerPolicy] = None,
) -> DurableCampaign:
    """Run (or resume, or entirely replay from the store) a campaign.

    ``store=None`` uses the process-wide default store
    (``$REPRO_LAB_STORE`` or the user cache dir); pass ``store=False``
    to run ephemerally. ``config.injections`` is the cap; with
    ``ci_target`` set, sampling stops at the first shard whose prefix
    satisfies the Wilson rule (see :mod:`repro.lab.sampling`).
    """
    config = config or CampaignConfig()
    events = events or EventBus()
    workers = resolve_workers(config.workers)

    with _engine_compile_events(events):
        reference, profile = golden_profile(
            module, entry, args, config.fault_eligible, engine=config.engine
        )
        if profile.eligible == 0:
            raise ValueError(f"no eligible instructions in @{entry}")
        budget = int(profile.executed * config.hang_factor) + 10_000
        # Raises ValueError when the model's target stream is empty (e.g.
        # checker-fault against unhardened code) — before any store writes.
        plans = draw_model_plans(profile, config)
        population = get_model(config.fault_model).population(profile)
        shards = partition(plans, shard_size)

        spec = build_spec(module, entry, args, config, population, shard_size)
        if store is None:
            store = default_store()
        elif store is False:
            store = None
        durable = spec is not None and store is not None
        if spec is None:
            events.emit("store-disabled",
                        reason="eligibility predicate has no cache_key")

        loaded: Dict[int, Counter] = {}
        if durable:
            digest = golden_digest(reference, profile.eligible, profile.executed,
                                   profile.mem_accesses, profile.cond_branches,
                                   profile.checker_sites)
            ensure_golden(store, spec, digest, profile.eligible, profile.executed,
                          events)
            loaded = load_completed(store, spec, shards)

        events.emit(
            "campaign-started", workload=workload, version=version,
            shards=len(shards), injections=len(plans), from_store=len(loaded),
            # The store address of this campaign's rows; the service stashes
            # it in restart manifests so a cold start can probe how much of
            # an interrupted campaign is already banked.
            spec_key=spec.spec_key if durable else None,
        )
        for index in sorted(loaded):
            events.emit("shard-store-hit", index=index,
                        n=sum(loaded[index].values()))

        results: Dict[int, Counter] = dict(loaded)
        executed_shards = [0]
        executed_injections = [0]
        lane_stats: Dict[str, int] = {}

        def runner(shard: ShardPlan) -> Counter:
            # Shard-level entry point shared with every other fabric:
            # honours config.batch (and falls back to the sequential
            # session loop when batching can't apply) with outcome counts
            # bit-identical either way. ``lane_stats`` / the bus only see
            # shards run in-process; forked workers report counts alone.
            return Counter(run_plans(
                module, entry, args, shard.plans, reference, budget,
                config.rtol, config.fault_eligible, engine=config.engine,
                batch=config.batch, fault_model=config.fault_model,
                snap=config.snap, events=events, stats=lane_stats))

        def on_result(shard: ShardPlan, counts: Counter, seconds: float) -> None:
            results[shard.index] = counts
            executed_shards[0] += 1
            executed_injections[0] += len(shard.plans)
            if durable:
                store.put_shard(spec.spec_key, spec.cell_key, shard.index,
                                len(shard.plans), counts, seconds)
            events.emit(
                "shard-completed", index=shard.index, n=len(shard.plans),
                seconds=seconds, workload=workload, version=version,
                counts={o.value: int(c) for o, c in counts.items()},
            )

        policy = policy or SchedulerPolicy(workers=workers)
        scheduler = ShardScheduler(policy, events)
        stopper = (AdaptiveStop(ci_target=ci_target, min_injections=min_injections)
                   if ci_target is not None else None)

        missing = [s for s in shards if s.index not in results]
        if resolve_workers(policy.workers) > 1 and len(missing) > 1:
            # The scheduler will fork: build the cell's checkpoint set
            # here first, so every shard worker inherits it through the
            # module's golden cache (copy-on-write) instead of each
            # loading or capturing its own.
            _cell_checkpoints(module, entry, args, budget,
                              config.fault_eligible, config.fault_model,
                              config.engine, config.snap)

        if stopper is None:
            scheduler.run(missing, runner, on_result)
            stop_position, _, cumulative = _prefix_status(shards, results, None)
        else:
            # Schedule in waves of at most ``workers`` shards, in index
            # order, re-evaluating the prefix rule between waves. Workers
            # may overrun the stopping point by at most one wave; overrun
            # shards land in the store (useful later) but are not counted.
            while True:
                stop_position, prefix_len, cumulative = _prefix_status(
                    shards, results, stopper
                )
                if stop_position is not None:
                    break
                wave = [s for s in shards[prefix_len:]
                        if s.index not in results][:max(1, workers)]
                if not wave:  # unreachable: an incomplete prefix has a gap
                    stop_position, _, cumulative = _prefix_status(
                        shards, results, None
                    )
                    break
                scheduler.run(wave, runner, on_result)
            if stop_position < len(shards) - 1:
                events.emit(
                    "adaptive-stop",
                    injections=sum(cumulative.values()),
                    halfwidth=stopper.max_halfwidth(cumulative),
                    target=stopper.ci_target,
                )

        used = shards[:stop_position + 1]
        result = CampaignResult(workload=workload, version=version,
                                fault_model=config.fault_model)
        for shard in used:
            result.counts.update(results[shard.index])

        used_indices = {s.index for s in used}
        info = LabRunInfo(
            shards_total=len(shards),
            shards_from_store=len(loaded),
            shards_executed=executed_shards[0],
            injections_from_store=sum(
                sum(c.values()) for i, c in loaded.items() if i in used_indices
            ),
            injections_executed=executed_injections[0],
            injections_used=result.total,
            stopped_early=len(used) < len(shards),
            ci_halfwidth=(stopper.max_halfwidth(result.counts)
                          if stopper is not None else None),
            durable=durable,
            batch_lanes_degraded=lane_stats.get("lanes_degraded", 0),
        )
        events.emit(
            "campaign-finished", workload=workload, version=version,
            injections=result.total, executed=info.injections_executed,
            from_store=info.injections_from_store,
            lanes_degraded=info.batch_lanes_degraded,
        )
        return DurableCampaign(result=result, info=info, spec=spec)
