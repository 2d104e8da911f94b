"""End-to-end checkpoint-injection identity: the acceptance property of
the snap subsystem.

For every registered fault model, the outcome *list* (not just counts)
of a checkpointed campaign must be bit-identical to the from-scratch
sequential loop and to the reference interpreter — checkpoints and the
exact-reconvergence cut they enable are a pure execution-speed knob.
The batched engine gets the same treatment with ``resume_from`` group
resumption, and the degraded-lane telemetry satellite is pinned by
forcing the fallback path.
"""

from collections import Counter

import pytest

from repro.cpu.compiled import Reconverged, Reconvergence, resume_run
from repro.cpu.errors import Trap
from repro.cpu.interpreter import FaultPlan, Machine, MachineConfig
from repro.faults.campaign import (
    CampaignConfig,
    _SESSION_TLS,
    _cell_checkpoints,
    draw_model_plans,
    golden_profile,
    run_campaign,
    run_plans,
    trap_outcome,
)
from repro.faults.models import model_names
from repro.faults.outcomes import Outcome
from repro.lab.durable import run_durable_campaign
from repro.lab.events import EventBus, EventLog
from repro.lab.store import ResultStore
from repro.toolchain import default_toolchain
from repro.workloads.common import outputs_match


@pytest.fixture(autouse=True)
def _fresh_session():
    # The session TLS pins a Machine per cell; model/engine sweeps in
    # one process must not inherit a stale checkpoint attachment.
    _SESSION_TLS.slot = None
    yield
    _SESSION_TLS.slot = None


def _cell(name="histogram", version="elzar"):
    built = default_toolchain().build(name, "test", version)
    reference, profile = golden_profile(built.module, built.entry,
                                        built.args)
    budget = int(profile.executed * 4.0) + 10_000
    return built, reference, profile, budget


def _model_plans(profile, model, n=5, seed=29):
    config = CampaignConfig(injections=n, seed=seed, fault_model=model)
    try:
        return draw_model_plans(profile, config)
    except ValueError:
        return None  # empty target stream for this cell


class TestModelMatrixIdentity:
    @pytest.mark.parametrize("model", model_names())
    @pytest.mark.parametrize("version", ["native", "elzar", "swiftr"])
    def test_checkpointed_equals_scratch_equals_reference(self, version,
                                                          model):
        # Per-plan outcome lists, with reconvergence on the snap path.
        built, reference, profile, budget = _cell(version=version)
        plans = _model_plans(profile, model, n=8)
        if plans is None:
            pytest.skip(f"{model} has no targets in {version}")
        kwargs = dict(fault_model=model)
        scratch = run_plans(built.module, built.entry, built.args, plans,
                            reference, budget, snap=False, **kwargs)
        snap = run_plans(built.module, built.entry, built.args, plans,
                         reference, budget, snap=True, **kwargs)
        ref_engine = run_plans(built.module, built.entry, built.args,
                               plans, reference, budget,
                               engine="reference", **kwargs)
        assert snap == scratch == ref_engine

    @pytest.mark.parametrize("model",
                             ["register-bitflip", "branch-flip",
                              "memory-bitflip"])
    def test_batched_checkpointed_equals_scratch(self, model):
        built, reference, profile, budget = _cell()
        plans = _model_plans(profile, model, n=8)
        scratch = run_plans(built.module, built.entry, built.args, plans,
                            reference, budget, fault_model=model,
                            snap=False)
        batched = run_plans(built.module, built.entry, built.args, plans,
                            reference, budget, fault_model=model,
                            batch=4, snap=True)
        assert batched == scratch

    def test_campaign_counts_identical_with_and_without_snap(self):
        built, _, _, _ = _cell()
        base = CampaignConfig(injections=10, seed=5)
        on = run_campaign(built.module, built.entry, built.args,
                          config=CampaignConfig(**{**base.__dict__,
                                                   "snap": True}))
        off = run_campaign(built.module, built.entry, built.args,
                           config=CampaignConfig(**{**base.__dict__,
                                                    "snap": False}))
        assert on.counts == off.counts


def _classify(machine, reference, run):
    """Table-I outcome of ``run()`` on ``machine`` (the classification
    of ``InjectionSession.inject``), plus whether it ended at
    reconvergence."""
    try:
        result = run()
    except Trap as exc:
        return trap_outcome(exc), False
    except Reconverged as exc:
        return (Outcome.CORRECTED if exc.corrected else Outcome.MASKED), True
    if not outputs_match(result.output, list(reference), 1e-9):
        return Outcome.SDC, False
    if machine.counters.corrections > 0:
        return Outcome.CORRECTED, False
    return Outcome.MASKED, False


def _from_scratch(built, reference, budget, plans):
    """Reference-interpreter outcome with ``plans`` armed together."""
    machine = Machine(built.module, MachineConfig(
        collect_timing=False, engine="reference",
        max_instructions=budget))
    machine.arm_faults(plans)
    return _classify(machine, reference,
                     lambda: machine.run(built.entry, built.args))[0]


class TestReconvergence:
    def _cset(self, built, budget):
        return _cell_checkpoints(built.module, built.entry, built.args,
                                 budget, None, "register-bitflip",
                                 "compiled", True)

    def test_fires_on_elzar(self):
        # The cut must actually happen on a hardened cell, so the path
        # cannot silently switch off and still pass the identity tests.
        built, reference, profile, budget = _cell(version="elzar")
        plans = _model_plans(profile, "register-bitflip", n=20)
        scratch = run_plans(built.module, built.entry, built.args, plans,
                            reference, budget, snap=False)
        stats = {}
        snap = run_plans(built.module, built.entry, built.args, plans,
                         reference, budget, snap=True, stats=stats)
        assert snap == scratch
        assert stats["converged"] > 0

    def test_site_before_first_checkpoint(self):
        # Runs from the session snapshot on the trampoline, still under
        # the reconvergence watch.
        built, reference, profile, budget = _cell(version="elzar")
        cset = self._cset(built, budget)
        first = cset.states[0].eligible
        plans = [FaultPlan(target_index=(first * k) // 12, bit=k * 5,
                           lane=k % 4) for k in range(12)]
        assert all(cset.nearest(p) is None for p in plans)
        stats = {}
        snap = run_plans(built.module, built.entry, built.args, plans,
                         reference, budget, snap=True, stats=stats)
        scratch = run_plans(built.module, built.entry, built.args, plans,
                            reference, budget, snap=False)
        ref_engine = run_plans(built.module, built.entry, built.args,
                               plans, reference, budget,
                               engine="reference")
        assert snap == scratch == ref_engine
        assert stats["converged"] > 0

    def test_two_plans_reconverging_between_sites(self):
        # Plan A's corruption dies and the run reconverges onto a golden
        # checkpoint before plan B's site; B is a fault the golden run
        # does not survive. Truncating at that checkpoint would report
        # A's benign outcome: the watch must wait until B has fired.
        built, reference, profile, budget = _cell(version="elzar")
        cset = self._cset(built, budget)
        states = cset.states
        machine = Machine(built.module, MachineConfig(
            collect_timing=False, max_instructions=budget))

        def watched(plans):
            state = cset.nearest(plans[0])
            watch = Reconvergence(states, state.eligible,
                                  cset.final_corrections)
            outcome, converged = _classify(
                machine, reference,
                lambda: resume_run(machine, state, plans, watch))
            return outcome, converged, watch

        plan_a = mark = None
        for k in range(40):
            plan = FaultPlan(target_index=states[1].eligible + 7 * k,
                             bit=(11 * k) % 64, lane=k % 4)
            _, converged, watch = watched([plan])
            if converged and watch.k < len(states) - 2:
                plan_a, mark = plan, states[watch.k - 1].eligible
                break
        assert plan_a is not None, "no reconverging plan found"

        plan_b = None
        for k in range(200):
            plan = FaultPlan(target_index=mark + 13 + 97 * k,
                             bit=(7 * k) % 64, lane=(k + 1) % 4)
            if plan.target_index >= profile.eligible:
                break
            if _from_scratch(built, reference, budget, [plan]) not in (
                    Outcome.MASKED, Outcome.CORRECTED):
                plan_b = plan
                break
        assert plan_b is not None, "no harmful late plan found"

        want = _from_scratch(built, reference, budget, [plan_a, plan_b])
        assert want not in (Outcome.MASKED, Outcome.CORRECTED)
        got, _, _ = watched([plan_a, plan_b])
        assert got == want


class TestDegradedLaneTelemetry:
    def test_fallback_emits_event_and_counts(self, monkeypatch):
        # Simulate a lane dying unreported: drop one key from every
        # batch result. run_plans must reclassify it sequentially (so
        # the outcome list stays correct), emit batch-lane-degraded,
        # and count it into the caller's stats.
        import repro.cpu.batch as batch_mod

        real = batch_mod.run_batch
        dropped = []

        def lossy(machine, snapshot, entry, args, plans, *a, **kw):
            got = real(machine, snapshot, entry, args, plans, *a, **kw)
            for key, _plan in plans:
                if key in got:
                    dropped.append(key)
                    del got[key]
                    break
            return got

        monkeypatch.setattr(batch_mod, "run_batch", lossy)
        built, reference, profile, budget = _cell()
        plans = _model_plans(profile, "register-bitflip", n=8)
        scratch = run_plans(built.module, built.entry, built.args, plans,
                            reference, budget, snap=False)

        log = EventLog()
        bus = EventBus()
        bus.subscribe(log)
        stats = {}
        got = run_plans(built.module, built.entry, built.args, plans,
                        reference, budget, batch=4, events=bus,
                        stats=stats)
        assert got == scratch
        assert dropped  # the monkeypatch actually exercised the path
        assert stats["lanes_degraded"] == len(dropped)
        assert log.count("batch-lane-degraded") == len(dropped)
        event = log.of("batch-lane-degraded")[0]
        assert event.data["index"] in dropped


class TestDurableStoreRows:
    def test_store_rows_shared_across_snap_settings(self, tmp_path):
        # A store written by a snap=False campaign must serve a
        # snap=True campaign in full (the spec key excludes execution
        # knobs), and the counted results must be identical.
        built, _, _, _ = _cell()
        store = ResultStore(str(tmp_path / "lab.sqlite"))
        off = run_durable_campaign(
            built.module, built.entry, built.args, "histogram", "elzar",
            CampaignConfig(injections=12, seed=3, snap=False),
            store=store, shard_size=4,
        )
        assert off.info.shards_executed == 3
        on = run_durable_campaign(
            built.module, built.entry, built.args, "histogram", "elzar",
            CampaignConfig(injections=12, seed=3, snap=True),
            store=store, shard_size=4,
        )
        assert on.info.shards_from_store == 3
        assert on.info.shards_executed == 0
        assert on.result.counts == off.result.counts

    def test_durable_campaign_reports_converged(self):
        built, _, _, _ = _cell()
        log = EventLog()
        bus = EventBus()
        bus.subscribe(log)
        on = run_durable_campaign(
            built.module, built.entry, built.args, "histogram", "elzar",
            CampaignConfig(injections=12, seed=3), store=False,
            events=bus)
        off = run_durable_campaign(
            built.module, built.entry, built.args, "histogram", "elzar",
            CampaignConfig(injections=12, seed=3, snap=False), store=False)
        assert on.info.injections_converged > 0
        assert off.info.injections_converged == 0
        assert on.result.counts == off.result.counts
        finished = log.of("campaign-finished")[0]
        assert finished.data["converged"] == on.info.injections_converged

    def test_durable_campaign_reports_degraded_lanes(self, tmp_path):
        # No degradation in a healthy run — the field exists and is 0.
        built, _, _, _ = _cell()
        store = ResultStore(str(tmp_path / "lab.sqlite"))
        out = run_durable_campaign(
            built.module, built.entry, built.args, "histogram", "elzar",
            CampaignConfig(injections=8, seed=3, batch=4),
            store=store, shard_size=8,
        )
        assert out.info.batch_lanes_degraded == 0
