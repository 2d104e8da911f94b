"""Differential matrix for batched lane-parallel injection.

``repro.cpu.batch`` is a pure performance change: for every fault
model, every engine, and every batch size, ``run_plans`` must return
the *same per-plan Outcome list* — not merely the same counts — as a
scalar ``inject_once`` loop. These tests sweep that matrix on the
hardened histogram cell (the only version where every registered model
has a non-empty target stream) plus targeted stress cases: lanes that
trap early and silently corrupt late inside one batch, plans that
never fire, and dead-bit flips resolved without forking.
"""

import os

import pytest

from repro.cpu.interpreter import FaultPlan
from repro.faults import (
    CampaignConfig,
    Outcome,
    golden_profile,
    inject_once,
    model_names,
    run_campaign,
    run_plans,
)
from repro.faults.models import get_model
from repro.toolchain import default_toolchain

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="batched engine needs os.fork")

BATCH_SIZES = (1, 4, 16)


class _PlanConfig:
    def __init__(self, seed, injections):
        self.seed = seed
        self.injections = injections


@pytest.fixture(scope="module")
def cell():
    built = default_toolchain().build("histogram", "test", "elzar")
    module, entry, args = built.module, built.entry, built.args
    reference, profile = golden_profile(module, entry, args)
    budget = max(1000, profile.executed * 10)
    return module, entry, args, reference, profile, budget


def scalar_baseline(cell, plans, engine="compiled"):
    module, entry, args, reference, _, budget = cell
    return [inject_once(module, entry, args, plan, reference, budget,
                        engine=engine) for plan in plans]


class TestModelMatrix:
    @pytest.mark.parametrize("model_name", model_names())
    def test_every_model_bit_identical_at_every_batch_size(
            self, cell, model_name):
        module, entry, args, reference, profile, budget = cell
        plans = get_model(model_name).draw_plans(
            profile, _PlanConfig(seed=11, injections=12))
        baseline = scalar_baseline(cell, plans)
        for k in BATCH_SIZES:
            got = run_plans(module, entry, args, plans, reference, budget,
                            batch=k, fault_model=model_name)
            assert got == baseline, (
                f"{model_name} batch={k}: outcome list diverged")

    def test_reference_engine_identity(self, cell):
        # The reference interpreter has no batched path; run_plans must
        # fall back to sequential injection and still match it exactly.
        module, entry, args, reference, profile, budget = cell
        plans = get_model("register-bitflip").draw_plans(
            profile, _PlanConfig(seed=5, injections=6))
        baseline = scalar_baseline(cell, plans, engine="reference")
        got = run_plans(module, entry, args, plans, reference, budget,
                        engine="reference", batch=16)
        assert got == baseline


class TestLaneDivergence:
    def find_plan(self, cell, candidates, want):
        module, entry, args, reference, _, budget = cell
        for plan in candidates:
            outcome = inject_once(module, entry, args, plan, reference,
                                  budget)
            if outcome in want:
                return plan, outcome
        pytest.skip(f"no plan classifying as {want} found at this scale")

    def test_early_trap_and_late_sdc_in_one_batch(self, cell):
        # The stress shape: lane 0 forks first and dies in a trap while
        # later lanes are still pending in the golden parent; the last
        # lane forks near the end of the run and silently corrupts.
        module, entry, args, reference, profile, budget = cell
        trap_plan, _ = self.find_plan(
            cell,
            [FaultPlan(target_index=i, bit=40, kind="addr")
             for i in range(8)],
            {Outcome.OS_DETECTED, Outcome.DETECTED, Outcome.HANG})
        sdc_plan, _ = self.find_plan(
            cell,
            [FaultPlan(target_index=profile.eligible - 1 - i, bit=b, lane=0)
             for b in (31, 15, 7) for i in range(10)],
            {Outcome.SDC})
        filler = get_model("register-bitflip").draw_plans(
            profile, _PlanConfig(seed=3, injections=6))
        plans = [trap_plan, *filler, sdc_plan]
        baseline = scalar_baseline(cell, plans)
        for k in (4, 16):
            got = run_plans(module, entry, args, plans, reference, budget,
                            batch=k)
            assert got == baseline

    def test_never_firing_and_dead_bit_plans(self, cell):
        module, entry, args, reference, profile, budget = cell
        plans = [
            # Site beyond the stream population: never fires.
            FaultPlan(target_index=profile.eligible + 1000, bit=3, lane=0),
            # Dead bit on a scalar (bit past the type width) resolves
            # to the golden outcome without forking a lane.
            FaultPlan(target_index=1, bit=63, lane=0),
            *get_model("register-bitflip").draw_plans(
                profile, _PlanConfig(seed=9, injections=4)),
        ]
        baseline = scalar_baseline(cell, plans)
        got = run_plans(module, entry, args, plans, reference, budget,
                        batch=16)
        assert got == baseline


class TestFabricIdentity:
    def test_campaign_counts_identical_across_batch_sizes(self):
        built = default_toolchain().build("histogram", "test", "native")
        module, entry, args = built.module, built.entry, built.args
        results = {}
        for k in (1, 4, 16):
            config = CampaignConfig(injections=24, seed=2016, workers=1,
                                    batch=k)
            result = run_campaign(module, entry, args, "histogram",
                                  "native", config)
            results[k] = dict(result.counts)
        assert results[1] == results[4] == results[16]

    def test_forked_workers_with_batch(self):
        built = default_toolchain().build("histogram", "test", "native")
        module, entry, args = built.module, built.entry, built.args
        serial = run_campaign(module, entry, args, "histogram", "native",
                              CampaignConfig(injections=24, seed=2016,
                                             workers=1, batch=1))
        forked = run_campaign(module, entry, args, "histogram", "native",
                              CampaignConfig(injections=24, seed=2016,
                                             workers=2, batch=4))
        assert dict(serial.counts) == dict(forked.counts)
