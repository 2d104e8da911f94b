"""Differential tests: compiled engine vs reference interpreter.

The compiled engine (``repro.cpu.compiled``) is a pure performance
optimisation — for every workload it must reproduce the reference
interpreter *bit for bit*: outputs, every architectural counter
(instructions, uops, loads, stores, branches, cache hierarchy, branch
misses, by-opcode histogram), cycle counts, ILP, and the fault-injection
observables (eligible counts, injection site, outcome). These tests
sweep all 14 kernels, the three case-study apps, hardened builds,
``count_only`` profiling runs (every eligible frame on the record
handlers) and armed fault runs through both engines and require exact
equality.
"""

import random
import sys

import pytest

from repro.apps import kvstore, sqldb, webserver, workload_a
from repro.cpu import Machine, MachineConfig
from repro.cpu.interpreter import FaultPlan
from repro.faults import (
    CampaignConfig,
    StreamProfile,
    draw_model_plans,
    golden_profile,
    model_names,
    run_campaign,
)
from repro.passes import elzar_transform, mem2reg
from repro.toolchain import default_toolchain
from repro.workloads import ALL
from repro.workloads.registry import BENCHMARKS

KERNELS = [w.name for w in BENCHMARKS]


def run_engine(module, entry, args, engine, collect_timing=True, plan=None,
               max_instructions=None, count_only=False):
    config = MachineConfig(engine=engine, collect_timing=collect_timing)
    if max_instructions is not None:
        config.max_instructions = max_instructions
    machine = Machine(module, config)
    machine.count_only = count_only
    if plan is not None:
        machine.arm_fault(plan)
    outcome = None
    result = None
    try:
        result = machine.run(entry, args)
    except Exception as exc:  # classified later; both engines must match
        outcome = (type(exc).__name__, str(exc))
    return machine, result, outcome


def stream_profile(machine):
    return StreamProfile(
        eligible=machine.eligible_executed,
        executed=machine.counters.instructions,
        mem_accesses=machine.mem_accesses_eligible,
        cond_branches=machine.cond_branches_eligible,
        checker_sites=machine.checker_sites_executed,
    )


def assert_identical(module, entry, args, collect_timing=True,
                     count_only=False):
    ref_m, ref, ref_exc = run_engine(module, entry, args, "reference",
                                     collect_timing, count_only=count_only)
    com_m, com, com_exc = run_engine(module, entry, args, "compiled",
                                     collect_timing, count_only=count_only)
    assert com_exc == ref_exc
    if count_only:
        assert stream_profile(com_m) == stream_profile(ref_m)
    if ref is None:
        return None, None
    assert com.value == ref.value
    assert com.output == ref.output
    assert com.counters.as_dict() == ref.counters.as_dict()
    if collect_timing:
        assert com.cycles == ref.cycles
        assert com.ilp == ref.ilp
    return com, ref


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_native_identical(name):
    built = ALL[name].build_at("test")
    assert_identical(built.module, built.entry, built.args)


@pytest.mark.parametrize("name", ["histogram", "blackscholes", "kmeans"])
def test_kernel_hardened_identical(name):
    built = ALL[name].build_at("test")
    module = mem2reg(built.module)
    hardened = elzar_transform(module)
    assert_identical(hardened, built.entry, built.args)


@pytest.mark.parametrize("builder", [
    lambda: kvstore.build(workload_a(60, 32), table_size=256),
    lambda: sqldb.build(workload_a(40, 32), tail_capacity=64),
    lambda: webserver.build(nrequests=8, page_size=1024),
], ids=["kvstore", "sqldb", "webserver"])
def test_app_identical(builder):
    app = builder()
    assert_identical(app.module, app.entry, app.args)


@pytest.mark.parametrize("name", ["histogram", "swaptions"])
def test_kernel_identical_without_timing(name):
    built = ALL[name].build_at("test")
    assert_identical(built.module, built.entry, built.args,
                     collect_timing=False)


@pytest.mark.parametrize("collect_timing", [True, False],
                         ids=["timing", "plain"])
@pytest.mark.parametrize("name,version", [
    ("histogram", "native"), ("histogram", "elzar"),
    ("blackscholes", "elzar"), ("word_count", "swiftr"),
])
def test_count_only_record_path_identical(name, version, collect_timing):
    """count_only puts every eligible frame on the record handlers, so
    each handler is checked against the reference, with and without
    the timing model, on the fi-scale builds campaigns run."""
    built = default_toolchain().build(name, "fi", version)
    assert_identical(built.module, built.entry, built.args,
                     collect_timing=collect_timing, count_only=True)


@pytest.mark.parametrize("name", ["histogram", "blackscholes"])
def test_armed_runs_identical(name):
    """Fault-injection runs agree on every observable: the eligible
    stream, whether/where the fault landed, the final state or the
    exception, and the counters."""
    built = ALL[name].build_at("test")
    module, entry, args = built.module, built.entry, built.args
    _, profile = golden_profile(module, entry, args)
    eligible, executed = profile.eligible, profile.executed
    rng = random.Random(name)
    for _ in range(6):
        plan = FaultPlan(target_index=rng.randrange(eligible),
                         bit=rng.randrange(64), lane=rng.randrange(4))
        runs = {}
        for engine in ("reference", "compiled"):
            machine, result, exc = run_engine(
                module, entry, args, engine, collect_timing=False,
                plan=plan, max_instructions=executed * 4,
            )
            runs[engine] = (
                exc,
                machine.fault_injected,
                machine.eligible_executed,
                machine.fault_target.ref() if machine.fault_target else None,
                result.output if result else None,
                machine.counters.as_dict(),
            )
        assert runs["compiled"] == runs["reference"], plan


@pytest.mark.parametrize("model", model_names())
def test_fault_models_identical_per_plan(model):
    """For every registered fault model, the interpreter and the
    compiled engine must classify the identical per-plan observables:
    same streams counted, same injection site, same output or trap.
    This is the contract that lets the durable store share shard rows
    between engines."""
    built = ALL["histogram"].build_at("test")
    module = elzar_transform(mem2reg(built.module))
    entry, args = built.entry, built.args
    _, profile = golden_profile(module, entry, args)
    cfg = CampaignConfig(injections=10, seed=13, fault_model=model)
    plans = draw_model_plans(profile, cfg)
    budget = profile.executed * 4 + 10_000
    for plan in plans:
        runs = {}
        for engine in ("reference", "compiled"):
            machine, result, exc = run_engine(
                module, entry, args, engine, collect_timing=False,
                plan=plan, max_instructions=budget,
            )
            runs[engine] = (
                exc,
                machine.fault_injected,
                machine.eligible_executed,
                machine.mem_accesses_eligible,
                machine.cond_branches_eligible,
                machine.checker_sites_executed,
                machine.fault_target.ref() if machine.fault_target else None,
                tuple(result.output) if result else None,
                machine.counters.corrections,
            )
        assert runs["compiled"] == runs["reference"], (model, plan)


@pytest.mark.parametrize("model", model_names())
def test_fault_model_campaign_counts_identical(model):
    """End-to-end per model: full campaign outcome counts bit-identical
    between engines (the CampaignConfig.engine knob CI exercises)."""
    built = ALL["histogram"].build_at("test")
    module = elzar_transform(mem2reg(built.module))
    counts = {}
    for engine in ("reference", "compiled"):
        cfg = CampaignConfig(injections=12, seed=21, fault_model=model,
                             engine=engine)
        result = run_campaign(module, built.entry, built.args, "h", "elzar",
                              cfg)
        assert result.fault_model == model
        counts[engine] = dict(result.counts)
    assert counts["compiled"] == counts["reference"]


def test_count_only_mode_matches_engines():
    """count_only profiles the eligible stream without arming a fault,
    identically on both engines and identically to an armed run."""
    built = ALL["kmeans"].build_at("test")
    counts = {}
    for engine in ("reference", "compiled"):
        machine = Machine(built.module,
                          MachineConfig(engine=engine, collect_timing=False))
        machine.count_only = True
        result = machine.run(built.entry, built.args)
        assert not machine.fault_injected
        counts[engine] = (machine.eligible_executed, tuple(result.output))
    assert counts["compiled"] == counts["reference"]
    assert counts["compiled"][0] > 0


def test_golden_profile_has_no_sentinel_plan():
    """golden_profile must not arm any fault plan (the old
    target_index=-1 sentinel hack) — eligible counting rides on
    count_only mode."""
    built = ALL["histogram"].build_at("test")
    output, profile = golden_profile(built.module, built.entry, built.args)
    assert output == built.expected
    assert 0 < profile.eligible <= profile.executed


def test_golden_profile_cache_hit_and_invalidation():
    built = ALL["histogram"].build_at("test")
    module = built.module
    module._golden_cache.clear()
    first = golden_profile(module, built.entry, built.args)
    assert len(module._golden_cache) == 1
    second = golden_profile(module, built.entry, built.args)
    assert second == first
    assert len(module._golden_cache) == 1
    module.bump_version()
    assert len(module._golden_cache) == 0
    third = golden_profile(module, built.entry, built.args)
    assert third == first


@pytest.mark.parametrize("workers", [2, 4])
def test_campaign_counts_independent_of_workers(workers):
    built = ALL["histogram"].build_at("test")
    cfg = CampaignConfig(injections=24, seed=11)
    serial = run_campaign(built.module, built.entry, built.args,
                          "h", "native", cfg, workers=1)
    parallel = run_campaign(built.module, built.entry, built.args,
                            "h", "native", cfg, workers=workers)
    assert dict(parallel.counts) == dict(serial.counts)


def test_run_restores_recursion_limit():
    """Importing repro must not touch the interpreter recursion limit,
    and Machine.run must restore whatever limit it raised."""
    saved = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1500)
        built = ALL["histogram"].build_at("test")
        machine = Machine(built.module, MachineConfig(collect_timing=False))
        machine.run(built.entry, built.args)
        assert sys.getrecursionlimit() == 1500
    finally:
        sys.setrecursionlimit(saved)
