"""Differential fuzz: the compiled execution core vs the reference.

Randomly generated small modules — nested branches, counted loops,
defined calls (pure leaves the segment compiler inlines and impure
helpers it must really suspend around), intrinsics, memory traffic,
float arithmetic, and trapping division — run through every engine
tier, through mid-run capture/resume, through batched injection, and
through every registered fault model. Outcomes, output streams, stream
counters, and architectural counters must be bit-identical everywhere:
the compiled core is admissible only as a pure performance change.
``count_only`` runs put every eligible frame on the record handlers,
so they check the record path that armed frames, capture and budget
bails fall back to.

The file also pins the compiled core's supporting machinery:
``MachineConfig.engine`` validation, the cross-instance compiled-code
cache (warm compiles are 100% digest hits), and the ``engine-compile``
lab event.
"""

import random

import pytest

import repro.faults.campaign as campaign_mod
from repro.cpu import Machine, MachineConfig
from repro.cpu.compiled import (
    COMPILE_STATS,
    add_compile_hook,
    capture_state,
    code_cache_clear,
    remove_compile_hook,
    resume_run,
    run_resumable,
)
from repro.cpu.interpreter import FaultPlan
from repro.cpu.intrinsics import rt_print_i64
from repro.faults import (
    CampaignConfig,
    draw_model_plans,
    golden_profile,
    model_names,
)
from repro.faults.campaign import run_plans
from repro.ir import Module
from repro.ir import types as T
from repro.passes import elzar_transform, mem2reg

from ..conftest import make_function

ENGINES = ("reference", "compiled")

PURE_OPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr")
CMPS = ("eq", "ne", "ult", "ule", "slt", "sle", "sgt", "uge")


@pytest.fixture(autouse=True)
def _no_compile_fallbacks():
    # Surface segment-compiler bugs as failures instead of silent
    # (bit-identical) fallbacks to the record path.
    before = COMPILE_STATS.fallbacks
    errors = []

    def hook(payload):
        errors.extend(payload["fallback_errors"])

    add_compile_hook(hook)
    try:
        yield
    finally:
        remove_compile_hook(hook)
    assert COMPILE_STATS.fallbacks == before, errors


def _rand_leaf(module, rng, idx):
    """Pure-ALU single-block callee: the shape the segment compiler
    inlines at call sites."""
    fn, b = make_function(module, f"leaf{idx}", T.I64, [T.I64, T.I64])
    x, y = fn.args
    v = x
    for _ in range(rng.randint(2, 6)):
        operand = rng.choice([y, b.i64(rng.randint(1, 63))])
        v = b.binop(rng.choice(PURE_OPS), v, operand)
    if rng.random() < 0.5:
        cond = b.icmp(rng.choice(CMPS), v, y)
        v = b.select(cond, v, x)
    b.ret(v)
    return fn


def _rand_helper(module, rng, leaves):
    """Memory-touching callee (loads, stores, division): never
    inlinable, so calling it exercises the real suspend/resume path."""
    fn, b = make_function(module, "helper", T.I64, [T.PTR, T.I64])
    p, i = fn.args
    slot = b.gep(T.I64, p, b.and_(i, b.i64(7)))
    v = b.load(T.I64, slot)
    v = b.call(rng.choice(leaves), [v, i])
    b.store(v, slot)
    b.ret(b.urem(v, b.or_(i, b.i64(rng.randint(1, 9) | 1))))
    return fn


def build_random_module(seed, trap=False):
    """Deterministic random program: returns (module, entry, args).

    With ``trap=False`` the golden run always completes (faults are the
    only trap source); ``trap=True`` appends an unguarded division by
    zero so the golden run itself must trap identically everywhere.
    """
    rng = random.Random(seed)
    module = Module(f"fuzz{seed}")
    printer = rt_print_i64(module)
    leaves = [_rand_leaf(module, rng, i) for i in range(rng.randint(1, 3))]
    helper = _rand_helper(module, rng, leaves)

    fn, b = make_function(module, "main", T.I64, [T.I64, T.I64])
    a0, a1 = fn.args
    buf = b.alloca(T.I64, count=8)

    loop = b.begin_loop(b.i64(0), b.i64(8))
    v = b.call(rng.choice(leaves), [b.add(a0, loop.index), a1])
    b.store(v, b.gep(T.I64, buf, loop.index))
    b.end_loop(loop)

    loop = b.begin_loop(b.i64(0), b.i64(rng.randint(6, 12)))
    acc = b.loop_phi(loop, b.i64(rng.randint(0, 1000)))
    i = loop.index
    hv = b.call(helper, [buf, i])
    t = b.call(rng.choice(leaves), [hv, acc])
    state = b.begin_if(b.icmp(rng.choice(CMPS), t, a1), with_else=True)
    b.store(b.xor(t, b.i64(rng.getrandbits(32))),
            b.gep(T.I64, buf, b.and_(i, b.i64(7))))
    b.begin_else(state)
    b.store(b.add(t, acc),
            b.gep(T.I64, buf, b.and_(b.add(i, b.i64(3)), b.i64(7))))
    b.end_if(state)
    m = b.load(T.I64, b.gep(T.I64, buf, b.and_(i, b.i64(7))))
    b.set_loop_next(loop, acc, b.add(acc, b.xor(m, t)))
    b.end_loop(loop)
    acc = loop.pending_phis[0][0]

    # A bounded float excursion: uitofp/fmul/fcmp/select stay exact
    # and trap-free for small operands.
    fv = b.uitofp(b.and_(acc, b.i64(0xFFFF)), T.F64)
    fv = b.fmul(fv, b.f64(1.0 + rng.randint(1, 7) / 8.0))
    picked = b.select(b.fcmp("olt", fv, b.f64(float(rng.randint(0, 1 << 16)))),
                      b.add(acc, a0), b.xor(acc, a1))
    b.call(printer, [picked])
    if trap:
        picked = b.udiv(picked, b.sub(a1, a1))
    b.ret(picked)
    return module, "main", [rng.getrandbits(16), rng.getrandbits(16)]


def _observe(module, entry, args, engine, collect_timing=True, plan=None,
             max_instructions=None, count_only=False):
    config = MachineConfig(engine=engine, collect_timing=collect_timing)
    if max_instructions is not None:
        config.max_instructions = max_instructions
    machine = Machine(module, config)
    if count_only:
        machine.count_only = True
    if plan is not None:
        machine.arm_fault(plan)
    exc = result = None
    try:
        result = machine.run(entry, args)
    except Exception as err:  # classified below; engines must agree
        exc = (type(err).__name__, str(err))
    observed = {
        "exc": exc,
        "counters": machine.counters.as_dict(),
        "output": list(machine.output),
    }
    if plan is not None or count_only:
        # The eligible-stream counters are maintained by the reference
        # interpreter unconditionally but by the accelerated engines
        # only for armed or count_only runs (pure bookkeeping skip).
        observed["streams"] = (
            machine.eligible_executed, machine.mem_accesses_eligible,
            machine.cond_branches_eligible, machine.checker_sites_executed)
        observed["injected"] = machine.fault_injected
    if result is not None:
        observed["value"] = result.value
        if collect_timing:
            observed["cycles"] = result.cycles
    return observed


@pytest.mark.parametrize("seed", range(8))
def test_random_modules_identical_across_engines(seed):
    module, entry, args = build_random_module(seed)
    payloads = []
    add_compile_hook(payloads.append)
    try:
        runs = {engine: _observe(module, entry, args, engine)
                for engine in ENGINES}
    finally:
        remove_compile_hook(payloads.append)
    assert runs["compiled"] == runs["reference"]
    # The compiled run must actually have compiled something — an
    # all-fallback run would make this test vacuous.
    assert sum(p["segments"] for p in payloads) > 0


@pytest.mark.parametrize("collect_timing", [True, False],
                         ids=["timing", "plain"])
@pytest.mark.parametrize("seed", range(8))
def test_count_only_record_path_identical(seed, collect_timing):
    """``count_only`` marks every eligible frame for per-record
    bookkeeping, so the compiled engine runs those frames on the record
    handlers: output, counters, cycles and the full stream profile must
    match the reference. Odd seeds are hardened, so checker sites and
    the hardening intrinsics' records are covered too."""
    module, entry, args = build_random_module(seed)
    if seed % 2:
        module = elzar_transform(mem2reg(module))
    runs = {engine: _observe(module, entry, args, engine,
                             collect_timing=collect_timing, count_only=True)
            for engine in ENGINES}
    assert runs["compiled"] == runs["reference"]
    assert runs["reference"]["streams"][0] > 0


@pytest.mark.parametrize("seed", range(0, 8, 2))
def test_armed_random_runs_identical_across_engines(seed):
    """Raw fault injection (no campaign machinery): site, streams,
    outcome, and counters agree for every engine."""
    module, entry, args = build_random_module(seed)
    golden = {engine: _observe(module, entry, args, engine,
                               collect_timing=False, count_only=True)
              for engine in ENGINES}
    assert golden["compiled"] == golden["reference"]
    eligible = golden["reference"]["streams"][0]
    budget = golden["reference"]["counters"]["instructions"] * 4 + 1000
    rng = random.Random(seed + 100)
    for _ in range(4):
        plan = FaultPlan(target_index=rng.randrange(eligible),
                         bit=rng.randrange(64), lane=0)
        runs = {engine: _observe(module, entry, args, engine,
                                 collect_timing=False, plan=plan,
                                 max_instructions=budget)
                for engine in ENGINES}
        assert runs["compiled"] == runs["reference"], plan


@pytest.mark.parametrize("seed", range(0, 8, 3))
def test_trapping_modules_identical_across_engines(seed):
    module, entry, args = build_random_module(seed, trap=True)
    runs = {engine: _observe(module, entry, args, engine)
            for engine in ENGINES}
    assert runs["reference"]["exc"] is not None
    assert runs["reference"]["exc"][0] == "ArithmeticFault"
    assert runs["compiled"] == runs["reference"]


@pytest.mark.parametrize("budget", [1, 17, 150])
def test_budget_exhaustion_identical_across_engines(budget):
    # HangError must fire at the identical dynamic-instruction count
    # (the compiled core's budget prechecks bail to the record path
    # near exhaustion rather than over- or under-counting).
    module, entry, args = build_random_module(2)
    runs = {engine: _observe(module, entry, args, engine,
                             max_instructions=budget)
            for engine in ENGINES}
    assert runs["reference"]["exc"] is not None
    assert runs["reference"]["exc"][0] == "HangError"
    assert runs["compiled"] == runs["reference"]


class _TakeOnce:
    def __init__(self, at):
        self.next_index = at
        self.states = []

    def take(self, machine, stack, executed):
        self.states.append(capture_state(machine, stack, executed))
        self.next_index = 1 << 62


@pytest.mark.parametrize("seed,at", [(1, 1), (1, 40), (5, 12)])
def test_compiled_resume_mid_run_matches_straight_run(seed, at):
    module, entry, args = build_random_module(seed)
    straight = Machine(module, MachineConfig(engine="compiled",
                                             collect_timing=False))
    reference = straight.run(entry, args)

    cap = Machine(module, MachineConfig(engine="compiled",
                                        collect_timing=False))
    cap.count_only = True
    policy = _TakeOnce(at)
    run_resumable(cap, entry, args, capture=policy)
    assert len(policy.states) == 1
    state = policy.states[0]
    assert state.eligible >= at

    resumed = Machine(module, MachineConfig(engine="compiled",
                                            collect_timing=False))
    result = resume_run(resumed, state, ())
    assert list(result.output) == list(reference.output)
    assert result.value == reference.value
    assert result.counters.as_dict() == reference.counters.as_dict()


@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("model", model_names())
def test_fault_models_identical_per_plan(seed, model):
    """Every fault model, on hardened random code: the per-plan outcome
    *list* — sequential reference, sequential compiled, and batched
    compiled lanes — must be bit-identical."""
    module, entry, args = build_random_module(seed)
    module = elzar_transform(mem2reg(module))
    golden = Machine(module, MachineConfig(engine="compiled",
                                           collect_timing=False))
    reference = list(golden.run(entry, args).output)
    _, profile = golden_profile(module, entry, args)
    budget = profile.executed * 4 + 10_000
    cfg = CampaignConfig(injections=6, seed=seed + 17, fault_model=model)
    plans = draw_model_plans(profile, cfg)

    outcomes = {}
    for key, engine, batch in (("reference", "reference", 1),
                               ("compiled", "compiled", 1),
                               ("compiled-batched", "compiled", 3)):
        campaign_mod._SESSION_TLS.__dict__.clear()
        module._golden_cache.clear()
        outcomes[key] = run_plans(module, entry, args, plans, reference,
                                  budget, engine=engine, batch=batch,
                                  fault_model=model, snap=False)
    assert outcomes["compiled"] == outcomes["reference"], model
    assert outcomes["compiled-batched"] == outcomes["reference"], model


def test_fault_plans_with_snap_resume_identical():
    """Checkpoint-resumed injection on the compiled engine returns the
    exact outcome list of from-scratch reference injection."""
    module, entry, args = build_random_module(3)
    module = elzar_transform(mem2reg(module))
    golden = Machine(module, MachineConfig(engine="compiled",
                                           collect_timing=False))
    reference = list(golden.run(entry, args).output)
    _, profile = golden_profile(module, entry, args)
    budget = profile.executed * 4 + 10_000
    cfg = CampaignConfig(injections=10, seed=29)
    plans = draw_model_plans(profile, cfg)

    outcomes = {}
    for engine, snap in (("reference", False), ("compiled", True)):
        campaign_mod._SESSION_TLS.__dict__.clear()
        module._golden_cache.clear()
        outcomes[(engine, snap)] = run_plans(
            module, entry, args, plans, reference, budget,
            engine=engine, snap=snap)
    assert outcomes[("compiled", True)] == outcomes[("reference", False)]


def test_machine_config_rejects_unknown_engine():
    # The error names both engines so the fix is self-evident; the
    # retired record-only "decoded" tier is as unknown as a typo.
    for engine in ("jit", "decoded"):
        with pytest.raises(ValueError, match="unknown engine") as info:
            MachineConfig(engine=engine)
        for name in ("reference", "compiled"):
            assert name in str(info.value)


def test_warm_compile_is_all_code_cache_hits():
    """Two machines decoding byte-identical IR in separate module
    instances share compiled code objects: the second compile is 100%
    digest hits, zero fresh ``compile()`` calls."""
    code_cache_clear()
    payloads = []
    add_compile_hook(payloads.append)
    try:
        for _ in range(2):
            module, entry, args = build_random_module(7)
            machine = Machine(module, MachineConfig(engine="compiled"))
            machine.run(entry, args)
    finally:
        remove_compile_hook(payloads.append)
    assert len(payloads) == 2
    cold, warm = payloads
    assert cold["digest"] == warm["digest"]
    assert cold["code_misses"] > 0
    assert warm["code_misses"] == 0
    assert warm["code_hits"] == cold["code_hits"] + cold["code_misses"]


def test_durable_campaign_emits_engine_compile_event():
    from repro.lab import run_durable_campaign
    from repro.lab.events import EventBus

    module, entry, args = build_random_module(5)
    module = elzar_transform(mem2reg(module))
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    cfg = CampaignConfig(injections=8, seed=3, engine="compiled")
    run_durable_campaign(module, entry, args, "fuzz", "elzar", cfg,
                         store=False, events=bus)
    compiles = [e for e in seen if e.kind == "engine-compile"]
    assert compiles, [e.kind for e in seen]
    payload = compiles[0].data
    for key in ("digest", "variant", "functions", "blocks", "segments",
                "compile_ms", "code_hits", "code_misses"):
        assert key in payload, key
    assert payload["segments"] > 0
