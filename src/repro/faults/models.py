"""Pluggable fault models (the campaign's fault-shape taxonomy).

The paper's campaign (§IV-B) injects one fault shape: a single bit flip
in the output register of a random eligible dynamic instruction. The
claims it cannot probe are exactly the ones about ELZAR's *window of
vulnerability* (§V-C): corrupted effective addresses after the check →
extract sequence, wrong-path branches after the ptest sync point, and
upsets inside the inserted check/wrapper instructions themselves. Each
:class:`FaultModel` here targets one of those shapes; a campaign picks
one by name (``CampaignConfig.fault_model`` /
``python -m repro campaign --fault-model``).

Contract every model obeys:

- **Deterministic plans.** ``draw_plans(profile, config)`` derives the
  whole plan list from ``random.Random(config.seed)`` with a *fixed
  number of RNG draws per plan*, so the list for a larger injection cap
  extends (never reshuffles) the list for a smaller one — the prefix
  property :mod:`repro.lab` relies on to reuse stored shards.
- **A stable** ``cache_key`` that flows into the golden-run cache and
  the durable store's spec key, so campaigns under different models
  never share shard rows.
- **Engine neutrality.** Plans are applied by shared
  :class:`~repro.cpu.interpreter.Machine` helpers, so the reference
  interpreter and the compiled engine classify identical outcomes
  for every plan (enforced by ``tests/cpu/test_engine_differential``).

Populations come from a :class:`StreamProfile` measured by the golden
run: every model's target stream (eligible results, dynamic memory
accesses, dynamic conditional branches, checker sites) is counted in
the same count-only pass, so one golden run prices every model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..cpu.interpreter import FaultPlan

#: Lanes per YMM register (the paper's AVX configuration).
_LANES = 4


@dataclass(frozen=True)
class StreamProfile:
    """Per-stream dynamic event counts from one golden run."""

    #: Value-producing eligible dynamic instructions (the classic pool).
    eligible: int
    #: Total dynamic instructions (for the hang budget).
    executed: int
    #: Dynamic loads + stores inside eligible functions.
    mem_accesses: int
    #: Dynamic conditional branches inside eligible functions.
    cond_branches: int
    #: Dynamic hardening-inserted check/wrapper sites (0 for native).
    checker_sites: int


class FaultModel:
    """Base class: subclasses set ``name``, ``population_stream`` and
    implement ``population()`` / ``draw()``."""

    #: Registry name (also the CLI spelling).
    name: str = ""
    #: Human description of the stream ``population()`` counts.
    population_stream: str = "eligible instructions"

    @property
    def cache_key(self):
        """Key component for golden caches and durable store specs."""
        return ("fault-model", self.name)

    def population(self, profile: StreamProfile) -> int:
        raise NotImplementedError

    def draw(self, rng: random.Random, population: int) -> FaultPlan:
        """One plan. Must consume a fixed number of RNG draws."""
        raise NotImplementedError

    def sort_for_batching(self, plans: Sequence[FaultPlan]) -> List[int]:
        """Execution order — a permutation of ``range(len(plans))`` —
        for the batched engine (:mod:`repro.cpu.batch`): ascending
        fault site, ties in draw order. Lanes grouped into one batch
        then share the longest possible golden prefix, and each batch's
        golden run aborts at its *latest* site — which, with sorted
        sites, sits near a quantile of the run instead of its end, so
        total golden re-execution across batches halves. Pure
        scheduling: the runner scatters outcomes back to draw order, so
        results are unaffected (the differential matrix pins it)."""
        return sorted(range(len(plans)),
                      key=lambda i: (plans[i].target_index, i))

    def draw_plans(self, profile: StreamProfile, config) -> List[FaultPlan]:
        """The campaign's full plan list, in the serial draw order (the
        prefix property: a longer campaign's list extends a shorter
        one's). ``config`` needs ``seed`` and ``injections``."""
        population = self.population(profile)
        if population <= 0:
            raise ValueError(
                f"fault model {self.name!r} has no targets: the golden run "
                f"observed zero {self.population_stream} (is the workload "
                "hardened?)"
            )
        rng = random.Random(config.seed)
        return [self.draw(rng, population) for _ in range(config.injections)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultModel {self.name}>"


class RegisterBitFlip(FaultModel):
    """The paper's §IV-B default: one bit of one result register (one
    YMM lane for vectors). Draw order is byte-identical to the original
    ``draw_plans`` — stored campaigns keep replaying."""

    name = "register-bitflip"

    def population(self, profile: StreamProfile) -> int:
        return profile.eligible

    def draw(self, rng: random.Random, population: int) -> FaultPlan:
        return FaultPlan(
            target_index=rng.randrange(population),
            bit=rng.randrange(64),
            lane=rng.randrange(_LANES),
        )


class MultiBitFlip(FaultModel):
    """2–3 distinct bits of one result (one lane): the multi-bit upsets
    that defeat parity-style detection. Bits are made distinct by
    construction (offset draws), with a fixed draw count per plan."""

    name = "multi-bitflip"

    def population(self, profile: StreamProfile) -> int:
        return profile.eligible

    def draw(self, rng: random.Random, population: int) -> FaultPlan:
        target = rng.randrange(population)
        lane = rng.randrange(_LANES)
        nbits = 2 + rng.randrange(2)  # 2 or 3
        b1 = rng.randrange(64)
        b2 = (b1 + 1 + rng.randrange(63)) % 64
        # Third draw always consumed (fixed-arity), used only for nbits=3:
        # index into the 62 bits distinct from b1 and b2.
        r3 = rng.randrange(62)
        extras = (b2,)
        if nbits == 3:
            b3 = r3
            for taken in sorted((b1, b2)):
                if b3 >= taken:
                    b3 += 1
            extras = (b2, b3 % 64)
        return FaultPlan(target_index=target, bit=b1, lane=lane,
                         kind="multi", bits=extras)


class AddressBitFlip(FaultModel):
    """Corrupt the effective address of one dynamic load/store — after
    any hardening check on the address value, before the access. This is
    the paper's post-check window on extracted scalar addresses: no
    replication scheme that checks the *register* value can see it."""

    name = "address-bitflip"
    population_stream = "dynamic loads/stores in eligible functions"

    def population(self, profile: StreamProfile) -> int:
        return profile.mem_accesses

    def draw(self, rng: random.Random, population: int) -> FaultPlan:
        return FaultPlan(
            target_index=rng.randrange(population),
            bit=rng.randrange(64),
            kind="addr",
        )


class MemoryBitFlip(FaultModel):
    """Flip one bit of a random live heap byte, timed at a random
    eligible instruction. Deliberately violates the paper's fault-model
    assumption that memory is ECC-protected (§II) — it measures how much
    of the residual SDC rate that assumption absorbs. Heap-only: stack
    layouts differ per scheme, the heap is the comparable state."""

    name = "memory-bitflip"
    population_stream = "eligible instructions"

    def population(self, profile: StreamProfile) -> int:
        return profile.eligible

    def draw(self, rng: random.Random, population: int) -> FaultPlan:
        return FaultPlan(
            target_index=rng.randrange(population),
            bit=rng.randrange(8),
            kind="mem",
            offset=rng.randrange(1 << 30),
        )


class BranchFlip(FaultModel):
    """Invert one dynamic conditional-branch decision — a control-flow
    fault *after* the ptest/branch synchronisation point, i.e. inside
    ELZAR's branch window of vulnerability (§III-C)."""

    name = "branch-flip"
    population_stream = "dynamic conditional branches in eligible functions"

    def population(self, profile: StreamProfile) -> int:
        return profile.cond_branches

    def draw(self, rng: random.Random, population: int) -> FaultPlan:
        return FaultPlan(target_index=rng.randrange(population), bit=0,
                         kind="branch")


class InstructionSkip(FaultModel):
    """Replace one eligible instruction's result with a type-appropriate
    zero — the standard skip approximation (the destination register
    reads as never written). Side effects that already happened (stores,
    output) are not undone; a true pre-execution skip is not modelled."""

    name = "instruction-skip"

    def population(self, profile: StreamProfile) -> int:
        return profile.eligible

    def draw(self, rng: random.Random, population: int) -> FaultPlan:
        return FaultPlan(target_index=rng.randrange(population), bit=0,
                         kind="skip")


class CheckerFault(FaultModel):
    """Single bit flip restricted to hardening-inserted wrapper/check
    sites (check/vote/branch-sync intrinsic results, the extract of
    every to-scalar wrapper, the broadcast of every from-scalar
    wrapper): a direct measurement of the window of vulnerability. The
    population is zero for unhardened code — the campaign raises a
    ``ValueError`` instead of silently injecting nothing."""

    name = "checker-fault"
    population_stream = "hardening-inserted checker sites"

    def population(self, profile: StreamProfile) -> int:
        return profile.checker_sites

    def draw(self, rng: random.Random, population: int) -> FaultPlan:
        return FaultPlan(
            target_index=rng.randrange(population),
            bit=rng.randrange(64),
            lane=rng.randrange(_LANES),
            kind="checker",
        )


# --- Registry ----------------------------------------------------------------

DEFAULT_MODEL = RegisterBitFlip.name

_REGISTRY: Dict[str, FaultModel] = {}


def register_model(model: FaultModel) -> FaultModel:
    """Add a model instance to the registry (name must be unique)."""
    if not model.name:
        raise ValueError(f"fault model {model!r} has no name")
    if model.name in _REGISTRY:
        raise ValueError(f"fault model {model.name!r} already registered")
    _REGISTRY[model.name] = model
    return model


def get_model(name: str) -> FaultModel:
    model = _REGISTRY.get(name)
    if model is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown fault model {name!r}; have: {known}")
    return model


def model_names() -> List[str]:
    """Registered model names, default first, rest sorted."""
    rest = sorted(n for n in _REGISTRY if n != DEFAULT_MODEL)
    return [DEFAULT_MODEL] + rest


for _cls in (RegisterBitFlip, MultiBitFlip, AddressBitFlip, MemoryBitFlip,
             BranchFlip, InstructionSkip, CheckerFault):
    register_model(_cls())
