"""Resume-equivalence tests: the ISSUE's acceptance criteria.

An interrupted campaign, resumed, must reach outcome counts, rates,
and a store row set bit-identical to the uninterrupted serial run —
for both serial and parallel execution.
"""

import multiprocessing
from collections import Counter

import pytest

from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.outcomes import Outcome
from repro.lab.durable import run_durable_campaign
from repro.lab.events import CampaignInterrupted, EventBus, EventLog, \
    interrupt_after
from repro.lab.store import ResultStore
from repro.passes.elzar import elzar_transform
from repro.passes.mem2reg import mem2reg
from repro.workloads import get

CONFIG = dict(injections=30, seed=9)
SHARD_SIZE = 6  # 5 shards of 6

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

worker_counts = pytest.mark.parametrize(
    "workers",
    [1, pytest.param(4, marks=pytest.mark.skipif(
        not HAS_FORK, reason="requires the fork start method"))],
)


@pytest.fixture(scope="module")
def cell():
    built = get("histogram").build_at("test")
    module = elzar_transform(mem2reg(built.module))
    return module, built.entry, built.args


@pytest.fixture(scope="module")
def baseline(cell):
    module, entry, args = cell
    return run_campaign(module, entry, args, "histogram", "elzar",
                        CampaignConfig(**CONFIG))


def _durable(cell, store, workers=1, events=None, **kw):
    module, entry, args = cell
    return run_durable_campaign(
        module, entry, args, "histogram", "elzar",
        CampaignConfig(workers=workers, **CONFIG),
        store=store, events=events, shard_size=SHARD_SIZE, **kw,
    )


class TestDurableMatchesPlainCampaign:
    @worker_counts
    def test_counts_identical(self, cell, baseline, tmp_path, workers):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        outcome = _durable(cell, store, workers=workers)
        assert outcome.result.counts == baseline.counts
        assert outcome.result.total == baseline.total

    def test_ephemeral_store_false(self, cell, baseline):
        outcome = _durable(cell, False)
        assert outcome.result.counts == baseline.counts
        assert not outcome.info.durable

    def test_unkeyable_predicate_still_runs(self, cell):
        module, entry, args = cell
        events = EventBus()
        log = EventLog()
        events.subscribe(log)
        outcome = run_durable_campaign(
            module, entry, args, "histogram", "elzar",
            CampaignConfig(fault_eligible=lambda fn: True, **CONFIG),
            store=False, events=events, shard_size=SHARD_SIZE,
        )
        assert not outcome.info.durable
        assert outcome.result.total == CONFIG["injections"]


class TestRunCampaignIsDurable:
    """``run_campaign`` is a store-less wrapper over the durable path."""

    @pytest.mark.parametrize("workers", [1, pytest.param(
        2, marks=pytest.mark.skipif(
            not HAS_FORK, reason="requires the fork start method"))])
    def test_equals_ephemeral_durable_campaign(self, cell, workers):
        module, entry, args = cell
        config = CampaignConfig(workers=workers, **CONFIG)
        plain = run_campaign(module, entry, args, "histogram", "elzar",
                             config)
        durable = run_durable_campaign(module, entry, args, "histogram",
                                       "elzar", config, store=False).result
        assert plain.counts == durable.counts
        assert plain.total == CONFIG["injections"]
        assert (plain.workload, plain.version, plain.fault_model) == (
            durable.workload, durable.version, durable.fault_model)

    @pytest.mark.skipif(not HAS_FORK, reason="requires the fork start method")
    def test_forked_campaign_builds_checkpoints_before_forking(self, cell):
        # Shard workers inherit the cell's checkpoint set from the
        # parent's module cache instead of each capturing or loading
        # their own, so the parent must hold it once the run returns.
        module, entry, args = cell
        module._golden_cache.clear()
        _durable(cell, False, workers=2)
        assert any(key[0] == "snap-set" for key in module._golden_cache
                   if isinstance(key, tuple))


class TestInterruptResume:
    @worker_counts
    def test_bit_identical_after_resume(self, cell, baseline, tmp_path,
                                        workers):
        # Reference: uninterrupted run into its own store.
        ref_store = ResultStore(str(tmp_path / "ref.sqlite"))
        reference = _durable(cell, ref_store)

        store = ResultStore(str(tmp_path / "s.sqlite"))
        events = EventBus()
        events.subscribe(interrupt_after(2))
        with pytest.raises(CampaignInterrupted):
            _durable(cell, store, workers=workers, events=events)
        # The interrupted shards are already persisted.
        persisted = {idx for (_, idx, _, _) in store.shard_rows()}
        assert len(persisted) == 2

        resumed = _durable(cell, store, workers=workers)
        assert resumed.result.counts == baseline.counts
        assert resumed.result.sdc_rate == reference.result.sdc_rate
        assert resumed.result.crash_rate == reference.result.crash_rate
        assert resumed.info.shards_from_store == 2
        assert resumed.info.shards_executed == 3
        # Store rows, not just aggregates, are bit-identical.
        assert store.shard_rows() == ref_store.shard_rows()

    def test_replay_executes_nothing(self, cell, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        first = _durable(cell, store)
        again = _durable(cell, store)
        assert again.info.injections_executed == 0
        assert again.info.shards_from_store == again.info.shards_total
        assert again.result.counts == first.result.counts

    def test_cap_increase_reuses_full_shards(self, cell, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        module, entry, args = cell
        small = run_durable_campaign(
            module, entry, args, "histogram", "elzar",
            CampaignConfig(injections=18, seed=9),
            store=store, shard_size=SHARD_SIZE,
        )
        large = run_durable_campaign(
            module, entry, args, "histogram", "elzar",
            CampaignConfig(injections=30, seed=9),
            store=store, shard_size=SHARD_SIZE,
        )
        # The three full shards of the 18-injection run are reused, and
        # the larger campaign's counts extend (never contradict) them.
        assert large.info.shards_from_store == 3
        assert large.info.shards_executed == 2
        for outcome_class in Outcome:
            assert large.result.counts[outcome_class] >= \
                small.result.counts[outcome_class]
        assert sum(large.result.counts.values()) == 30


class TestAdaptiveDeterminism:
    @worker_counts
    def test_same_stop_point_any_worker_count(self, cell, tmp_path, workers):
        serial_store = ResultStore(str(tmp_path / "serial.sqlite"))
        serial = _durable(cell, serial_store, workers=1,
                          ci_target=0.25, min_injections=6)
        store = ResultStore(str(tmp_path / f"w{workers}.sqlite"))
        parallel = _durable(cell, store, workers=workers,
                            ci_target=0.25, min_injections=6)
        assert parallel.result.counts == serial.result.counts
        assert parallel.info.injections_used == serial.info.injections_used
        assert parallel.info.stopped_early == serial.info.stopped_early
