"""Tests for supervised shard execution (repro.lab.scheduler).

The runner used here is synthetic (no simulator) so the tests isolate
the supervision behaviour: fork fan-out, crash retry, timeout kill,
and graceful degradation to the supervisor process. The ``sabotage``
hook runs only inside forked workers — never in the supervisor — which
is exactly what makes degradation safe to test.
"""

import multiprocessing
import os
import time
from collections import Counter

import pytest

from repro.cpu.interpreter import FaultPlan
from repro.faults.outcomes import Outcome
from repro.lab.checkpoint import partition
from repro.lab.events import EventBus, EventLog
from repro.lab.scheduler import SchedulerPolicy, ShardScheduler

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires the fork start method",
)


def _shards(n_plans=20, shard_size=4):
    return partition([FaultPlan(i, 0, 0) for i in range(n_plans)], shard_size)


def _runner(shard):
    # Deterministic per-shard counts derived from the plans alone.
    return Counter({
        Outcome.MASKED: len(shard.plans),
        Outcome.SDC: shard.index,
    })


def _collect():
    results = {}

    def on_result(shard, counts, seconds):
        assert seconds >= 0.0
        results[shard.index] = counts

    return results, on_result


def _crash_first_attempt(index, attempt):
    if index == 1 and attempt == 0:
        os._exit(13)


def _crash_always(index, attempt):
    if index == 1:
        os._exit(13)


def _hang_first_attempt(index, attempt):
    if index == 0 and attempt == 0:
        time.sleep(30)


def _raise_in_worker(index, attempt):
    if index == 2 and attempt == 0:
        raise RuntimeError("synthetic worker error")


class TestSerialPath:
    def test_runs_every_shard(self):
        shards = _shards()
        results, on_result = _collect()
        ShardScheduler(SchedulerPolicy(workers=1)).run(
            shards, _runner, on_result
        )
        assert sorted(results) == [s.index for s in shards]

    def test_empty_input_is_noop(self):
        results, on_result = _collect()
        ShardScheduler(SchedulerPolicy(workers=1)).run([], _runner, on_result)
        assert results == {}


@fork_only
class TestForkedPath:
    def test_parallel_matches_serial(self):
        shards = _shards()
        serial, on_serial = _collect()
        ShardScheduler(SchedulerPolicy(workers=1)).run(
            shards, _runner, on_serial
        )
        parallel, on_parallel = _collect()
        ShardScheduler(SchedulerPolicy(workers=3)).run(
            shards, _runner, on_parallel
        )
        assert parallel == serial

    def test_crashed_worker_is_retried(self):
        shards = _shards()
        events = EventBus()
        log = EventLog()
        events.subscribe(log)
        results, on_result = _collect()
        ShardScheduler(
            SchedulerPolicy(workers=2, backoff=0.01), events
        ).run(shards, _runner, on_result, _sabotage=_crash_first_attempt)
        assert sorted(results) == [s.index for s in shards]
        assert results[1] == _runner(shards[1])
        retries = log.of("shard-retry")
        assert retries and retries[0].data["index"] == 1

    def test_repeatedly_dying_shard_degrades_to_supervisor(self):
        shards = _shards()
        events = EventBus()
        log = EventLog()
        events.subscribe(log)
        results, on_result = _collect()
        ShardScheduler(
            SchedulerPolicy(workers=2, max_retries=1, backoff=0.01), events
        ).run(shards, _runner, on_result, _sabotage=_crash_always)
        # The shard still completes — in-process, past the sabotage.
        assert sorted(results) == [s.index for s in shards]
        assert results[1] == _runner(shards[1])
        assert log.count("shard-retry") == 1
        degraded = log.of("shard-degraded")
        assert len(degraded) == 1 and degraded[0].data["index"] == 1

    def test_hung_worker_times_out_and_retries(self):
        shards = _shards(n_plans=8, shard_size=4)
        events = EventBus()
        log = EventLog()
        events.subscribe(log)
        results, on_result = _collect()
        ShardScheduler(
            SchedulerPolicy(workers=2, timeout=0.5, backoff=0.01), events
        ).run(shards, _runner, on_result, _sabotage=_hang_first_attempt)
        assert sorted(results) == [0, 1]
        reasons = [e.data["reason"] for e in log.of("shard-retry")]
        assert any("timeout" in reason for reason in reasons)

    def test_worker_exception_is_reported_and_retried(self):
        shards = _shards()
        events = EventBus()
        log = EventLog()
        events.subscribe(log)
        results, on_result = _collect()
        ShardScheduler(
            SchedulerPolicy(workers=2, backoff=0.01), events
        ).run(shards, _runner, on_result, _sabotage=_raise_in_worker)
        assert sorted(results) == [s.index for s in shards]
        reasons = [e.data["reason"] for e in log.of("shard-retry")]
        assert any("synthetic worker error" in reason for reason in reasons)

    def test_interrupting_sink_cleans_up_workers(self):
        shards = _shards(n_plans=40, shard_size=2)

        def on_result(shard, counts, seconds):
            raise KeyboardInterrupt("stop now")

        with pytest.raises(KeyboardInterrupt):
            ShardScheduler(SchedulerPolicy(workers=4)).run(
                shards, _runner, on_result
            )
        # No worker processes left behind.
        assert not multiprocessing.active_children()


@fork_only
class TestEventDrivenWait:
    def test_retry_backoff_still_honoured(self):
        # With no live pipes to wait on, the supervisor must still
        # sleep until the crashed shard's retry becomes eligible
        # instead of spinning (or hanging forever).
        shards = _shards(n_plans=8, shard_size=4)  # shards 0 and 1
        results, on_result = _collect()
        ShardScheduler(SchedulerPolicy(workers=2, backoff=0.2)).run(
            shards, _runner, on_result, _sabotage=_crash_first_attempt
        )
        assert sorted(results) == [0, 1]
        assert results[1] == _runner(shards[1])
