"""Tests for the SQLite result store (repro.lab.store)."""

from collections import Counter

from repro.faults.outcomes import Outcome
from repro.lab.store import ResultStore, default_store_path, digest_of


def _counts(**kw) -> Counter:
    return Counter({Outcome(k.replace("_", "-")): v for k, v in kw.items()})


class TestDigests:
    def test_stable_across_container_types(self):
        assert digest_of(("a", 1)) == digest_of(["a", 1])

    def test_frozenset_order_independent(self):
        a = frozenset(["zeta", "alpha", "mid"])
        b = frozenset(["mid", "zeta", "alpha"])
        assert digest_of(("functions_only", a)) == \
            digest_of(("functions_only", b))

    def test_distinct_keys_distinct_digests(self):
        assert digest_of(["spec", 1]) != digest_of(["spec", 2])

    def test_float_precision_preserved(self):
        assert digest_of(1e-9) != digest_of(1.0000001e-9)


class TestShardRows:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        counts = _counts(sdc=3, masked=2)
        store.put_shard("spec", "cell", 0, 5, counts, 0.5)
        n, loaded = store.get_shard("spec", 0)
        assert n == 5 and loaded == counts
        assert store.get_shard("spec", 1) is None
        assert store.get_shard("other", 0) is None

    def test_persists_across_connections(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        store = ResultStore(path)
        store.put_shard("spec", "cell", 3, 7, _counts(hang=7), 0.1)
        store.close()
        reopened = ResultStore(path)
        n, counts = reopened.get_shard("spec", 3)
        assert n == 7 and counts == _counts(hang=7)

    def test_upsert_idempotent(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        for _ in range(2):
            store.put_shard("spec", "cell", 0, 4, _counts(masked=4), 0.2)
        assert len(store.shard_rows()) == 1

    def test_purge_cell(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        store.put_shard("spec-a", "cell-1", 0, 4, _counts(masked=4), 0.1)
        store.put_shard("spec-a", "cell-1", 1, 4, _counts(sdc=4), 0.1)
        store.put_shard("spec-b", "cell-2", 0, 4, _counts(hang=4), 0.1)
        assert store.purge_cell("cell-1") == 2
        assert store.get_shard("spec-a", 0) is None
        assert store.get_shard("spec-b", 0) is not None


class TestGoldens:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        assert store.get_golden("cell") is None
        store.put_golden("cell", "digest-1", 42, 1000)
        record = store.get_golden("cell")
        assert record.digest == "digest-1"
        assert record.eligible == 42 and record.executed == 1000


class TestRuns:
    def test_resume_manifest_lifecycle(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        assert store.latest_incomplete_run() is None
        first = store.begin_run({"injections": 10})
        second = store.begin_run({"injections": 20})
        run_id, spec = store.latest_incomplete_run()
        assert run_id == second and spec == {"injections": 20}
        store.finish_run(second)
        run_id, spec = store.latest_incomplete_run()
        assert run_id == first and spec == {"injections": 10}
        store.finish_run(first)
        assert store.latest_incomplete_run() is None


class TestDefaultPath:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LAB_STORE", str(tmp_path / "env.sqlite"))
        assert default_store_path() == str(tmp_path / "env.sqlite")

    def test_cache_dir_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_LAB_STORE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg-cache")
        assert default_store_path() == "/tmp/xdg-cache/repro-lab/store.sqlite"


class TestJournal:
    def test_file_stores_use_wal(self, tmp_path):
        path = tmp_path / "lab.sqlite"
        store = ResultStore(str(path))
        assert store.journal_mode == "wal"
        store.put_shard("s", "c", 0, 1, Counter(), 0.1)
        store.close()
        reopened = ResultStore(str(path))
        assert reopened.journal_mode == "wal"
        assert len(reopened.shard_rows()) == 1

    def test_memory_stores_stay_in_memory(self):
        assert ResultStore().journal_mode == "memory"
