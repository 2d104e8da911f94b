"""The content-addressed checkpoint store: keying, corruption, sharing
with the artifact cache, and LRU garbage collection (the ``--gc``
satellite).
"""

import os
import time

from repro.snap.build import build_checkpoints
from repro.snap.placement import PlacementConfig
from repro.snap.store import SnapStore, checkpoint_key, machine_key
from repro.toolchain import default_toolchain
from repro.toolchain.cache import ArtifactCache


def _built():
    return default_toolchain().build("histogram", "test", "elzar")


class TestSnapStore:
    def test_store_load_roundtrip(self, tmp_path):
        store = SnapStore(root=str(tmp_path))
        blobs = [b"alpha", b"beta" * 100, b""]
        meta = {"module": "m", "marks": [1, 2, 3]}
        assert store.store("ab" + "0" * 30, blobs, meta)
        got = store.load("ab" + "0" * 30)
        assert got is not None
        assert got[0] == blobs
        assert got[1] == meta
        assert store.stats.hits == 1 and store.stats.stores == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        store = SnapStore(root=str(tmp_path))
        assert store.load("cd" + "1" * 30) is None
        assert store.stats.misses == 1

    def test_corrupt_set_is_discarded(self, tmp_path):
        store = SnapStore(root=str(tmp_path))
        key = "ef" + "2" * 30
        store.store(key, [b"payload"], {})
        path = store._path(key)
        with open(path, "r+b") as fh:
            fh.seek(8)
            fh.write(b"\xff")
        assert store.load(key) is None
        assert store.stats.invalid == 1
        assert not os.path.exists(path)

    def test_disabled_store_is_inert(self):
        store = SnapStore.disabled()
        assert not store.enabled
        assert not store.store("k", [b"x"], {})
        assert store.load("k") is None
        assert store.entries() == []

    def test_entries_reports_meta(self, tmp_path):
        store = SnapStore(root=str(tmp_path))
        store.store("aa" + "3" * 30, [b"x", b"y"], {"model": "m1"})
        rows = store.entries()
        assert len(rows) == 1
        assert rows[0]["states"] == 2
        assert rows[0]["model"] == "m1"


class TestCheckpointKey:
    def test_key_covers_model_budget_placement_machine(self):
        built = _built()
        from repro.cpu.interpreter import MachineConfig

        mkey = machine_key(MachineConfig(engine="compiled"))
        base = checkpoint_key(built.module, built.entry, ("a",), (),
                              "register-bitflip", 1000, mkey,
                              PlacementConfig().cache_key())
        variants = [
            checkpoint_key(built.module, built.entry, ("a",), (),
                           "branch-flip", 1000, mkey,
                           PlacementConfig().cache_key()),
            checkpoint_key(built.module, built.entry, ("a",), (),
                           "register-bitflip", 2000, mkey,
                           PlacementConfig().cache_key()),
            checkpoint_key(built.module, built.entry, ("a",), (),
                           "register-bitflip", 1000, mkey,
                           PlacementConfig(budget=7).cache_key()),
            checkpoint_key(
                built.module, built.entry, ("a",), (),
                "register-bitflip", 1000,
                machine_key(MachineConfig(engine="compiled",
                                          cache_enabled=False)),
                PlacementConfig().cache_key()),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_key_is_stable_across_calls(self):
        built = _built()
        from repro.cpu.interpreter import MachineConfig

        mkey = machine_key(MachineConfig(engine="compiled"))
        k1 = checkpoint_key(built.module, built.entry, (), (), "m", 9,
                            mkey, PlacementConfig().cache_key())
        k2 = checkpoint_key(built.module, built.entry, (), (), "m", 9,
                            mkey, PlacementConfig().cache_key())
        assert k1 == k2


class TestBuilderStoreSharing:
    def test_cold_build_then_warm_load(self, tmp_path):
        built = _built()
        from repro.faults.campaign import golden_profile

        # The toolchain build cache shares module objects across tests;
        # drop any checkpoint sets other tests left in the module cache
        # so this build is genuinely cold.
        for slot in [k for k in built.module._golden_cache
                     if isinstance(k, tuple) and k and k[0] == "snap-set"]:
            built.module._golden_cache.pop(slot)
        _, profile = golden_profile(built.module, built.entry, built.args)
        budget = int(profile.executed * 4.0) + 10_000
        store = SnapStore(root=str(tmp_path))
        cset = build_checkpoints(built.module, built.entry, built.args,
                                 budget=budget, model="register-bitflip",
                                 eligible=profile.eligible, store=store)
        assert cset is not None and not cset.from_cache
        assert store.stats.stores == 1
        # A second process would miss the in-module cache but hit the
        # store; simulate by clearing the module-side slot.
        built.module._golden_cache.pop(("snap-set", cset.key))
        warm = build_checkpoints(built.module, built.entry, built.args,
                                 budget=budget, model="register-bitflip",
                                 eligible=profile.eligible, store=store)
        assert warm.from_cache
        assert warm.key == cset.key
        assert warm.marks == cset.marks
        assert store.stats.hits == 1

    def test_short_runs_and_unkeyable_predicates_skip(self, tmp_path):
        built = _built()
        store = SnapStore(root=str(tmp_path))
        assert build_checkpoints(built.module, built.entry, built.args,
                                 budget=10_000, model="register-bitflip",
                                 eligible=100, store=store) is None
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert build_checkpoints(
                built.module, built.entry, built.args, budget=10_000,
                fault_eligible=lambda fn: True,
                model="register-bitflip", eligible=100_000, store=store,
            ) is None


class TestArtifactCacheGC:
    def _fill(self, root, names, size=1024):
        paths = []
        for i, name in enumerate(names):
            sub = os.path.join(root, name[:2])
            os.makedirs(sub, exist_ok=True)
            path = os.path.join(sub, name)
            with open(path, "wb") as fh:
                fh.write(b"x" * size)
            # Strictly increasing mtimes make LRU order deterministic.
            stamp = time.time() - len(names) + i
            os.utime(path, (stamp, stamp))
            paths.append(path)
        return paths

    def test_gc_evicts_lru_first(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        paths = self._fill(str(tmp_path),
                           ["aa1.json", "bb2.json", "cc3.snapset",
                            "dd4.json"])
        stats = cache.gc(2 * 1024)
        assert stats.evicted_files == 2
        # The two oldest are gone, the two newest survive.
        assert not os.path.exists(paths[0])
        assert not os.path.exists(paths[1])
        assert os.path.exists(paths[2])
        assert os.path.exists(paths[3])
        assert stats.kept_bytes <= 2 * 1024

    def test_gc_under_budget_is_a_noop(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        paths = self._fill(str(tmp_path), ["aa1.json", "bb2.snapset"])
        stats = cache.gc(1024 * 1024)
        assert stats.evicted_files == 0
        assert all(os.path.exists(p) for p in paths)

    def test_gc_stats_render(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        self._fill(str(tmp_path), ["aa1.json", "bb2.json"])
        stats = cache.gc(1024)
        text = stats.render()
        assert "cache gc:" in text
        assert stats.as_dict()["evicted_files"] == stats.evicted_files

    def test_load_touches_mtime(self, tmp_path):
        # The LRU signal: a loaded artifact must look recently used.
        built = _built()
        cache = ArtifactCache(root=str(tmp_path))
        key = "ab" * 16
        assert cache.store(key, built.module, {"ir_digest": "d1"})
        path = cache._path(key)
        old = time.time() - 10_000
        os.utime(path, (old, old))
        assert cache.load(key, lambda text: "d1") is not None
        assert os.path.getmtime(path) > old + 5_000
