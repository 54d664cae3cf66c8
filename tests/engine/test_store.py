"""The persistent artifact store: durability without lies.

What these tests pin down: a stored artifact is byte-deterministic and
round-trips losslessly; corruption of any stripe reads as a counted miss,
never a crash; the size bound evicts in least-recently-*used* order; a
version bump structurally invalidates old blobs; and two processes
sharing one cache directory cannot corrupt each other.
"""

import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro.engine.store as store_module
from repro import __version__
from repro.automata.compiled import PICKLE_VERSION
from repro.engine import (
    ARTIFACT_VERSION,
    ArtifactStore,
    Engine,
    EngineArtifact,
    prewarm_schema,
    version_tag,
)
from repro.workloads import chain_schema, document_schema

SCHEMA = document_schema(3)


def baked_artifact(schema=SCHEMA):
    engine = Engine()
    prewarm_schema(engine, schema)
    return EngineArtifact.capture(engine, schema)


class TestRoundTrip:
    def test_put_get_round_trips_entries(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        artifact = baked_artifact()
        store.put(artifact)
        loaded = store.get(artifact.fingerprint())
        assert loaded is not None
        assert set(loaded.entries) == set(artifact.entries)
        assert loaded.schema.fingerprint() == SCHEMA.fingerprint()
        assert store.stats()["hits"] == 1

    def test_same_schema_bakes_byte_identical_artifacts(self, tmp_path):
        # The determinism `repro warm --check` gates on: the entire
        # compile pipeline re-run from scratch must pickle identically.
        assert baked_artifact().to_bytes() == baked_artifact().to_bytes()

    def test_get_on_empty_store_is_a_counted_miss(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        assert store.get(SCHEMA.fingerprint()) is None
        stats = store.stats()
        assert stats["misses"] == 1 and stats["corrupt"] == 0

    def test_sidecar_index_describes_the_blob(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        artifact = baked_artifact()
        path = store.put(artifact, syntax="scmdl")
        meta = store.meta(artifact.fingerprint())
        assert meta["fingerprint"] == artifact.fingerprint()
        assert meta["entries"] == len(artifact)
        assert meta["bytes"] == path.stat().st_size
        assert meta["syntax"] == "scmdl"

    def test_layout_is_version_keyed(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        artifact = baked_artifact()
        path = store.put(artifact)
        assert path == tmp_path / version_tag() / f"{artifact.fingerprint()}.art"


class TestCorruptionTolerance:
    def test_truncated_blob_is_a_miss_plus_counter_bump(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        artifact = baked_artifact()
        path = store.put(artifact)
        path.write_bytes(path.read_bytes()[:32])
        assert store.get(artifact.fingerprint()) is None
        stats = store.stats()
        assert stats["corrupt"] == 1 and stats["misses"] == 1
        # The bad blob was removed: the next get is a clean miss.
        assert not path.exists()
        assert store.get(artifact.fingerprint()) is None
        assert store.stats()["corrupt"] == 1

    def test_garbage_blob_is_tolerated(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        artifact = baked_artifact()
        path = store.put(artifact)
        path.write_bytes(b"not a pickle at all")
        assert store.get(artifact.fingerprint()) is None
        assert store.stats()["corrupt"] == 1

    def test_blob_filed_under_the_wrong_fingerprint_is_rejected(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        artifact = baked_artifact()
        data = artifact.to_bytes()
        wrong_key = "0" * 40
        (store.dir / f"{wrong_key}.art").write_bytes(data)
        assert store.get(wrong_key) is None
        assert store.stats()["corrupt"] == 1

    def test_well_shaped_blob_with_wrong_typed_fields_is_tolerated(self, tmp_path):
        # Regression: a dict payload whose "schema" field is not a Schema
        # used to escape the ArtifactError catch (fingerprint() raised
        # AttributeError) and crash the read path.  Any malformed blob is
        # a counted miss.
        store = ArtifactStore(root=tmp_path)
        fingerprint = SCHEMA.fingerprint()
        payload = pickle.dumps(
            {
                "version": ARTIFACT_VERSION,
                "schema": "not a schema",
                "entries": {},
            }
        )
        path = store.path_for(fingerprint)
        path.write_bytes(payload)
        assert store.get(fingerprint) is None
        assert store.stats()["corrupt"] == 1
        assert not path.exists()

    def test_unreadable_sidecar_never_blocks_a_load(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        artifact = baked_artifact()
        store.put(artifact)
        (store.dir / f"{artifact.fingerprint()}.json").write_text("{trunc")
        assert store.meta(artifact.fingerprint()) == {}
        assert store.get(artifact.fingerprint()) is not None


class TestEviction:
    def _three_artifacts(self):
        return [baked_artifact(chain_schema(depth)) for depth in (2, 3, 4)]

    def test_oldest_mtime_is_evicted_first(self, tmp_path):
        a, b, c = self._three_artifacts()
        sizes = [len(x.to_bytes()) for x in (a, b, c)]
        store = ArtifactStore(root=tmp_path, max_bytes=max(sizes) * 2 + 1)
        pa, pb = store.put(a), store.put(b)
        os.utime(pa, (100, 100))
        os.utime(pb, (200, 200))
        store.put(c)
        assert not store.contains(a.fingerprint())
        assert store.contains(b.fingerprint())
        assert store.contains(c.fingerprint())
        assert store.stats()["evictions"] == 1

    def test_a_hit_refreshes_recency(self, tmp_path):
        a, b, c = self._three_artifacts()
        sizes = [len(x.to_bytes()) for x in (a, b, c)]
        store = ArtifactStore(root=tmp_path, max_bytes=max(sizes) * 2 + 1)
        pa, pb = store.put(a), store.put(b)
        os.utime(pa, (100, 100))
        os.utime(pb, (200, 200))
        assert store.get(a.fingerprint()) is not None  # a is now the MRU
        store.put(c)
        assert store.contains(a.fingerprint())
        assert not store.contains(b.fingerprint())

    def test_put_never_evicts_the_blob_it_just_wrote(self, tmp_path):
        # Regression: an artifact bigger than max_bytes used to be
        # evicted by its own put(), which then returned a Path to a file
        # that no longer existed — callers holding the store silently
        # recompiled forever.  The just-written key is exempt; the bound
        # is overshot by one artifact instead.
        a, b = self._three_artifacts()[:2]
        store = ArtifactStore(root=tmp_path, max_bytes=1)
        path_a = store.put(a)
        assert path_a.exists()
        assert store.contains(a.fingerprint())
        path_b = store.put(b)  # evicts a, keeps itself
        assert path_b.exists()
        assert store.contains(b.fingerprint())
        assert not store.contains(a.fingerprint())
        assert store.stats()["evictions"] == 1

    def test_fingerprints_list_in_lru_order(self, tmp_path):
        a, b = self._three_artifacts()[:2]
        store = ArtifactStore(root=tmp_path)
        pa, pb = store.put(a), store.put(b)
        os.utime(pa, (200, 200))
        os.utime(pb, (100, 100))
        assert store.fingerprints() == [b.fingerprint(), a.fingerprint()]


def _age(path, timestamp=1000.0):
    """Push ``path`` and everything under it past the sweep grace window."""
    for child in path.rglob("*"):
        os.utime(child, (timestamp, timestamp))
    os.utime(path, (timestamp, timestamp))


class TestVersionedInvalidation:
    def test_pickle_version_bump_invalidates_the_old_directory(
        self, tmp_path, monkeypatch
    ):
        old_store = ArtifactStore(root=tmp_path)
        old_store.put(baked_artifact())
        old_dir = old_store.dir
        _age(old_dir)  # past the grace window: nothing still uses it
        monkeypatch.setattr(store_module, "PICKLE_VERSION", 999)
        new_store = ArtifactStore(root=tmp_path)
        assert new_store.stats()["invalidations"] == 1
        assert not old_dir.exists()
        assert new_store.get(SCHEMA.fingerprint()) is None

    def test_recently_used_old_version_directory_survives(
        self, tmp_path, monkeypatch
    ):
        # A still-live older-version process sharing the cache root must
        # keep its artifacts: only dirs idle past the grace window go.
        old_store = ArtifactStore(root=tmp_path)
        old_store.put(baked_artifact())
        old_dir = old_store.dir
        monkeypatch.setattr(store_module, "PICKLE_VERSION", 999)
        new_store = ArtifactStore(root=tmp_path)
        assert old_dir.exists()
        assert new_store.stats()["invalidations"] == 0

    def test_newer_version_directory_is_never_swept(self, tmp_path, monkeypatch):
        # An old daemon must not clobber a newer deployment's artifacts,
        # no matter how idle they look.
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "PICKLE_VERSION", 999)
            newer = ArtifactStore(root=tmp_path)
            newer.put(baked_artifact())
            newer_dir = newer.dir
        _age(newer_dir)
        current = ArtifactStore(root=tmp_path)
        assert newer_dir.exists()
        assert current.stats()["invalidations"] == 0

    def test_foreign_directories_are_never_swept(self, tmp_path):
        # $REPRO_CACHE_DIR pointed at a shared directory (~/.cache, say):
        # subdirectories that aren't version-tag-shaped are not ours and
        # must survive every sweep, idle or not.
        precious = tmp_path / "ssh"
        precious.mkdir()
        (precious / "id_rsa").write_text("irreplaceable")
        _age(precious)
        store = ArtifactStore(root=tmp_path)
        store.put(baked_artifact())
        assert (precious / "id_rsa").read_text() == "irreplaceable"
        assert store.stats()["invalidations"] == 0

    def test_same_version_reopen_invalidates_nothing(self, tmp_path):
        ArtifactStore(root=tmp_path).put(baked_artifact())
        reopened = ArtifactStore(root=tmp_path)
        assert reopened.stats()["invalidations"] == 0
        assert reopened.get(SCHEMA.fingerprint()) is not None

    def test_superseded_tag_in_the_nested_layout_is_swept(self, tmp_path):
        # Tags before art2 filed blobs one directory deeper
        # (<tag>/<kind>/<fp>.art); the sweeper must still reap them and
        # count every blob, while leaving foreign directories alone.
        old_tag = f"pickle{PICKLE_VERSION}-art{ARTIFACT_VERSION - 1}-lib{__version__}"
        nested = tmp_path / old_tag / "compiled"
        nested.mkdir(parents=True)
        for name in ("a", "b"):
            (nested / f"{name}.art").write_bytes(b"old payload")
        precious = tmp_path / "notes"
        (precious / "compiled").mkdir(parents=True)
        (precious / "compiled" / "keep.art").write_text("not ours")
        _age(tmp_path / old_tag)
        _age(precious)
        store = ArtifactStore(root=tmp_path)
        assert store.stats()["invalidations"] == 2
        assert not (tmp_path / old_tag).exists()
        assert (precious / "compiled" / "keep.art").read_text() == "not ours"


class TestEngineLoadThrough:
    def test_memory_miss_store_hit_install(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        store.put(baked_artifact())
        engine = Engine(store=ArtifactStore(root=tmp_path))
        assert engine.warm_from_store(SCHEMA)
        tid = next(t.tid for t in SCHEMA if not t.is_atomic)
        engine.compiled_content(SCHEMA, tid)
        kind = engine.stats().by_kind["compiled-content"]
        assert kind.hits > 0 and kind.misses == 0

    def test_memory_hit_short_circuits_the_store(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        engine = Engine(store=store)
        prewarm_schema(engine, SCHEMA)
        assert engine.warm_from_store(SCHEMA)  # already resident
        assert store.stats()["hits"] == 0 and store.stats()["misses"] == 0

    def test_cold_engine_without_store_reports_cold(self):
        assert not Engine().warm_from_store(SCHEMA)

    def test_persist_then_warm_round_trip(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        parent = Engine(store=store)
        prewarm_schema(parent, SCHEMA)
        assert parent.persist_to_store(SCHEMA) is not None
        child = Engine(store=ArtifactStore(root=tmp_path))
        assert child.warm_from_store(SCHEMA)


class TestConcurrentPut:
    def test_threads_storing_one_fingerprint_never_collide(self, tmp_path):
        # Regression: the tmp names carried only the pid, so two threads
        # of one process storing the same fingerprint shared a tmp file
        # and the loser's os.replace raised (POST /schemas answered 500).
        store = ArtifactStore(root=tmp_path)
        artifact = baked_artifact()
        data = artifact.to_bytes()
        threads_per_round, rounds = 8, 25
        errors = []

        def writer(barrier):
            barrier.wait(timeout=30)
            try:
                store.put(artifact, data=data)
            except Exception as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                barrier = threading.Barrier(threads_per_round)
                threads = [
                    threading.Thread(target=writer, args=(barrier,))
                    for _ in range(threads_per_round)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert store.get(artifact.fingerprint()) is not None
        assert not [p for p in store.dir.iterdir() if "tmp" in p.suffix]


class TestConcurrentWarmVsRead:
    def test_two_processes_one_cache_dir(self, tmp_path):
        """Two `repro warm` processes race into one directory; every blob
        they leave behind must load cleanly (atomic tmp+rename writes)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        command = [sys.executable, "-m", "repro", "warm", "--generate", "3", "--json"]
        first = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        second = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        assert first.wait(timeout=120) == 0
        assert second.wait(timeout=120) == 0
        store = ArtifactStore(root=tmp_path)
        fingerprints = store.fingerprints()
        assert len(fingerprints) == 3
        for fingerprint in fingerprints:
            assert store.get(fingerprint) is not None
        assert store.stats()["corrupt"] == 0
