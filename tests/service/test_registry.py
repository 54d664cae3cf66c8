"""Concurrency tests for the schema registry — and for the daemon's
counters under parallel traffic.

The registry is the service's shared mutable core; these tests hammer it
from many threads (registering, evicting, and querying the same schemas)
and assert the two properties the threaded server depends on: no lost
updates (every thread sees a usable entry; residency never exceeds the
bound) and exact counters (`/stats` reconciles with the request volume).
"""

import threading

import pytest

from repro.service import (
    SchemaRegistry,
    ServiceClient,
    TypedQueryService,
    UnknownSchemaError,
)

SCHEMAS = [
    f"T{i} = [(a{i} -> A{i})*]; A{i} = string" for i in range(6)
]

QUERY_FOR = {i: f"SELECT X WHERE Root = [a{i} -> X]" for i in range(6)}


def _fingerprints(registry):
    return [entry.fingerprint for entry in registry.entries()]


class TestRegistryBasics:
    def test_register_get_evict_roundtrip(self):
        registry = SchemaRegistry()
        entry = registry.register(SCHEMAS[0])
        assert registry.get(entry.fingerprint) is entry
        assert entry.fingerprint in registry
        assert registry.evict(entry.fingerprint)
        with pytest.raises(UnknownSchemaError):
            registry.get(entry.fingerprint)

    def test_reregistration_reuses_compiled_entry(self):
        registry = SchemaRegistry()
        first = registry.register(SCHEMAS[0])
        second = registry.register(SCHEMAS[0])
        assert first is second
        stats = registry.stats()
        assert stats["registered"] == 1
        assert stats["reregistered"] == 1

    def test_lru_bound_evicts_least_recently_used(self):
        registry = SchemaRegistry(max_schemas=2)
        a = registry.register(SCHEMAS[0])
        b = registry.register(SCHEMAS[1])
        registry.get(a.fingerprint)  # refresh a; b is now LRU
        c = registry.register(SCHEMAS[2])
        assert set(_fingerprints(registry)) == {a.fingerprint, c.fingerprint}
        assert registry.stats()["evicted"] == 1

    def test_prewarm_populates_engine(self):
        registry = SchemaRegistry()
        entry = registry.register(SCHEMAS[0])
        kinds = set(entry.engine.stats().by_kind)
        assert {"schema-alphabet", "inhabited", "content-nfa", "reach"} <= kinds
        # The compile pipeline's tables are warmed up front too, so the
        # first request never pays subset construction.
        assert {"compiled-content", "compiled-content-restricted"} <= kinds

    def test_stats_report_each_engines_counters(self):
        registry = SchemaRegistry()
        entry = registry.register(SCHEMAS[0])
        engines = registry.stats()["engines"]
        assert engines[entry.fingerprint]["misses"] == entry.engine.stats().misses


class TestRegistryConcurrency:
    def test_parallel_registration_of_same_schema_is_one_entry(self):
        registry = SchemaRegistry()
        entries = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            entries.append(registry.register(SCHEMAS[0]))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(registry) == 1
        # No lost updates: every thread got the one resident entry's
        # fingerprint, and the counters account for all eight calls.
        assert len({entry.fingerprint for entry in entries}) == 1
        stats = registry.stats()
        assert stats["registered"] == 1
        assert stats["registered"] + stats["reregistered"] == 8

    def test_racing_duplicate_registration_is_counted(self, monkeypatch):
        """Two threads compiling the same fingerprint concurrently: one
        wins, the loser's duplicate compile shows up in register_races.
        A barrier inside prewarm holds both threads in the compile phase
        (outside the lock) until both have passed the fast-path check,
        so the race is deterministic, not scheduler luck."""
        import repro.service.registry as registry_mod

        real_prewarm = registry_mod.prewarm
        barrier = threading.Barrier(2, timeout=10)

        def synced_prewarm(schema, engine):
            barrier.wait()
            return real_prewarm(schema, engine)

        monkeypatch.setattr(registry_mod, "prewarm", synced_prewarm)
        registry = SchemaRegistry()
        entries = []

        def worker():
            entries.append(registry.register(SCHEMAS[0]))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(registry) == 1
        # The loser was handed the winner's entry, not its own duplicate.
        assert entries[0] is entries[1]
        stats = registry.stats()
        assert stats["registered"] == 1
        assert stats["register_races"] == 1
        assert stats["reregistered"] == 1

    def test_register_races_counter_starts_at_zero(self):
        registry = SchemaRegistry()
        registry.register(SCHEMAS[0])
        registry.register(SCHEMAS[0])  # sequential re-register: no race
        stats = registry.stats()
        assert stats["register_races"] == 0
        assert stats["reregistered"] == 1

    def test_register_evict_query_storm(self):
        """N threads registering/evicting/querying the same schema pool:
        residency never exceeds the bound and counters reconcile."""
        registry = SchemaRegistry(max_schemas=4)
        errors = []
        lookups = [0]
        lookup_lock = threading.Lock()
        barrier = threading.Barrier(8)

        def worker(seed):
            barrier.wait()
            try:
                for i in range(30):
                    text = SCHEMAS[(seed + i) % len(SCHEMAS)]
                    entry = registry.register(text)
                    try:
                        found = registry.get(entry.fingerprint)
                        with lookup_lock:
                            lookups[0] += 1
                        assert found.fingerprint == entry.fingerprint
                    except UnknownSchemaError:
                        # A racing eviction beat us; count it and move on.
                        with lookup_lock:
                            lookups[0] += 1
                    if i % 7 == 0:
                        registry.evict(entry.fingerprint)
                    assert len(registry) <= 4
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        stats = registry.stats()
        assert stats["resident"] <= 4
        assert stats["lookups"] == lookups[0]
        assert stats["registered"] + stats["reregistered"] == 8 * 30
        # Every fingerprint still resident has a live, warmed engine.
        for entry in registry.entries():
            assert len(entry.engine.cache) > 0


class TestServiceConcurrency:
    def test_stats_reconcile_with_request_volume(self):
        """Parallel clients hammering one daemon: /stats request counts
        equal the requests actually sent, and every answer is correct."""
        with TypedQueryService() as service:
            client = ServiceClient(service.host, service.port)
            fingerprints = {
                i: client.register_schema(SCHEMAS[i])["fingerprint"]
                for i in range(4)
            }
            per_thread = 20
            n_threads = 6
            failures = []
            barrier = threading.Barrier(n_threads)

            def worker(seed):
                mine = ServiceClient(service.host, service.port)
                barrier.wait()
                try:
                    for i in range(per_thread):
                        idx = (seed + i) % 4
                        result = mine.satisfiable(
                            fingerprints[idx], QUERY_FOR[idx]
                        )
                        assert result["satisfiable"] is True
                except Exception as error:  # pragma: no cover - failure path
                    failures.append(error)

            threads = [
                threading.Thread(target=worker, args=(s,)) for s in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert failures == []
            stats = client.stats()
            satisfiable = stats["service"]["endpoints"]["POST /satisfiable"]
            assert satisfiable["requests"] == n_threads * per_thread
            assert satisfiable["errors"] == 0
            # Registry lookups reconcile: one per satisfiable request.
            assert stats["registry"]["lookups"] == n_threads * per_thread
            # Engine caches only accumulated hits after warmup: each
            # fingerprint's engine saw hits from its repeat requests.
            for fingerprint in fingerprints.values():
                engine = stats["registry"]["engines"][fingerprint]
                assert engine["hits"] > 0
