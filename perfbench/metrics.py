"""Every metric the benchmark prints, with its unit.

``BENCHMARK.json`` declares the same names; the self-tests hold the two
lists equal.
"""

END_TO_END = {
    "setup_s": "s",
    "slo_share": "share",
    "ok_share": "share",
}

#: Printed by the untraced run beside the end-to-end metrics, with their
#: sample counts, but not in its result line and so not gated: on the
#: shared 2-core host the benchmark was written on, their spread between
#: runs reached the largest bound a gate may have (``fail_share`` is 0
#: on a good run; ``ok_share`` gates it).
REPORTED = {
    "p50_ms": "ms",
    "p90_ms": "ms",
    "p99_ms": "ms",
    "max_rps": "1/s",
    "items_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
    "fail_share": "share",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.sent_share": "share",
    "pool.setup_s": "s",
    "pool.p50_ms": "ms",
    "pool.p90_ms": "ms",
    "pool.p99_ms": "ms",
    "pool.max_rps": "1/s",
    "pool.items_per_s": "1/s",
    "pool.cpu_ms_per_op": "ms",
    "pool.peak_rss_mb": "MiB",
    "pool.loadgen.lag_p99_ms": "ms",
    "pool.loadgen.sent_share": "share",
}

#: Layer self-time shares of the traced stream, by span-name prefix
#: (``engine`` covers ``repro.engine`` and its artifact store).
LAYERS = (
    "edge", "service", "json", "registry", "limits", "parse", "automata",
    "engine", "typing", "eval", "conformance", "delta", "migrate", "batch",
)

PER_LAYER = {
    **{f"share.{layer}": "share" for layer in LAYERS},
    "edge.share": "share",
    "edge.roundtrip_us": "us",
    "edge.roundtrip_p99_us": "us",
    "service.handle_us": "us",
    "service.handle_p99_us": "us",
    "pool.hop_us": "us",
    "json.decode_us": "us",
    "json.encode_us": "us",
    "registry.get_us": "us",
    "registry.register_ms": "ms",
    "registry.register_p99_ms": "ms",
    "registry.evictions": "count",
    "registry.store_hits": "count",
    "registry.register_races": "count",
    "memo.hit_ratio": "ratio",
    "limits.call_overhead_us": "us",
    "limits.timeouts": "count",
    "limits.detached_peak": "count",
    "limits.detached_end": "count",
    "limits.busy": "count",
    "limits.slot_free_ms": "ms",
    "parse.query_us": "us",
    "parse.schema_ms": "ms",
    "automata.thompson_us": "us",
    "automata.compile_ms": "ms",
    "automata.nfa_states": "count",
    "automata.dfa_states": "count",
    "automata.legacy_subset_ms": "ms",
    "automata.legacy_subset_calls": "count",
    "engine.prewarm_ms": "ms",
    "engine.hit_ratio": "ratio",
    "engine.misses": "count",
    "engine.evictions": "count",
    "store.put_ms": "ms",
    "store.get_ms": "ms",
    "store.bytes": "bytes",
    "typing.satisfiable_us": "us",
    "typing.infer_ms": "ms",
    "typing.check_us": "us",
    "eval.evaluate_us": "us",
    "conformance.assign_us": "us",
    "delta.diff_ms": "ms",
    "migrate.analyze_ms": "ms",
    "batch.compile_ms": "ms",
    "batch.item_us": "us",
    "batch.parallel_eff": "ratio",
    "trace.spans": "count",
    "trace.overhead_ms": "ms",
}
