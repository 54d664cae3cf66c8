"""The package barrels export lazily, and their public API is unchanged.

Every package ``__init__`` maps its public names to the defining
submodule (``_EXPORTS``) and imports that submodule on first access
(PEP 562), so a process loads only the modules its code path touches.
These tests pin the public names each package exported when its barrel
still imported every submodule eagerly.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Each package's ``__all__`` as the eager barrels declared it.
PUBLIC_API = {
    "repro.automata": """
        ANY Alt Any Concat DFA EMPTY EPS EPSILON Empty Epsilon NFA Regex
        Star Sym Symbol alt bag_accepts bag_accepts_regex concat
        concat_nfa determinize equivalent homogeneous_alternatives
        homogeneous_symbol intersect is_subset last_symbols literal_word
        opt parse_regex parse_regex_string plus regex_to_string relabel
        star sym thompson to_regex trim union word
    """,
    "repro.data": """
        AtomicValue DataGraph DataGraphError Edge GraphBuilder Node
        NodeKind XmlElement XmlError data_to_string from_json
        from_plain_json from_xml graph_to_dot parse_data parse_xml
        schema_to_dot to_json to_xml
    """,
    "repro.engine": """
        ARTIFACT_VERSION ArtifactError ArtifactStore CACHE_DIR_ENV_VAR
        CacheStats DEFAULT_MAX_BYTES Engine EngineArtifact EngineCache
        KindStats default_cache_dir get_default_engine prewarm_schema
        set_default_engine version_tag
    """,
    "repro.query": """
        Binding LabelVar PatternArm PatternDef PatternKind Query
        QueryError XmlqlError evaluate iterate_bindings parse_query
        parse_xmlql query_to_string satisfies
    """,
    "repro.schema": """
        ATOMIC_TYPE_NAMES AddType CHANGE_KINDS ChangeAtomicDomain
        ChangeContentModel ChangeEdgeLabel ChangeKind ChangeRoot
        DropType DtdError LabelPredicate MigrationReport POLICIES
        PredicateSchema QUERY_STATUSES QueryReport RenameType Schema
        SchemaChange SchemaDelta SchemaError TypeDef TypeKind VERDICTS
        analyze_migration atomic_matches atomic_types_overlap
        candidate_types compose_verdicts conforms diff_schemas
        expand_for_data expand_for_query find_type_assignment parse_dtd
        parse_schema schema_to_dtd schema_to_string separating_word
        simulation subsumes verify_assignment
    """,
    "repro.service": """
        CompilerPool DeadlineExceeded DeadlineRunner ENVELOPE_VERSION
        ERROR_CODES LATENCY_BUCKETS_MS PayloadTooLarge PoolService
        RegisteredSchema SchemaRegistry ServiceBusy ServiceClient
        ServiceError ServiceLimits ServiceMetrics ServiceResponseError
        ServiceState TypedQueryService UnknownSchemaError WorkerCrashed
        as_service_error error_envelope ok_envelope prewarm serve
        serve_pool shard_of
    """,
    "repro.typing": """
        Classification NonTerm Pins SatisfiabilityChecker SchemaReach
        TraceGrammar WitnessError check_total_types check_types classify
        find_witness flat_satisfiable infer_types inferred_marker_types
        inferred_types_of is_satisfiable iterate_inferred_types marker
        pattern_trace_nfa schema_trace_nfa segment_projection
        segment_regex table2_columns table2_prediction table2_rows
        trace_product
    """,
}


def _names(package):
    return PUBLIC_API[package].split()


@pytest.mark.parametrize("package", sorted(PUBLIC_API))
class TestBarrel:
    def test_public_names_are_unchanged(self, package):
        module = importlib.import_module(package)
        assert sorted(module.__all__) == sorted(_names(package))
        assert sorted(module._EXPORTS) == sorted(module.__all__)

    def test_each_name_is_the_defining_submodule_attribute(self, package):
        module = importlib.import_module(package)
        for name in _names(package):
            defining = importlib.import_module(module._EXPORTS[name], package)
            assert getattr(module, name) is getattr(defining, name), name
            # Resolved once, then cached in the package namespace.
            assert vars(module)[name] is getattr(defining, name), name

    def test_star_import_binds_every_name(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        missing = [name for name in _names(package) if name not in namespace]
        assert not missing

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})

    def test_dir_lists_unresolved_names(self, package):
        listing = dir(importlib.import_module(package))
        assert set(_names(package)) <= set(listing)


def test_concurrent_first_access_yields_one_object():
    """Eight threads resolving the same never-loaded name at once."""
    script = """
import json, threading
import repro.schema as schema
barrier = threading.Barrier(8)
seen = []
def resolve():
    barrier.wait()
    from repro.schema import diff_schemas
    seen.append(id(diff_schemas))
threads = [threading.Thread(target=resolve) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
import repro.schema.delta as delta
print(json.dumps({"ids": len(set(seen)), "calls": len(seen),
                  "same": seen[0] == id(delta.diff_schemas)}))
"""
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == {"ids": 1, "calls": 8, "same": True}


def test_importtime_reports_modules_a_lazy_name_loads():
    """``python -X importtime`` is how start-up cost is read; imports made
    through ``importlib.import_module`` do not show in it, so a lazy name
    must load its module through ``__import__``."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.schema as s; s.diff_schemas"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    reported = {line.split("|")[-1].strip() for line in out.stderr.splitlines()}
    assert "repro.schema.delta" in reported
