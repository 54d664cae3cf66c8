"""``repro serve`` loads only its serving path.

Start-up cost of a served process is mostly import time: with bytecode
writing disabled every imported module is compiled from source on every
spawn.  These tests run a fresh interpreter and pin which modules the
serving paths load (see "Import layering" in ``docs/architecture.md``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Never needed to start the threaded tier or to answer its default mix.
NOT_AT_STARTUP = (
    "asyncio",
    "repro.service.pool",
    "repro.service.client",
    "repro.schema.delta",
    "repro.schema.migrate",
    "repro.typing.witness",
    "repro.query.xmlql",
    "repro.data.dot",
    "repro.automata.dfa",
)

#: What ``repro serve`` (threaded tier) imports before it binds its port.
SERVE_IMPORTS = """
import repro.cli
from repro.service import SchemaRegistry, ServiceLimits, serve
"""

SCHEMA = (
    "DOCUMENT = [(paper -> PAPER)*]; PAPER = [title -> TITLE . (author -> AUTHOR)*];"
    " AUTHOR = string; TITLE = string"
)
DATA = 'o1 = [paper -> o2]; o2 = [title -> o3, author -> o4]; o3 = "Types"; o4 = "Milo"'
QUERY = "SELECT X WHERE Root = [paper.title -> X]"


def _loaded_after(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; it prints a JSON object."""
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_threaded_serve_startup_skips_unused_modules():
    loaded = _loaded_after(
        SERVE_IMPORTS
        + "import json, sys\n"
        + f"print(json.dumps(sorted(m for m in {NOT_AT_STARTUP!r} if m in sys.modules)))\n"
    )
    assert loaded == []


def test_default_mix_requests_import_nothing_new():
    """After start-up and one registration, the default-mix endpoints
    answer without a first import on the request path."""
    script = SERVE_IMPORTS + f"""
import json, sys
from repro.service.daemon import ServiceState

state = ServiceState(registry=SchemaRegistry())

def post(path, payload):
    status, envelope = state.handle("POST", path, json.dumps(payload).encode())
    assert status == 200, (path, envelope)
    return envelope["result"]

fp = post("/schemas", {{"schema": {SCHEMA!r}}})["fingerprint"]
before = set(sys.modules)
post("/satisfiable", {{"fingerprint": fp, "query": {QUERY!r}}})
post("/check", {{"fingerprint": fp, "query": {QUERY!r}, "assignment": {{"X": "TITLE"}}}})
post("/infer", {{"fingerprint": fp, "query": {QUERY!r}}})
post("/evaluate", {{"fingerprint": fp, "query": {QUERY!r}, "data": {DATA!r}}})
post("/validate", {{"fingerprint": fp, "data": {DATA!r}}})
state.handle("GET", "/schemas", b"")
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("repro"))))
"""
    assert _loaded_after(script) == []


def test_first_batch_request_loads_only_the_batch_package():
    """``/batch`` (one tenth of the replay default mix) imports its code
    on first use; that must stay the batch package alone, not the process
    executor's multiprocessing stack, or the first ``/batch`` of every
    serving process misses a 50 ms latency target."""
    script = SERVE_IMPORTS + f"""
import json, sys
from repro.service.daemon import ServiceState

state = ServiceState(registry=SchemaRegistry())
status, envelope = state.handle("POST", "/schemas", json.dumps({{"schema": {SCHEMA!r}}}).encode())
fp = envelope["result"]["fingerprint"]
before = set(sys.modules)
status, envelope = state.handle("POST", "/batch", json.dumps({{
    "fingerprint": fp, "operation": "satisfiable", "items": [{{"query": {QUERY!r}}}],
}}).encode())
assert status == 200, envelope
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    assert _loaded_after(script) == ["repro.batch", "repro.batch.executors", "repro.batch.plan"]


def test_pool_frontend_skips_the_decision_stack():
    loaded = _loaded_after(
        """
import json, sys
import repro.service.pool
print(json.dumps(sorted(m for m in ("repro.service.daemon", "repro.typing", "repro.engine")
                        if m in sys.modules)))
"""
    )
    assert loaded == []


def test_pool_worker_skips_asyncio():
    """A ``spawn``-started worker re-imports the module of its entry
    point; that module must not pull in the frontend's asyncio edge."""
    loaded = _loaded_after(
        """
import json, sys
import repro.service.worker
from repro.service.daemon import ServiceState
from repro.service.registry import SchemaRegistry
print(json.dumps("asyncio" in sys.modules))
"""
    )
    assert loaded is False
