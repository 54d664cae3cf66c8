"""The typed-query daemon: the paper's decision problems over HTTP/JSON.

Stdlib only.  :class:`ServiceState` is the transport-independent core —
``handle(method, path, body)`` maps a request to ``(status, envelope)``
— and :class:`TypedQueryService` wraps it in a ``ThreadingHTTPServer``
(one thread per connection, daemon threads, so a hung computation never
blocks ``/healthz``).

Endpoints (all bodies and responses are JSON envelopes, see
``docs/service.md`` for the full reference):

====================  =====================================================
``POST /schemas``     register ScmDL/DTD text; returns the fingerprint
                      handle and pre-warms the schema's engine
``GET /schemas``      list resident schemas
``DELETE /schemas/F`` unregister fingerprint ``F`` (registry entry and
                      stored artifact)
``POST /schemas/F/migrate``  analyze a candidate schema against ``F``'s
                      registered queries-of-record and atomically swap
                      the entry when the report meets ``policy``
``GET /schemas/F/history``   the entry's bounded version chain
``POST /satisfiable`` Section 3.1 type correctness
``POST /check``       Section 3.2/3.3 partial (or total) type checking
``POST /infer``       Section 3.3 type inference
``POST /feedback``    Section 4.1 feedback query
``POST /classify``    Table-2 complexity cell
``POST /validate``    Definition 2.1 conformance of a data graph
``POST /evaluate``    Definition 2.3 query evaluation on a data graph
``POST /batch``       one operation over many items under one
                      fingerprint, fanned over the schema's shared
                      engine (see :mod:`repro.batch`)
``GET /healthz``      liveness (never touches the registry lock)
``GET /stats``        service metrics + registry + engine cache counters
====================  =====================================================

Every decision endpoint accepts a registered ``fingerprint`` plus the
query/data payload and an optional per-request ``deadline`` in seconds;
deadline overruns answer a structured 503 ``timeout`` envelope and the
abandoned computation is cancelled at its next checkpoint (see
:mod:`repro.service.limits`).

Module-scope imports cover exactly what the default-mix handlers need
(``/schemas``, ``/satisfiable``, ``/check``, ``/infer``, ``/evaluate``,
``/validate``), so no such request pays a first import; XML bodies,
``/classify``, witnesses, ``/feedback``, ``/batch`` and ``/migrate``
import their code on first use.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

from ..data import parse_data
from ..query import evaluate, parse_query
from ..schema import find_type_assignment
from ..typing import check_total_types, check_types, is_satisfiable
from ..typing.inference import iterate_inferred_types
from .envelope import (
    ServiceError,
    as_service_error,
    error_envelope,
    ok_envelope,
    parse_content_length,
    positive_int_field,
)
from .limits import DeadlineRunner, ServiceLimits
from .metrics import ServiceMetrics
from .registry import RegisteredSchema, SchemaRegistry

#: Decision endpoints: path suffix -> handler method name on ServiceState.
_POST_ENDPOINTS = (
    "schemas",
    "satisfiable",
    "check",
    "infer",
    "feedback",
    "classify",
    "validate",
    "evaluate",
    "batch",
)


def _require(body: Dict[str, Any], field: str, kind: type = str) -> Any:
    value = body.get(field)
    if not isinstance(value, kind) or (kind is str and not value):
        article = "a" if kind is not int else "an"
        raise ServiceError(
            f"request must carry {article} {kind.__name__} field {field!r}",
            code="bad-request",
        )
    return value


class ServiceState:
    """Registry + limits + metrics, and the endpoint dispatch over them."""

    def __init__(
        self,
        registry: Optional[SchemaRegistry] = None,
        limits: Optional[ServiceLimits] = None,
        metrics: Optional[ServiceMetrics] = None,
    ):
        self.registry = registry if registry is not None else SchemaRegistry()
        self.limits = limits if limits is not None else ServiceLimits()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.runner = DeadlineRunner(self.limits)
        self.metrics.mark_started(time.time())

    # ------------------------------------------------------------------
    # Transport-independent dispatch
    # ------------------------------------------------------------------

    def handle(self, method: str, path: str, body: bytes) -> Tuple[int, dict]:
        """One request in, ``(http_status, envelope)`` out.

        Never raises: every failure is rendered as an error envelope.
        Also records the request in the service metrics.
        """
        path = path.split("?", 1)[0].rstrip("/") or "/"
        command = f"{method} {path}"
        started = time.perf_counter()
        try:
            status, envelope = self._dispatch(method, path, body)
        except ServiceError as error:
            status, envelope = error.status, error_envelope(command, error)
        except Exception as error:  # noqa: BLE001 — daemon must not die
            mapped = as_service_error(error)
            status, envelope = mapped.status, error_envelope(command, mapped)
        elapsed = time.perf_counter() - started
        envelope.setdefault("meta", {})["elapsed_ms"] = round(elapsed * 1000.0, 3)
        self.metrics.observe(command, status, elapsed)
        return status, envelope

    def _dispatch(self, method: str, path: str, body: bytes) -> Tuple[int, dict]:
        command = f"{method} {path}"
        if path == "/healthz":
            self._check_method(method, "GET", path)
            return 200, ok_envelope(command, self.healthz_payload())
        if path == "/stats":
            self._check_method(method, "GET", path)
            return 200, ok_envelope(command, self.stats_payload())
        if path == "/schemas" and method == "GET":
            return 200, ok_envelope(
                command,
                {"schemas": [entry.describe() for entry in self.registry.entries()]},
            )
        if path.startswith("/schemas/"):
            rest = path[len("/schemas/"):]
            if rest.endswith("/migrate"):
                self._check_method(method, "POST", path)
                fingerprint = rest[: -len("/migrate")]
                payload = self._decode_body(body)
                return 200, ok_envelope(command, self.do_migrate(fingerprint, payload))
            if rest.endswith("/history"):
                self._check_method(method, "GET", path)
                fingerprint = rest[: -len("/history")]
                entry = self.registry.get(fingerprint)
                return 200, ok_envelope(command, entry.describe_history())
            if "/" not in rest:
                self._check_method(method, "DELETE", path)
                evicted = self.registry.evict(rest, purge_store=True)
                if not evicted:
                    raise ServiceError(
                        f"fingerprint {rest!r} is not registered",
                        code="unknown-schema",
                        status=404,
                    )
                self.metrics.record_unregister()
                return 200, ok_envelope(command, {"evicted": rest})
        name = path.lstrip("/")
        if name in _POST_ENDPOINTS:
            self._check_method(method, "POST", path)
            payload = self._decode_body(body)
            handler: Callable[[Dict[str, Any]], dict] = getattr(self, f"do_{name}")
            return 200, ok_envelope(command, handler(payload))
        raise ServiceError(
            f"no such endpoint: {path}", code="not-found", status=404
        )

    @staticmethod
    def _check_method(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise ServiceError(
                f"{path} only supports {expected}",
                code="method-not-allowed",
                status=405,
            )

    def _decode_body(self, body: bytes) -> Dict[str, Any]:
        self.limits.check_body_size(len(body))
        if not body:
            raise ServiceError("request body must be a JSON object", code="bad-request")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(
                f"request body is not valid JSON: {error}", code="bad-request"
            ) from None
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object", code="bad-request")
        return payload

    # ------------------------------------------------------------------
    # Shared request plumbing
    # ------------------------------------------------------------------

    def _entry(self, body: Dict[str, Any]) -> RegisteredSchema:
        return self.registry.get(body.get("fingerprint"))

    def _query(self, body: Dict[str, Any]):
        return parse_query(_require(body, "query"))

    def _graph(self, body: Dict[str, Any]):
        if isinstance(body.get("xml"), str):
            from ..data import from_xml

            return from_xml(body["xml"])
        if isinstance(body.get("data"), str):
            return parse_data(body["data"])
        raise ServiceError(
            "request must carry a data graph: 'data' (Table-1 text) or 'xml'",
            code="bad-request",
        )

    def _pins(self, body: Dict[str, Any], field: str = "pins") -> Dict[str, str]:
        pins = body.get(field) or {}
        if not isinstance(pins, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in pins.items()
        ):
            raise ServiceError(
                f"{field!r} must map variable names to type/label strings",
                code="bad-request",
            )
        return pins

    def _deadlined(self, body: Dict[str, Any], fn: Callable[[], Any]) -> Any:
        deadline = self.limits.clamp_deadline(body.get("deadline"))
        return self.runner.call(fn, deadline)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def do_schemas(self, body: Dict[str, Any]) -> dict:
        text = _require(body, "schema")
        syntax = body.get("syntax", "scmdl")
        if not isinstance(syntax, str):
            raise ServiceError("'syntax' must be a string", code="bad-request")
        wrap = bool(body.get("wrap", False))
        entry = self.registry.register(text, syntax=syntax, wrap=wrap)
        description = entry.describe()
        description["resident"] = len(self.registry)
        return description

    def do_satisfiable(self, body: Dict[str, Any]) -> dict:
        entry = self._entry(body)
        text = _require(body, "query")
        pins = self._pins(body)
        # Validate the deadline even when the memo will answer: request
        # validation must not depend on what earlier requests cached.
        deadline = self.limits.clamp_deadline(body.get("deadline"))
        # The verdict is a pure function of (schema, query, pins), and the
        # entry is immutable for the fingerprint's lifetime — memoize it so
        # a repeated warm request is one dict lookup, not a full automata
        # walk re-entering the engine cache hundreds of times.
        verdict = entry.cached_decision(
            ("satisfiable", text, tuple(sorted(pins.items()))),
            lambda: bool(
                self.runner.call(
                    lambda: is_satisfiable(
                        parse_query(text), entry.schema, pins or None, entry.engine
                    ),
                    deadline,
                )
            ),
            wait_s=deadline,
        )
        result = {"satisfiable": verdict, "fingerprint": entry.fingerprint}
        if verdict and body.get("witness"):
            from ..data import data_to_string
            from ..typing import WitnessError, find_witness

            def build_witness() -> dict:
                try:
                    witness = find_witness(parse_query(text), entry.schema, entry.engine)
                except WitnessError as error:
                    return {"witness": None, "witness_error": str(error)}
                return {"witness": data_to_string(witness) if witness is not None else None}

            # Witness construction searches the schema's content automata
            # and can run long: it gets its own deadline-bound slot.
            result.update(self.runner.call(build_witness, deadline))
        return result

    def do_check(self, body: Dict[str, Any]) -> dict:
        entry = self._entry(body)
        query = self._query(body)
        assignment = self._pins(body, "assignment")
        total = bool(body.get("total", False))
        checker = check_total_types if total else check_types
        try:
            verdict = self._deadlined(
                body, lambda: checker(query, entry.schema, assignment, entry.engine)
            )
        except ValueError as error:
            # check_types/check_total_types validate the assignment shape.
            raise ServiceError(str(error), code="bad-request") from None
        return {
            "well_typed": bool(verdict),
            "total": total,
            "fingerprint": entry.fingerprint,
        }

    def do_infer(self, body: Dict[str, Any]) -> dict:
        entry = self._entry(body)
        text = _require(body, "query")
        pins = self._pins(body)
        limit = positive_int_field(body, "limit")
        # Validated up front so a memo hit cannot mask a bad deadline.
        deadline = self.limits.clamp_deadline(body.get("deadline"))

        def compute() -> dict:
            query = parse_query(text)

            def run() -> list:
                assignments = []
                for pins_out in iterate_inferred_types(
                    query, entry.schema, pins or None, entry.engine
                ):
                    assignments.append(dict(pins_out))
                    if limit is not None and len(assignments) >= limit:
                        break
                return assignments

            assignments = self.runner.call(run, deadline)
            return {
                "assignments": assignments,
                "count": len(assignments),
                "truncated": limit is not None and len(assignments) == limit,
            }

        # Inference enumerates |select| x |domain| satisfiability calls,
        # each re-entering the engine cache — the warm/cold gap was only
        # 1.4x because of it.  The full result is pure per entry; memoize.
        result = dict(
            entry.cached_decision(
                ("infer", text, tuple(sorted(pins.items())), limit),
                compute,
                wait_s=deadline,
            )
        )
        result["fingerprint"] = entry.fingerprint
        return result

    def do_feedback(self, body: Dict[str, Any]) -> dict:
        from ..apps import UnsatisfiableQueryError, feedback_query
        from ..query import query_to_string

        entry = self._entry(body)
        query = self._query(body)

        def run() -> dict:
            try:
                tightened = feedback_query(query, entry.schema, entry.engine)
            except UnsatisfiableQueryError as error:
                return {"satisfiable": False, "query": None, "reason": str(error)}
            except ValueError as error:
                raise ServiceError(str(error), code="unsupported", status=422) from None
            return {"satisfiable": True, "query": query_to_string(tightened)}

        result = self._deadlined(body, run)
        result["fingerprint"] = entry.fingerprint
        return result

    def do_classify(self, body: Dict[str, Any]) -> dict:
        from ..typing import classify

        entry = self._entry(body)
        query = self._query(body)
        cell = classify(query, entry.schema)
        result = dataclasses.asdict(cell)
        result["polynomial"] = cell.polynomial
        result["fingerprint"] = entry.fingerprint
        return result

    def do_validate(self, body: Dict[str, Any]) -> dict:
        entry = self._entry(body)
        graph = self._graph(body)
        assignment = self._deadlined(
            body, lambda: find_type_assignment(graph, entry.schema, entry.engine)
        )
        return {
            "valid": assignment is not None,
            "assignment": dict(assignment) if assignment is not None else None,
            "fingerprint": entry.fingerprint,
        }

    def do_evaluate(self, body: Dict[str, Any]) -> dict:
        query = self._query(body)
        graph = self._graph(body)
        limit = positive_int_field(body, "limit")
        entry = None
        if body.get("fingerprint") is not None:
            entry = self._entry(body)

        def run() -> dict:
            engine = entry.engine if entry is not None else None
            result: Dict[str, Any] = {
                "bindings": evaluate(query, graph, limit=limit, engine=engine),
            }
            if entry is not None:
                result["conforms"] = (
                    find_type_assignment(graph, entry.schema, entry.engine) is not None
                )
                result["fingerprint"] = entry.fingerprint
            return result

        result = self._deadlined(body, run)
        result["count"] = len(result["bindings"])
        return result

    def do_batch(self, body: Dict[str, Any]) -> dict:
        # Imported lazily: repro.batch imports service submodules, so a
        # module-level import here would close an import cycle through
        # the package __init__.
        from ..batch import OPERATIONS, run_items_shared, summarize

        entry = self._entry(body)
        operation = _require(body, "operation")
        if operation not in OPERATIONS:
            raise ServiceError(
                f"unknown batch operation {operation!r} "
                f"(expected one of {', '.join(OPERATIONS)})",
                code="bad-request",
            )
        items = body.get("items")
        if not isinstance(items, list) or not items:
            raise ServiceError(
                "'items' must be a non-empty JSON array", code="bad-request"
            )
        if len(items) > self.limits.max_batch_items:
            raise ServiceError(
                f"batch of {len(items)} items exceeds the "
                f"{self.limits.max_batch_items}-item cap",
                code="payload-too-large",
                status=413,
                detail={"items": len(items), "limit": self.limits.max_batch_items},
            )
        started = time.perf_counter()
        # The whole batch runs under ONE deadline and occupies ONE
        # computation slot; its internal fan-out threads share the
        # registry entry's pre-warmed engine.
        results = self._deadlined(
            body,
            lambda: run_items_shared(
                operation,
                entry.schema,
                entry.engine,
                items,
                workers=self.limits.batch_workers,
            ),
        )
        elapsed = time.perf_counter() - started
        summary = summarize(operation, "thread", results, elapsed)
        self.metrics.record_batch(len(results), summary["errors"], elapsed)
        return {
            "results": results,
            "summary": summary,
            "fingerprint": entry.fingerprint,
        }

    def do_migrate(self, fingerprint: str, body: Dict[str, Any]) -> dict:
        """Analyze (and, when the policy accepts, apply) a migration.

        Always answers 200 with ``accepted`` plus the full compatibility
        report — a rejected migration is a successful *analysis*, and the
        caller needs the structured report either way.
        """
        from ..schema.migrate import POLICIES

        text = _require(body, "schema")
        syntax = body.get("syntax", "scmdl")
        if not isinstance(syntax, str):
            raise ServiceError("'syntax' must be a string", code="bad-request")
        wrap = bool(body.get("wrap", False))
        policy = body.get("policy", "compatible")
        if policy not in POLICIES:
            raise ServiceError(
                f"unknown policy {policy!r} "
                f"(expected one of {', '.join(POLICIES)})",
                code="bad-request",
            )
        queries = body.get("queries") or []
        if not isinstance(queries, list) or not all(
            isinstance(query, str) for query in queries
        ):
            raise ServiceError(
                "'queries' must be a JSON array of query strings",
                code="bad-request",
            )
        entry, report = self._deadlined(
            body,
            lambda: self.registry.migrate(
                fingerprint,
                text,
                syntax=syntax,
                wrap=wrap,
                queries=tuple(queries),
                policy=policy,
            ),
        )
        self.metrics.record_migration(
            report.accepted, len(report.queries), report.counts.get("breaks", 0)
        )
        return {
            "accepted": report.accepted,
            "fingerprint": fingerprint,
            "new_fingerprint": entry.fingerprint,
            "version": entry.version,
            "compatibility": report.compatibility,
            "report": report.to_dict(),
            "resident": len(self.registry),
        }

    # ------------------------------------------------------------------
    # Introspection payloads
    # ------------------------------------------------------------------

    def healthz_payload(self) -> dict:
        started = self.metrics.started_at()
        return {
            "status": "ok",
            "uptime_s": round(time.time() - started, 3) if started else 0.0,
            "resident_schemas": len(self.registry),
        }

    def stats_payload(self) -> dict:
        """Service metrics merged with registry + engine cache counters."""
        return {
            "service": self.metrics.snapshot(),
            "limits": self.runner.stats(),
            "registry": self.registry.stats(),
        }


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP adapter over :meth:`ServiceState.handle`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-typed-query/1"
    #: Responses are one small write after a tiny request; with Nagle on,
    #: every keep-alive roundtrip eats a ~40ms delayed-ACK stall.
    disable_nagle_algorithm = True

    def _respond(self, method: str) -> None:
        state = self.server.state  # type: ignore[attr-defined]
        try:
            length = parse_content_length(self.headers.get("Content-Length"))
            state.limits.check_body_size(length)
        except ServiceError as error:
            # Refuse to read the body at all: a malformed or oversized
            # Content-Length means the connection's framing cannot be
            # trusted, so answer a structured error and close it.
            self.close_connection = True
            status, envelope = error.status, error_envelope(
                f"{method} {self.path}", error
            )
        else:
            body = self.rfile.read(length) if length else b""
            status, envelope = state.handle(method, self.path, body)
        payload = json.dumps(envelope).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        self._respond("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._respond("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._respond("DELETE")

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # type: ignore[attr-defined]
            super().log_message(format, *args)


class TypedQueryService:
    """The long-running server: a ``ThreadingHTTPServer`` over one state.

    Usable three ways: :meth:`serve_forever` (blocking, the CLI path),
    :meth:`start` / :meth:`shutdown` (background thread, the test and
    benchmark path), or as a context manager wrapping the latter.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[SchemaRegistry] = None,
        limits: Optional[ServiceLimits] = None,
        verbose: bool = False,
    ):
        self.state = ServiceState(registry=registry, limits=limits)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.state = self.state  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._httpd.server_close()

    def start(self) -> "TypedQueryService":
        """Serve on a background daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
            name="repro-service",
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TypedQueryService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


def serve(
    host: str = "127.0.0.1",
    port: int = 8421,
    registry: Optional[SchemaRegistry] = None,
    limits: Optional[ServiceLimits] = None,
    verbose: bool = False,
) -> None:
    """Blocking entry point used by ``repro serve``."""
    service = TypedQueryService(
        host=host, port=port, registry=registry, limits=limits, verbose=verbose
    )
    print(f"typed-query service listening on {service.address}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
