"""Bulk-decision plans: one compiled schema, many inputs, one operation.

A :class:`BatchPlan` is the unit of corpus-scale work: the schema text is
parsed and pre-warmed **once** (per process, per worker), and every item
then pays only its own decision — the per-call process/request overhead
that dominates one-shot CLI and HTTP usage of the paper's PTIME
algorithms disappears.  The plan carries:

* ``operation`` — one decision procedure from Section 3 / Definition 2.x
  of Milo & Suciu (see :data:`OPERATIONS`);
* ``schema_text`` — ScmDL or DTD source, compiled once per executor
  worker (``evaluate`` is the one schema-optional operation);
* ``items`` — JSON objects, one decision each, with operation-specific
  fields mirroring the service endpoints (``query``, ``data``/``xml``,
  ``pins``, ``assignment``, ``limit``, ``total``).

Per-item failures are **isolated**: :func:`item_envelope` renders every
outcome as ``{"index", "ok", "result", "error"}`` using the same error
codes as the service envelopes, so one malformed input never fails the
batch.  :func:`summarize` aggregates the envelopes into the summary the
CLI prints and the benchmark records.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..data import from_xml, parse_data
from ..engine import Engine
from ..query import evaluate, parse_query
from ..schema import Schema, find_type_assignment, parse_dtd, parse_schema
from ..service.envelope import ServiceError, as_service_error, positive_int_field
from ..service.registry import prewarm
from ..typing import check_total_types, check_types, classify, is_satisfiable
from ..typing.inference import iterate_inferred_types

#: The decision procedures a batch may run, one per plan.
OPERATIONS: Tuple[str, ...] = (
    "conforms",
    "satisfiable",
    "check",
    "infer",
    "classify",
    "evaluate",
)

#: Marker key :func:`read_ndjson` plants on lines that were not valid
#: JSON — the item then fails with a per-item ``bad-request`` envelope
#: instead of aborting the whole batch.
MALFORMED_KEY = "__malformed__"


@dataclass(frozen=True)
class BatchPlan:
    """One operation over many items against one (optional) schema.

    Raises:
        ValueError: on an unknown operation, an empty item list, or a
            missing schema for a schema-requiring operation (``evaluate``
            is the only operation that may run schema-less).
    """

    operation: str
    items: Tuple[Any, ...]
    schema_text: Optional[str] = None
    syntax: str = "scmdl"
    wrap: bool = False

    def __post_init__(self) -> None:
        if self.operation not in OPERATIONS:
            raise ValueError(
                f"unknown batch operation {self.operation!r} "
                f"(expected one of {', '.join(OPERATIONS)})"
            )
        if not self.items:
            raise ValueError("a batch plan needs at least one item")
        if self.schema_text is None and self.operation != "evaluate":
            raise ValueError(
                f"operation {self.operation!r} needs a schema "
                f"('evaluate' is the only schema-optional operation)"
            )
        if self.syntax not in ("scmdl", "dtd"):
            raise ValueError(
                f"unknown schema syntax {self.syntax!r} (expected 'scmdl' or 'dtd')"
            )

    def compile(self) -> Tuple[Optional[Schema], Engine]:
        """Parse the schema and pre-warm a fresh engine for it.

        This is the once-per-plan cost every item then shares; the
        process executor runs it in the parent and ships the captured
        compiled artifacts to its workers (see
        :func:`repro.batch.executors.run_items_process`).
        """
        return compile_schema(self.schema_text, self.syntax, self.wrap)

    def parse_schema_only(self) -> Optional[Schema]:
        """Parse (without pre-warming) to surface syntax errors early —
        used before shipping the text to pool workers, where a parse
        failure would surface as an opaque broken-pool error."""
        if self.schema_text is None:
            return None
        if self.syntax == "dtd":
            return parse_dtd(self.schema_text, wrap=self.wrap)
        return parse_schema(self.schema_text)


def compile_schema(
    schema_text: Optional[str],
    syntax: str = "scmdl",
    wrap: bool = False,
) -> Tuple[Optional[Schema], Engine]:
    """Parse ``schema_text`` and pre-warm a dedicated engine for it."""
    engine = Engine()
    if schema_text is None:
        return None, engine
    if syntax == "dtd":
        schema = parse_dtd(schema_text, wrap=wrap)
    else:
        schema = parse_schema(schema_text)
    prewarm(schema, engine)
    return schema, engine


# ----------------------------------------------------------------------
# Per-item execution
# ----------------------------------------------------------------------


def run_item(
    operation: str, schema: Optional[Schema], engine: Engine, item: Any
) -> dict:
    """Run one decision; returns the operation's result payload.

    Raises :class:`ServiceError` (or a parse error) on a bad item — the
    caller maps it to a per-item error envelope.
    """
    if operation not in OPERATIONS:
        raise ServiceError(
            f"unknown batch operation {operation!r}", code="bad-request"
        )
    if not isinstance(item, dict):
        raise ServiceError("batch item must be a JSON object", code="bad-request")
    if MALFORMED_KEY in item:
        raise ServiceError(
            f"item is not valid JSON: {item[MALFORMED_KEY]}", code="bad-request"
        )
    if schema is None and operation != "evaluate":
        raise ServiceError(
            f"operation {operation!r} needs a schema", code="bad-request"
        )
    return _HANDLERS[operation](schema, engine, item)


def _string_field(item: Dict[str, Any], field: str) -> str:
    value = item.get(field)
    if not isinstance(value, str) or not value:
        raise ServiceError(
            f"item must carry a string field {field!r}", code="bad-request"
        )
    return value


def _pins_field(item: Dict[str, Any], field: str = "pins") -> Dict[str, str]:
    pins = item.get(field) or {}
    if not isinstance(pins, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in pins.items()
    ):
        raise ServiceError(
            f"{field!r} must map variable names to type/label strings",
            code="bad-request",
        )
    return pins


def _graph_field(item: Dict[str, Any]):
    if isinstance(item.get("xml"), str):
        return from_xml(item["xml"])
    if isinstance(item.get("data"), str):
        return parse_data(item["data"])
    raise ServiceError(
        "item must carry a data graph: 'data' (Table-1 text) or 'xml'",
        code="bad-request",
    )


def _op_conforms(schema: Schema, engine: Engine, item: Dict[str, Any]) -> dict:
    graph = _graph_field(item)
    assignment = find_type_assignment(graph, schema, engine)
    return {
        "valid": assignment is not None,
        "assignment": dict(assignment) if assignment is not None else None,
    }


def _op_satisfiable(schema: Schema, engine: Engine, item: Dict[str, Any]) -> dict:
    query = parse_query(_string_field(item, "query"))
    pins = _pins_field(item)
    return {"satisfiable": bool(is_satisfiable(query, schema, pins or None, engine))}


def _op_check(schema: Schema, engine: Engine, item: Dict[str, Any]) -> dict:
    query = parse_query(_string_field(item, "query"))
    assignment = _pins_field(item, "assignment")
    total = item.get("total", False)
    if not isinstance(total, bool):
        raise ServiceError("'total' must be a boolean", code="bad-request")
    checker = check_total_types if total else check_types
    try:
        verdict = checker(query, schema, assignment, engine)
    except ValueError as error:
        # check_types/check_total_types validate the assignment shape.
        raise ServiceError(str(error), code="bad-request") from None
    return {"well_typed": bool(verdict), "total": total}


def _op_infer(schema: Schema, engine: Engine, item: Dict[str, Any]) -> dict:
    query = parse_query(_string_field(item, "query"))
    pins = _pins_field(item)
    limit = positive_int_field(item, "limit")
    assignments: List[dict] = []
    for pins_out in iterate_inferred_types(query, schema, pins or None, engine):
        assignments.append(dict(pins_out))
        if limit is not None and len(assignments) >= limit:
            break
    return {
        "assignments": assignments,
        "count": len(assignments),
        "truncated": limit is not None and len(assignments) == limit,
    }


def _op_classify(schema: Schema, engine: Engine, item: Dict[str, Any]) -> dict:
    cell = classify(parse_query(_string_field(item, "query")), schema)
    result = dataclasses.asdict(cell)
    result["polynomial"] = cell.polynomial
    return result


def _op_evaluate(
    schema: Optional[Schema], engine: Engine, item: Dict[str, Any]
) -> dict:
    query = parse_query(_string_field(item, "query"))
    graph = _graph_field(item)
    limit = positive_int_field(item, "limit")
    bindings = evaluate(query, graph, limit=limit, engine=engine)
    return {"bindings": bindings, "count": len(bindings)}


_HANDLERS = {
    "conforms": _op_conforms,
    "satisfiable": _op_satisfiable,
    "check": _op_check,
    "infer": _op_infer,
    "classify": _op_classify,
    "evaluate": _op_evaluate,
}


def item_envelope(
    index: int,
    operation: str,
    schema: Optional[Schema],
    engine: Engine,
    item: Any,
) -> dict:
    """One item's outcome as a JSON-able ``ok``/``error`` envelope."""
    try:
        result = run_item(operation, schema, engine, item)
    except Exception as exc:  # noqa: BLE001 — per-item isolation
        error = as_service_error(exc)
        return {"index": index, "ok": False, "result": None, "error": error.to_error()}
    return {"index": index, "ok": True, "result": result, "error": None}


# ----------------------------------------------------------------------
# Aggregation and NDJSON framing
# ----------------------------------------------------------------------


def summarize(
    operation: str, executor: str, results: List[dict], elapsed_s: float
) -> dict:
    """The aggregate the CLI prints and ``bench_batch`` records."""
    error_codes: Dict[str, int] = {}
    for envelope in results:
        if not envelope["ok"]:
            code = envelope["error"]["code"]
            error_codes[code] = error_codes.get(code, 0) + 1
    errors = sum(error_codes.values())
    return {
        "operation": operation,
        "executor": executor,
        "items": len(results),
        "ok": len(results) - errors,
        "errors": errors,
        "error_codes": error_codes,
        "elapsed_s": round(elapsed_s, 6),
        "items_per_s": round(len(results) / elapsed_s, 2) if elapsed_s > 0 else None,
    }


def read_ndjson(text: str) -> List[Any]:
    """Parse NDJSON input: one JSON value per line, blank lines skipped.

    Lines that fail to parse become marker items (:data:`MALFORMED_KEY`)
    so they surface as per-item ``bad-request`` envelopes rather than
    failing the batch — the error-isolation contract.
    """
    items: List[Any] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            items.append(json.loads(line))
        except json.JSONDecodeError as error:
            items.append({MALFORMED_KEY: str(error)})
    return items


def results_to_ndjson(results: List[dict]) -> str:
    """Render per-item envelopes as NDJSON (one envelope per line)."""
    return "".join(json.dumps(envelope) + "\n" for envelope in results)
