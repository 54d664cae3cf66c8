"""Content tables compiled from regex positions equal the Thompson route's.

``prewarm`` compiles every content model straight from its regex
(:func:`repro.automata.compiled.compile_regex`).  On every collection
type of the ten domain schemas, the prewarmed ``compiled-content`` and
``compiled-content-restricted`` tables must equal, field for field,
``compile_nfa`` of the engine's Thompson content NFAs — the route they
replaced, kept as the reference.
"""

import pytest

from repro.automata.compiled import compile_nfa
from repro.engine import Engine
from repro.schema import parse_schema
from repro.service import prewarm
from repro.workloads import domain_corpus


def _table(dfa):
    return (dfa.symbols, dfa.columns, dfa.n_states, dfa.start, dfa.table, dfa.accepting)


@pytest.mark.parametrize("seed", [0, 1])
def test_every_domain_content_table_equals_the_thompson_route(seed):
    corpora = domain_corpus(seed=seed)
    assert len(corpora) == 10
    checked = 0
    for corpus in corpora:
        schema = parse_schema(corpus.schema_text)
        engine = Engine()
        prewarm(schema, engine)
        for type_def in schema:
            if type_def.is_atomic:
                continue
            tid = type_def.tid
            content = engine.compiled_content(schema, tid)
            restricted = engine.compiled_restricted_content(schema, tid)
            assert _table(content) == _table(compile_nfa(engine.content_nfa(schema, tid))), (
                corpus.name, tid
            )
            assert _table(restricted) == _table(
                compile_nfa(engine.restricted_content_nfa(schema, tid))
            ), (corpus.name, tid)
            checked += 1
    assert checked >= 10
