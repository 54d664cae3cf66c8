"""The parse-error contract of the Table-1 parsers.

Every message below, line and column included, is pinned verbatim: the
daemon and the CLI pass these strings through to users unchanged, so a
parser rewrite must reproduce them exactly.
"""

import pytest

from repro.automata.parser import parse_regex_string
from repro.data.parser import parse_data
from repro.lexer import LexError
from repro.query.parser import parse_query
from repro.schema.parser import parse_schema

PARSERS = {
    "schema": parse_schema,
    "regex": parse_regex_string,
    "query": parse_query,
    "data": parse_data,
}

ERRORS = {"SyntaxError": SyntaxError, "LexError": LexError}

CASES = [
    ('schema', 'A = [a->B', 'SyntaxError',
     "expected OP ']', found EOF '' at line 1, column 10"),
    ('schema', 'A=[a->"B"]', 'SyntaxError',
     "expected IDENT, found STRING 'B' at line 1, column 7"),
    ('schema', 'A=[3->B]', 'SyntaxError',
     'expected regex atom, found NUMBER 3 at line 1, column 4'),
    ('schema', 'A = [_->B]', 'SyntaxError',
     "wildcard '_' not allowed here (line 1)"),
    ('schema', 'A = string;; B = int', 'SyntaxError',
     "expected IDENT, found OP ';' at line 1, column 12"),
    ('schema', 'A = [a->B];\nB = [c]', 'SyntaxError',
     "schema atom 'c' must be of the form label->Tid (line 2, column 6)"),
    ('schema', 'A = [a->B . (c->C]', 'SyntaxError',
     "expected OP ')', found OP ']' at line 1, column 18"),
    ('schema', 'A = strin', 'SyntaxError',
     "unknown atomic type 'strin' for 'A' at line 1 (expected one of string, int, float)"),
    ('schema', 'A = [a->B] B = int', 'SyntaxError',
     "unexpected IDENT 'B' at line 1, column 12"),
    ('schema', 'A = [a->B];\n  B = @', 'LexError',
     "unexpected character '@' at line 2, column 7"),
    ('schema', 'A = [(a->B)*|];\nB = int', 'SyntaxError',
     "expected regex atom, found OP ']' at line 1, column 14"),
    ('regex', 'a.(b|c', 'SyntaxError',
     "expected OP ')', found EOF '' at line 1, column 7"),
    ('regex', 'a b', 'SyntaxError',
     "trailing input after regex: IDENT 'b' at line 1, column 3"),
    ('regex', 'a.|b', 'SyntaxError',
     "expected regex atom, found OP '|' at line 1, column 3"),
    ('regex', '(a->b)', 'SyntaxError',
     "expected OP ')', found ARROW '->' at line 1, column 3"),
    ('query', 'SELECT X WHERE ROOT = [paper -> X', 'SyntaxError',
     "expected OP ',', found EOF '' at line 1, column 34"),
    ('query', 'SELECT X ROOT = [a -> X]', 'SyntaxError',
     "expected IDENT 'WHERE', found IDENT 'ROOT' at line 1, column 10"),
    ('query', 'SELECT X\nWHERE ROOT = [a -> X];\n      X = ', 'SyntaxError',
     "expected pattern body for 'X', found EOF '' at line 3, column 11"),
    ('query', 'SELECT X WHERE R = [a -> X; 1 < ]', 'SyntaxError',
     "expected NUMBER, found OP ']' at line 1, column 33"),
    ('query', 'SELECT X WHERE R = {a -> b -> X}', 'SyntaxError',
     "expected OP ',', found ARROW '->' at line 1, column 28"),
    ('data', 'o1 = [a -> o2;\no2 = "x"', 'SyntaxError',
     "expected OP ',', found OP ';' at line 1, column 14"),
    ('data', 'o1 = {a -> o2}; o2 = x', 'SyntaxError',
     "expected node value for 'o2', found IDENT 'x' at line 1, column 22"),
    ('data', 'o1 = [a o2]', 'SyntaxError',
     "expected ARROW, found IDENT 'o2' at line 1, column 9"),
    ('data', 'o1 = [a -> o2];\n\n   o2 = "x" ~', 'LexError',
     "unexpected character '~' at line 3, column 13"),
]


@pytest.mark.parametrize("parser,text,error,message", CASES)
def test_error_message_is_pinned(parser, text, error, message):
    with pytest.raises(ERRORS[error]) as exc:
        PARSERS[parser](text)
    assert type(exc.value) is ERRORS[error]
    assert str(exc.value) == message
