"""Regular-language substrate: regex AST, NFA/DFA, products, bag languages.

This subpackage is self-contained (no dependency on the data/schema/query
layers) and implements everything the traces technique of the paper needs:
Thompson construction, subset construction, minimization, products,
containment, projections, regex extraction, and the unordered (bag)
language membership test of Section 2.
"""

from .._lazy import lazy_exports

#: Maps each public name to the submodule that defines it.
_EXPORTS = {
    "ANY": ".syntax",
    "EMPTY": ".syntax",
    "EPSILON": ".syntax",
    "Alt": ".syntax",
    "Any": ".syntax",
    "Concat": ".syntax",
    "Empty": ".syntax",
    "Epsilon": ".syntax",
    "Regex": ".syntax",
    "Star": ".syntax",
    "Sym": ".syntax",
    "Symbol": ".syntax",
    "alt": ".syntax",
    "concat": ".syntax",
    "last_symbols": ".syntax",
    "literal_word": ".syntax",
    "opt": ".syntax",
    "plus": ".syntax",
    "star": ".syntax",
    "sym": ".syntax",
    "word": ".syntax",
    "EPS": ".nfa",
    "NFA": ".nfa",
    "thompson": ".nfa",
    "DFA": ".dfa",
    "determinize": ".dfa",
    "concat_nfa": ".ops",
    "equivalent": ".ops",
    "intersect": ".ops",
    "is_subset": ".ops",
    "relabel": ".ops",
    "to_regex": ".ops",
    "trim": ".ops",
    "union": ".ops",
    "bag_accepts": ".bag",
    "bag_accepts_regex": ".bag",
    "homogeneous_alternatives": ".bag",
    "homogeneous_symbol": ".bag",
    "parse_regex": ".parser",
    "parse_regex_string": ".parser",
    "regex_to_string": ".parser",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
