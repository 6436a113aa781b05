"""Exact occurrence probabilities of a fixed pattern in random words.

`import patprob` loads no submodule. The first use of a public name
imports the submodule that defines it and keeps the name here (PEP 562),
so a caller pays only for the modules it uses.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "ChainComparison": "markov",
    "ChainSpec": "markov",
    "LemmaReport": "markov",
    "ReachTable": "markov",
    "chain_prob_table": "markov",
    "check_lemmas": "markov",
    "compare_chains": "markov",
    "reach_table": "markov",
    "ExactProb": "numerics",
    "ProbTable": "numerics",
    "CounterexampleReport": "oracle",
    "McConfig": "oracle",
    "McResult": "oracle",
    "OccurrenceCounts": "oracle",
    "automaton_counts": "oracle",
    "automaton_prob_table": "oracle",
    "counterexample_check": "oracle",
    "enum_counts": "oracle",
    "monte_carlo": "oracle",
    "DEFAULT_ENUM_BUDGET": "patterns",
    "BifixIndicator": "patterns",
    "CensusClass": "patterns",
    "EnumerationBudgetError": "patterns",
    "Ordering": "patterns",
    "SWord": "patterns",
    "Word": "patterns",
    "bifix_indicator": "patterns",
    "census": "patterns",
    "compare_indicators": "patterns",
    "compare_swords": "patterns",
    "comparison_threshold": "patterns",
    "expected_wait_closed": "patterns",
    "k0_of_pair": "patterns",
    "k0_sharp": "patterns",
    "s_from_h": "patterns",
    "SeriesResult": "recursions",
    "P_table": "recursions",
    "expected_wait_series": "recursions",
    "p_table_long": "recursions",
    "p_table_short": "recursions",
}

# The class routes: route name -> builder, each (h, L, upto) -> ProbTable and
# defined in the submodule `_EXPORTS` names. They share no code; `prob
# --check-all` and the agreement tests run every entry, resolved through
# `_route` at each call, so a builder rebound on its module is the one run.
_ROUTES = {"long": "p_table_long", "short": "p_table_short", "P": "P_table", "markov": "chain_prob_table"}
ROUTE_NAMES = tuple(_ROUTES)

__all__ = sorted([*_EXPORTS, "ROUTE_NAMES", "route_tables"])


def _route(name: str):
    """The builder of route `name`, importing that route's module alone."""
    builder = _ROUTES[name]
    return getattr(import_module(f".{_EXPORTS[builder]}", __name__), builder)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups find this one
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


# The annotations below stay unevaluated strings, so naming these classes
# imports nothing.
def route_tables(
    h: BifixIndicator, L: int, upto: int, word: Word | None = None
) -> dict[str, ProbTable]:
    """Every applicable route's table, keyed by route name.

    The automaton route runs only when `word` is given, since it needs the
    concrete pattern and not just its class; a word of another class or
    alphabet is refused before any route runs.
    """
    if word is not None:
        from .oracle import automaton_prob_table
        from .patterns import bifix_indicator

        if word.alphabet_size != L or bifix_indicator(word) != h:
            raise ValueError(f"word {word.text()} over L = {word.alphabet_size} "
                             f"is not of class {h.text()} over L = {L}")
    tables = {name: _route(name)(h, L, upto) for name in ROUTE_NAMES}
    if word is not None:
        tables["automaton"] = automaton_prob_table(word, upto)
    return tables
