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
    "PatternAutomaton": "oracle",
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

# The class routes: route name -> (submodule, builder), each builder
# (h, L, upto) -> ProbTable. They share no code; `prob --check-all` and the
# agreement tests run every entry. TABLE_ROUTES is built from this on first
# use; the names are known before any route module loads.
_ROUTES = {
    "long": ("recursions", "p_table_long"),
    "short": ("recursions", "p_table_short"),
    "P": ("recursions", "P_table"),
    "markov": ("markov", "chain_prob_table"),
}
ROUTE_NAMES = tuple(_ROUTES)

__all__ = sorted([*_EXPORTS, "TABLE_ROUTES", "route_tables"])


def _route(name: str):
    """The builder of route `name`, importing that route's module alone."""
    module, builder = _ROUTES[name]
    return getattr(import_module(f".{module}", __name__), builder)


def __getattr__(name: str):
    if name == "TABLE_ROUTES":
        value = {route: _route(route) for route in _ROUTES}
    elif name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups, and changes to the dict, find this one
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
    concrete pattern and not just its class.
    """
    routes = globals().get("TABLE_ROUTES") or __getattr__("TABLE_ROUTES")
    tables = {name: build(h, L, upto) for name, build in routes.items()}
    if word is not None:
        from .oracle import automaton_prob_table

        tables["automaton"] = automaton_prob_table(word, upto)
    return tables
