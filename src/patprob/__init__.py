"""Exact occurrence probabilities of a fixed pattern in random words."""

from .markov import (
    ChainComparison,
    ChainSpec,
    LemmaReport,
    ReachTable,
    chain_prob_table,
    check_lemmas,
    compare_chains,
    reach_table,
)
from .numerics import ExactProb
from .oracle import (
    CounterexampleReport,
    McConfig,
    McResult,
    OccurrenceCounts,
    PatternAutomaton,
    automaton_counts,
    automaton_prob_table,
    counterexample_check,
    enum_counts,
    monte_carlo,
)
from .patterns import (
    DEFAULT_ENUM_BUDGET,
    BifixIndicator,
    CensusClass,
    EnumerationBudgetError,
    Ordering,
    SWord,
    Word,
    bifix_indicator,
    census,
    compare_indicators,
    compare_swords,
    comparison_threshold,
    k0_of_pair,
    k0_sharp,
    s_from_h,
)
from .recursions import (
    ProbTable,
    SeriesResult,
    P_table,
    expected_wait_closed,
    expected_wait_series,
    p_table_long,
    p_table_short,
)

__version__ = "0.1.0"

# The class routes, each (h, L, upto) -> ProbTable. They share no code;
# `prob --check-all` and the agreement tests run every entry.
TABLE_ROUTES = {
    "long": p_table_long,
    "short": p_table_short,
    "P": P_table,
    "markov": chain_prob_table,
}


def route_tables(
    h: BifixIndicator, L: int, upto: int, word: Word | None = None
) -> dict[str, ProbTable]:
    """Every applicable route's table, keyed by route name.

    The automaton route runs only when `word` is given, since it needs the
    concrete pattern and not just its class.
    """
    tables = {name: build(h, L, upto) for name, build in TABLE_ROUTES.items()}
    if word is not None:
        tables["automaton"] = automaton_prob_table(word, upto)
    return tables


__all__ = [
    "BifixIndicator",
    "CensusClass",
    "ChainComparison",
    "ChainSpec",
    "CounterexampleReport",
    "DEFAULT_ENUM_BUDGET",
    "EnumerationBudgetError",
    "ExactProb",
    "LemmaReport",
    "McConfig",
    "McResult",
    "OccurrenceCounts",
    "Ordering",
    "PatternAutomaton",
    "ProbTable",
    "ReachTable",
    "SeriesResult",
    "SWord",
    "TABLE_ROUTES",
    "Word",
    "P_table",
    "automaton_counts",
    "automaton_prob_table",
    "bifix_indicator",
    "census",
    "chain_prob_table",
    "check_lemmas",
    "compare_chains",
    "compare_indicators",
    "compare_swords",
    "comparison_threshold",
    "counterexample_check",
    "enum_counts",
    "expected_wait_closed",
    "expected_wait_series",
    "k0_of_pair",
    "k0_sharp",
    "monte_carlo",
    "p_table_long",
    "p_table_short",
    "reach_table",
    "route_tables",
    "s_from_h",
]
