"""Mutation check: does the test suite catch a slip in the code it guards?

Each mutant below replaces one snippet inside one named function or class of
`src/patprob` and names the tests that should fail for it. The script copies
`src/`, `tests/`, `pyproject.toml` and `bench/golden.json` (which
`tests/test_cli.py` reads at import) into a temporary directory per mutant,
applies the edit there (the working tree is never touched), and runs pytest on
the mutant's tests under a timeout and an address-space cap. A mutant is
killed when its tests fail, time out or exceed the cap; otherwise it
survived. First the unmutated copy must pass every subset, or no kill means
anything.

Survivors that are accepted, each with a one-line reason ("equivalent: ..."),
are listed in `MUTANTS.json` at the root of the repository. The script exits 1
when a mutant survives that the file does not list, a listed one is killed,
or the file lists an id that the list below does not have, so the file must
be kept in step with the list. It exits 2, before any test runs, when a
mutant's snippet does not occur exactly once in its function or its source
does not compile (a module that cannot be imported fails every test, so a
typo would pass as a kill), and when the unmutated tree fails.

    python3 tools/mutate.py            # every mutant, about 3 minutes on 2 cores

Standard library only; pytest and the test extras of `pyproject.toml` must be
importable by the interpreter that runs it.
"""

from __future__ import annotations

import ast
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120
MEMORY_CAP_BYTES = 3 * 2**30

VIEW_TESTS = (
    "tests/test_recursions.py",
    "tests/test_values.py",
    "tests/test_markov.py::TestChainProbTable",
    "tests/test_acceptance.py::test_criterion_2_views_are_the_counts",
)
K0_TESTS = (
    "tests/test_patterns.py::TestK0",
    "tests/test_markov.py::TestCompareChains",
    "tests/test_acceptance.py::test_criterion_3_class_monotonicity_sharp_threshold",
)
FIELD_TESTS = ("tests/test_values.py::test_validation_messages",)
BOUND_TESTS = ("tests/test_values.py::test_bound_rule_names_the_argument",)
JSON_TESTS = ("tests/test_numerics.py::TestRendering::test_json_malformed_field_rejected",)
CANONICAL_TESTS = (
    "tests/test_numerics.py::TestCanonicalForm::test_small_fields_match_division_reference",
)
VIOLATION_TESTS = (
    "tests/test_markov.py::TestCompareChains::test_violations_are_derived_from_relations",
)
RELATION_TESTS = ("tests/test_markov.py::TestCompareChains::test_small_pair",)
CENSUS_BUDGET_TESTS = ("tests/test_patterns.py::TestCensus::test_negative_budget_rejected",)
ZERO_BUDGET_TESTS = ("tests/test_patterns.py::TestCensus::test_zero_budget_refuses_every_census",)
WORD_BUDGET_TESTS = ("tests/test_patterns.py::TestCensus::test_budget_counts_words_not_symbols",)
DIGIT_FORM_TESTS = ("tests/test_patterns.py::TestWord::test_digit_form_up_to_ten_symbols",)
LEMMA_TESTS = ("tests/test_markov.py::TestLemmaSuite",)
COUNTS_TESTS = ("tests/test_oracle.py::TestCounts",)
TABLE_TESTS = ("tests/test_recursions.py",)
COUNTEREXAMPLE_TESTS = (
    "tests/test_oracle.py::TestCounterexample",
    "tests/test_cli.py::TestTopLevel::test_failed_property_check_exits_1",
    "tests/test_cli.py::TestByteIdentity::test_stdout_digest",
)
DIGEST_TESTS = ("tests/test_cli.py::TestByteIdentity::test_stdout_digest",)
ONE_SYMBOL_TESTS = ("tests/test_patterns.py::TestWord::test_one_symbol_text_is_as_written",)
STREAM_TESTS = ("tests/test_oracle.py::TestMonteCarloStream::test_matches_reference",)
REDRAW_TESTS = ("tests/test_oracle.py::TestMonteCarloStream::test_cells_above_the_alphabet_are_redrawn",)
SPAN_TESTS = ("tests/test_oracle.py::TestMonteCarloStream::test_window_spanning_two_trials_is_no_hit",)
STREAM_CUT_TESTS = ("tests/test_streams.py::test_from_counts_refuses_a_horizon_islice_cannot_stop_at",)
CUT_LENGTH_TESTS = ("tests/test_streams.py::test_from_counts_pulls_exactly_upto_plus_one_counts",)
FORWARD_CHECK_TESTS = (
    "tests/test_markov.py::TestReachTableInvariants::test_forward_cross_check_catches_in_range_corruption",
)
MASK_TESTS = (*COUNTS_TESTS, "tests/test_patterns.py::TestCensus::test_symbol_masks_mark_their_words")
WRITER_TESTS = ("tests/test_recursions.py::TestOutputFromCounts",)
SERIES_TESTS = ("tests/test_recursions.py::TestExpectedWait",)
RESOLVER_TESTS = ("tests/test_cli.py::TestProb::test_check_all_disagreement_exits_1",)
ORIENT_TESTS = ("tests/test_cli.py::TestCompare::test_order_is_auto_oriented",)
SWORD_PAIR_TESTS = ("tests/test_cli.py::TestCompare::test_sword_pair",)
ROUTE_WORD_TESTS = (
    "tests/test_recursions.py::TestThreeWayEquality::test_word_of_another_class_or_alphabet_is_refused",
)
TEXT_WIDTH_TESTS = (
    "tests/test_recursions.py::TestOutputFromCounts::test_text_columns_fit_their_content",
)
RECURSION_TESTS = (
    "tests/test_recursions.py::TestFrozenValues",
    "tests/test_recursions.py::TestThreeWayEquality::test_all_classes_small_n",
)
REACH_TESTS = ("tests/test_markov.py::TestReachTable",)
BIFIX_TESTS = ("tests/test_patterns.py::TestBifixIndicator",)
SWORD_TESTS = ("tests/test_patterns.py::TestSWords",)
ORDER_TESTS = ("tests/test_patterns.py::TestCompare",)
CENSUS_TESTS = ("tests/test_patterns.py::TestCensus",)
AUTOMATON_TESTS = ("tests/test_oracle.py::TestAutomaton",)
ARITHMETIC_TESTS = ("tests/test_numerics.py::TestArithmetic",)
DECIMAL_TESTS = ("tests/test_numerics.py::TestRendering",)
CHAIN_COUNT_TESTS = ("tests/test_markov.py::TestStartColumn",)
# The Markov check steps a chain with no extra edge; only the automaton reaches that move.
ABSORBED_TESTS = (
    "tests/test_oracle.py::TestCounts::test_enum_equals_automaton_ternary_sample",
    "tests/test_markov.py::TestStartColumn::test_equals_column_zero_of_reach_table",
)

# (id, file under src/patprob, function or class name, snippet, replacement, tests)
MUTANTS = (
    ("view.prior-count", "numerics.py", "_ProbView._at",
     "L * C[k - 1]", "L * C[k]", VIEW_TESTS),
    ("view.prior-count-2", "numerics.py", "_ProbView._at",
     "L * C[k - 1]", "L * C[k - 2]", VIEW_TESTS),
    ("view.scale", "numerics.py", "_ProbView._at",
     "L * C[k - 1]", "(L - 1) * C[k - 1]", VIEW_TESTS),
    ("view.column-test", "numerics.py", "_ProbView._at",
     'self.column == "p"', 'self.column == "P"', VIEW_TESTS),
    ("view.k-zero", "numerics.py", "_ProbView._at",
     'self.column == "p" and k', 'self.column == "p"', VIEW_TESTS),
    ("view.den-exp", "numerics.py", "_ProbView._at",
     "ExactProb(count, k, L)", "ExactProb(count, k + 1, L)", VIEW_TESTS),
    ("view.raw-key", "numerics.py", "_ProbView.__getitem__",
     "k = range(len(self.C))[key]", "k = key", VIEW_TESTS),
    ("view.short-range", "numerics.py", "_ProbView.__getitem__",
     "k = range(len(self.C))[key]", "k = range(len(self.C) - 1)[key]", VIEW_TESTS),
    ("view.slice-list", "numerics.py", "_ProbView.__getitem__",
     "return tuple(map(self._at, k))", "return list(map(self._at, k))", VIEW_TESTS),
    ("view.slice-positions", "numerics.py", "_ProbView.__getitem__",
     "return tuple(map(self._at, k))", "return tuple(map(self._at, range(len(k))))",
     VIEW_TESTS),
    ("view.iter-from-one", "numerics.py", "_ProbView.__iter__",
     "range(len(self.C))", "range(1, len(self.C))", VIEW_TESTS),
    ("view.len", "numerics.py", "_ProbView.__len__",
     "len(self.C)", "len(self.C) - 1", VIEW_TESTS),
    ("view.add-order", "numerics.py", "_ProbView.__add__",
     "(*self, *other)", "(*other, *self)", VIEW_TESTS),
    ("view.eq-counts-only", "numerics.py", "_ProbView",
     '__slots__ = ("L", "C", "column")',
     '__slots__ = ("L", "C", "column")\n'
     "    __eq__ = lambda self, other: self.C == other.C\n"
     "    __hash__ = _Value.__hash__",
     VIEW_TESTS),
    ("view.eq-by-value", "numerics.py", "_ProbView",
     '__slots__ = ("L", "C", "column")',
     '__slots__ = ("L", "C", "column")\n'
     "    __eq__ = lambda self, other: tuple(self) == tuple(other)\n"
     "    __hash__ = _Value.__hash__",
     VIEW_TESTS),
    ("table.P-column", "numerics.py", "ProbTable.P",
     '_ProbView(self.L, self.C, "P")', '_ProbView(self.L, self.C, "p")', VIEW_TESTS),
    ("table.p-column", "numerics.py", "ProbTable.p",
     '_ProbView(self.L, self.C, "p")', '_ProbView(self.L, self.C, "P")', VIEW_TESTS),
    ("exact.base-bound", "numerics.py", "ExactProb.__init__",
     '_at_least(base, 2, "base")', '_at_least(base, 1, "base")', FIELD_TESTS),
    ("exact.num-bound", "numerics.py", "ExactProb.__init__",
     '_at_least(num, 0, "num")', '_at_least(num, -1, "num")', FIELD_TESTS),
    ("exact.den-exp-bound", "numerics.py", "ExactProb.__init__",
     '_at_least(den_exp, 0, "den_exp")', '_at_least(den_exp, -1, "den_exp")', FIELD_TESTS),
    ("exact.at-most-one", "numerics.py", "ExactProb.__init__",
     "canon_num > base**exp", "canon_num > base ** (exp + 1)", FIELD_TESTS),
    ("exact.json-field-missing", "numerics.py", "ExactProb.from_json_dict",
     '("num", "den_exp", "base")', '("num", "den_exp")', JSON_TESTS),
    ("exact.json-not-a-dict", "numerics.py", "ExactProb.from_json_dict",
     "if not isinstance(data, dict):", "if False:", JSON_TESTS),
    ("int-rule.bool-accepted", "patterns.py", "_check_int",
     "not isinstance(value, int) or isinstance(value, bool)", "not isinstance(value, int)",
     FIELD_TESTS),
    ("bound-rule.inclusive", "patterns.py", "_at_least",
     "value < least", "value <= least", BOUND_TESTS),
    ("bound-rule.type-unchecked", "patterns.py", "_at_least",
     "_check_int(value, field)", "pass", BOUND_TESTS),
    ("pattern-length.indicator-bound", "patterns.py", "BifixIndicator.__init__",
     '_at_least(len(bits) + 1, 2, "pattern length")', '_at_least(len(bits) + 1, 1, "pattern length")',
     FIELD_TESTS),
    ("pattern-length.monte-carlo-bound", "oracle.py", "monte_carlo",
     '_at_least(n, 2, "pattern length")', '_at_least(n, 1, "pattern length")', FIELD_TESTS),
    ("compare.h-side-greater-first", "cli.py", "_oriented_swords",
     "Ordering.LESS", "Ordering.GREATER", ORIENT_TESTS),
    ("compare.orientation-inverted", "cli.py", "_oriented_swords",
     "order is first", "order is not first", SWORD_PAIR_TESTS),
    ("routes.word-alphabet-unchecked", "__init__.py", "route_tables",
     "word.alphabet_size != L or ", "", ROUTE_WORD_TESTS),
    ("table.text-value-width", "numerics.py", "ProbTable.to_text",
     "max(14, digits + 2)", "14", TEXT_WIDTH_TESTS),
    ("word.symbols-unchecked", "patterns.py", "_within",
     "_check_int(value, field)", "pass", FIELD_TESTS),
    ("word.symbol-bound", "patterns.py", "Word.__init__",
     "alphabet_size - 1,", "alphabet_size,", FIELD_TESTS),
    ("sequence-rule.list-accepted", "patterns.py", "_within",
     "if not isinstance(values, tuple):", "if False:", FIELD_TESTS),
    ("sequence-rule.least-inclusive", "patterns.py", "_within",
     "value < least", "value <= least", FIELD_TESTS),
    ("sequence-rule.most-inclusive", "patterns.py", "_within",
     "value > most", "value >= most", FIELD_TESTS),
    ("exact.num-unchecked", "numerics.py", "ExactProb.__init__",
     '_at_least(num, 0, "num")', '_at_least(int(num), 0, "num")', FIELD_TESTS),
    ("exact.den-exp-unchecked", "numerics.py", "ExactProb.__init__",
     '_at_least(den_exp, 0, "den_exp")', '_at_least(int(den_exp), 0, "den_exp")', FIELD_TESTS),
    ("exact.base-unchecked", "numerics.py", "ExactProb.__init__",
     '_at_least(base, 2, "base")', '_at_least(int(base), 2, "base")', FIELD_TESTS),
    ("reach.empty-rows", "markov.py", "ReachTable.__init__",
     "if not P or any(", "if any(", FIELD_TESTS),
    ("reach.count-unchecked", "markov.py", "ReachTable.__init__",
     '_within(row, 0, power, "P")', "pass", FIELD_TESTS),
    ("reach.list-accepted", "markov.py", "ReachTable.__init__",
     "if not isinstance(P, tuple):", "if False:", FIELD_TESTS),
    ("comparison.k0-equal", "markov.py", "ChainComparison.violations",
     "k < self.k0", "k <= self.k0", VIOLATION_TESTS),
    ("comparison.expected-less", "markov.py", "ChainComparison.violations",
     '">"', '"<"', VIOLATION_TESTS),
    ("compare_chains.ties-greater", "markov.py", "compare_chains",
     "a > b", "a >= b", RELATION_TESTS),
    ("census.negative-budget", "patterns.py", "census",
     '_at_least(budget, 0, "budget")', '_at_least(budget, -1, "budget")', CENSUS_BUDGET_TESTS),
    ("census.zero-budget-negative", "patterns.py", "census",
     '_at_least(budget, 0, "budget")', '_at_least(budget, 1, "budget")', ZERO_BUDGET_TESTS),
    ("census.budget-below-one", "patterns.py", "census",
     '_at_least(budget, 0, "budget")', '_at_least(budget - 1, 0, "budget")', ZERO_BUDGET_TESTS),
    ("enum-budget.product", "patterns.py", "check_enum_budget",
     "L**k > budget", "L * k > budget", WORD_BUDGET_TESTS),
    ("word.parse-ten-needs-commas", "patterns.py", "Word.parse",
     "alphabet_size > 10", "alphabet_size >= 10", DIGIT_FORM_TESTS),
    ("word.parse-eleven-digits", "patterns.py", "Word.parse",
     "alphabet_size > 10", "alphabet_size > 11", DIGIT_FORM_TESTS),
    ("word.parse-one-symbol-range", "patterns.py", "Word.parse",
     "symbol >= alphabet_size", "symbol > alphabet_size", ONE_SYMBOL_TESTS),
    ("word.parse-one-symbol-as-written", "patterns.py", "Word.parse",
     " or str(symbol) != text", "", ONE_SYMBOL_TESTS),
    ("word.text-ten-commas", "patterns.py", "Word.text",
     "self.alphabet_size <= 10", "self.alphabet_size < 10", DIGIT_FORM_TESTS),
    ("word.text-eleven-digits", "patterns.py", "Word.text",
     "self.alphabet_size <= 10", "self.alphabet_size <= 11", DIGIT_FORM_TESTS),
    ("lemmas.horizon-equal-n", "markov.py", "check_lemmas",
     "if upto < n:", "if upto <= n:", LEMMA_TESTS),
    ("lemmas.last-row-unchecked", "markov.py", "check_lemmas",
     "k + 1 <= upto", "k + 1 < upto", LEMMA_TESTS),
    ("lemmas.row-skipped", "markov.py", "check_lemmas",
     "k + 1 <= upto", "k + 2 <= upto", LEMMA_TESTS),
    ("counts.k-length", "oracle.py", "OccurrenceCounts.k",
     "len(self.C) - 1", "len(self.C)", COUNTS_TESTS),
    ("counts.first-at-unscaled", "oracle.py", "OccurrenceCounts.first_at",
     "L * C[j - 1]", "C[j - 1]", COUNTS_TESTS),
    ("enum.count-scale", "oracle.py", "enum_counts",
     "L ** (k - j)", "L ** (k - 1 - j)", COUNTS_TESTS),
    ("counterexample.sum-pairs", "oracle.py", "CounterexampleReport.probability_sums_equal",
     "c1 + c4 == c2 + c3", "c1 + c3 == c2 + c4", COUNTEREXAMPLE_TESTS),
    ("counterexample.sum-negated", "oracle.py", "CounterexampleReport.probability_sums_equal",
     "c1 + c4 == c2 + c3", "c1 + c4 != c2 + c3", DIGEST_TESTS),
    ("mc.compare-bound", "oracle.py", "_above",
     "(L - 1) >> q", "L >> q", REDRAW_TESTS),
    ("mc.redraw-all-fresh", "oracle.py", "monte_carlo",
     "redo &= _above(fresh, L, ones)", "redo = _above(fresh, L, ones)", REDRAW_TESTS),
    ("mc.keep-unmasked", "oracle.py", "monte_carlo",
     "p & keep | f & redo", "p | f & redo", STREAM_TESTS),
    ("mc.trial-step", "oracle.py", "monte_carlo",
     "(n - 1 - p) * width", "(n - 1 - p) * 8", SPAN_TESTS),
    ("mc.padding-trials-counted", "oracle.py", "monte_carlo",
     "(1 << trials) - 1", "(1 << width) - 1", STREAM_TESTS),
    ("mc.tally-first-position", "oracle.py", "monte_carlo",
     "range(n - 1, horizon)", "range(n, horizon)", STREAM_TESTS),
    ("mc.tally-stops-at-first-hit", "oracle.py", "monte_carlo",
     "if seen == valid:", "if seen:", STREAM_TESTS),
    ("long.history-unscaled", "recursions.py", "_long_counts",
     "L * history + window[0]", "history + window[0]", RECURSION_TESTS),
    ("long.borders-dropped", "recursions.py", "_long_counts",
     " - sum(window[i] for i in borders)", "", RECURSION_TESTS),
    ("short.border-unscaled", "recursions.py", "_short_counts",
     "window[i + 1] - L * window[i]", "window[i + 1] - window[i]", RECURSION_TESTS),
    ("short.oldest-term", "recursions.py", "_short_counts",
     "L * window[n] - window[1]", "L * window[n] - window[0]", RECURSION_TESTS),
    ("P.power-unscaled", "recursions.py", "_iter_counts",
     "power *= L", "power *= 2", RECURSION_TESTS),
    ("P.border-unscaled", "recursions.py", "_iter_counts",
     "window[i + 1] - L * window[i]", "window[i + 1] - window[i]", RECURSION_TESTS),
    ("chain.column", "markov.py", "_chain_counts",
     "itemgetter(0)", "itemgetter(1)", CHAIN_COUNT_TESTS),
    ("reach.reset-weight", "markov.py", "_reach_rows",
     "(L - 2) * row[0]", "(L - 1) * row[0]", REACH_TESTS),
    ("reach.reset-skipped-at-three", "markov.py", "_reach_rows",
     "if L > 2:", "if L > 3:", REACH_TESTS),
    # The same as yielding every row before its check: a row that agrees is
    # yielded once either way.
    ("reach.yield-before-check", "markov.py", "_reach_rows",
     "raise AssertionError(", "yield row\n            raise AssertionError(", FORWARD_CHECK_TESTS),
    ("absorbed.reset-weight", "patterns.py", "_absorbed",
     "(L - 2) * sum(head)", "(L - 1) * sum(head)", ABSORBED_TESTS),
    ("absorbed.reset-skipped-at-three", "patterns.py", "_absorbed",
     "if L > 2 else 0", "if L > 3 else 0", ABSORBED_TESTS),
    ("absorbed.absorbing-factor", "patterns.py", "_absorbed",
     "L * counts[n]", "(L - 1) * counts[n]", ABSORBED_TESTS),
    ("absorbed.extra-edge-stays-at-start", "patterns.py", "_absorbed",
     "nxt[0] -= head[source]", "pass", ABSORBED_TESTS),
    ("automaton.self-loop-dropped", "oracle.py", "_absorbed_counts",
     "if target <= i:", "if target < i:", COUNTS_TESTS),
    ("table.upto-length", "numerics.py", "ProbTable.upto",
     "len(self.C) - 1", "len(self.C)", TABLE_TESTS),
    ("table.negative-upto", "patterns.py", "_cut",
     "_at_least(upto, 0, field)", "_at_least(upto, -1, field)", TABLE_TESTS),
    ("table.upto-past-islice", "patterns.py", "_cut",
     "upto >= sys.maxsize", "upto > sys.maxsize", STREAM_CUT_TESTS),
    ("cut.one-short", "patterns.py", "_cut",
     "islice(stream, upto + 1)", "islice(stream, upto)", CUT_LENGTH_TESTS),
    ("mask.run-length", "patterns.py", "_symbol_mask",
     "run = L ** (k - 1 - i)", "run = L ** (k - i)", MASK_TESTS),
    ("enum.shift-exponent", "oracle.py", "enum_counts",
     "c * L ** (k - 1 - p)", "c * L ** (k - p)", COUNTS_TESTS),
    ("writer.rows-p-and-P-swapped", "numerics.py", "ProbTable._rows",
     "p_num, p_exp, a / power, P_num, P_exp, c / power",
     "P_num, P_exp, c / power, p_num, p_exp, a / power", WRITER_TESTS),
    ("writer.json-p-approx-from-P", "numerics.py", "ProbTable.json_text",
     '"approx": {p_approx!r}', '"approx": {P_approx!r}', WRITER_TESTS),
    ("series.stops-at-tol", "recursions.py", "expected_wait_series",
     "q * stop < tol_num * power", "q * stop <= tol_num * power", SERIES_TESTS),
    ("route.resolved-through-the-package", "__init__.py", "_route",
     'import_module(f".{_EXPORTS[builder]}", __name__)', "import_module(__name__)", RESOLVER_TESTS),
    ("canonical.odd-test", "numerics.py", "canonical",
     "if num & 1:", "if num & 2:", CANONICAL_TESTS),
    ("canonical.shift-width", "numerics.py", "canonical",
     "shift = base.bit_length() - 1", "shift = base.bit_length()", CANONICAL_TESTS),
    ("canonical.trailing-zeros", "numerics.py", "canonical",
     "(num & -num).bit_length() - 1", "(num & -num).bit_length()", CANONICAL_TESTS),
    ("canonical.uncapped-strip", "numerics.py", "canonical",
     "min(den_exp, ((num & -num).bit_length() - 1) // shift)",
     "((num & -num).bit_length() - 1) // shift", CANONICAL_TESTS),
    ("canonical.strip-bits", "numerics.py", "canonical",
     "num >> (shift * strip)", "num >> strip", CANONICAL_TESTS),
    ("canonical.loop-stops-early", "numerics.py", "canonical",
     "while den_exp > 0", "while den_exp > 1", CANONICAL_TESTS),
    ("canonical.loop-past-zero", "numerics.py", "canonical",
     "while den_exp > 0", "while den_exp >= 0", CANONICAL_TESTS),
    ("canonical.loop-divisor", "numerics.py", "canonical",
     "num //= base", "num //= base - 1", CANONICAL_TESTS),
    ("canonical.loop-step", "numerics.py", "canonical",
     "den_exp -= 1", "den_exp -= 2", CANONICAL_TESTS),
    ("k0.last-difference", "patterns.py", "k0_of_pair",
     "min(_strict_positions", "max(_strict_positions", K0_TESTS),
    ("check-all.last-difference", "cli.py", "cmd_prob",
     "k = min(k for m in differ", "k = max(k for m in differ", RESOLVER_TESTS),
    ("table.P-one-refused", "numerics.py", "ProbTable.__post_init__",
     "prev > L**self.upto", "prev >= L**self.upto", TABLE_TESTS),
    ("failure.no-fallback", "patterns.py", "_failure",
     "k = fail[k - 1]", "k = 0", BIFIX_TESTS),
    ("bifix.chain-cut", "patterns.py", "bifix_indicator",
     "length = fail[length - 1]", "length = 0", BIFIX_TESTS),
    ("s-from-h.unreversed", "patterns.py", "s_from_h",
     "h.bits[n - i - 1]", "h.bits[i - 1]", SWORD_TESTS),
    ("realizable.period-reach", "patterns.py", "is_realizable",
     "j >= period", "j > period", BIFIX_TESTS),
    ("threshold.plus-one-dropped", "patterns.py", "comparison_threshold",
     "s.n + 1 + min", "s.n + min", SWORD_TESTS),
    ("wait-closed.power", "patterns.py", "expected_wait_closed",
     "sum(L**i for", "sum(L ** (i + 1) for", SERIES_TESTS),
    ("automaton.row-copied-from-previous", "oracle.py", "_automaton_rows",
     "rows[fail[i - 1]]", "rows[i - 1]", AUTOMATON_TESTS),
    ("census.representatives-unskipped", "patterns.py", "_lowest_words",
     "index, symbols = skip + w, []", "index, symbols = w, []", CENSUS_TESTS),
    ("census.border-offset", "patterns.py", "census",
     "first_symbol[n - i + t]", "first_symbol[n - i + t - 1]", CENSUS_TESTS),
    ("order.strict-le", "patterns.py", "_componentwise",
     "all(a <= b", "all(a < b", ORDER_TESTS),
    ("decimal.ties-to-odd", "numerics.py", "decimal_string",
     "q % 2 == 1", "q % 2 == 0", DECIMAL_TESTS),
    ("exact.lt-inclusive", "numerics.py", "ExactProb.__lt__",
     "return x < y", "return x <= y", ARITHMETIC_TESTS),
    ("k0_sharp.min", "patterns.py", "k0_sharp",
     "max(_strict_positions", "min(_strict_positions", K0_TESTS),
    ("k0_sharp.minus-one", "patterns.py", "k0_sharp",
     "2 * h.n - max", "2 * h.n - 1 - max", K0_TESTS),
    ("k0_sharp.plus-one", "patterns.py", "k0_sharp",
     "2 * h.n - max", "2 * h.n + 1 - max", K0_TESTS),
    ("k0_sharp.one-n", "patterns.py", "k0_sharp",
     "2 * h.n - max", "h.n - max", K0_TESTS),
    ("k0_sharp.other-length", "patterns.py", "k0_sharp",
     "2 * h.n - max", "2 * h_prime.n - max", K0_TESTS),
    ("k0_sharp.swapped-pair", "patterns.py", "k0_sharp",
     "_strict_positions(h, h_prime)", "_strict_positions(h_prime, h)", K0_TESTS),
)


def _segment(source: str, qualname: str) -> tuple[int, int]:
    """Character span of the function or class `qualname` ("Class.method") in source."""
    body, node = ast.parse(source).body, None
    for name in qualname.split("."):
        node = next(
            (item for item in body
             if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and item.name == name),
            None,
        )
        if node is None:
            raise LookupError(f"no {qualname} in the source")
        body = node.body
    lines = source.splitlines(keepends=True)
    first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
    start = sum(map(len, lines[: first - 1]))
    return start, start + sum(map(len, lines[first - 1 : node.end_lineno]))


def mutate(source: str, qualname: str, snippet: str, replacement: str) -> str:
    """source with the one occurrence of snippet inside qualname replaced.

    Raises LookupError unless the snippet occurs exactly once there, and
    SyntaxError when the result does not compile.
    """
    start, end = _segment(source, qualname)
    part = source[start:end]
    if part.count(snippet) != 1:
        raise LookupError(f"{snippet!r} occurs {part.count(snippet)} times in {qualname}")
    mutated = source[:start] + part.replace(snippet, replacement) + source[end:]
    compile(mutated, qualname, "exec")
    return mutated


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_tests(tree: Path, tests: tuple[str, ...]) -> str | None:
    """None when the tests pass in tree, else why they did not."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    child = subprocess.Popen(
        command, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        preexec_fn=_cap_memory, start_new_session=True,
    )
    try:
        output, _ = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return f"timeout after {TIMEOUT_S} s"
    if child.returncode == 0:
        return None
    if b"MemoryError" in output:
        return "memory cap"
    return f"tests failed (exit {child.returncode})"


def _copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")
    (into / "bench").mkdir()
    shutil.copy2(ROOT / "bench" / "golden.json", into / "bench" / "golden.json")


def main() -> int:
    listed = json.loads((ROOT / "MUTANTS.json").read_text())
    accepted = {entry["id"]: entry["reason"] for entry in listed}
    sources = {}
    for mutant_id, module, qualname, snippet, replacement, _ in MUTANTS:
        try:
            source = (ROOT / "src" / "patprob" / module).read_text()
            sources[mutant_id] = mutate(source, qualname, snippet, replacement)
        except (LookupError, SyntaxError) as exc:
            print(f"mutant {mutant_id} is malformed: {exc}")
            return 2
    with tempfile.TemporaryDirectory(prefix="patprob-mutants-") as scratch:
        base = Path(scratch) / "base"
        _copy_tree(base)
        for tests in dict.fromkeys(m[5] for m in MUTANTS):
            failure = run_tests(base, tests)
            if failure:
                print(f"the unmutated tree fails {' '.join(tests)}: {failure}")
                return 2
        survivors = []
        problems = [f"MUTANTS.json lists {mutant_id}, which is no mutant below"
                    for mutant_id in accepted.keys() - {m[0] for m in MUTANTS}]
        for mutant_id, module, _, _, _, tests in MUTANTS:
            tree = Path(scratch) / mutant_id
            shutil.copytree(base, tree)
            (tree / "src" / "patprob" / module).write_text(sources[mutant_id])
            failure = run_tests(tree, tests)
            shutil.rmtree(tree)
            if failure:
                print(f"killed    {mutant_id}: {failure}")
                if mutant_id in accepted:
                    problems.append(f"{mutant_id} is listed in MUTANTS.json but was killed")
            else:
                survivors.append(mutant_id)
                reason = accepted.get(mutant_id)
                print(f"survived  {mutant_id}: {reason or 'NOT LISTED in MUTANTS.json'}")
                if reason is None:
                    problems.append(f"{mutant_id} survived and is not listed in MUTANTS.json")
    print(f"killed {len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
