import functools
import itertools
import random
import sys
import time
import tracemalloc
from collections import Counter
from math import sqrt

import numpy as np
import pytest

from patprob import EnumerationBudgetError, oracle
from patprob.numerics import ExactProb
from patprob.oracle import (
    GENERATOR_NAME,
    McConfig,
    McResult,
    PatternAutomaton,
    automaton_counts,
    counterexample_check,
    enum_counts,
    monte_carlo,
)
from patprob.patterns import Word, bifix_indicator, census
from patprob.recursions import P_table


def w(text, L=2):
    return Word.parse(text, L)


def naive_step(pattern, state, symbol):
    """Longest pattern prefix that suffixes (matched prefix + symbol)."""
    b = pattern.symbols
    n = len(b)
    if state == n:
        return n
    seen = b[:state] + (symbol,)
    for q in range(min(n, len(seen)), -1, -1):
        if q == 0 or seen[len(seen) - q :] == b[:q]:
            return q
    raise AssertionError("unreachable")


def enum_counts_reference(pattern, k):
    """The per-word loop that enum_counts replaced: (contains, first_at)."""
    L, n, target = pattern.alphabet_size, len(pattern), pattern.symbols
    first_at = [0] * (k + 1)
    contains = 0
    for word in itertools.product(range(L), repeat=k):
        for j in range(n, k + 1):
            if word[j - n : j] == target:
                first_at[j] += 1
                contains += 1
                break
    return contains, tuple(first_at)


def _reference_cases():
    for n in range(1, 6):
        for symbols in itertools.product((0, 1), repeat=n):
            for k in range(11):  # includes k < n and k = 0
                yield Word(symbols, 2), k
    rng = random.Random(909)
    for L, max_k in [(3, 7), (4, 6), (5, 5), (7, 4)]:
        for _ in range(12):
            n = rng.randrange(1, 5)
            yield Word(tuple(rng.randrange(L) for _ in range(n)), L), rng.randrange(max_k + 1)
    yield Word((7, 999), 1000), 2
    yield Word((999,), 1000), 2
    yield Word((5, 5), 1000), 2


ONE_WORD_PER_CLASS_N4 = ("1000", "1001", "1010", "1111")


class TestAutomaton:
    def test_matches_naive_step_everywhere(self):
        rng = random.Random(555)
        words = [Word(tuple(rng.randrange(2) for _ in range(n)), 2) for n in range(2, 9) for _ in range(8)]
        words += [Word(tuple(rng.randrange(3) for _ in range(n)), 3) for n in range(2, 7) for _ in range(6)]
        for word in words:
            aut = PatternAutomaton(word)
            for state in range(aut.n + 1):
                for symbol in range(aut.L):
                    assert aut.step(state, symbol) == naive_step(word, state, symbol)

    def test_structural_invariants(self):
        for text in ["11011", "10010", "0000", "10"]:
            word = w(text)
            aut = PatternAutomaton(word)
            n = aut.n
            for i in range(n):
                assert aut.step(i, word.symbols[i]) == i + 1
            for c in range(aut.L):
                assert aut.step(n, c) == n
            for i in range(n + 1):
                for c in range(aut.L):
                    assert aut.step(i, c) <= i + 1

    @staticmethod
    def _check_sparse_rows(word):
        aut = PatternAutomaton(word)
        assert len(aut.rows) == aut.n
        assert sum(len(row) for row in aut.rows) <= 2 * aut.n  # Simon's bound
        assert all(target != 0 for row in aut.rows for target in row.values())

    def test_sparse_rows_every_binary_pattern(self):
        for n in range(1, 13):
            for symbols in itertools.product((0, 1), repeat=n):
                self._check_sparse_rows(Word(symbols, 2))

    @pytest.mark.parametrize("L", [3, 4, 7])
    def test_sparse_rows_random_patterns(self, L):
        rng = random.Random(L)
        for _ in range(400):
            n = rng.randrange(1, 25)
            # Few distinct symbols make long borders, where rows grow.
            used = rng.randrange(1, L + 1)
            self._check_sparse_rows(Word(tuple(rng.randrange(used) for _ in range(n)), L))


class TestCounts:
    def test_double_one_in_three_flips(self):
        assert enum_counts(w("11"), 3).contains == 3  # 011, 110, 111

    def test_one_zero_in_three_flips(self):
        assert enum_counts(w("10"), 3).contains == 4  # 010, 100, 101, 110

    def test_pattern_longer_than_word(self):
        counts = enum_counts(w("101"), 2)
        assert counts.contains == 0
        assert all(c == 0 for c in counts.first_at)

    def test_exact_fit(self):
        for text in ["110", "0101"]:
            assert automaton_counts(w(text), len(text)).contains == 1

    def test_first_at_sums_to_contains(self):
        for text, k in [("11", 8), ("100", 9)]:
            counts = automaton_counts(w(text), k)
            assert sum(counts.first_at) == counts.contains

    def test_budget_error_names_budget(self):
        with pytest.raises(EnumerationBudgetError, match="budget of 512"):
            enum_counts(w("11"), 10, budget=512)

    def test_huge_k_is_refused_before_the_power(self):
        start = time.perf_counter()
        with pytest.raises(
            EnumerationBudgetError, match=r"2\^1000000000000 words, exceeding the budget of 16777216"
        ):
            enum_counts(w("11"), 10**12)
        assert time.perf_counter() - start < 1.0

    def test_matches_per_word_reference(self):
        for word, k in _reference_cases():
            counts = enum_counts(word, k)
            assert (counts.contains, counts.first_at) == enum_counts_reference(word, k), (word, k)

    @pytest.mark.parametrize("text", ONE_WORD_PER_CLASS_N4)
    def test_enum_equals_automaton_at_k20(self, text):
        word = w(text)
        assert enum_counts(word, 20) == automaton_counts(word, 20)

    def test_k20_words_cover_every_class_of_length_4(self):
        assert {bifix_indicator(w(t)) for t in ONE_WORD_PER_CLASS_N4} == set(census(4, 2))

    def test_enum_equals_automaton_at_budget_edge(self):
        word = w("1011")
        assert enum_counts(word, 24, budget=2**24) == automaton_counts(word, 24)
        with pytest.raises(EnumerationBudgetError):
            enum_counts(word, 25, budget=2**24)

    def test_enum_equals_automaton_binary(self):
        for n in range(2, 5):
            for symbols in itertools.product((0, 1), repeat=n):
                word = Word(symbols, 2)
                e = enum_counts(word, 10)
                a = automaton_counts(word, 10)
                assert e.contains == a.contains
                assert e.first_at == a.first_at

    def test_enum_equals_automaton_ternary_sample(self):
        rng = random.Random(808)
        for _ in range(25):
            n = rng.randrange(2, 5)
            word = Word(tuple(rng.randrange(3) for _ in range(n)), 3)
            e = enum_counts(word, 8)
            a = automaton_counts(word, 8)
            assert e.contains == a.contains
            assert e.first_at == a.first_at

    def test_counts_match_recursion_table(self):
        word = w("10000")
        counts = automaton_counts(word, 12)
        table = P_table(bifix_indicator(word), 2, 12)
        assert counts.prob_contains() == table.P[12]
        for j in range(1, 13):
            assert ExactProb(counts.first_at[j], 12, 2) == table.p[j]

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: enum_counts(w("01"), -1), "k must be >= 0, got -1"),
            (lambda: automaton_counts(w("01"), -1), "k must be >= 0, got -1"),
            (lambda: monte_carlo(Word((), 2), McConfig(trials=1, k=1, seed=0)),
             "pattern must be nonempty"),
        ],
        ids=["enum_counts", "automaton_counts", "monte_carlo"],
    )
    def test_empty_pattern_or_negative_length_is_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestEnumerationWork:
    # enum_counts builds the mask S(p, 0) of each position p once and shifts
    # it for each of its up to n uses, keeping a window of the last n.
    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_one_mask_per_position(self, monkeypatch, n):
        k = 10
        built = []
        symbol_mask = oracle._symbol_mask

        def counting(*args):
            built.append(args)
            return symbol_mask(*args)

        monkeypatch.setattr(oracle, "_symbol_mask", counting)
        word = Word(tuple(random.Random(n).randrange(2) for _ in range(n)), 2)
        counts = enum_counts(word, k)
        assert sorted(position for _, _, position, _ in built) == list(range(k))
        assert (counts.contains, counts.first_at) == enum_counts_reference(word, k)

    @pytest.mark.parametrize("n,bound", [(20, 22), (8, 11.25)])
    def test_masks_live_at_once(self, n, bound):
        # Between operations the window of n masks, `hit` and `found` are
        # live: n + 2. A long pattern (n = k) has one window, whose oldest
        # masks are shorter than L**k bits, so even its peak stays below
        # n + 2. A short one peaks while a shifted mask is ANDed into `hit`:
        # the window then holds n - 1 masks, beside `found`, `hit`, the
        # shifted operand and the result, n + 3 in all.
        k = 20
        mask_bytes = sys.getsizeof((1 << 2**k) - 1)
        word = Word(tuple(random.Random(n).randrange(2) for _ in range(n)), 2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            enum_counts(word, k)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound * mask_bytes, peak / mask_bytes


class TestCounterexample:
    def test_report(self):
        report = counterexample_check()
        assert [h.text() for h in report.indicators] == ["0000", "1000", "0100", "1100"]
        assert report.indicator_sums_equal
        assert not report.probability_sums_equal
        assert report.ok

    def test_golden_probabilities(self):
        # Verified against both the enumeration of all 4096 words and the
        # automaton DP before freezing.
        report = counterexample_check()
        assert report.probabilities == (
            ExactProb(125, 9, 2),   # 1000/4096
            ExactProb(121, 9, 2),   # 968/4096
            ExactProb(231, 10, 2),  # 924/4096
            ExactProb(447, 11, 2),  # 894/4096
        )
        counts = [p.num * 2 ** (12 - p.den_exp) for p in report.probabilities]
        assert counts == [1000, 968, 924, 894]
        assert counts[0] + counts[3] == 1894  # P1 + P4, over 4096
        assert counts[1] + counts[2] == 1892  # P2 + P3

    def test_golden_against_enumeration(self):
        report = counterexample_check()
        for word, prob in zip(report.words, report.probabilities):
            assert enum_counts(word, 12).prob_contains() == prob


class TestMonteCarlo:
    def test_deterministic_for_seed(self):
        cfg = McConfig(trials=500, k=15, seed=99)
        a = monte_carlo(w("11"), cfg)
        b = monte_carlo(w("11"), cfg)
        assert a.p_hat == b.p_hat
        assert a.wait_counts == b.wait_counts
        assert a.mean_wait_censored == b.mean_wait_censored

    def test_seed_changes_stream(self):
        a = monte_carlo(w("11"), McConfig(trials=500, k=15, seed=1))
        b = monte_carlo(w("11"), McConfig(trials=500, k=15, seed=2))
        assert a.p_hat != b.p_hat

    def test_single_trial_is_step_function(self):
        result = monte_carlo(w("10"), McConfig(trials=1, k=12, seed=3))
        assert all(p in (0.0, 1.0) for p in result.p_hat)
        assert all(a <= b for a, b in zip(result.p_hat, result.p_hat[1:]))

    def test_bands_cover_exact_values(self):
        word = w("11")
        table = P_table(bifix_indicator(word), 2, 16)
        result = monte_carlo(word, McConfig(trials=20_000, k=16, seed=12345))
        for k in range(1, 17):
            half_width = 4 * result.stderr[k]
            assert abs(result.p_hat[k] - float(table.P[k])) <= half_width, k

    def test_censoring_accounting(self):
        cfg = McConfig(trials=2_000, k=6, seed=17)
        result = monte_carlo(w("111"), cfg)
        assert sum(result.wait_counts.values()) + result.censored == cfg.trials
        assert min(result.wait_counts) >= 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0, k=5, seed=1)
        with pytest.raises(ValueError):
            McConfig(trials=1, k=0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\)"):
            McConfig(trials=1, k=1, seed=seed)

    def test_seed_range_ends_are_valid_philox_keys(self):
        for seed in (0, 2**128 - 1):
            monte_carlo(w("11"), McConfig(trials=2, k=4, seed=seed))

    def test_three_sigma_band_sweep(self):
        # Over all binary patterns of length 2..5, at most a 1% fraction of
        # (pattern, k) cells may sit outside three standard errors; the
        # default seed is pinned to a realization that passes.
        from patprob.oracle import DEFAULT_MC_SEED

        cells = 0
        outside = 0
        for n in range(2, 6):
            for symbols in itertools.product((0, 1), repeat=n):
                word = Word(symbols, 2)
                table = P_table(bifix_indicator(word), 2, 14)
                run = monte_carlo(word, McConfig(trials=4_000, k=14, seed=DEFAULT_MC_SEED))
                for k in range(1, 15):
                    cells += 1
                    if abs(run.p_hat[k] - float(table.P[k])) > 3 * run.stderr[k]:
                        outside += 1
        assert cells == 60 * 14
        assert outside / cells <= 0.01, f"{outside}/{cells} cells outside 3 stderr"

    def test_json_records_generator_and_seed(self):
        result = monte_carlo(w("11"), McConfig(trials=50, k=8, seed=4))
        d = result.to_json_dict()
        assert d["generator"] == "numpy-philox4x64/block2^14"
        assert d["seed"] == 4

    @pytest.mark.parametrize("L", [2**63 + 1, 2**64])
    def test_alphabet_beyond_int64_is_refused(self, L):
        with pytest.raises(ValueError, match=rf"alphabet size L must be <= 2\*\*63, got {L}$"):
            monte_carlo(Word((L - 1, 0), L), McConfig(trials=1, k=2, seed=0))

    def test_largest_int64_alphabet_runs(self):
        L = 2**63
        result = monte_carlo(Word((L - 1, 0), L), McConfig(trials=3, k=4, seed=0))
        assert result.censored == 3


@functools.lru_cache(maxsize=1)
def block_rows(L, seed, k, block):
    """All R = max(1, 2**14 // k) rows of a block, drawn at once as R*k
    symbols from the block's own fresh Philox."""
    rows = max(1, 2**14 // k)
    bits = np.random.Philox(key=seed, counter=block << 128)
    return np.random.Generator(bits).integers(0, L, size=rows * k).reshape(rows, k).tolist()


def block_stream(L, seed, k, trial):
    """A trial's k symbols: row trial % R of block trial // R."""
    rows = max(1, 2**14 // k)
    return block_rows(L, seed, k, trial // rows)[trial % rows]


def trial_stream(L, seed, k, trial):
    """A trial's k symbols from its own fresh Philox at counter trial << 128."""
    bits = np.random.Philox(key=seed, counter=trial << 128)
    return np.random.Generator(bits).integers(0, L, size=k).tolist()


def reference_monte_carlo(pattern, config, stream=block_stream):
    """Monte Carlo with a fresh Philox and Generator per stream, stepped symbol
    by symbol through the automaton's transition function.

    naive_step, not PatternAutomaton.step, moves the state (TestAutomaton
    checks that they agree), so the reference shares no code with the
    library it checks.
    """
    L, n, horizon = pattern.alphabet_size, len(pattern), config.k
    wait_counts = Counter()
    censored = 0
    total_wait = 0
    for trial in range(config.trials):
        state = 0
        for j, symbol in enumerate(stream(L, config.seed, horizon, trial)):
            state = naive_step(pattern, state, symbol)
            if state == n:
                wait_counts[j + 1] += 1
                total_wait += j + 1
                break
        else:
            censored += 1
            total_wait += horizon
    p_hat = [0.0] * (horizon + 1)
    cumulative = 0
    for j in range(1, horizon + 1):
        cumulative += wait_counts[j]
        p_hat[j] = cumulative / config.trials
    stderr = [sqrt(p * (1.0 - p) / config.trials) for p in p_hat]
    return McResult(
        pattern,
        config,
        GENERATOR_NAME,
        tuple(p_hat),
        tuple(stderr),
        dict(wait_counts),
        censored,
        total_wait / config.trials,
    ).to_json_dict()


def drawn_pattern(L, seed, k, trial, start, n):
    """Symbols start..start+n-1 of a trial's stream, written in comma form:
    a pattern that trial is sure to hit, over an alphabet too large to hit
    by chance."""
    return ",".join(str(s) for s in block_stream(L, seed, k, trial)[start : start + n])


LONG_K = 2**14 + 3  # one trial per block


class TestMonteCarloStream:
    """monte_carlo draws exactly the reference's streams and finds the same hits."""

    @pytest.mark.parametrize(
        "text, L, seed, trials, k",
        [
            ("00", 2, 0, 300, 30),
            ("000000", 2, 2**128 - 1, 200, 40),
            ("11", 2, 12345, 1, 9),
            ("210", 3, 0, 300, 25),
            ("210", 3, 2**128 - 1, 200, 3),  # k == n
            ("0,1,1", 2, 7, 50, 3),
            ("11011", 2, 3, 40, 4),  # k < n: every trial censored
            ("1101", 2, 9, 1000, 40),  # blocks of 409, 409 and 182 trials
            ("1,2,0", 3, 11, 10, 5461),  # blocks of 3, 3, 3 and 1 trials; odd draw counts
            (drawn_pattern(300, 0, 20, 2, 5, 2), 300, 0, 40, 20),
            (drawn_pattern(300, 2**128 - 1, 2, 0, 0, 2), 300, 2**128 - 1, 1, 2),
            (drawn_pattern(300, 5, 5000, 6, 4990, 3), 300, 5, 7, 5000),  # hit in the partial last block
            (drawn_pattern(2**33, 0, 12, 3, 4, 2), 2**33, 0, 20, 12),  # numpy's 64-bit draws
            (drawn_pattern(2**33, 2**128 - 1, 2, 0, 0, 2), 2**33, 2**128 - 1, 1, 2),
            (drawn_pattern(2**33, 8, 6000, 3, 17, 2), 2**33, 8, 5, 6000),  # 2 rows a block
            (drawn_pattern(300, 1, LONG_K, 2, LONG_K - 2, 2), 300, 1, 3, LONG_K),
        ],
    )
    def test_matches_reference(self, text, L, seed, trials, k):
        pattern = Word.parse(text, L)
        config = McConfig(trials=trials, k=k, seed=seed)
        expected = reference_monte_carlo(pattern, config)
        result = monte_carlo(pattern, config)
        assert result.to_json_dict() == expected
        assert all(type(j) is int and type(c) is int for j, c in result.wait_counts.items())
        assert type(result.censored) is int
        if L > 3:
            assert expected["censored"] < trials  # the drawn pattern is hit

    def test_long_horizon_draws_one_trial_per_counter(self):
        # From k = 2**14 on, a block is one trial, so trial t's stream is the
        # one a fresh Philox at counter t << 128 draws.
        for trial in range(3):
            assert block_stream(2**33, 4, LONG_K, trial) == trial_stream(2**33, 4, LONG_K, trial)
        pattern = Word.parse("0,0,1", 2)
        config = McConfig(trials=4, k=LONG_K, seed=4)
        expected = reference_monte_carlo(pattern, config, stream=trial_stream)
        assert monte_carlo(pattern, config).to_json_dict() == expected
