import functools
import itertools
import random
import sys
import time
import tracemalloc
from collections import Counter
from math import sqrt

import pytest

from patprob import EnumerationBudgetError, oracle
from patprob.numerics import ExactProb
from patprob.oracle import (
    McConfig,
    McResult,
    _automaton_rows,
    automaton_counts,
    automaton_prob_table,
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
    """The per-word loop that enum_counts replaced: (C, first_at).

    C_j counts the length-j words that hold the pattern, each the start of
    L**(k - j) length-k words whose first occurrence ends by j.
    """
    L, n, target = pattern.alphabet_size, len(pattern), pattern.symbols
    first_at = [0] * (k + 1)
    for word in itertools.product(range(L), repeat=k):
        for j in range(n, k + 1):
            if word[j - n : j] == target:
                first_at[j] += 1
                break
    return tuple(sum(first_at[: j + 1]) // L ** (k - j) for j in range(k + 1)), tuple(first_at)


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


def stored_step(rows, state, symbol):
    """The automaton's move as its rows store it, with state n absorbing."""
    n = len(rows)
    return n if state == n else rows[state].get(symbol, 0)


class TestAutomaton:
    def test_matches_naive_step_everywhere(self):
        rng = random.Random(555)
        words = [Word(tuple(rng.randrange(2) for _ in range(n)), 2) for n in range(2, 9) for _ in range(8)]
        words += [Word(tuple(rng.randrange(3) for _ in range(n)), 3) for n in range(2, 7) for _ in range(6)]
        for word in words:
            rows = _automaton_rows(word)
            for state in range(len(word) + 1):
                for symbol in range(word.alphabet_size):
                    assert stored_step(rows, state, symbol) == naive_step(word, state, symbol)

    def test_structural_invariants(self):
        for text in ["11011", "10010", "0000", "10"]:
            word = w(text)
            rows = _automaton_rows(word)
            n = len(word)
            for i in range(n):
                assert stored_step(rows, i, word.symbols[i]) == i + 1
            for c in range(word.alphabet_size):
                assert stored_step(rows, n, c) == n
            for i in range(n + 1):
                for c in range(word.alphabet_size):
                    assert stored_step(rows, i, c) <= i + 1

    @staticmethod
    def _check_sparse_rows(word):
        rows = _automaton_rows(word)
        assert len(rows) == len(word)
        assert sum(len(row) for row in rows) <= 2 * len(word)  # Simon's bound
        assert all(target != 0 for row in rows for target in row.values())

    def test_sparse_rows_every_binary_pattern(self):
        for n in range(1, 13):
            for symbols in itertools.product((0, 1), repeat=n):
                self._check_sparse_rows(Word(symbols, 2))

    @pytest.mark.parametrize("L", [3, 4, 7, 2**33])
    def test_sparse_rows_random_patterns(self, L):
        rng = random.Random(L)
        for _ in range(400):
            n = rng.randrange(1, 25)
            # Few distinct symbols make long borders, where rows grow.
            used = rng.randrange(1, L + 1)
            self._check_sparse_rows(Word(tuple(rng.randrange(used) for _ in range(n)), L))


class TestCounts:
    def test_double_one_in_three_flips(self):
        assert enum_counts(w("11"), 3).C == (0, 0, 1, 3)  # 011, 110, 111

    def test_one_zero_in_three_flips(self):
        assert enum_counts(w("10"), 3).C == (0, 0, 1, 4)  # 010, 100, 101, 110

    def test_pattern_longer_than_word(self):
        assert enum_counts(w("101"), 2).C == (0, 0, 0)

    def test_exact_fit(self):
        for text in ["110", "0101"]:
            assert automaton_counts(w(text), len(text)).contains == 1

    def test_first_at_sums_to_contains(self):
        # The first arrivals derived from the counts telescope back to C_k.
        for text, k in [("11", 8), ("100", 9)]:
            counts = automaton_counts(w(text), k)
            assert counts.k == k
            assert sum(counts.first_at) == counts.contains == automaton_prob_table(w(text), k).C[k]

    def test_budget_error_names_budget(self):
        with pytest.raises(EnumerationBudgetError, match="budget of 16777216"):
            enum_counts(w("11"), 25)

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
            assert (counts.C, counts.first_at) == enum_counts_reference(word, k), (word, k)

    @pytest.mark.parametrize("text", ONE_WORD_PER_CLASS_N4)
    def test_enum_equals_automaton_at_k20(self, text):
        word = w(text)
        assert enum_counts(word, 20) == automaton_counts(word, 20)

    def test_k20_words_cover_every_class_of_length_4(self):
        assert {bifix_indicator(w(t)) for t in ONE_WORD_PER_CLASS_N4} == set(census(4, 2))

    def test_enum_equals_automaton_at_budget_edge(self):
        word = w("1011")
        assert enum_counts(word, 24) == automaton_counts(word, 24)
        with pytest.raises(EnumerationBudgetError):
            enum_counts(word, 25)

    def test_enum_equals_automaton_binary(self):
        for n in range(2, 5):
            for symbols in itertools.product((0, 1), repeat=n):
                word = Word(symbols, 2)
                assert enum_counts(word, 10).C == automaton_counts(word, 10).C

    def test_enum_equals_automaton_ternary_sample(self):
        rng = random.Random(808)
        for _ in range(25):
            n = rng.randrange(2, 5)
            word = Word(tuple(rng.randrange(3) for _ in range(n)), 3)
            assert enum_counts(word, 8).C == automaton_counts(word, 8).C

    def test_counts_match_recursion_table(self):
        word = w("10000")
        assert automaton_counts(word, 12).C == P_table(bifix_indicator(word), 2, 12).C

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: enum_counts(w("01"), -1), "k must be >= 0, got -1"),
            (lambda: automaton_counts(w("01"), -1), "k must be >= 0, got -1"),
            (lambda: monte_carlo(Word((), 2), McConfig(trials=1, k=1, seed=0)),
             "word must be nonempty"),
            (lambda: enum_counts(Word((), 2), 3), "word must be nonempty"),
        ],
        ids=["enum_counts", "automaton_counts", "monte_carlo", "enum_counts_empty"],
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
        assert sorted(position for _, _, position in built) == list(range(k))
        assert counts.C == enum_counts_reference(word, k)[0]

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
        for L in (2, 3):
            report = counterexample_check(L)
            for word, prob in zip(report.words, report.probabilities):
                assert ExactProb(enum_counts(word, 12).contains, 12, L) == prob


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

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            McConfig(trials=1, k=1, seed=-1)

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
        assert d["generator"] == "python-mt19937/bit-planes"
        assert d["seed"] == 4

    @pytest.mark.parametrize("L", [2**63 + 1, 2**64, 2**64 + 1])
    def test_alphabet_beyond_int64_runs(self, L):
        result = monte_carlo(Word((L - 1, 0), L), McConfig(trials=3, k=4, seed=0))
        assert result.censored == 3

    def test_largest_int64_alphabet_runs(self):
        L = 2**63
        result = monte_carlo(Word((L - 1, 0), L), McConfig(trials=3, k=4, seed=0))
        assert result.censored == 3


@functools.lru_cache(maxsize=4)
def reference_streams(L, seed, trials, k):
    """Each trial's k symbols, read cell by cell from the bit planes of
    random.Random(seed).

    Trials are padded to a width of a multiple of 8, and cell (j, t),
    position j of trial t, is bit j*width + t of every plane, read from the
    plane's bytes. A round draws one getrandbits(width*k) plane for each
    bit of L - 1; bit q of a cell's value comes from the round's plane q.
    While some cell holds L or more, another round is drawn, and each such
    cell takes its value from it.
    """
    width = (trials + 7) // 8 * 8
    cells = width * k
    bits = (L - 1).bit_length()
    rng = random.Random(seed)

    def draw_round():
        return [rng.getrandbits(cells).to_bytes(cells // 8, "little") for _ in range(bits)]

    def value(planes, cell):
        return sum((plane[cell // 8] >> cell % 8 & 1) << q for q, plane in enumerate(planes))

    planes = draw_round()
    values = [value(planes, cell) for cell in range(cells)]
    pending = [cell for cell in range(cells) if values[cell] >= L]
    while pending:
        planes = draw_round()
        for cell in pending:
            values[cell] = value(planes, cell)
        pending = [cell for cell in pending if values[cell] >= L]
    return tuple(tuple(values[j * width + t] for j in range(k)) for t in range(trials))


def reference_monte_carlo(pattern, config):
    """Monte Carlo on `reference_streams`, stepped symbol by symbol through
    the automaton's transition function.

    naive_step, not the automaton's rows, moves the state (TestAutomaton
    checks that they agree), so the reference shares no code with the
    library it checks.
    """
    L, n, horizon = pattern.alphabet_size, len(pattern), config.k
    wait_counts = Counter()
    censored = 0
    total_wait = 0
    for stream in reference_streams(L, config.seed, config.trials, horizon):
        state = 0
        for j, symbol in enumerate(stream):
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
        tuple(p_hat),
        tuple(stderr),
        dict(wait_counts),
        censored,
        total_wait / config.trials,
    ).to_json_dict()


def drawn_pattern(L, seed, trials, k, trial, start, n):
    """Symbols start..start+n-1 of a trial's stream, written in comma form:
    a pattern that trial is sure to hit, over an alphabet too large to hit
    by chance."""
    return ",".join(map(str, reference_streams(L, seed, trials, k)[trial][start : start + n]))


def planes_of(rows, bits):
    """The planes of crafted cells: rows[t][j] is the value of position j
    of trial t, and trials past len(rows) hold 0."""
    width = (len(rows) + 7) // 8 * 8
    return [
        sum((value >> q & 1) << j * width + t for t, row in enumerate(rows) for j, value in enumerate(row))
        for q in range(bits)
    ]


def crafted_random(monkeypatch, planes):
    """Make random.Random(seed) hand out `planes`, in order, as its draws."""
    queue = list(planes)

    class Crafted:
        def getrandbits(self, cells):
            return queue.pop(0)

    monkeypatch.setattr(random, "Random", lambda seed: Crafted())
    return queue


def recorded_draws(monkeypatch):
    """Make random.Random record the size of each getrandbits draw."""
    sizes = []

    class Recording(random.Random):
        def getrandbits(self, cells):
            sizes.append(cells)
            return super().getrandbits(cells)

    monkeypatch.setattr(random, "Random", Recording)
    return sizes


# The shapes (L, seed, trials, k) of the Philox stream's checks: its block,
# buffer and symbol-width edges. Their patterns were drawn from that
# stream, so at large L they are now missed; the shapes still set the
# planes' widths, the redraw rounds and the seeds.
EARLIER_SHAPES = (
    ("141,26", 300, 0, 40, 20),
    ("133,128", 300, 2**128 - 1, 1, 2),
    ("44,248,129", 300, 5, 7, 5000),
    ("7265340022,8308769812", 2**33, 0, 20, 12),
    ("3666712604,4909253330", 2**33, 2**128 - 1, 1, 2),
    ("3891757715,7753281414", 2**33, 8, 5, 6000),
    ("299,150", 300, 1, 3, 16387),
    ("1267399432,2566953618", 3 * 2**30, 0, 40, 20),
    ("2032074242,1437084730,1676280998", 3 * 2**30, 6, 4, 5461),
    ("496340659,727199112", 2**31 + 1, 0, 40, 20),
    ("1981099789,299184863", 2**31 + 1, 2, 2, 16387),
    ("0,3,2,2,1,1,2,3,0", 4, 12, 4, 5461),
    ("1021357541,1514412184", 2**33, 5, 1305, 100),
    ("258,214", 300, 3, 2, 2**17 + 1),
    ("156,61", 256, 0, 1, 16),
    ("256,47", 257, 0, 4, 16),
    ("2276,756", 2**16, 0, 1, 16),
    ("65536,62282", 2**16 + 1, 11, 190, 16),
    ("149215387,49592932", 2**32, 0, 1, 16),
    ("4294967296,1494175577", 2**32 + 1, 316505, 208, 16),
    ("106500010600983629,2227898105101312729", 2**63, 0, 1, 16),
)


class TestMonteCarloStream:
    """monte_carlo draws exactly the reference's streams and finds the same hits."""

    @pytest.mark.parametrize(
        "text, L, seed, trials, k",
        [
            ("00", 2, 0, 300, 30),
            ("000000", 2, 2**128 - 1, 200, 40),
            ("0110", 2, 2**128, 13, 50),
            ("11", 2, 12345, 1, 9),
            ("210", 3, 0, 300, 25),
            ("210", 3, 2**128 - 1, 200, 3),  # k == n
            ("0,1,1", 2, 7, 50, 3),
            ("11011", 2, 3, 40, 4),  # k < n: every trial censored
            ("1101", 2, 9, 1000, 40),
            ("1,2,0", 3, 11, 10, 5461),  # a long horizon
            ("10010", 2, 4, 1305, 100),  # trials not a multiple of 8
            ("0000000000", 2, 6, 128, 1000),
            ("11", 2, 5, 64, 2000),  # every trial hit long before the horizon
            ("3,0,3", 4, 12, 21, 300),  # a power of two: nothing redrawn
            (drawn_pattern(300, 0, 40, 20, 2, 5, 2), 300, 0, 40, 20),
            (drawn_pattern(300, 2**128 - 1, 1, 2, 0, 0, 2), 300, 2**128 - 1, 1, 2),
            (drawn_pattern(300, 5, 7, 5000, 6, 4990, 3), 300, 5, 7, 5000),  # hit near the horizon
            (drawn_pattern(10**7, 0, 40, 20, 7, 10, 2), 10**7, 0, 40, 20),
            # About a quarter of the cells redrawn, then about a half.
            (drawn_pattern(3 * 2**30, 0, 40, 20, 5, 3, 2), 3 * 2**30, 0, 40, 20),
            (drawn_pattern(3 * 2**30, 6, 4, 2000, 3, 1990, 3), 3 * 2**30, 6, 4, 2000),
            (drawn_pattern(2**31 + 1, 0, 40, 20, 7, 10, 2), 2**31 + 1, 0, 40, 20),
            (drawn_pattern(2**32, 0, 20, 16, 3, 4, 2), 2**32, 0, 20, 16),
            (drawn_pattern(2**33, 2**128, 20, 12, 3, 4, 2), 2**33, 2**128, 20, 12),
            (drawn_pattern(2**64 + 1, 0, 20, 12, 19, 8, 2), 2**64 + 1, 0, 20, 12),
            (drawn_pattern(2**64 + 1, 2**128 - 1, 1, 2, 0, 0, 2), 2**64 + 1, 2**128 - 1, 1, 2),
            *EARLIER_SHAPES,
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
        assert all(type(x) is float for x in result.p_hat + result.stderr)
        if L > 4 and (text, L, seed, trials, k) not in EARLIER_SHAPES:
            assert expected["censored"] < trials  # the drawn pattern is hit

    @pytest.mark.parametrize("text, ends", [("11", (1,)), ("111", (1, 1))])
    def test_window_spanning_two_trials_is_no_hit(self, monkeypatch, text, ends):
        # Every trial, the 4 that pad the width too, starts and ends with
        # `ends`, one symbol short of the pattern, and holds 0 in between.
        # So adjacent trials, and trials 8 apart, hold the pattern at the
        # first and the last position, and no trial holds it.
        trials, k = 20, 10
        row = [*ends, *[0] * (k - 2 * len(ends)), *ends]
        crafted_random(monkeypatch, planes_of([row] * 24, 1))
        result = monte_carlo(w(text), McConfig(trials=trials, k=k, seed=0))
        assert result.censored == trials
        assert result.wait_counts == {}
        assert set(result.p_hat) == {0.0}

    @pytest.mark.parametrize("L", [3, 5, 6, 7, 2**32 + 1, 3 * 2**30])
    def test_cells_above_the_alphabet_are_redrawn(self, monkeypatch, L):
        # The first round holds L - 1, L and 2**s - 1 at position 0 of
        # trials 0, 1 and 2, and 0 everywhere else; the second holds L at
        # position 1 of trial 0 and L - 2 in every other cell. Only the
        # cells holding L and 2**s - 1 are redrawn, and only they are
        # compared again, so (L - 1, 0) hits trial 0 alone and (L - 2, 0)
        # trials 1 and 2.
        bits = (L - 1).bit_length()
        first = planes_of([[L - 1, 0], [L, 0], [2**bits - 1, 0]], bits)
        second = planes_of([[L - 2, L], [L - 2, L - 2], [L - 2, L - 2]], bits)
        for symbol, waits in [(L - 1, {2: 1}), (L - 2, {2: 2})]:
            queue = crafted_random(monkeypatch, first + second)
            result = monte_carlo(Word((symbol, 0), L), McConfig(trials=3, k=2, seed=0))
            assert result.wait_counts == waits
            assert queue == []  # two rounds, and no third

    # At L = 2 the one plane is the symbols: trial t holds bit j*width + t
    # of getrandbits(width*k) at position j. The counts around 64 pad the
    # width by 0, 1 and 7 trials.
    @pytest.mark.parametrize("count", [1, 63, 64, 65, 2**14, 2**16 + 3])
    def test_binary_symbols_are_raw_bits(self, count):
        seed, k = count, 6
        width = (count + 7) // 8 * 8
        plane = random.Random(seed).getrandbits(width * k).to_bytes(width * k // 8, "little")
        waits = Counter()
        for t in range(count):
            held = [plane[(j * width + t) // 8] >> t % 8 & 1 for j in range(k)]
            waits[next((j + 1 for j in range(1, k) if held[j - 1] and held[j]), None)] += 1
        result = monte_carlo(w("11"), McConfig(trials=count, k=k, seed=seed))
        assert result.censored == waits.pop(None, 0)
        assert result.wait_counts == waits

    # Where L is a power of two nothing is redrawn: one round of s draws,
    # each of width*k bits.
    @pytest.mark.parametrize("count", [1, 3, 2**14 - 1, 2**14])
    @pytest.mark.parametrize("L", [2, 2**32])
    def test_read_size_where_nothing_is_dropped(self, monkeypatch, L, count):
        sizes = recorded_draws(monkeypatch)
        result = monte_carlo(Word((L - 1, 0), L), McConfig(trials=count, k=3, seed=L + count))
        assert sizes == [(count + 7) // 8 * 8 * 3] * (L - 1).bit_length()
        assert result.censored + sum(result.wait_counts.values()) == count

    # At these L a fair share of the cells lands above L - 1, so later
    # rounds are drawn, and they must continue random.Random(seed) as the
    # reference reads it.
    @pytest.mark.parametrize("L, seed", [(10**7, 346), (3 * 2**30, 391), (2**31 + 1, 229)])
    def test_raw_symbols_second_read_continues_the_stream(self, monkeypatch, L, seed):
        trials, k = 8, 16
        pattern = Word.parse(drawn_pattern(L, seed, trials, k, 5, 9, 2), L)
        config = McConfig(trials=trials, k=k, seed=seed)
        expected = reference_monte_carlo(pattern, config)
        sizes = recorded_draws(monkeypatch)
        assert monte_carlo(pattern, config).to_json_dict() == expected
        assert expected["censored"] < trials
        s = (L - 1).bit_length()
        assert len(sizes) >= 2 * s and len(sizes) % s == 0
        assert set(sizes) == {trials * k}

    # A cell holding L - 1 is kept and one holding L is redrawn, at L whose
    # bits make the comparison carry through long runs of equal bits.
    @pytest.mark.parametrize(
        "L, trial, dropped", [(3 * 2**30, 3, False), (4165572755, 1, True), (3962518667, 6, True)]
    )
    def test_raw_symbols_at_the_drop_threshold(self, monkeypatch, L, trial, dropped):
        bits = (L - 1).bit_length()
        rows = [[0, 0]] * trial + [[L - 1 + dropped, 0]]
        first, second = planes_of(rows, bits), planes_of([[1, 0]] * (trial + 1), bits)
        for symbol, hit in [(L - 1, not dropped), (1, dropped)]:
            queue = crafted_random(monkeypatch, first + second)
            result = monte_carlo(Word((symbol, 0), L), McConfig(trials=trial + 1, k=2, seed=0))
            assert result.wait_counts == ({2: 1} if hit else {})
            assert len(queue) == (0 if dropped else bits)  # a second round only to redraw

    # Trial `trial` holds V, the least symbol that `narrower` cannot hold,
    # at positions start and start + 1; every other cell, one more trial's
    # too, holds 0, V's bits below its top plane. So the pattern (V, V) is
    # found only if its masks read V's top plane.
    @pytest.mark.parametrize(
        "L, seed, trial, start, narrower",
        [
            (256, 0, 0, 2, "int8"),
            (257, 0, 3, 7, "uint8"),
            (2**16, 0, 0, 0, "uint8"),
            (2**16 + 1, 11, 189, 2, "uint16"),
            (2**32, 0, 0, 0, "uint16"),
            (2**32 + 1, 316505, 207, 3, "uint32"),
            (2**63, 0, 0, 0, "uint32"),
        ],
    )
    def test_width_edge_patterns_need_their_width(self, monkeypatch, L, seed, trial, start, narrower):
        k = 16
        V = 2 ** (int(narrower.lstrip("uint")) - (not narrower.startswith("u")))
        rows = [[0] * k for _ in range(trial + 2)]
        rows[trial][start : start + 2] = [V, V]
        crafted_random(monkeypatch, planes_of(rows, (L - 1).bit_length()))
        result = monte_carlo(Word((V, V), L), McConfig(trials=trial + 2, k=k, seed=seed))
        assert result.wait_counts == {start + 2: 1}
        assert result.censored == trial + 1

    # Traced peaks on Python 3.11: 6.14 MiB at (64, 2**16), most of it the
    # output tuples of 65537 floats beside 512 KiB bit planes and masks, and
    # 0.54 MiB at (6000, 100), a few 73 KiB planes and masks.
    @pytest.mark.parametrize("text, trials, k, bound_mib", [("11", 64, 2**16, 6.9), ("10010", 6000, 100, 0.8)])
    def test_traced_peak(self, text, trials, k, bound_mib):
        pattern, config = w(text), McConfig(trials=trials, k=k, seed=1)
        monte_carlo(pattern, config)  # the one-time import of random is not counted
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            monte_carlo(pattern, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, peak / 2**20
