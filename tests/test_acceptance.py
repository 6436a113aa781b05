"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Every tolerance is pinned here. Probability comparisons are exact (zero
tolerance) unless a line states otherwise; the expectation series uses
1e-9 and the Monte Carlo bands use four standard errors.
"""

import itertools
import random
import time
from functools import cache

import pytest

from patprob import route_tables
from patprob.markov import ChainSpec, check_lemmas, compare_chains
from patprob.numerics import ExactProb
from patprob.oracle import (
    DEFAULT_MC_SEED,
    McConfig,
    automaton_counts,
    counterexample_check,
    enum_counts,
    monte_carlo,
)
from patprob.patterns import (
    BifixIndicator,
    Ordering,
    SWord,
    Word,
    bifix_indicator,
    census,
    compare_indicators,
    expected_wait_closed,
    k0_of_pair,
    k0_sharp,
    s_from_h,
)
from patprob.recursions import P_table, expected_wait_series


def report(cid, name, ok, detail):
    print(f"\nACCEPTANCE {cid} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------- sweeps


@cache
def binary_patterns():
    """All binary patterns of length 2..5 (exhaustive)."""
    return tuple(
        Word(symbols, 2)
        for n in range(2, 6)
        for symbols in itertools.product((0, 1), repeat=n)
    )


@cache
def ternary_sample():
    """50 seeded random ternary patterns of length 2..4."""
    rng = random.Random(20250809)
    words = []
    for _ in range(50):
        n = rng.randrange(2, 5)
        words.append(Word(tuple(rng.randrange(3) for _ in range(n)), 3))
    return tuple(words)


@cache
def ordered_class_pairs():
    """Strictly ordered pairs of realizable indicator classes, n = 2..6, L = 2."""
    pairs = []
    for n in range(2, 7):
        classes = list(census(n, 2))
        for low, high in itertools.permutations(classes, 2):
            if compare_indicators(low, high) is Ordering.LESS:
                pairs.append((low, high))
    return tuple(pairs)


def all_swords(n):
    return [SWord(t) for t in itertools.product(*(range(i + 1) for i in range(n)))]


@cache
def small_sword_pairs():
    """All strictly ordered jump-word pairs at n <= 4, for L in {2, 3}."""
    pairs = []
    for n in range(1, 5):
        words = all_swords(n)
        for s, s_prime in itertools.permutations(words, 2):
            if all(a >= b for a, b in zip(s.targets, s_prime.targets)) and s != s_prime:
                for L in (2, 3):
                    pairs.append((s, s_prime, L))
    return tuple(pairs)


@cache
def random_sword_pairs():
    """200 seeded random strictly ordered pairs per (n, L), n in 5..7, L in {2, 3}.

    Includes jump targets well above 1, beyond the bifix-derived range.
    """
    rng = random.Random(424242)
    pairs = []
    for n in (5, 6, 7):
        for L in (2, 3):
            found = 0
            while found < 200:
                s = tuple(rng.randint(0, i) for i in range(n))
                s_prime = tuple(rng.randint(0, s[i]) for i in range(n))
                if s == s_prime:
                    continue
                pairs.append((SWord(s), SWord(s_prime), L))
                found += 1
    return tuple(pairs)


@cache
def chains_built_in_2_to_4():
    """Deduplicated (jump word, L) of every chain the sweeps above exercise."""
    specs = set()
    for word in binary_patterns():
        specs.add((s_from_h(bifix_indicator(word)).targets, 2))
    for word in ternary_sample():
        specs.add((s_from_h(bifix_indicator(word)).targets, 3))
    for low, high in ordered_class_pairs():
        specs.add((s_from_h(low).targets, 2))
        specs.add((s_from_h(high).targets, 2))
    for s, s_prime, L in small_sword_pairs() + random_sword_pairs():
        specs.add((s.targets, L))
        specs.add((s_prime.targets, L))
    return tuple(sorted(specs))


# ------------------------------------------------------------- criteria


def test_criterion_1_known_indicators():
    expected = {
        "10000": "0000",
        "10001": "1000",
        "10010": "0100",
        "11011": "1100",
    }
    got = {text: bifix_indicator(Word.parse(text, 2)).text() for text in expected}
    ok = got == expected
    report(1, "known bifix indicators", ok, f"{got}")
    assert ok


def _tables_agree_everywhere(word, upto):
    tables = route_tables(bifix_indicator(word), word.alphabet_size, upto, word)
    if len({t.C for t in tables.values()}) != 1:
        return False
    enum = enum_counts(word, upto)
    machine = automaton_counts(word, upto)
    return enum.contains == machine.contains and enum.first_at == machine.first_at


def test_criterion_2_method_and_oracle_equality():
    started = time.monotonic()
    failures = []
    for word in binary_patterns():
        if not _tables_agree_everywhere(word, 14):
            failures.append(word.text())
    for word in ternary_sample():
        if not _tables_agree_everywhere(word, 9):
            failures.append(word.text())
    elapsed = time.monotonic() - started
    count = len(binary_patterns()) + len(ternary_sample())
    ok = not failures and elapsed < 60
    report(
        2,
        "five-way method equality + enumeration oracle",
        ok,
        f"{count} patterns, exact, {elapsed:.1f}s" + (f", failures: {failures}" if failures else ""),
    )
    assert not failures
    assert elapsed < 60


def test_criterion_2_views_are_the_counts():
    # Each route's lazy p and P views read as the per-value ExactProb lists
    # of its counts, on the criterion-2 patterns and horizons.
    for word, upto in [(w, 14) for w in binary_patterns()] + [(w, 9) for w in ternary_sample()]:
        L = word.alphabet_size
        for name, t in route_tables(bifix_indicator(word), L, upto, word).items():
            P = [ExactProb(c, k, L) for k, c in enumerate(t.C)]
            p = [ExactProb(c - L * b, k, L) for k, (b, c) in enumerate(zip((0,) + t.C, t.C))]
            assert tuple(t.P) == tuple(P) and tuple(t.p) == tuple(p), (word.text(), name)


def test_criterion_3_class_monotonicity_sharp_threshold():
    started = time.monotonic()
    violations = []
    for low, high in ordered_class_pairs():
        n = low.n
        upto = 3 * n
        threshold = k0_sharp(low, high)
        t_low = P_table(low, 2, upto)
        t_high = P_table(high, 2, upto)
        for k in range(upto + 1):
            if k < threshold:
                if t_low.P[k] != t_high.P[k]:
                    violations.append((low.text(), high.text(), k, "expected equal"))
            elif not t_high.P[k] < t_low.P[k]:
                violations.append((low.text(), high.text(), k, "expected strict"))
        chain_report = compare_chains(s_from_h(low), s_from_h(high), 2, upto)
        if not chain_report.conforms or chain_report.k0 != threshold:
            violations.append((low.text(), high.text(), "chain", "mismatch"))
    elapsed = time.monotonic() - started
    ok = not violations and elapsed < 60
    report(
        "3a",
        "class monotonicity at the sharp threshold",
        ok,
        f"{len(ordered_class_pairs())} ordered pairs, n<=6, L=2, "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )
    assert not violations
    assert elapsed < 60


@pytest.mark.xfail(
    strict=True,
    reason="the first-differing-border threshold n + min{i} is not sharp: "
    "classes 0000 < 1000 have equal tables through k = 8 yet the formula "
    "gives 6; the sharp threshold (criterion 3a) is 2n - max{i} = 9",
)
def test_criterion_3_first_difference_threshold_as_stated():
    violations = []
    for low, high in ordered_class_pairs():
        upto = 3 * low.n
        threshold = k0_of_pair(low, high)
        t_low = P_table(low, 2, upto)
        t_high = P_table(high, 2, upto)
        for k in range(threshold, upto + 1):
            if not t_high.P[k] < t_low.P[k]:
                violations.append((low.text(), high.text(), k))
    witness = violations[0] if violations else None
    report(
        "3b",
        "threshold formula n + min{i} taken literally",
        not violations,
        f"{len(violations)} strictness violations"
        + (f", first witness {witness}" if witness else ""),
    )
    assert not violations


def test_criterion_4_jump_word_comparison_sweep():
    started = time.monotonic()
    pairs = small_sword_pairs() + random_sword_pairs()
    violations = []
    has_high_targets = False
    for s, s_prime, L in pairs:
        if any(t > 1 for t in s.targets):
            has_high_targets = True
        result = compare_chains(s, s_prime, L, 30)
        if not result.conforms:
            violations.append((s.targets, s_prime.targets, L, result.violations))
    elapsed = time.monotonic() - started
    ok = not violations and has_high_targets and elapsed < 120
    report(
        4,
        "general jump-word comparison, K=30",
        ok,
        f"{len(pairs)} strict pairs ({len(small_sword_pairs())} exhaustive at n<=4, "
        f"{len(random_sword_pairs())} random at n=5..7), "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )
    assert not violations
    assert has_high_targets  # sweep must include targets beyond the bifix range
    assert elapsed < 120


def test_criterion_5_lemma_suite_on_every_chain():
    started = time.monotonic()
    failures = []
    for targets, L in chains_built_in_2_to_4():
        result = check_lemmas(ChainSpec(SWord(targets), L), 30)
        if not result.passed:
            failures.append((targets, L))
    elapsed = time.monotonic() - started
    ok = not failures
    report(
        5,
        "reach-probability laws on every chain from 2-4",
        ok,
        f"{len(chains_built_in_2_to_4())} distinct chains, "
        f"{len(failures)} failures, {elapsed:.1f}s",
    )
    assert not failures


def test_criterion_6_expectation_series_vs_closed_form():
    started = time.monotonic()
    spot = {
        ((1,), 2): 6,
        ((0,), 2): 4,
        ((1, 1, 0, 0), 2): 38,
    }
    failures = []
    checked = 0
    for L in (2, 3):
        for n in range(2, 6):
            for h in census(n, L):
                closed = expected_wait_closed(h, L)
                series = expected_wait_series(h, L, 1e-9)
                checked += 1
                if not series.converged or abs(series.value - closed) >= 1e-9:
                    failures.append((h.text(), L, closed, series.value))
    for (bits, L), value in spot.items():
        if expected_wait_closed(BifixIndicator(bits), L) != value:
            failures.append((bits, L, "spot", value))
    elapsed = time.monotonic() - started
    ok = not failures
    report(
        6,
        "expectation: series within 1e-9 of closed form",
        ok,
        f"{checked} classes over L in {{2,3}}, n<=5, {elapsed:.1f}s"
        + (f", failures: {failures}" if failures else ""),
    )
    assert not failures


def test_criterion_7_non_affine_counterexample():
    result = counterexample_check()
    golden = (
        ExactProb(125, 9, 2),
        ExactProb(121, 9, 2),
        ExactProb(231, 10, 2),
        ExactProb(447, 11, 2),
    )
    ok = (
        result.ok
        and result.probabilities == golden
        and [h.text() for h in result.indicators] == ["0000", "1000", "0100", "1100"]
    )
    c1, c2, c3, c4 = (p.num * 2 ** (12 - p.den_exp) for p in result.probabilities)
    report(
        7,
        "indicator sums equal, probability sums differ at k=12",
        ok,
        f"P1+P4 = {c1 + c4}/2^12, P2+P3 = {c2 + c3}/2^12",
    )
    assert result.indicator_sums_equal
    assert not result.probability_sums_equal
    assert result.probabilities == golden
    assert result.ok


def test_criterion_8_monte_carlo_calibration():
    started = time.monotonic()
    trials = 100_000
    run_long = monte_carlo(Word.parse("11", 2), McConfig(trials=trials, k=200, seed=DEFAULT_MC_SEED))
    run_short = monte_carlo(Word.parse("10", 2), McConfig(trials=trials, k=20, seed=DEFAULT_MC_SEED))
    band_violations = []
    for run, text in ((run_long, "11"), (run_short, "10")):
        table = P_table(bifix_indicator(Word.parse(text, 2)), 2, 20)
        for k in range(1, 21):
            # <= so that the exact-zero cells below the pattern length pass
            if abs(run.p_hat[k] - float(table.P[k])) > 4 * run.stderr[k]:
                band_violations.append((text, k))
    mean_gap = abs(run_long.mean_wait_censored - 6.0)
    elapsed = time.monotonic() - started
    ok = not band_violations and mean_gap < 0.1
    report(
        8,
        "Monte Carlo calibration, default seed",
        ok,
        f"{trials} trials, bands 4*stderr for k<=20, mean wait gap {mean_gap:.4f}, "
        f"{elapsed:.1f}s",
    )
    assert not band_violations
    assert mean_gap < 0.1
