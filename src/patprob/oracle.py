"""Independent ground truth: exhaustive enumeration, the pattern automaton
and a seeded Monte Carlo stream simulator.

The enumeration oracle scans every word naively and never consults the
automaton, so the two routes stay independent.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .budget import DEFAULT_ENUM_BUDGET, check_enum_budget
from .markov import ChainSpec, Matrix, transition_matrix
from .numerics import ExactProb
from .patterns import BifixIndicator, Word, bifix_indicator, s_from_h
from .recursions import ProbTable


class PatternAutomaton:
    """Matched-prefix automaton of a pattern, with the full match absorbing.

    State i < n is the length of the longest prefix of the pattern that is
    a suffix of the data read so far; state n, once reached, persists.
    Built with the standard failure-function construction.
    """

    def __init__(self, pattern: Word):
        if len(pattern) < 1:
            raise ValueError("pattern must be nonempty")
        self.pattern = pattern
        self.n = len(pattern)
        self.L = pattern.alphabet_size
        b = pattern.symbols
        fail = [0] * self.n
        k = 0
        for i in range(1, self.n):
            while k > 0 and b[i] != b[k]:
                k = fail[k - 1]
            if b[i] == b[k]:
                k += 1
            fail[i] = k
        delta = []
        for i in range(self.n):
            row = []
            for c in range(self.L):
                if c == b[i]:
                    row.append(i + 1)
                elif i > 0:
                    row.append(delta[fail[i - 1]][c])
                else:
                    row.append(0)
            delta.append(row)
        delta.append([self.n] * self.L)
        self.delta = delta

    def step(self, state: int, symbol: int) -> int:
        return self.delta[state][symbol]

    def markov_matrix(self) -> Matrix:
        """One-step transition probabilities induced by uniform symbols."""
        L = self.L
        rows = []
        for row in self.delta:
            counts = Counter(row)
            rows.append(tuple(ExactProb(counts.get(j, 0), 1, L) for j in range(self.n + 1)))
        return tuple(rows)


@dataclass(frozen=True)
class OccurrenceCounts:
    """Exact counts over all L**k words of length k.

    contains: words with at least one occurrence of the pattern.
    first_at: index j holds the number of words whose first occurrence
    ends exactly at position j (entry 0 is unused and zero).
    """

    pattern: Word
    k: int
    contains: int
    first_at: tuple[int, ...]

    def prob_contains(self) -> ExactProb:
        return ExactProb(self.contains, self.k, self.pattern.alphabet_size)

    def prob_first_at(self, j: int) -> ExactProb:
        return ExactProb(self.first_at[j], self.k, self.pattern.alphabet_size)

    def to_json_dict(self) -> dict:
        return {
            "b": self.pattern.text(),
            "L": self.pattern.alphabet_size,
            "k": self.k,
            "contains": str(self.contains),
            "first_at": [str(c) for c in self.first_at[1:]],
        }


def enum_counts(pattern: Word, k: int, budget: int = DEFAULT_ENUM_BUDGET) -> OccurrenceCounts:
    """Brute-force occurrence counts by scanning every word of length k."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    L = pattern.alphabet_size
    n = len(pattern)
    check_enum_budget(L**k, budget, f"enum_counts(len {k}, L={L})")
    target = pattern.symbols
    first_at = [0] * (k + 1)
    contains = 0
    for word in itertools.product(range(L), repeat=k):
        for j in range(n, k + 1):
            if word[j - n : j] == target:
                first_at[j] += 1
                contains += 1
                break
    return OccurrenceCounts(pattern, k, contains, tuple(first_at))


def _absorbed_counts(pattern: Word, k: int) -> list[int]:
    """Entry j: how many length-j words contain the pattern, for j = 0..k.

    Dynamic programming over automaton states: tracks how many length-j
    words sit in each state; runs in O(k*n*L).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    aut = PatternAutomaton(pattern)
    L, n = aut.L, aut.n
    state_counts = [0] * (n + 1)
    state_counts[0] = 1
    absorbed = [0] * (k + 1)
    for j in range(1, k + 1):
        nxt = [0] * (n + 1)
        for state, count in enumerate(state_counts):
            if count:
                for c in range(L):
                    nxt[aut.delta[state][c]] += count
        state_counts = nxt
        absorbed[j] = state_counts[n]
    return absorbed


def automaton_counts(pattern: Word, k: int) -> OccurrenceCounts:
    """Occurrence counts via dynamic programming over automaton states.

    Must agree with enum_counts wherever both run.
    """
    L = pattern.alphabet_size
    absorbed = _absorbed_counts(pattern, k)
    first_at = [0] * (k + 1)
    for j in range(1, k + 1):
        fresh = absorbed[j] - L * absorbed[j - 1]  # first arrivals at step j
        first_at[j] = fresh * L ** (k - j)
    return OccurrenceCounts(pattern, k, absorbed[k], tuple(first_at))


def automaton_prob_table(pattern: Word, upto: int) -> ProbTable:
    """Probability table of a concrete pattern from automaton state counts."""
    return ProbTable.from_counts(
        bifix_indicator(pattern),
        pattern.alphabet_size,
        upto,
        _absorbed_counts(pattern, upto),
        "automaton",
    )


def automaton_matches_class_chain(pattern: Word) -> bool:
    """Whether the pattern's automaton induces exactly its class chain.

    True for many class representatives but not all: the class chain only
    promises equal absorption probabilities, not equal transition structure.
    """
    spec = ChainSpec(s_from_h(bifix_indicator(pattern)), pattern.alphabet_size)
    return PatternAutomaton(pattern).markov_matrix() == transition_matrix(spec)


@dataclass(frozen=True)
class CoincidenceStats:
    """Per bifix class: how many member words induce exactly the class chain."""

    indicator: BifixIndicator
    matching: int
    total: int

    @property
    def any_match(self) -> bool:
        return self.matching > 0


def chain_coincidence_census(
    n: int, alphabet_size: int, budget: int = DEFAULT_ENUM_BUDGET
) -> dict[BifixIndicator, CoincidenceStats]:
    """For every class at (n, L), count members whose automaton equals the chain."""
    if n < 2:
        raise ValueError(f"needs pattern length >= 2, got {n}")
    check_enum_budget(alphabet_size**n, budget, f"chain_coincidence_census(n={n}, L={alphabet_size})")
    matching: dict[BifixIndicator, int] = {}
    totals: dict[BifixIndicator, int] = {}
    for symbols in itertools.product(range(alphabet_size), repeat=n):
        word = Word(symbols, alphabet_size)
        h = bifix_indicator(word)
        totals[h] = totals.get(h, 0) + 1
        if automaton_matches_class_chain(word):
            matching[h] = matching.get(h, 0) + 1
    return {
        h: CoincidenceStats(h, matching.get(h, 0), totals[h])
        for h in sorted(totals, key=lambda ind: ind.bits)
    }


# Binary words whose class indicators sum to the same vector pairwise yet
# whose occurrence probabilities do not: probabilities are not an affine
# function of the indicator.
NON_AFFINE_WORDS = (
    (1, 0, 0, 0, 0),
    (1, 0, 0, 0, 1),
    (1, 0, 0, 1, 0),
    (1, 1, 0, 1, 1),
)
NON_AFFINE_HORIZON = 12


@dataclass(frozen=True)
class CounterexampleReport:
    """Evidence that occurrence probability is not affine in the indicator."""

    words: tuple[Word, ...]
    indicators: tuple[BifixIndicator, ...]
    horizon: int
    probabilities: tuple[ExactProb, ...]
    indicator_sums_equal: bool
    probability_sums_equal: bool

    @property
    def ok(self) -> bool:
        return self.indicator_sums_equal and not self.probability_sums_equal

    def to_json_dict(self) -> dict:
        return {
            "words": [w.text() for w in self.words],
            "indicators": [h.text() for h in self.indicators],
            "horizon": self.horizon,
            "probabilities": [p.to_json_dict() for p in self.probabilities],
            "indicator_sums_equal": self.indicator_sums_equal,
            "probability_sums_equal": self.probability_sums_equal,
            "ok": self.ok,
        }


def counterexample_check(alphabet_size: int = 2) -> CounterexampleReport:
    """Check the four-word witness: h1+h4 = h2+h3 yet P1+P4 != P2+P3 at k=12."""
    words = tuple(Word(symbols, alphabet_size) for symbols in NON_AFFINE_WORDS)
    indicators = tuple(bifix_indicator(w) for w in words)
    h1, h2, h3, h4 = indicators
    sums_equal = tuple(a + d for a, d in zip(h1.bits, h4.bits)) == tuple(
        b + c for b, c in zip(h2.bits, h3.bits)
    )
    probs = tuple(automaton_counts(w, NON_AFFINE_HORIZON).prob_contains() for w in words)
    left = probs[0] + probs[3]
    right = probs[1] + probs[2]
    return CounterexampleReport(
        words, indicators, NON_AFFINE_HORIZON, probs, sums_equal, left == right
    )


GENERATOR_NAME = "numpy-philox4x64"
DEFAULT_MC_SEED = 12345


@dataclass(frozen=True)
class McConfig:
    """trials independent streams, each observed up to position k."""

    trials: int
    k: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.k < 1:
            raise ValueError(f"horizon k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class McResult:
    """Empirical first-occurrence estimates from seeded simulation.

    p_hat[j] is the fraction of trials whose first occurrence ended at or
    before position j; wait_counts histograms the observed waits; trials
    that never hit the pattern are censored at the horizon and contribute
    the horizon to mean_wait_censored.
    """

    pattern: Word
    config: McConfig
    generator: str
    p_hat: tuple[float, ...]
    stderr: tuple[float, ...]
    wait_counts: dict[int, int]
    censored: int
    mean_wait_censored: float

    def to_json_dict(self) -> dict:
        return {
            "b": self.pattern.text(),
            "L": self.pattern.alphabet_size,
            "trials": self.config.trials,
            "k": self.config.k,
            "seed": self.config.seed,
            "generator": self.generator,
            "p_hat": list(self.p_hat),
            "stderr": list(self.stderr),
            "wait_counts": {str(j): c for j, c in sorted(self.wait_counts.items())},
            "censored": self.censored,
            "mean_wait_censored": self.mean_wait_censored,
        }


def monte_carlo(pattern: Word, config: McConfig) -> McResult:
    """Simulate seeded uniform streams and record first-occurrence times.

    Each trial draws its symbols from a counter-split Philox stream, so
    results are identical for a given (seed, trials, k) no matter how the
    trials are partitioned over workers.
    """
    aut = PatternAutomaton(pattern)
    L, n = aut.L, aut.n
    delta = aut.delta
    wait_counts: Counter[int] = Counter()
    censored = 0
    total_wait = 0
    horizon = config.k
    for trial in range(config.trials):
        bits = np.random.Philox(key=config.seed, counter=trial << 128)
        symbols = np.random.Generator(bits).integers(0, L, size=horizon).tolist()
        state = 0
        wait = None
        for j, symbol in enumerate(symbols):
            state = delta[state][symbol]
            if state == n:
                wait = j + 1
                break
        if wait is None:
            censored += 1
            total_wait += horizon
        else:
            wait_counts[wait] += 1
            total_wait += wait
    trials = config.trials
    p_hat = [0.0] * (horizon + 1)
    cumulative = 0
    for j in range(1, horizon + 1):
        cumulative += wait_counts.get(j, 0)
        p_hat[j] = cumulative / trials
    stderr = [sqrt(p * (1.0 - p) / trials) for p in p_hat]
    return McResult(
        pattern,
        config,
        GENERATOR_NAME,
        tuple(p_hat),
        tuple(stderr),
        dict(wait_counts),
        censored,
        total_wait / trials,
    )
