"""Independent ground truth: exhaustive enumeration, the pattern automaton
and a seeded Monte Carlo stream simulator.

The enumeration oracle compares every window of every word with the
pattern, all words at once: bit w of an L**k-bit integer stands for word
number w in `itertools.product` order, so the words where symbol i equals
c form one mask (`patterns._symbol_mask`, which the census shares), and a
bitwise AND of n such masks marks every word whose window ending at j
holds the pattern. The Monte Carlo simulator searches the drawn symbols
for the pattern. Neither consults the automaton, so the routes stay
independent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from math import sqrt
from operator import itemgetter, mul
from typing import Iterator

from .numerics import ExactProb, ProbTable
from .patterns import (
    DEFAULT_ENUM_BUDGET,
    BifixIndicator,
    Word,
    _failure,
    _symbol_mask,
    _Value,
    bifix_indicator,
    check_enum_budget,
)


class PatternAutomaton:
    """Matched-prefix automaton of a pattern, with the full match absorbing.

    State i < n is the length of the longest prefix of the pattern that is
    a suffix of the data read so far; state n, once reached, persists.

    Only the transitions that do not fall back to state 0 are stored:
    `rows[i]` maps each such symbol of state i < n to its target, and every
    other symbol leads to 0. Row i is a copy of row fail[i-1] (the standard
    failure-function construction) with b[i] -> i+1 set. A string-matching
    automaton has at most 2n transitions that do not lead to 0 (Simon's
    bound), so the rows take O(n) time and space whatever the alphabet size.
    """

    def __init__(self, pattern: Word):
        if len(pattern) < 1:
            raise ValueError("pattern must be nonempty")
        self.pattern = pattern
        self.n = len(pattern)
        self.L = pattern.alphabet_size
        b = pattern.symbols
        fail = _failure(b)
        rows: list[dict[int, int]] = []
        for i, c in enumerate(b):
            row = dict(rows[fail[i - 1]]) if i else {}
            row[c] = i + 1
            rows.append(row)
        self.rows = rows

    def step(self, state: int, symbol: int) -> int:
        """The state after reading `symbol` in `state`."""
        if state == self.n:
            return self.n
        return self.rows[state].get(symbol, 0)


class OccurrenceCounts(_Value):
    """Exact counts over all L**k words of length k.

    contains: words with at least one occurrence of the pattern.
    first_at: index j holds the number of words whose first occurrence
    ends exactly at position j (entry 0 is unused and zero).
    """

    __slots__ = ("pattern", "k", "contains", "first_at")

    def __init__(self, pattern: Word, k: int, contains: int, first_at: tuple[int, ...]) -> None:
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "contains", contains)
        object.__setattr__(self, "first_at", first_at)

    def prob_contains(self) -> ExactProb:
        return ExactProb(self.contains, self.k, self.pattern.alphabet_size)


def enum_counts(pattern: Word, k: int, budget: int = DEFAULT_ENUM_BUDGET) -> OccurrenceCounts:
    """Brute-force occurrence counts over every word of length k.

    Scans all L**k words at once on L**k-bit integers (bit w is word number
    w in `itertools.product` order). Each position p gets its mask
    S(p, 0), "symbol p is 0", once; S(p, c) is S(p, 0) shifted up by c runs
    of L**(k-1-p) bits. For each end position j, `hit` ANDs the shifted
    masks of positions j-n .. j-1 with the pattern's symbols, so it marks
    the words whose window ending at j holds the pattern; the words in
    `hit` but not yet in `found` first hit at j. A call builds k masks and
    keeps a window of the last n of them, so between operations at most
    n + 2 masks are live: the window, `hit` and `found`. At k = 24, L = 2
    each is 2 MiB.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    L = pattern.alphabet_size
    n = len(pattern)
    check_enum_budget(L, k, budget, f"enum_counts(len {k}, L={L})")
    symbols = pattern.symbols
    first_at = [0] * (k + 1)
    found = 0
    window: deque[int] = deque()  # S(p, 0) for p = j-n .. j-1
    for j in range(1, k + 1):
        window.append(_symbol_mask(k, L, j - 1, 0))
        if j < n:
            continue
        # The oldest mask is popped at its last use.
        hit = window.popleft() << symbols[0] * L ** (k - 1 - (j - n))
        for p, (mask, c) in enumerate(zip(window, symbols[1:]), j - n + 1):
            hit &= mask << c * L ** (k - 1 - p)
        before = found.bit_count()
        found |= hit
        del hit  # not live while the next mask is built
        first_at[j] = found.bit_count() - before
    return OccurrenceCounts(pattern, k, found.bit_count(), tuple(first_at))


def _absorbed_counts(pattern: Word) -> Iterator[int]:
    """Yield how many length-j words contain the pattern, for j = 0, 1, ...

    Dynamic programming over automaton states: tracks how many length-j
    words sit in each state. A step moves every count along the edge
    i -> i+1 at once, as the slice `state_counts[:n]` shifted up by one
    state; adds to each target of a stored back-edge the counts of its
    sources, gathered with one itemgetter per target; sends the
    L - len(rows[i]) other symbols of each state i to state 0, one weighted
    sum; and keeps all L symbols of the absorbing state. The gathers are
    built once from `PatternAutomaton.rows`, and a string-matching
    automaton has at most n back-edges, so a step costs O(n) for any
    alphabet size.
    """
    aut = PatternAutomaton(pattern)
    L, n = aut.L, aut.n
    sources: dict[int, list[int]] = {}  # back-edge target -> its source states
    for i, row in enumerate(aut.rows):
        for target in row.values():
            if target != i + 1:
                sources.setdefault(target, []).append(i)
    gathers = []
    for target, (first, *rest) in sources.items():
        # Given one index, itemgetter returns a bare value; a slice keeps a list.
        gather = itemgetter(first, *rest) if rest else itemgetter(slice(first, first + 1))
        gathers.append((target, gather))
    to_start = [L - len(row) for row in aut.rows]  # symbols of each state i < n that lead to 0
    state_counts = [1] + [0] * n
    while True:
        yield state_counts[n]
        nxt = [sum(map(mul, to_start, state_counts)), *state_counts[:n]]
        nxt[n] += L * state_counts[n]
        for target, gather in gathers:
            nxt[target] += sum(gather(state_counts))
        state_counts = nxt


def automaton_counts(pattern: Word, k: int) -> OccurrenceCounts:
    """Occurrence counts via dynamic programming over automaton states.

    Must agree with enum_counts wherever both run.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    L = pattern.alphabet_size
    absorbed = tuple(islice(_absorbed_counts(pattern), k + 1))
    first_at = [0] * (k + 1)
    for j in range(1, k + 1):
        fresh = absorbed[j] - L * absorbed[j - 1]  # first arrivals at step j
        first_at[j] = fresh * L ** (k - j)
    return OccurrenceCounts(pattern, k, absorbed[k], tuple(first_at))


def automaton_prob_table(pattern: Word, upto: int) -> ProbTable:
    """Probability table of a concrete pattern from automaton state counts."""
    h, L = bifix_indicator(pattern), pattern.alphabet_size
    return ProbTable.from_counts(h, L, upto, _absorbed_counts(pattern), "automaton")


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


class CounterexampleReport(_Value):
    """Evidence that occurrence probability is not affine in the indicator."""

    __slots__ = (
        "words",
        "indicators",
        "horizon",
        "probabilities",
        "indicator_sums_equal",
        "probability_sums_equal",
    )

    def __init__(
        self,
        words: tuple[Word, ...],
        indicators: tuple[BifixIndicator, ...],
        horizon: int,
        probabilities: tuple[ExactProb, ...],
        indicator_sums_equal: bool,
        probability_sums_equal: bool,
    ) -> None:
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "indicators", indicators)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "probabilities", probabilities)
        object.__setattr__(self, "indicator_sums_equal", indicator_sums_equal)
        object.__setattr__(self, "probability_sums_equal", probability_sums_equal)

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
    counts = tuple(automaton_counts(w, NON_AFFINE_HORIZON) for w in words)
    c1, c2, c3, c4 = (c.contains for c in counts)  # all over L**NON_AFFINE_HORIZON
    return CounterexampleReport(
        words,
        indicators,
        NON_AFFINE_HORIZON,
        tuple(c.prob_contains() for c in counts),
        sums_equal,
        c1 + c4 == c2 + c3,
    )


GENERATOR_NAME = "numpy-philox4x64/block2^14"
BLOCK_SYMBOLS = 2**14  # symbols per Monte Carlo draw, k permitting
DEFAULT_MC_SEED = 12345


class McConfig(_Value):
    """trials independent streams, each observed up to position k."""

    __slots__ = ("trials", "k", "seed")

    def __init__(self, trials: int, k: int, seed: int) -> None:
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if k < 1:
            raise ValueError(f"horizon k must be >= 1, got {k}")
        if not 0 <= seed < 2**128:
            raise ValueError(f"seed must be in [0, 2**128), the Philox key range, got {seed}")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "seed", seed)


# A dataclass, unlike the value types, because callers derive altered
# results with dataclasses.replace.
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

    Trials run in blocks of R = max(1, 2**14 // k). Block b holds trials
    b*R, b*R + 1, ... and draws them in one call: an (m, k) int64 array from
    the Philox stream with key `seed` and counter `b << 128`, where m is R,
    or fewer for the last block. Draws fill the array row by row, so trial t
    sees row t % R of its block's stream whether or not later rows are
    drawn: a trial's symbols depend on (seed, k, t) and not on `trials`.
    Below k = 2**14 they do depend on k, because k sets R; from k = 2**14 on,
    R = 1 and trial t draws its k symbols from counter t << 128. One bit
    generator serves every block: before block b its state is reset to what
    a fresh `Philox(key=seed, counter=b << 128)` holds.

    A trial's first occurrence ends n - 1 symbols after the first column
    where all n shifted comparisons with the pattern hold; the pattern
    automaton is not consulted, so Monte Carlo checks the automaton route
    independently.

    numpy is imported here, so only callers of this function load it.
    """
    L, n = pattern.alphabet_size, len(pattern)
    if n < 1:
        raise ValueError("pattern must be nonempty")
    if L > 2**63:
        raise ValueError(f"Monte Carlo draws int64 symbols, so alphabet size L must be <= 2**63, got {L}")
    import numpy as np

    bits = np.random.Philox(key=config.seed, counter=0)
    draw = np.random.Generator(bits).integers
    fresh = bits.state  # empty buffer, no cached half word; counter set per block
    trials, horizon = config.trials, config.k
    per_block = max(1, BLOCK_SYMBOLS // horizon)
    starts = horizon - n + 1  # columns where an occurrence can start
    blocks = range(0, trials, per_block) if starts > 0 else ()  # k < n: no trial can hit
    tally = np.zeros(horizon + 1, dtype=np.int64)
    for block, first in enumerate(blocks):
        fresh["state"]["counter"][2] = block  # counter block << 128
        bits.state = fresh
        data = draw(0, L, size=(min(per_block, trials - first), horizon))
        hit = data[:, :starts] == pattern.symbols[0]
        for i in range(1, n):
            hit &= data[:, i : i + starts] == pattern.symbols[i]
        at = hit.argmax(axis=1)
        found = hit[np.arange(len(at)), at]
        waits = np.bincount(at[found] + n)
        tally[: len(waits)] += waits
    waited = np.flatnonzero(tally)
    wait_counts = dict(zip(waited.tolist(), tally[waited].tolist()))
    censored = trials - sum(wait_counts.values())
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
        wait_counts,
        censored,
        (sum(j * c for j, c in wait_counts.items()) + censored * horizon) / trials,
    )
