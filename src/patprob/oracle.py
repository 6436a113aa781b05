"""Independent ground truth: exhaustive enumeration, the pattern automaton
and a seeded Monte Carlo stream simulator.

The enumeration oracle compares every window of every word with the
pattern, all words at once: bit w of an L**k-bit integer stands for word
number w in `itertools.product` order, so the words where symbol i equals
c form one mask, S(i, 0) (`patterns._symbol_mask`, which the census
shares) shifted up by c runs, and a bitwise AND of n such masks marks
every word whose window ending at j holds the pattern. The Monte Carlo
simulator makes the same move over seeded random trials: their symbols are
drawn as bit planes, one bit of every cell per plane, and a bitwise AND of
shifted symbol masks marks every trial whose window ending at j holds the
pattern. Neither consults the automaton, so the routes stay independent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from math import sqrt
from operator import add, mul
from typing import Iterator

from .numerics import ExactProb, ProbTable
from .patterns import (
    DEFAULT_ENUM_BUDGET,
    BifixIndicator,
    Word,
    _at_least,
    _failure,
    _symbol_mask,
    _Value,
    bifix_indicator,
    check_enum_budget,
)


class OccurrenceCounts(_Value):
    """Exact counts over all L**k words of length k = len(first_at) - 1.

    first_at: index j holds the number of words whose first occurrence
    ends exactly at position j (entry 0 is unused and zero).
    contains: words with at least one occurrence, the sum of first_at.
    """

    __slots__ = ("pattern", "first_at")

    @property
    def k(self) -> int:
        return len(self.first_at) - 1

    @property
    def contains(self) -> int:
        return sum(self.first_at)


def enum_counts(pattern: Word, k: int) -> OccurrenceCounts:
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
    each is 2 MiB; past that size, DEFAULT_ENUM_BUDGET = 2**24 words, the
    call raises EnumerationBudgetError.
    """
    _at_least(k, 0, "k")
    L = pattern.alphabet_size
    n = len(pattern)
    check_enum_budget(L, k, DEFAULT_ENUM_BUDGET, f"enum_counts(len {k}, L={L})")
    symbols = pattern.symbols
    first_at = [0] * (k + 1)
    found = 0
    window: deque[int] = deque()  # S(p, 0) for p = j-n .. j-1
    for j in range(1, k + 1):
        window.append(_symbol_mask(k, L, j - 1))
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
    return OccurrenceCounts(pattern, tuple(first_at))


def _automaton_rows(pattern: Word) -> list[dict[int, int]]:
    """Transition rows of the pattern's matched-prefix automaton.

    State i < n is the length of the longest prefix of the pattern that is
    a suffix of the data read so far; state n, the full match, absorbs and
    has no row.

    Only the transitions that do not fall back to state 0 are stored:
    `rows[i]` maps each such symbol of state i < n to its target, and every
    other symbol leads to 0. Row i is a copy of row fail[i-1] (the standard
    failure-function construction) with b[i] -> i+1 set. A string-matching
    automaton has at most 2n transitions that do not lead to 0 (Simon's
    bound), so the rows take O(n) time and space whatever the alphabet size.
    """
    b = pattern.symbols
    fail = _failure(b)
    rows: list[dict[int, int]] = []
    for i, c in enumerate(b):
        row = dict(rows[fail[i - 1]]) if i else {}
        row[c] = i + 1
        rows.append(row)
    return rows


def _absorbed_counts(pattern: Word) -> Iterator[int]:
    """Yield how many length-j words contain the pattern, for j = 0, 1, ...

    Dynamic programming over automaton states: tracks how many length-j
    words sit in each state. A step moves every count along the edge
    i -> i+1 at once, as the slice `state_counts[:n]` shifted up by one
    state; scatters the count of each stored back-edge's source onto its
    target; sends the L - len(rows[i]) other symbols of each state i to
    state 0, one weighted sum; and keeps all L symbols of the absorbing
    state. The back-edges are listed once from `_automaton_rows`, and a
    string-matching automaton has at most n of them, so a step costs O(n)
    for any alphabet size.
    """
    rows = _automaton_rows(pattern)
    L, n = pattern.alphabet_size, len(rows)
    back_edges = [  # (source, target) of every stored edge other than i -> i+1
        (i, target)
        for i, row in enumerate(rows)
        for target in row.values()
        if target != i + 1
    ]
    to_start = [L - len(row) for row in rows]  # symbols of each state i < n that lead to 0
    state_counts = [1] + [0] * n
    while True:
        yield state_counts[n]
        nxt = [sum(map(mul, to_start, state_counts)), *state_counts[:n]]
        nxt[n] += L * state_counts[n]
        for source, target in back_edges:
            nxt[target] += state_counts[source]
        state_counts = nxt


def automaton_counts(pattern: Word, k: int) -> OccurrenceCounts:
    """Occurrence counts via dynamic programming over automaton states.

    Must agree with enum_counts wherever both run. The first arrivals
    a_j = A_j - L A_{j-1} at step j, each followed by any k - j symbols,
    telescope to the absorbed count A_k.
    """
    _at_least(k, 0, "k")
    L = pattern.alphabet_size
    absorbed = tuple(islice(_absorbed_counts(pattern), k + 1))
    first_at = [0] * (k + 1)
    for j in range(1, k + 1):
        fresh = absorbed[j] - L * absorbed[j - 1]  # first arrivals at step j
        first_at[j] = fresh * L ** (k - j)
    return OccurrenceCounts(pattern, tuple(first_at))


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
    """Evidence that occurrence probability is not affine in the indicator.

    counts[i] is the number of length-`horizon` words that contain words[i];
    the indicators, the probabilities and both sum verdicts follow from the
    words and the counts.
    """

    __slots__ = ("words", "horizon", "counts")

    @property
    def indicators(self) -> tuple[BifixIndicator, ...]:
        return tuple(bifix_indicator(w) for w in self.words)

    @property
    def probabilities(self) -> tuple[ExactProb, ...]:
        return tuple(ExactProb(c, self.horizon, w.alphabet_size) for w, c in zip(self.words, self.counts))

    @property
    def indicator_sums_equal(self) -> bool:
        h1, h2, h3, h4 = self.indicators
        return tuple(map(add, h1.bits, h4.bits)) == tuple(map(add, h2.bits, h3.bits))

    @property
    def probability_sums_equal(self) -> bool:
        c1, c2, c3, c4 = self.counts  # all over L**horizon
        return c1 + c4 == c2 + c3

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
    counts = tuple(automaton_prob_table(w, NON_AFFINE_HORIZON).C[-1] for w in words)
    return CounterexampleReport(words, NON_AFFINE_HORIZON, counts)


# The stream layout: bit planes of MT19937 words over all trials at once
# (`monte_carlo`), one plane for each bit of a symbol.
GENERATOR_NAME = "python-mt19937/bit-planes"
DEFAULT_MC_SEED = 12345


class McConfig(_Value):
    """trials independent streams, each observed up to position k."""

    __slots__ = ("trials", "k", "seed")

    def __init__(self, trials: int, k: int, seed: int) -> None:
        _at_least(trials, 1, "trials")
        _at_least(k, 1, "k")
        _at_least(seed, 0, "seed")
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
    the horizon to mean_wait_censored. The JSON names the one stream layout,
    GENERATOR_NAME.
    """

    pattern: Word
    config: McConfig
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
            "generator": GENERATOR_NAME,
            "p_hat": list(self.p_hat),
            "stderr": list(self.stderr),
            "wait_counts": {str(j): c for j, c in sorted(self.wait_counts.items())},
            "censored": self.censored,
            "mean_wait_censored": self.mean_wait_censored,
        }


def _above(planes: list[int], L: int, ones: int) -> int:
    """Mask of the cells above L - 1, whose value is bit q of `planes[q]`.

    A bit-sliced comparison, from the highest plane down: `equal` holds the
    cells that agree with L - 1 on every plane so far, and a cell leaves it
    for `above` where it has a 1 and L - 1 a 0. Where L is a power of two
    every bit of L - 1 is 1, so no cell is above it.
    """
    above, equal = 0, ones
    for q in reversed(range(len(planes))):
        if (L - 1) >> q & 1:
            equal &= planes[q]
        else:
            above |= equal & planes[q]
            equal &= ~planes[q]
    return above


def monte_carlo(pattern: Word, config: McConfig) -> McResult:
    """Simulate seeded uniform streams and record first-occurrence times.

    All trials are drawn at once, as bit planes: the move `enum_counts`
    makes over all words, with trials in place of words. `width` is
    `trials` rounded up to a multiple of 8; cell (j, t), position j of
    trial t, is bit j*width + t, and there are width*k cells. Plane q holds
    bit q of every cell, for q < s = (L - 1).bit_length(), and is one
    `getrandbits(width*k)` of `random.Random(seed)` (MT19937), drawn in the
    order q = 0, 1, .... A cell above L - 1 (`_above`) is drawn again: while
    any is left, s fresh planes are drawn the same way, the marked cells
    take their bits from them, and only those cells are compared again. So
    every symbol is exactly uniform on 0 .. L-1, and one rule serves every
    L; where L is a power of two no cell is ever redrawn. Through `width`,
    a trial's symbols depend on `trials` as well as on (seed, k, t).

    A trial's first occurrence ends at the first position j where its
    window of n symbols holds the pattern; the pattern automaton is not
    consulted, so Monte Carlo checks the automaton route independently. For
    each distinct pattern symbol c, one mask holds the cells equal to c
    (the AND of each plane or its complement), and `hit` ANDs the mask of
    b_p shifted up by (n - 1 - p)*width: a shift by `width` moves one
    position along every trial at once, so no window runs into another
    trial. The tally ORs position after position of `hit` into the trials
    `seen` to hit, and the number seen by j is one `bit_count`.

    `random` is imported here, so only callers of this function load it.
    """
    L, n = pattern.alphabet_size, len(pattern)
    _at_least(n, 2, "pattern length")
    import random

    rng = random.Random(config.seed)
    trials, horizon = config.trials, config.k
    width = -(-trials // 8) * 8
    cells = width * horizon
    ones = (1 << cells) - 1
    s = (L - 1).bit_length()
    planes = [rng.getrandbits(cells) for _ in range(s)]
    redo = _above(planes, L, ones)
    while redo:
        fresh = [rng.getrandbits(cells) for _ in range(s)]
        keep = ones ^ redo
        planes = [p & keep | f & redo for p, f in zip(planes, fresh)]
        redo &= _above(fresh, L, ones)
    masks = {}
    for c in set(pattern.symbols):
        masks[c] = ones
        for q, plane in enumerate(planes):
            masks[c] &= plane if c >> q & 1 else ~plane
    del planes
    hit = ones
    for p, c in enumerate(pattern.symbols):
        hit &= masks[c] << (n - 1 - p) * width
    del masks
    row = width // 8
    data = hit.to_bytes(cells // 8, "little")
    del hit
    valid = (1 << trials) - 1  # the trials past `trials` only pad the width
    seen, seen_by = 0, [0] * (horizon + 1)  # seen_by[j]: trials hit at or before j
    for j in range(n - 1, horizon):
        seen |= int.from_bytes(data[j * row : (j + 1) * row], "little") & valid
        seen_by[j + 1] = seen.bit_count()
    wait_counts = {j: c - b for j, (b, c) in enumerate(zip(seen_by, seen_by[1:]), 1) if c != b}
    censored = trials - seen_by[-1]
    p_hat = tuple(c / trials for c in seen_by)
    return McResult(
        pattern,
        config,
        p_hat,
        tuple(sqrt(p * (1.0 - p) / trials) for p in p_hat),
        wait_counts,
        censored,
        (sum(j * c for j, c in wait_counts.items()) + censored * horizon) / trials,
    )
