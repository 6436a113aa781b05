"""Independent ground truth: exhaustive enumeration, the pattern automaton
and a seeded Monte Carlo stream simulator.

The enumeration oracle compares every window of every word with the
pattern, all words at once: bit w of an L**k-bit integer stands for word
number w in `itertools.product` order, so the words where symbol i equals
c form one mask, S(i, 0) (`patterns._symbol_mask`, which the census
shares) shifted up by c runs, and a bitwise AND of n such masks marks
every word whose window ending at j holds the pattern. The Monte Carlo simulator searches the drawn symbols
for the pattern. Neither consults the automaton, so the routes stay
independent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import islice
from math import ceil
from operator import add, mul
from typing import Iterator

from .numerics import ExactProb, ProbTable
from .patterns import (
    DEFAULT_ENUM_BUDGET,
    BifixIndicator,
    Word,
    _at_least,
    _check_int,
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


# The stream layout: Philox blocks of 2**14 symbols (`monte_carlo`), whose
# symbols are one raw bit each at L = 2 and numpy's integers(0, L) otherwise
# (`_raw_symbols`).
GENERATOR_NAME = "numpy-philox4x64/block2^14/binary-raw-bits"
BLOCK_SYMBOLS = 2**14  # symbols per Monte Carlo draw, k permitting
SEARCH_SYMBOLS = 2**17  # symbols per Monte Carlo search, unless one block is larger
DEFAULT_MC_SEED = 12345


class McConfig(_Value):
    """trials independent streams, each observed up to position k."""

    __slots__ = ("trials", "k", "seed")

    def __init__(self, trials: int, k: int, seed: int) -> None:
        _at_least(trials, 1, "trials")
        _at_least(k, 1, "k")
        _check_int(seed, "seed")
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


def _raw_symbols(bits, L: int, count: int):
    """`count` symbols uniform on 0 .. L-1, for 2 <= L <= 2**32, from the raw
    words of the Philox bit generator `bits`, as an unsigned array.

    At L = 2 a symbol is one raw bit: the block is one read of
    ceil(count / 64) raw words, and symbol 64*i + j is bit j of word i,
    counted from the least significant bit, as uint8. Every output bit of
    a counter-based generator is uniform and independent of the others
    (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
    so one bit is a fair binary symbol, and a block reads 1/32 of the raw
    words that numpy's draw of the same symbols would read.

    For every other L the array holds, as uint64, the values numpy's
    `Generator(bits).integers(0, L, size=count)` draws. That draw is
    Lemire's multiply-shift on 32-bit half words (Lemire, "Fast random
    integer generation in an interval", ACM TOMACS 29(1), 2019). Each raw
    word gives its low half, then its high half. A half word w gives the
    symbol (w*L) >> 32, unless (w*L) mod 2**32 < t = (2**32 - L) mod L: then
    w is dropped, which leaves each symbol exactly uniform. t is 0 for every
    power of two, and then nothing is dropped and the drop test is skipped.
    A read takes ceil(m * 2**31 / (2**32 - t)) raw words for the m symbols
    still missing, and reads continue the stream until `count` are kept.
    """
    import numpy as np

    if L == 2:  # one raw bit a symbol, least significant bit first
        raw = bits.random_raw((count + 63) // 64).astype("<u8", copy=False)
        return np.unpackbits(raw.view(np.uint8), count=count, bitorder="little")
    threshold = (2**32 - L) % L
    parts, kept = [], 0
    while kept < count:
        missing = count - kept
        words = ceil(missing * 2**31 / (2**32 - threshold))
        half = bits.random_raw(words).astype("<u8", copy=False).view("<u4")
        if threshold:  # 0 where L divides 2**32, and np.uint32(2**32) would overflow
            dropped = np.multiply(half, np.uint32(L), dtype=np.uint32) < threshold  # wraps to (w*L) mod 2**32
            if dropped.any():
                half = half[~dropped]
        product = np.multiply(half[:missing], np.uint64(L), dtype=np.uint64)
        product >>= np.uint64(32)
        parts.append(product)
        kept += len(product)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def monte_carlo(pattern: Word, config: McConfig) -> McResult:
    """Simulate seeded uniform streams and record first-occurrence times.

    Trials run in blocks of R = max(1, 2**14 // k). Block b holds trials
    b*R, b*R + 1, ... and draws them in one call: an (m, k) array from
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
    independently. The search runs on several blocks at once: each block is
    drawn as above and written, cast to the narrowest unsigned type that
    holds L - 1 (uint8 up to L = 256, then uint16, uint32, uint64), into one
    buffer of whole blocks, row after row, holding up to SEARCH_SYMBOLS =
    2**17 symbols, or one block where a block is larger. The n comparisons
    run once on the flat buffer; their result is reshaped to (rows, k) and
    cut to its first k - n + 1 columns, so a window that runs from one
    trial's row into the next is never counted. The first column of each
    row, the found rows and the histogram of waits are then taken once per
    buffer. A block of 2**14 symbols is small enough that the fixed cost of
    a numpy call outweighs its work, so one search per 2**17 symbols makes
    about an eighth of the calls; the buffer changes no symbol and no result.

    Binary symbols are the raw bits of the block's fresh Philox. For every
    other L the symbols are those of numpy's int64 `Generator.integers(0, L)`
    on that Philox: up to L = 2**32 `_raw_symbols` computes both from the
    raw Philox words, and no Generator is built. Above 2**32 numpy draws
    whole 64-bit words with a 128-bit product, which numpy has no dtype for,
    so `integers` draws the block. The stream tests in tests/test_oracle.py
    (`TestMonteCarloStream`) pin the binary path to the bits of a fresh
    Philox per block and every other path to a fresh Generator per block,
    and tests/test_cli.py pins the SHA-256 of one binary `simulate` output.

    numpy is imported here, so only callers of this function load it.
    """
    L, n = pattern.alphabet_size, len(pattern)
    _at_least(n, 2, "pattern length")
    if L > 2**63:
        raise ValueError(f"Monte Carlo draws int64 symbols, so alphabet size L must be <= 2**63, got {L}")
    import numpy as np

    bits = np.random.Philox(key=config.seed, counter=0)
    fresh = bits.state  # empty buffer, no cached half word; counter set per block
    if L <= 2**32:  # numpy's own boundary between 32-bit and 64-bit draws
        draw = partial(_raw_symbols, bits, L)
    else:
        draw = partial(np.random.Generator(bits).integers, 0, L)
    narrow = np.min_scalar_type(L - 1)
    trials, horizon = config.trials, config.k
    per_block = max(1, BLOCK_SYMBOLS // horizon)
    per_buffer = per_block * max(1, SEARCH_SYMBOLS // (per_block * horizon))
    starts = horizon - n + 1  # columns where an occurrence can start
    buffers = range(0, trials, per_buffer) if starts > 0 else ()  # k < n: no trial can hit
    buffer = np.empty(min(per_buffer, trials) * horizon, dtype=narrow)
    tally = np.zeros(horizon + 1, dtype=np.int64)
    for first in buffers:
        rows = min(per_buffer, trials - first)
        data = buffer[: rows * horizon]
        for row in range(0, rows, per_block):
            fresh["state"]["counter"][2] = (first + row) // per_block  # counter block << 128
            bits.state = fresh
            data[row * horizon : (row + per_block) * horizon] = draw(min(per_block, rows - row) * horizon)
        hit = data == pattern.symbols[0]
        for i in range(1, n):
            hit[:-i] &= data[i:] == pattern.symbols[i]
        hit = hit.reshape(rows, horizon)[:, :starts]  # cut the windows that run past their row
        at = hit.argmax(axis=1)
        found = hit[np.arange(rows), at]
        waits = np.bincount(at[found] + n)
        tally[: len(waits)] += waits
    waited = np.flatnonzero(tally)
    wait_counts = dict(zip(waited.tolist(), tally[waited].tolist()))
    censored = trials - sum(wait_counts.values())
    # Every count is below 2**53, so these whole-array float operations round
    # exactly as the same operations on Python ints and floats would.
    p_hat = np.cumsum(tally) / trials
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / trials)
    return McResult(
        pattern,
        config,
        tuple(p_hat.tolist()),
        tuple(stderr.tolist()),
        wait_counts,
        censored,
        (sum(j * c for j, c in wait_counts.items()) + censored * horizon) / trials,
    )
