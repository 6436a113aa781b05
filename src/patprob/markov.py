"""Absorbing chains on states 0..n driven by a jump-target word.

From a non-absorbing state i the chain moves to i+1 with probability 1/L,
to s_i with probability 1/L, and to 0 with probability (L-2)/L; when
s_i = 0 the last two masses merge. State n is absorbing. P_k(i) is the
probability of reaching n within k steps from i; P_k(0) is the occurrence
probability of the bifix class that s encodes. The reach DP runs on the
integer counts R_k(i) = L**k P_k(i), with no division, and yields one row
per k: `reach_table` keeps every row, while the occurrence table and the
chain comparison keep only the start-state column as the rows stream past.
"""

from __future__ import annotations

from operator import add, itemgetter
from typing import Iterable, Iterator

from .patterns import BifixIndicator, SWord, _Value, _at_least, _within, comparison_threshold, s_from_h


class ChainSpec(_Value):
    """Jump-target word plus alphabet size; states are 0..n with n absorbing."""

    __slots__ = ("s", "L")

    def __init__(self, s: SWord, L: int) -> None:
        _at_least(L, 2, "L", "alphabet size")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "L", L)

    @property
    def n(self) -> int:
        return self.s.n

    def to_json_dict(self) -> dict:
        return {"s": list(self.s.targets), "L": self.L}


class ReachTable(_Value):
    """P[k][i] = number of length-k symbol sequences that take state i to n.

    The probability of reaching state n within k steps from state i is
    P[k][i] / L**k.
    """

    __slots__ = ("spec", "P")

    def __init__(self, spec: ChainSpec, P: tuple[tuple[int, ...], ...]) -> None:
        n, L = spec.n, spec.L
        if not isinstance(P, tuple):
            raise ValueError(f"malformed P: expected a tuple, got {P!r}")
        if not P or any(len(row) != n + 1 for row in P):
            raise ValueError("reach table needs >= 1 row of n+1 counts")
        power = 1  # L**k
        for row in P:
            _within(row, 0, power, "P")
            if row[n] != power:
                raise ValueError("absorbing state must have probability 1 at every k")
            power *= L
        if P[0] != (0,) * n + (1,):
            raise ValueError("row k=0 must be the unit vector at the absorbing state")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "P", P)


def _reach_rows(spec: ChainSpec, upto: int) -> Iterator[tuple[int, ...]]:
    """Yield the count rows R_0 ... R_upto of the reach DP (see `reach_table`).

    A step is a few whole-row operations: `row[1:]` holds R(i+1) for each
    i < n, one itemgetter gathers R(s_i), `map(add, ...)` adds the two, and
    the reset (L-2) R(0) is added to every entry only when L > 2. The
    generator holds only its current row, so a caller that keeps one
    column holds one column.
    """
    _at_least(upto, 0, "upto")
    n, L = spec.n, spec.L
    targets = spec.s.targets
    # Given one index, itemgetter returns a bare value; a slice keeps a tuple.
    jump = itemgetter(*targets) if n > 1 else itemgetter(slice(0, 1))
    row = (0,) * n + (1,)
    yield row
    for _ in range(upto):
        step = map(add, row[1:], jump(row))
        if L > 2:
            step = map(((L - 2) * row[0]).__add__, step)
        row = (*step, L * row[n])
        yield row


def reach_table(spec: ChainSpec, upto: int) -> ReachTable:
    """Exact DP fill of R_k(i) = L**k P_k(i) by increasing k.

    P_k(i) = P_{k-1}(i+1)/L + P_{k-1}(s_i)/L + (L-2)/L * P_{k-1}(0) for i < n,
    on counts R_k(i) = R_{k-1}(i+1) + R_{k-1}(s_i) + (L-2) R_{k-1}(0).

    As a transcription guard, the start-state column is cross-checked at
    every k against forward evolution of the start state's word counts.
    """
    table = ReachTable(spec, tuple(_reach_rows(spec, upto)))
    for _ in _start_counts(spec, table.P):
        pass
    return table


def _start_counts(spec: ChainSpec, rows: Iterable[tuple[int, ...]]) -> Iterator[int]:
    """Yield R_k(0) of each reach row once forward evolution confirms it.

    The start state's word counts evolve one step per row: each state i < n
    sends its count to i+1 and to s_i once each and to 0 (L-2) times; state
    n keeps its count L times. A step is the slice `dist[:n]` shifted up by
    one state, which carries every i -> i+1 count, plus one scatter over
    `zip(dist, targets)` for the i -> s_i counts. R_k(0) must equal the
    count absorbed after k steps, which lies in [0, L**k] since the total
    grows by L per step.
    """
    n, L = spec.n, spec.L
    targets = spec.s.targets
    dist = [1] + [0] * n
    for k, row in enumerate(rows):
        if k:
            nxt = [(L - 2) * sum(dist[:n]) if L > 2 else 0, *dist[:n]]
            nxt[n] += L * dist[n]
            for count, target in zip(dist, targets):
                nxt[target] += count
            dist = nxt
        if dist[n] != row[0]:
            raise AssertionError(
                f"forward evolution disagrees with reach DP at k={k}: "
                f"{dist[n]} vs {row[0]} words of {L}^{k}"
            )
        yield row[0]


def chain_prob_table(h: BifixIndicator, L: int, upto: int) -> ProbTable:
    """Occurrence-probability table of a bifix class via its chain."""
    from .numerics import ProbTable  # here, so that compare and lemmas load no numerics

    spec = ChainSpec(s_from_h(h), L)
    counts = _start_counts(spec, _reach_rows(spec, upto))
    return ProbTable.from_counts(h, L, upto, counts, "markov")


class ChainComparison(_Value):
    """Per-k comparison of two chains' absorption probabilities.

    relations[k] is "=", ">" or "<" for P_k(0) vs P'_k(0). The expected
    pattern is equality for k < k0 and ">" from k0 on; `violations` lists
    the ks that deviate (none do for valid strictly ordered pairs).
    """

    __slots__ = ("s", "s_prime", "L", "k0", "relations")

    @property
    def violations(self) -> tuple[int, ...]:
        return tuple(k for k, rel in enumerate(self.relations) if rel != ("=" if k < self.k0 else ">"))

    @property
    def conforms(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "s": list(self.s.targets),
            "s_prime": list(self.s_prime.targets),
            "L": self.L,
            "k0": self.k0,
            "relations": list(self.relations),
            "violations": list(self.violations),
            "conforms": self.conforms,
        }


def compare_chains(s: SWord, s_prime: SWord, L: int, upto: int) -> ChainComparison:
    """Compare absorption probabilities of X(s) and X(s') for s > s'.

    The threshold k0 = n + 1 + min{i - s_i : s_i > s'_i} marks the first
    index of strict separation. Both start-state columns are computed
    independently and streamed side by side.
    """
    k0 = comparison_threshold(s, s_prime)  # also validates strict order
    spec, spec_prime = ChainSpec(s, L), ChainSpec(s_prime, L)
    counts = _start_counts(spec, _reach_rows(spec, upto))
    counts_prime = _start_counts(spec_prime, _reach_rows(spec_prime, upto))
    # Both columns count words over the same L**k.
    relations = tuple(">" if a > b else "=" if a == b else "<" for a, b in zip(counts, counts_prime))
    return ChainComparison(s, s_prime, L, k0, relations)


class LemmaReport(_Value):
    """Violations of the three reach-probability laws, empty when all hold.

    Checked on the exact table up to `upto`:
      * P_k(i) is nondecreasing in k,
      * P_k(i) > 0 exactly when k + i >= n,
      * P_k(i) is nondecreasing in i, strictly when k + i + 1 >= n and
        with both sides zero otherwise.
    """

    __slots__ = (
        "spec",
        "upto",
        "monotone_k_violations",
        "zero_pattern_violations",
        "monotone_i_violations",
    )

    @property
    def passed(self) -> bool:
        return not (
            self.monotone_k_violations
            or self.zero_pattern_violations
            or self.monotone_i_violations
        )

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "upto": self.upto,
            "monotone_k_violations": [list(v) for v in self.monotone_k_violations],
            "zero_pattern_violations": [list(v) for v in self.zero_pattern_violations],
            "monotone_i_violations": [list(v) for v in self.monotone_i_violations],
            "passed": self.passed,
        }


def check_lemmas(spec: ChainSpec, upto: int) -> LemmaReport:
    """Verify the three reach-probability laws on the exact table."""
    n = spec.n
    if upto < n:
        raise ValueError(f"need upto >= n = {n} to exercise the laws, got {upto}")
    table = reach_table(spec, upto)
    L = spec.L
    mono_k = []
    zero_pattern = []
    mono_i = []
    # Counts: P_k(i) > P_{k+1}(i) iff L R_k(i) > R_{k+1}(i); one row shares L**k.
    for k in range(upto + 1):
        row = table.P[k]
        for i in range(n + 1):
            value = row[i]
            if k + 1 <= upto and L * value > table.P[k + 1][i]:
                mono_k.append((k, i))
            if (value > 0) != (k + i >= n):
                zero_pattern.append((k, i))
            if i < n:
                nxt = row[i + 1]
                if k + i + 1 >= n:
                    if not value < nxt:
                        mono_i.append((k, i))
                elif not (value == 0 and nxt == 0):
                    mono_i.append((k, i))
    return LemmaReport(spec, upto, tuple(mono_k), tuple(zero_pattern), tuple(mono_i))
