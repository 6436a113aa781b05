"""Absorbing chains on states 0..n driven by a jump-target word.

From a non-absorbing state i the chain moves to i+1 with probability 1/L,
to s_i with probability 1/L, and to 0 with probability (L-2)/L; when
s_i = 0 the last two masses merge. State n is absorbing. P_k(i) is the
probability of reaching n within k steps from i; P_k(0) is the occurrence
probability of the bifix class that s encodes. The reach DP runs on the
integer counts R_k(i) = L**k P_k(i), with no division.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import ExactProb
from .patterns import BifixIndicator, SWord, comparison_threshold, s_from_h
from .recursions import ProbTable

Matrix = tuple[tuple[ExactProb, ...], ...]


@dataclass(frozen=True)
class ChainSpec:
    """Jump-target word plus alphabet size; states are 0..n with n absorbing."""

    s: SWord
    L: int

    def __post_init__(self) -> None:
        if self.L < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.L}")

    @property
    def n(self) -> int:
        return self.s.n

    def to_json_dict(self) -> dict:
        return {"s": list(self.s.targets), "L": self.L}


def _step_counts(spec: ChainSpec) -> tuple[tuple[int, ...], ...]:
    """(n+1) x (n+1) one-step counts: entry (i, j) is how many of the L
    symbols move state i to state j, so every row sums to L."""
    n, L = spec.n, spec.L
    rows = []
    for i in range(n):
        row = [0] * (n + 1)
        row[i + 1] += 1
        row[spec.s.targets[i]] += 1
        row[0] += L - 2  # 0 when L = 2, no special-casing needed
        rows.append(tuple(row))
    rows.append(tuple([0] * n + [L]))
    for i, row in enumerate(rows):
        if sum(row) != L:
            raise AssertionError(f"row {i} of transition matrix sums to {sum(row)}/{L}, not 1")
    return tuple(rows)


def transition_matrix(spec: ChainSpec) -> Matrix:
    """(n+1) x (n+1) one-step transition probabilities; rows sum to 1 exactly."""
    return tuple(
        tuple(ExactProb(count, 1, spec.L) for count in row) for row in _step_counts(spec)
    )


@dataclass(frozen=True)
class ReachTable:
    """P[k][i] = number of length-k symbol sequences that take state i to n.

    The probability of reaching state n within k steps from state i is
    P[k][i] / L**k, which `prob` returns exactly.
    """

    spec: ChainSpec
    upto: int
    P: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n, L = self.spec.n, self.spec.L
        if len(self.P) != self.upto + 1 or any(len(row) != n + 1 for row in self.P):
            raise ValueError("reach table must be (upto+1) x (n+1)")
        if self.P[0] != tuple([0] * n + [1]):
            raise ValueError("row k=0 must be the unit vector at the absorbing state")
        power = 1  # L**k
        for row in self.P:
            if row[n] != power:
                raise ValueError("absorbing state must have probability 1 at every k")
            if any(not 0 <= entry <= power for entry in row):
                raise ValueError("reach probabilities must stay within [0, 1]")
            power *= L

    def prob(self, k: int, i: int) -> ExactProb:
        return ExactProb(self.P[k][i], k, self.spec.L)

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "upto": self.upto,
            "rows": [
                [self.prob(k, i).to_json_dict() for i in range(self.spec.n + 1)]
                for k in range(self.upto + 1)
            ],
        }


_FORWARD_CHECK_SAMPLES = 10


def reach_table(spec: ChainSpec, upto: int) -> ReachTable:
    """Exact DP fill of R_k(i) = L**k P_k(i) by increasing k.

    P_k(i) = P_{k-1}(i+1)/L + P_{k-1}(s_i)/L + (L-2)/L * P_{k-1}(0) for i < n,
    on counts R_k(i) = R_{k-1}(i+1) + R_{k-1}(s_i) + (L-2) R_{k-1}(0).

    As a transcription guard, the start-state column is cross-checked at up
    to ten sampled k values against forward evolution of the distribution
    vector under the one-step matrix.
    """
    if upto < 0:
        raise ValueError(f"upto must be >= 0, got {upto}")
    n, L = spec.n, spec.L
    targets = spec.s.targets
    rows = [tuple([0] * n + [1])]
    for _ in range(upto):
        prev = rows[-1]
        reset = (L - 2) * prev[0]
        row = [prev[i + 1] + prev[targets[i]] + reset for i in range(n)]
        row.append(L * prev[n])
        rows.append(tuple(row))
    table = ReachTable(spec, upto, tuple(rows))
    _forward_cross_check(table)
    return table


def _forward_cross_check(table: ReachTable) -> None:
    """Evolve the start state's word counts forward and compare absorption."""
    spec, upto = table.spec, table.upto
    if upto == 0:
        return
    n = spec.n
    moves = [[(j, count) for j, count in enumerate(row) if count] for row in _step_counts(spec)]
    samples = {max(1, upto * j // _FORWARD_CHECK_SAMPLES) for j in range(1, _FORWARD_CHECK_SAMPLES + 1)}
    dist = [1] + [0] * n
    for k in range(1, max(samples) + 1):
        nxt = [0] * (n + 1)
        for mass, row in zip(dist, moves):
            if mass:
                for j, count in row:
                    nxt[j] += mass * count
        dist = nxt
        if k in samples and dist[n] != table.P[k][0]:
            raise AssertionError(
                f"forward evolution disagrees with reach DP at k={k}: "
                f"{dist[n]} vs {table.P[k][0]} words of {spec.L}^{k}"
            )


def chain_prob_table(h: BifixIndicator, L: int, upto: int) -> ProbTable:
    """Occurrence-probability table of a bifix class via its chain."""
    table = reach_table(ChainSpec(s_from_h(h), L), upto)
    return ProbTable.from_counts(h, L, upto, [row[0] for row in table.P], "markov")


@dataclass(frozen=True)
class ChainComparison:
    """Per-k comparison of two chains' absorption probabilities.

    relations[k] is "=", ">" or "<" for P_k(0) vs P'_k(0). The expected
    pattern is equality for k < k0 and ">" from k0 on; ks that deviate are
    listed in violations (none occur for valid strictly ordered pairs).
    """

    s: SWord
    s_prime: SWord
    L: int
    upto: int
    k0: int
    relations: tuple[str, ...]
    violations: tuple[int, ...]

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
    index of strict separation. Both tables are computed independently.
    """
    k0 = comparison_threshold(s, s_prime)  # also validates strict order
    table = reach_table(ChainSpec(s, L), upto)
    table_prime = reach_table(ChainSpec(s_prime, L), upto)
    relations = []
    violations = []
    for k in range(upto + 1):
        a, b = table.P[k][0], table_prime.P[k][0]  # counts over the same L**k
        rel = "=" if a == b else (">" if a > b else "<")
        relations.append(rel)
        expected = "=" if k < k0 else ">"
        if rel != expected:
            violations.append(k)
    return ChainComparison(s, s_prime, L, upto, k0, tuple(relations), tuple(violations))


@dataclass(frozen=True)
class LemmaReport:
    """Violations of the three reach-probability laws, empty when all hold.

    Checked on the exact table up to `upto`:
      * P_k(i) is nondecreasing in k,
      * P_k(i) > 0 exactly when k + i >= n,
      * P_k(i) is nondecreasing in i, strictly when k + i + 1 >= n and
        with both sides zero otherwise.
    """

    spec: ChainSpec
    upto: int
    monotone_k_violations: tuple[tuple[int, int], ...]
    zero_pattern_violations: tuple[tuple[int, int], ...]
    monotone_i_violations: tuple[tuple[int, int], ...]

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
