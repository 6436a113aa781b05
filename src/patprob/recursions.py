"""Exact recursions for the first-occurrence and occurrence probabilities.

For a pattern with bifix indicator h over an alphabet of size L, p_k is the
probability that the first occurrence ends exactly at position k of a
uniform random word, and P_k = sum_{i<=k} p_i is the probability of at
least one occurrence in a random word of length k. Three independent
routes compute the same table:

  * the long recursion on p_k, with the full history sum,
  * the differenced (n+1)-term recursion on p_k,
  * the direct recursion on P_k.

All three run on exact integer word counts (L**k p_k or L**k P_k) and build
`ExactProb` values only for the finished table; a count that goes negative
means a transcription bug and aborts instead of clamping.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .numerics import ExactProb
from .patterns import BifixIndicator


@dataclass(frozen=True)
class ProbTable:
    """Per-k table of p_k and P_k (exact), with the method that produced it."""

    h: BifixIndicator
    L: int
    upto: int
    p: tuple[ExactProb, ...]
    P: tuple[ExactProb, ...]
    method: str

    def __post_init__(self) -> None:
        n, L = self.h.n, self.L
        if len(self.p) != self.upto + 1 or len(self.P) != self.upto + 1:
            raise ValueError("table arrays must cover k = 0..upto")
        # Checked on word counts a_k = L**k p_k and C_k = L**k P_k.
        prev = 0
        for k in range(self.upto + 1):
            a, C = _count(self.p[k], k, L), _count(self.P[k], k, L)
            if k < n and (a or C):
                raise ValueError(f"p_{k} and P_{k} must be 0 below the pattern length")
            if C != L * prev + a:
                raise ValueError(f"P_{k} does not equal the prefix sum of p")
            prev = C
        if prev > L**self.upto:
            raise ValueError("P exceeded 1")

    @classmethod
    def from_counts(
        cls, h: BifixIndicator, L: int, upto: int, C: list[int], method: str
    ) -> ProbTable:
        """Table from C_k = L**k P_k, the number of length-k words containing b.

        p_k = (C_k - L C_{k-1}) / L**k; a negative first-occurrence count
        raises, as does any invariant broken in __post_init__.
        """
        previous = [0] + C[:-1]
        p = tuple(ExactProb(c - L * b, k, L) for k, (b, c) in enumerate(zip(previous, C)))
        P = tuple(ExactProb(c, k, L) for k, c in enumerate(C))
        return cls(h, L, upto, p, P, method)

    @property
    def n(self) -> int:
        return self.h.n

    def to_json_dict(self) -> dict:
        return {
            "h": self.h.text(),
            "L": self.L,
            "n": self.n,
            "method": self.method,
            "rows": [
                {"k": k, "p": self.p[k].to_json_dict(), "P": self.P[k].to_json_dict()}
                for k in range(self.upto + 1)
            ],
        }

    def to_csv(self, digits: int = 12) -> str:
        lines = ["k,p,P"]
        for k in range(self.upto + 1):
            lines.append(f"{k},{self.p[k].to_decimal(digits)},{self.P[k].to_decimal(digits)}")
        return "\n".join(lines) + "\n"


def _count(x: ExactProb, k: int, L: int) -> int:
    """Numerator of x over L**k; raises unless x is a count of length-k words."""
    if x.base != L:
        raise ValueError(f"mismatched bases: {x.base} vs {L}")
    if x.den_exp > k:
        raise ValueError(f"{x} is not a multiple of 1/{L}^{k}")
    return x.num * L ** (k - x.den_exp)


def _borders(h: BifixIndicator) -> list[int]:
    """Border lengths i (1 <= i < n) with h_i = 1."""
    return [i for i in range(1, h.n) if h.bits[i - 1] == 1]


def _nonneg(count: int, k: int) -> int:
    if count < 0:
        raise ValueError(f"count underflow at k={k}: {count}")
    return count


def _accumulate(a: list[int], L: int) -> list[int]:
    """C_k = L C_{k-1} + a_k: occurrence counts from first-occurrence counts."""
    C = []
    running = 0
    for count in a:
        running = L * running + count
        C.append(running)
    return C


def p_table_long(h: BifixIndicator, L: int, upto: int) -> ProbTable:
    """p_k = 1/L**n - (1/L**n) * sum_{i=n}^{k-n} p_i - sum_i h_i/L**(n-i) * p_{k-n+i}.

    The middle sum is empty while k < 2n. On counts a_k = L**k p_k:
    a_k = L**(k-n) - M_k - sum_i h_i a_{k-n+i}, where the history
    M_k = sum_{i=n}^{k-n} a_i L**(k-n-i) = L M_{k-1} + a_{k-n}.
    """
    if upto < 0:
        raise ValueError(f"upto must be >= 0, got {upto}")
    n = h.n
    borders = _borders(h)
    a = [0] * min(n, upto + 1)
    history = 0
    power = 1  # L**(k-n)
    for k in range(n, upto + 1):
        history = L * history + a[k - n]
        a.append(_nonneg(power - history - sum(a[k - n + i] for i in borders), k))
        power *= L
    return ProbTable.from_counts(h, L, upto, _accumulate(a, L), "long-recursion")


def p_table_short(h: BifixIndicator, L: int, upto: int) -> ProbTable:
    """(n+1)-term recursion obtained by differencing the long one.

    p_{k+1} = p_k - p_{k+1-n}/L**n - sum_i h_i/L**(n-i) * (p_{k-n+i+1} - p_{k-n+i}),
    on counts a_k = L**k p_k:
    a_{k+1} = L a_k - a_{k+1-n} - sum_i h_i (a_{k-n+i+1} - L a_{k-n+i}).
    """
    if upto < 0:
        raise ValueError(f"upto must be >= 0, got {upto}")
    n = h.n
    borders = _borders(h)
    a = [0] * min(n, upto + 1)
    if upto >= n:
        a.append(1)
    for k in range(n, upto):
        nxt = L * a[k] - a[k + 1 - n]
        for i in borders:
            nxt -= a[k - n + i + 1] - L * a[k - n + i]
        a.append(_nonneg(nxt, k + 1))
    return ProbTable.from_counts(h, L, upto, _accumulate(a, L), "short-recursion")


def _iter_counts(h: BifixIndicator, L: int) -> Iterator[int]:
    """Yield C_0, C_1, ... with C_k = L**k P_k, keeping a window of n+1 values.

    P_{k+1} = 1/L**n + P_k - P_{k+1-n}/L**n
              - sum_i h_i/L**(n-i) * (P_{k-n+i+1} - P_{k-n+i}),
    on counts
    C_{k+1} = L**(k+1-n) + L C_k - C_{k+1-n} - sum_i h_i (C_{k-n+i+1} - L C_{k-n+i}).
    """
    n = h.n
    borders = _borders(h)
    window: deque[int] = deque(maxlen=n + 1)  # C_{k-n} .. C_k
    for _ in range(n):
        window.append(0)
        yield 0
    window.append(1)
    yield 1
    power = 1  # L**(k-n)
    k = n
    while True:
        power *= L
        k += 1
        nxt = power + L * window[n] - window[1]
        for i in borders:
            nxt -= window[i + 1] - L * window[i]
        window.append(_nonneg(nxt, k))  # maxlen evicts C_{k-1-n}
        yield nxt


def iter_P(h: BifixIndicator, L: int) -> Iterator[ExactProb]:
    """Yield P_0, P_1, ... indefinitely in constant memory (see _iter_counts)."""
    for k, count in enumerate(_iter_counts(h, L)):
        yield ExactProb(count, k, L)


def P_table(h: BifixIndicator, L: int, upto: int) -> ProbTable:
    """Table built from the direct recursion on P."""
    if upto < 0:
        raise ValueError(f"upto must be >= 0, got {upto}")
    C = list(itertools.islice(_iter_counts(h, L), upto + 1))
    return ProbTable.from_counts(h, L, upto, C, "P-recursion")


def P_at(h: BifixIndicator, L: int, k: int) -> ExactProb:
    """Single P_k without materializing the table (constant memory in k)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return ExactProb(next(itertools.islice(_iter_counts(h, L), k, None)), k, L)


def expected_wait_closed(h: BifixIndicator, L: int) -> int:
    """Expected first-occurrence position: L**n + sum_i h_i * L**i, exactly."""
    return L**h.n + sum(L**i for i in range(1, h.n) if h.bits[i - 1] == 1)


@dataclass(frozen=True)
class SeriesResult:
    """Partial sum of sum_k (1 - P_k) with its estimated tail bound."""

    value: float
    tail_bound: float
    upto: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "tail_bound": self.tail_bound,
            "upto": self.upto,
            "converged": self.converged,
        }


# Ratio window that must agree before the geometric tail bound is trusted.
_STABLE_RATIOS = 5
_RATIO_SPREAD = 1e-4


def expected_wait_series(
    h: BifixIndicator, L: int, tol: float, k_max: int = 50_000
) -> SeriesResult:
    """Approximate the expected wait as sum_{k=0..K} (1 - P_k).

    Stops at the smallest K <= k_max whose estimated tail is below `tol`.
    The tail is bounded geometrically from the empirical decay ratio
    r = (1 - P_K) / (1 - P_{K-1}) once the last few ratios are below 1 and
    agree closely; the linear recursion's dominant-root decay justifies the
    geometric model. If k_max is hit first the partial result is flagged
    as unconverged.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    total = 0  # L**k * sum_{j<=k} (1 - P_j)
    power = 1  # L**k
    ratios: deque[float] = deque(maxlen=_STABLE_RATIOS)
    prev_q = None
    bound = float("inf")
    upto = 0
    for k, C_k in enumerate(_iter_counts(h, L)):
        if k:
            power *= L
        q = _nonneg(power - C_k, k)
        total = L * total + q
        q_float = q / power
        if prev_q is not None and prev_q > 0.0:
            ratios.append(q_float / prev_q)
        prev_q = q_float
        upto = k
        if len(ratios) == _STABLE_RATIOS:
            r = max(ratios)
            if r < 1.0 and max(ratios) - min(ratios) <= _RATIO_SPREAD:
                bound = q_float * r / (1.0 - r)
                if bound < tol:
                    return SeriesResult(total / power, bound, k, True)
        if k >= k_max:
            break
    return SeriesResult(total / power, bound, upto, False)
