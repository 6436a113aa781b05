"""Exact recursions for the first-occurrence and occurrence probabilities.

For a pattern with bifix indicator h over an alphabet of size L, p_k is the
probability that the first occurrence ends exactly at position k of a
uniform random word, and P_k = sum_{i<=k} p_i is the probability of at
least one occurrence in a random word of length k. Three independent
routes compute the same table:

  * the long recursion on p_k, with the full history sum,
  * the differenced (n+1)-term recursion on p_k,
  * the direct recursion on P_k.

All three run on exact integer word counts (L**k p_k or L**k P_k) and yield
C_k = L**k P_k as an endless stream that `ProbTable.from_counts` cuts at a
horizon; a count that goes negative means a transcription bug and aborts
instead of clamping. The expected first-occurrence position comes as the
series sum_k (1 - P_k) on the same counts, stopped by a proven bound on its
tail, to be checked against the closed form `patterns.expected_wait_closed`.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Iterator

from .numerics import ProbTable
# expected_wait_closed, the closed form that the series approximates, lives in
# patterns so that `bifix` loads no recursion; bench/workloads.py reads it here.
from .patterns import BifixIndicator, _Value, _at_least, expected_wait_closed  # noqa: F401


def _borders(h: BifixIndicator, L: int) -> list[int]:
    """Border lengths i (1 <= i < n) with h_i = 1.

    Every recursion calls this before its first step, so it also rejects an
    alphabet size below 2 before any work is done.
    """
    _at_least(L, 2, "L", "alphabet size")
    return [i for i in range(1, h.n) if h.bits[i - 1] == 1]


def _nonneg(value: int, k: int) -> int:
    if value < 0:
        raise ValueError(f"count underflow at k={k}: {value}")
    return value


def _long_counts(h: BifixIndicator, L: int) -> Iterator[int]:
    """Yield C_0, C_1, ... from the long recursion, keeping the last n a_k.

    p_k = 1/L**n - (1/L**n) * sum_{i=n}^{k-n} p_i - sum_i h_i/L**(n-i) * p_{k-n+i}.
    The middle sum is empty while k < 2n. On counts a_k = L**k p_k:
    a_k = L**(k-n) - M_k - sum_i h_i a_{k-n+i}, where the history
    M_k = sum_{i=n}^{k-n} a_i L**(k-n-i) = L M_{k-1} + a_{k-n}; C_k = L C_{k-1} + a_k.
    """
    n = h.n
    borders = _borders(h, L)
    window = deque([0] * n, maxlen=n)  # a_{k-n} .. a_{k-1}
    yield from window  # C_k = a_k = 0 for k < n
    history = C = 0
    power = 1  # L**(k-n)
    for k in count(n):
        history = L * history + window[0]
        a_k = _nonneg(power - history - sum(window[i] for i in borders), k)
        window.append(a_k)  # maxlen evicts a_{k-n}
        C = L * C + a_k
        yield C
        power *= L


def p_table_long(h: BifixIndicator, L: int, upto: int) -> ProbTable:
    """Table built from the long recursion on p (see `_long_counts`)."""
    return ProbTable.from_counts(h, L, upto, _long_counts(h, L), "long-recursion")


def _short_counts(h: BifixIndicator, L: int) -> Iterator[int]:
    """Yield C_0, C_1, ... from the (n+1)-term recursion, keeping n+1 values a_k.

    Differencing the long recursion gives
    p_{k+1} = p_k - p_{k+1-n}/L**n - sum_i h_i/L**(n-i) * (p_{k-n+i+1} - p_{k-n+i}),
    on counts a_k = L**k p_k:
    a_{k+1} = L a_k - a_{k+1-n} - sum_i h_i (a_{k-n+i+1} - L a_{k-n+i}),
    and C_{k+1} = L C_k + a_{k+1}.
    """
    n = h.n
    borders = _borders(h, L)
    window = deque([0] * n + [1], maxlen=n + 1)  # a_{k-n} .. a_k
    yield from window  # C_k = a_k up to k = n
    C = 1
    for k in count(n + 1):  # window holds a_{k-1-n} .. a_{k-1}
        nxt = L * window[n] - window[1]
        for i in borders:
            nxt -= window[i + 1] - L * window[i]
        window.append(_nonneg(nxt, k))  # maxlen evicts a_{k-1-n}
        C = L * C + nxt
        yield C


def p_table_short(h: BifixIndicator, L: int, upto: int) -> ProbTable:
    """Table built from the differenced recursion on p (see `_short_counts`)."""
    return ProbTable.from_counts(h, L, upto, _short_counts(h, L), "short-recursion")


def _iter_counts(h: BifixIndicator, L: int) -> Iterator[int]:
    """Yield C_0, C_1, ... with C_k = L**k P_k, keeping a window of n+1 values.

    P_{k+1} = 1/L**n + P_k - P_{k+1-n}/L**n
              - sum_i h_i/L**(n-i) * (P_{k-n+i+1} - P_{k-n+i}),
    on counts
    C_{k+1} = L**(k+1-n) + L C_k - C_{k+1-n} - sum_i h_i (C_{k-n+i+1} - L C_{k-n+i}).
    """
    n = h.n
    borders = _borders(h, L)
    window = deque([0] * n + [1], maxlen=n + 1)  # C_{k-n} .. C_k
    yield from window
    power = 1  # L**(k-n)
    for k in count(n + 1):
        power *= L
        nxt = power + L * window[n] - window[1]
        for i in borders:
            nxt -= window[i + 1] - L * window[i]
        window.append(_nonneg(nxt, k))  # maxlen evicts C_{k-1-n}
        yield nxt


def P_table(h: BifixIndicator, L: int, upto: int) -> ProbTable:
    """Table built from the direct recursion on P (see `_iter_counts`)."""
    return ProbTable.from_counts(h, L, upto, _iter_counts(h, L), "P-recursion")


class SeriesResult(_Value):
    """Partial sum of sum_k (1 - P_k) with a proven bound on its tail."""

    __slots__ = ("value", "tail_bound", "upto", "converged")


def expected_wait_series(
    h: BifixIndicator, L: int, tol: float, k_max: int = 50_000
) -> SeriesResult:
    """Approximate the expected wait as sum_{k=0..K} (1 - P_k).

    Stops at the smallest K <= k_max whose tail bound is below `tol`. The
    bound is proven: a word of length k + n avoids the pattern only if its
    first k symbols avoid it and its last n symbols are not the pattern,
    two independent events, so 1 - P_{k+n} <= (1 - P_k)(1 - L**-n). As
    1 - P_k never grows, sum_{j>K} (1 - P_j) <= n L**n (1 - P_K). The stop
    test compares exact integers; only the reported sum and bound are
    rounded to floats. If k_max is hit first the partial result is flagged
    as unconverged.
    """
    if not 0 < tol < float("inf"):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    _at_least(L, 2, "L", "alphabet size")  # here, not first in _borders: a float L**n can overflow
    _at_least(k_max, 0, "k_max")
    tol_num, tol_den = tol.as_integer_ratio()
    weight = h.n * L**h.n
    stop = weight * tol_den  # converged once q * stop < tol_num * L**K
    total = 0  # L**k * sum_{j<=k} (1 - P_j)
    power = 1  # L**k
    for k, C_k in enumerate(_iter_counts(h, L)):
        if k:
            power *= L
        q = _nonneg(power - C_k, k)  # L**k (1 - P_k)
        total = L * total + q
        converged = q * stop < tol_num * power
        if converged or k >= k_max:
            try:
                bound = weight * q / power
            except OverflowError:  # n L**n beyond the float range
                bound = float("inf")
            return SeriesResult(total / power, bound, k, converged)
