"""Exact results and every form in which they are written.

Every probability produced by this package is a count of words divided by
L**k. The routes compute those word counts as plain integers and compare
them directly; `ExactProb(count, k, L)` is only the value that leaves a
route, for equality, `<` and JSON. Keeping the denominator as an
exponent of a fixed base makes equality checks exact and cheap and avoids
gcd churn. `ProbTable.from_counts` cuts a route's stream of counts
C_k = L**k P_k at a horizon; the table checks them and writes them as JSON,
CSV or a text table, the one place that decides how a result is written.

`ExactProb(num, den_exp, base)` validates its fields. The trusted
constructor `ExactProb.from_checked(num, den_exp, base)` skips that check
and is only for values already known to satisfy base >= 2, num >= 0,
den_exp >= 0 and num <= base**den_exp, such as the counts a `ProbTable`
has validated. Both bring the value into canonical form through the one
helper `canonical`, and `decimal_string` is the one rounding rule for
decimal strings.

This module imports no other patprob module. `ProbTable` only reads `h.n`
and `h.text()` of its indicator, and its annotations stay unevaluated
strings, so naming `BifixIndicator` imports nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, Iterator


def canonical(num: int, den_exp: int, base: int) -> tuple[int, int]:
    """(num, den_exp) of num / base**den_exp with the factors of base stripped.

    Preconditions: base >= 2, num >= 0, den_exp >= 0. Zero is (0, 0);
    otherwise factors of base leave num until it is not divisible by base
    or den_exp reaches 0. A power-of-two base strips them all with one
    trailing-zero shift.
    """
    if num == 0:
        return 0, 0
    if base & (base - 1) == 0:
        if num & 1:
            return num, den_exp
        shift = base.bit_length() - 1
        strip = min(den_exp, ((num & -num).bit_length() - 1) // shift)
        return num >> (shift * strip), den_exp - strip
    while den_exp > 0 and num % base == 0:
        num //= base
        den_exp -= 1
    return num, den_exp


def decimal_string(num: int, den: int, digits: int) -> str:
    """num / den (num >= 0, den >= 1) rounded to `digits` fractional digits.

    Ties round half to even. The string depends only on the value, so any
    num, den of equal ratio give the same one.
    """
    q, r = divmod(num * 10**digits, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, 10**digits)
    return f"{whole}.{frac:0{digits}d}"


@dataclass(frozen=True)
class ExactProb:
    """Probability num / base**den_exp with 0 <= num <= base**den_exp, held in
    canonical form.

    Canonical form: num == 0 forces den_exp == 0; otherwise factors of
    `base` are stripped from num until num is not divisible by base or
    den_exp reaches 0. Structural equality of canonical values is value
    equality (for a common base).

    Instances are immutable and safe to share across threads.
    """

    num: int
    den_exp: int
    base: int

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.num < 0:
            raise ValueError(f"numerator must be nonnegative, got {self.num}")
        if self.den_exp < 0:
            raise ValueError(f"denominator exponent must be nonnegative, got {self.den_exp}")
        num, exp = canonical(self.num, self.den_exp, self.base)
        if num > self.base**exp:
            raise ValueError(f"probability must be <= 1, got num > {self.base}**{self.den_exp}")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den_exp", exp)

    @classmethod
    def from_checked(cls, num: int, den_exp: int, base: int) -> ExactProb:
        """ExactProb(num, den_exp, base) for fields known to be valid, unchecked.

        The caller guarantees base >= 2, num >= 0, den_exp >= 0 and
        num <= base**den_exp.
        """
        self = object.__new__(cls)
        num, den_exp = canonical(num, den_exp, base)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den_exp", den_exp)
        object.__setattr__(self, "base", base)
        return self

    def __lt__(self, other: ExactProb) -> bool:
        if self.base != other.base:
            raise ValueError(f"mismatched bases: {self.base} vs {other.base}")
        # Compare the numerators over the common denominator base**e.
        e = max(self.den_exp, other.den_exp)
        x = self.num * self.base ** (e - self.den_exp)
        y = other.num * self.base ** (e - other.den_exp)
        return x < y

    def __float__(self) -> float:
        # int true division is correctly rounded for arbitrarily large operands.
        return self.num / self.base**self.den_exp

    def to_json_dict(self) -> dict:
        # num as a string: JSON consumers may not support big integers.
        return {
            "num": str(self.num),
            "base": self.base,
            "den_exp": self.den_exp,
            "approx": float(self),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> ExactProb:
        return cls(int(data["num"]), int(data["den_exp"]), int(data["base"]))


# The views of equal counts are equal, so tables with equal (L, C) share
# them: the routes of one check agree by design and build p and P once. A
# hit needs exact equality of C, so a route that disagrees gets views of its
# own. The routes never see this memo; only ProbTable's views use it.
_VIEW_MEMO_SIZE = 4


@lru_cache(maxsize=_VIEW_MEMO_SIZE)
def _P_view(L: int, C: tuple[int, ...]) -> tuple[ExactProb, ...]:
    return tuple(ExactProb.from_checked(c, k, L) for k, c in enumerate(C))


@lru_cache(maxsize=_VIEW_MEMO_SIZE)
def _p_view(L: int, C: tuple[int, ...]) -> tuple[ExactProb, ...]:
    return tuple(
        ExactProb.from_checked(c - L * b, k, L) for k, (b, c) in enumerate(zip((0,) + C, C))
    )


@dataclass(frozen=True)
class ProbTable:
    """Counts C_k = L**k P_k of the length-k words containing the pattern.

    `p` and `P` are the exact probability views, each built once on first use
    and shared with every table of equal counts. Rows of JSON, CSV and text
    output are computed from the counts over a running L**k, without the
    views; `_rows` is the one JSON row layout.
    """

    h: BifixIndicator
    L: int
    upto: int
    C: tuple[int, ...]
    method: str

    def __post_init__(self) -> None:
        n, L = self.h.n, self.L
        if L < 2:
            raise ValueError(f"alphabet size must be >= 2, got {L}")
        if self.upto < 0:
            raise ValueError(f"upto must be >= 0, got {self.upto}")
        if len(self.C) != self.upto + 1:
            raise ValueError("table counts must cover k = 0..upto")
        prev = 0
        for k, count in enumerate(self.C):
            if k < n and count:
                raise ValueError(f"p_{k} and P_{k} must be 0 below the pattern length")
            # The first-occurrence count a_k = C_k - L C_{k-1} cannot be negative.
            if count < L * prev:
                raise ValueError(f"C_{k} = {count} is below L * C_{k - 1} = {L * prev}")
            prev = count
        if prev > L**self.upto:
            raise ValueError("P exceeded 1")

    @classmethod
    def from_counts(
        cls, h: BifixIndicator, L: int, upto: int, counts: Iterable[int], method: str
    ) -> ProbTable:
        """The table of C_0 .. C_upto, the first upto + 1 counts of a stream.

        zip, not islice: a negative upto pulls no count; __post_init__ refuses it.
        """
        return cls(h, L, upto, tuple(c for _, c in zip(range(upto + 1), counts)), method)

    # The checks above make every view field valid: L >= 2, k >= 0, and
    # 0 <= L C_{k-1} <= C_k, so the views use the trusted constructor.
    @cached_property
    def P(self) -> tuple[ExactProb, ...]:
        return _P_view(self.L, self.C)

    @cached_property
    def p(self) -> tuple[ExactProb, ...]:
        """p_k = (C_k - L C_{k-1}) / L**k."""
        return _p_view(self.L, self.C)

    @property
    def n(self) -> int:
        return self.h.n

    def _counts(self) -> Iterator[tuple[int, int, int]]:
        """(L**k p_k, L**k P_k, L**k) for k = 0..upto, on a running power."""
        L = self.L
        prev, power = 0, 1
        for count in self.C:
            yield count - L * prev, count, power
            prev = count
            power *= L

    def _rows(self) -> Iterator[tuple[int, int, int, float, int, int, float]]:
        """(k, p_num, p_den_exp, p_approx, P_num, P_den_exp, P_approx) for each k.

        The num/den_exp pairs are the canonical forms of the views; int / int
        is correctly rounded, so approx equals float() of the canonical value.
        """
        L = self.L
        for k, (a, c, power) in enumerate(self._counts()):
            p_num, p_exp = canonical(a, k, L)
            P_num, P_exp = canonical(c, k, L)
            yield k, p_num, p_exp, a / power, P_num, P_exp, c / power

    def to_json_dict(self) -> dict:
        L = self.L
        return {
            "h": self.h.text(),
            "L": L,
            "n": self.n,
            "method": self.method,
            "rows": [
                {
                    "k": k,
                    "p": {"num": str(p_num), "base": L, "den_exp": p_exp, "approx": p_approx},
                    "P": {"num": str(P_num), "base": L, "den_exp": P_exp, "approx": P_approx},
                }
                for k, p_num, p_exp, p_approx, P_num, P_exp, P_approx in self._rows()
            ],
        }

    def json_text(self, indent: int) -> str:
        """The text json.dumps(..., indent=2) writes for `to_json_dict()` when
        the table is a value on a line indented by `indent` spaces.

        The rows are written directly, without the dict or json's pure-Python
        indenting encoder: `num` in quotes, floats by float.__repr__ and
        strings by json's own string encoder, as json.dumps does.
        """
        L = self.L
        i1, i2, i3, i4 = ("\n" + " " * (indent + step) for step in (2, 4, 6, 8))
        rows = ",".join(
            f'{i2}{{{i3}"k": {k},{i3}"p": {{{i4}"num": "{p_num}",{i4}"base": {L},'
            f'{i4}"den_exp": {p_exp},{i4}"approx": {p_approx!r}{i3}}},'
            f'{i3}"P": {{{i4}"num": "{P_num}",{i4}"base": {L},'
            f'{i4}"den_exp": {P_exp},{i4}"approx": {P_approx!r}{i3}}}{i2}}}'
            for k, p_num, p_exp, p_approx, P_num, P_exp, P_approx in self._rows()
        )
        return (
            f'{{{i1}"h": {_json_string(self.h.text())},{i1}"L": {L},{i1}"n": {self.n},'
            f'{i1}"method": {_json_string(self.method)},{i1}"rows": [{rows}{i1}]'
            f'\n{" " * indent}}}'
        )

    def decimal_rows(self, digits: int) -> list[tuple[int, str, str]]:
        """(k, p_k, P_k) with both values rounded to `digits` fractional digits."""
        if digits < 1:
            raise ValueError(f"digits must be >= 1, got {digits}")
        return [
            (k, decimal_string(a, power, digits), decimal_string(c, power, digits))
            for k, (a, c, power) in enumerate(self._counts())
        ]

    def to_csv(self, digits: int = 12) -> str:
        lines = ["k,p,P"]
        lines += [f"{k},{p},{P}" for k, p, P in self.decimal_rows(digits)]
        return "\n".join(lines) + "\n"

    def to_text(self, digits: int) -> str:
        """A header line, then k, p_k and P_k in right-aligned columns."""
        lines = [f"h={self.h.text()}  L={self.L}  method={self.method}"]
        lines.append(f"{'k':>4} {'p_k':>14} {'P_k':>14}")
        lines += [f"{k:>4} {p:>14} {P:>14}" for k, p, P in self.decimal_rows(digits)]
        return "\n".join(lines) + "\n"
