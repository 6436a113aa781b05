"""The exact output value: a count of words over a power of the alphabet size.

Every probability produced by this package is a count of words divided by
L**k. The routes compute those word counts as plain integers and compare
them directly; `ExactProb(count, k, L)` is only the value that leaves a
route, for equality, order, JSON and decimal rendering. Keeping the
denominator as an exponent of a fixed base makes equality checks exact
and cheap and avoids gcd churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering


@total_ordering
@dataclass(frozen=True)
class ExactProb:
    """Value num / base**den_exp with num >= 0, held in canonical form.

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
        num, exp = self.num, self.den_exp
        if num == 0:
            exp = 0
        else:
            while exp > 0 and num % self.base == 0:
                num //= self.base
                exp -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den_exp", exp)

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

    def to_decimal(self, digits: int) -> str:
        """Correctly rounded decimal string with `digits` fractional digits.

        Ties round half to even.
        """
        if digits < 1:
            raise ValueError(f"digits must be >= 1, got {digits}")
        den = self.base**self.den_exp
        q, r = divmod(self.num * 10**digits, den)
        if 2 * r > den or (2 * r == den and q % 2 == 1):
            q += 1
        whole, frac = divmod(q, 10**digits)
        return f"{whole}.{frac:0{digits}d}"

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
