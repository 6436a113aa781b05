"""The exact output value: a count of words over a power of the alphabet size.

Every probability produced by this package is a count of words divided by
L**k. The routes compute those word counts as plain integers and compare
them directly; `ExactProb(count, k, L)` is only the value that leaves a
route, for equality, order, JSON and decimal rendering. Keeping the
denominator as an exponent of a fixed base makes equality checks exact
and cheap and avoids gcd churn.

`ExactProb(num, den_exp, base)` validates its fields. The trusted
constructor `ExactProb.from_checked(num, den_exp, base)` skips that check
and is only for values already known to satisfy base >= 2, num >= 0,
den_exp >= 0 and num <= base**den_exp, such as the counts a `ProbTable`
has validated. Both bring the value into canonical form through the one
helper `canonical`, and `decimal_string` is the one rounding rule for
decimal strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering


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


@total_ordering
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

    def to_decimal(self, digits: int) -> str:
        """Correctly rounded decimal string with `digits` fractional digits.

        Ties round half to even.
        """
        if digits < 1:
            raise ValueError(f"digits must be >= 1, got {digits}")
        return decimal_string(self.num, self.base**self.den_exp, digits)

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
