"""Exact results and every form in which they are written.

Every probability produced by this package is a count of words divided by
L**k. The routes compute those word counts as plain integers and compare
them directly; `ExactProb(count, k, L)` is only the value that leaves a
route, for equality, `<` and JSON. Keeping the denominator as an
exponent of a fixed base makes equality checks exact and cheap and avoids
gcd churn. `ProbTable.from_counts` cuts a route's stream of counts
C_k = L**k P_k at a horizon with `patterns._cut`, the one rule that cuts a
stream; the table checks them and writes them as JSON, CSV or a text
table, the one place that decides how a result is written.
Its `p` and `P` columns are lazy `_ProbView` sequences that build an
`ExactProb` only for the element read and keep nothing.

`ExactProb(num, den_exp, base)` is the one constructor of an exact value:
it validates its fields and brings them into canonical form through the
one helper `canonical`. `decimal_string` is the one rounding rule for
decimal strings.

From the package this module imports only `patterns._Value`, the base
that gives `ExactProb` and `_ProbView` their equality, hash, repr and
immutability, `patterns._ascii_ints`, which reads a JSON numerator,
`patterns._at_least` and `patterns._within`, the one bound rule for an int
field and for a tuple of ints, and `patterns._cut`.
`ProbTable` only reads `h.n` and `h.text()` of its indicator, and its
annotations stay unevaluated strings, so naming `BifixIndicator` imports
nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, Iterator

from .patterns import _Value, _ascii_ints, _at_least, _cut, _within


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


class ExactProb(_Value):
    """Probability num / base**den_exp with 0 <= num <= base**den_exp, held in
    canonical form.

    Canonical form: num == 0 forces den_exp == 0; otherwise factors of
    `base` are stripped from num until num is not divisible by base or
    den_exp reaches 0. Structural equality of canonical values is value
    equality (for a common base).

    Instances are immutable and safe to share across threads. Equality, hash
    and repr are those of a frozen dataclass over (num, den_exp, base), from
    `patterns._Value` like every other value type.
    """

    __slots__ = ("num", "den_exp", "base")

    def __init__(self, num: int, den_exp: int, base: int) -> None:
        # A bool or float field would equal the int, yet write a record from_json_dict refuses.
        _at_least(num, 0, "num")
        _at_least(den_exp, 0, "den_exp")
        _at_least(base, 2, "base")
        canon_num, exp = canonical(num, den_exp, base)
        if canon_num > base**exp:
            raise ValueError(f"probability must be <= 1, got num > {base}**{den_exp}")
        object.__setattr__(self, "num", canon_num)
        object.__setattr__(self, "den_exp", exp)
        object.__setattr__(self, "base", base)

    def __lt__(self, other: ExactProb) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
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
        """The value of a `to_json_dict` record; `approx` is not read.

        `num` must be a string of ASCII digits (`int` would also read "1_0"
        or " 4 "); the constructor requires the other fields to be ints. A
        record that is not a dict, or lacks a field, is refused by name.
        """
        if not isinstance(data, dict):
            raise ValueError(f"malformed record: expected a dict, got {data!r}")
        for field in ("num", "den_exp", "base"):
            if field not in data:
                raise ValueError(f"malformed {field}: missing from the record")
        (num,) = _ascii_ints([data["num"]], "num")
        return cls(num, data["den_exp"], data["base"])


class _ProbView(_Value):
    """Column p or P of the table with counts C over L, as a lazy sequence of
    `ExactProb`.

    `column` is "p" or "P". Reading element k builds
    `ExactProb(C_k, k, L)` for P, or of `C_k - L C_{k-1}` for p, which
    validates it; nothing is kept. A slice and `+` return tuples. Equality
    and hash are those of (L, C, column), so views of equal counts compare
    equal without building a value, and a view never equals a tuple.

    Private, built by `ProbTable.p` and `.P`. A view of counts that are not a
    table's raises ValueError when the bad element is read.
    """

    __slots__ = ("L", "C", "column")

    def __len__(self) -> int:
        return len(self.C)

    def __getitem__(self, key: int | slice) -> ExactProb | tuple[ExactProb, ...]:
        # range indexing gives tuple semantics: negative keys, IndexError
        # past the end, and a range of positions for a slice.
        k = range(len(self.C))[key]
        if isinstance(k, range):
            return tuple(map(self._at, k))
        return self._at(k)

    def __iter__(self) -> Iterator[ExactProb]:
        return map(self._at, range(len(self.C)))

    def __add__(self, other: Iterable[ExactProb]) -> tuple[ExactProb, ...]:
        return (*self, *other)

    def _at(self, k: int) -> ExactProb:
        C, L = self.C, self.L
        count = C[k] - L * C[k - 1] if self.column == "p" and k else C[k]
        return ExactProb(count, k, L)


# A dataclass, unlike the value types, because callers derive altered
# tables with dataclasses.replace.
@dataclass(frozen=True)
class ProbTable:
    """Counts C_k = L**k P_k of the length-k words containing the pattern,
    for k = 0 .. upto = len(C) - 1.

    `p` and `P` are lazy `_ProbView` columns over the counts: an element is
    built only when read, and views of equal counts are equal. Rows of
    JSON, CSV and text output are computed from the counts over a running
    L**k, without the views; `_rows` is the one JSON row layout.
    """

    h: BifixIndicator
    L: int
    C: tuple[int, ...]
    method: str

    def __post_init__(self) -> None:
        n, L = self.h.n, self.L
        _at_least(L, 2, "L", "alphabet size")
        _within(self.C, 0, None, "C")
        if not self.C:
            raise ValueError("table needs at least one count, C_0")
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

    @property
    def upto(self) -> int:
        """The horizon: the table holds C_0 .. C_upto."""
        return len(self.C) - 1

    @classmethod
    def from_counts(
        cls, h: BifixIndicator, L: int, upto: int, counts: Iterable[int], method: str
    ) -> ProbTable:
        """The table of C_0 .. C_upto, the first upto + 1 counts of a stream
        (`patterns._cut`, which refuses a bad upto before any count is pulled)."""
        return cls(h, L, tuple(_cut(counts, upto)), method)

    @property
    def P(self) -> _ProbView:
        """P_k = C_k / L**k, each built when read."""
        return _ProbView(self.L, self.C, "P")

    @property
    def p(self) -> _ProbView:
        """p_k = (C_k - L C_{k-1}) / L**k, each built when read."""
        return _ProbView(self.L, self.C, "p")

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
        _at_least(digits, 1, "digits")
        return [
            (k, decimal_string(a, power, digits), decimal_string(c, power, digits))
            for k, (a, c, power) in enumerate(self._counts())
        ]

    def to_csv(self, digits: int = 12) -> str:
        lines = ["k,p,P"]
        lines += [f"{k},{p},{P}" for k, p, P in self.decimal_rows(digits)]
        return "\n".join(lines) + "\n"

    def to_text(self, digits: int) -> str:
        """A header line, then k, p_k and P_k in right-aligned columns that fit them."""
        rows = self.decimal_rows(digits)
        wk, wv = max(4, len(str(self.upto))), max(14, digits + 2)
        lines = [f"h={self.h.text()}  L={self.L}  method={self.method}",
                 f"{'k':>{wk}} {'p_k':>{wv}} {'P_k':>{wv}}"]
        lines += [f"{k:>{wk}} {p:>{wv}} {P:>{wv}}" for k, p, P in rows]
        return "\n".join(lines) + "\n"
