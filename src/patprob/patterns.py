"""Words, bifix indicators, the jump-target mapping and class census.

A bifix of a word is a proper prefix that is also a suffix (a border).
The bifix indicator of a length-n pattern is the binary word h_1..h_{n-1}
with h_i = 1 exactly when the length-i prefix equals the length-i suffix.
Indicator positions follow the 1-based convention in all text output;
storage is 0-based.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from typing import Iterable


class Ordering(enum.Enum):
    """Componentwise partial-order verdict for indicator or jump-word pairs."""

    EQUAL = "equal"
    LESS = "less"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def _ascii_ints(parts: Iterable[str], what: str) -> tuple[int, ...]:
    """Each part as an int; every part must be a nonempty str of ASCII digits 0-9.

    `int` alone also reads other Unicode digits, signs, underscores and
    surrounding spaces, and `str.isdigit` accepts other Unicode digits. A
    part longer than the interpreter's integer string limit (4300 digits by
    default) is refused with the same "malformed <what>" prefix.
    """
    values = []
    for part in parts:
        if not (isinstance(part, str) and part.isascii() and part.isdigit()):
            raise ValueError(f"malformed {what}: expected ASCII digits 0-9, got {part!r}")
        try:
            values.append(int(part))
        except ValueError:  # the digits are ASCII, so only the integer string limit is left
            limit = f"{len(part)} digits exceed the integer string limit"
            raise ValueError(f"malformed {what}: {limit}") from None
    return tuple(values)


def _check_int(value: object, field: str) -> None:
    """Refuse a field value that is not an int, or is a bool.

    A bool or a float can equal an int and pass every range check, yet it
    writes as "True" or "2.5", and float arithmetic is not exact.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"malformed {field}: expected an int, got {value!r}")


def _at_least(value: object, least: int, field: str, described: str | None = None) -> None:
    """Refuse a value that `_check_int` refuses or that is below `least`.

    The one bound rule: every integer field or argument with a lower bound,
    such as an alphabet size (>= 2) or a horizon (>= 0), is checked by one
    call, and the ValueError names it. A value that is not an int is named
    by `field`, the argument as the signature spells it ("malformed L: ..."),
    and a value below the bound by `described` when given ("alphabet size
    must be >= 2, ...").
    """
    if value.__class__ is not int:  # the call costs more than the test
        _check_int(value, field)
    if value < least:
        raise ValueError(f"{described or field} must be >= {least}, got {value}")


def _within(values: object, least: int, most: int | None, field: str) -> None:
    """`_at_least` for each element of a tuple, which must also not exceed `most`
    unless it is None; a list is refused, as it is neither hashable nor equal to its tuple."""
    if not isinstance(values, tuple):
        raise ValueError(f"malformed {field}: expected a tuple, got {values!r}")
    for value in values:
        if value.__class__ is not int:  # a call per element would double the cost of a Word
            _check_int(value, field)
        if value < least:
            raise ValueError(f"{field} must be >= {least}, got {value}")
        if most is not None and value > most:
            raise ValueError(f"{field} must be <= {most}, got {value}")


class _Value:
    """Base of the immutable value types: a fixed tuple of fields in `__slots__`.

    The constructor, equality, hash and repr are those of a frozen dataclass
    over the field tuple: fields are given by position or keyword in slot
    order, instances of one class are equal when their fields are, and
    assigning or deleting an attribute raises AttributeError. A subclass
    lists its fields in `__slots__`; subclassing a value type raises
    TypeError. A type that checks its input writes its own `__init__`, which
    stores the fields with `object.__setattr__` after its checks: binding
    through this `__init__` took `Word` from about 0.9 to 2.4 us and cost
    4 % of the benchmark's `class_sweep` ops/s (Python 3.11, 2-core x86).
    Building a dataclass generates and compiles its methods at import, which
    costs more than the rest of the module; these are written once.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # The fields are the class's own __slots__, so a subclass of a value
        # type would drop its base's fields from equality, hash and repr.
        for base in cls.__mro__[1:]:
            if "_get_fields" in vars(base):
                raise TypeError(f"{cls.__qualname__} cannot subclass value type {base.__qualname__}")
        # attrgetter reads the fields in C; given one name it returns the bare value.
        cls._get_fields = staticmethod(attrgetter(*cls.__slots__))
        cls._one_field = len(cls.__slots__) == 1

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__qualname__}() takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__qualname__}() missing field {name!r}")
            object.__setattr__(self, name, kwargs.pop(name))
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected"
            raise TypeError(f"{type(self).__qualname__}() got {problem} field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            get = self._get_fields
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self) -> int:
        fields = self._get_fields(self)
        return hash((fields,) if self._one_field else fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Word(_Value):
    """A nonempty finite word over the alphabet {0, ..., alphabet_size - 1}."""

    __slots__ = ("symbols", "alphabet_size")

    def __init__(self, symbols: tuple[int, ...], alphabet_size: int) -> None:
        _at_least(alphabet_size, 2, "alphabet_size", "alphabet size")
        _within(symbols, 0, alphabet_size - 1, "symbols")
        if not symbols:
            raise ValueError("word must be nonempty")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "alphabet_size", alphabet_size)

    def __len__(self) -> int:
        return len(self.symbols)

    @classmethod
    def parse(cls, text: str, alphabet_size: int) -> Word:
        """Parse "10011" (alphabets up to 10) or "0,1,12,3" (larger alphabets).

        Above ten symbols a text without commas is one symbol, written as
        `text` writes it: "5" or "10" at L = 11, but not "05" or "11".
        """
        text = text.strip()
        if "," in text:
            return cls(_ascii_ints(text.split(","), f"word {text!r}"), alphabet_size)
        if alphabet_size > 10 and text:
            digits = text.isascii() and text.isdigit()
            symbol = _ascii_ints((text,), f"word {text!r}")[0] if digits else alphabet_size
            if symbol >= alphabet_size or str(symbol) != text:
                raise ValueError(f"alphabet size {alphabet_size} needs comma-separated symbols")
            return cls((symbol,), alphabet_size)
        return cls(_ascii_ints(text, f"word {text!r}"), alphabet_size)

    def text(self) -> str:
        if self.alphabet_size <= 10:
            return "".join(str(s) for s in self.symbols)
        return ",".join(str(s) for s in self.symbols)


class BifixIndicator(_Value):
    """Binary word h_1..h_{n-1} marking the border lengths of a length-n pattern."""

    __slots__ = ("bits",)

    def __init__(self, bits: tuple[int, ...]) -> None:
        _within(bits, 0, 1, "bits")
        _at_least(len(bits) + 1, 2, "pattern length")
        object.__setattr__(self, "bits", bits)

    @property
    def n(self) -> int:
        """Length of the patterns this indicator describes."""
        return len(self.bits) + 1

    @classmethod
    def parse(cls, text: str) -> BifixIndicator:
        return cls(_ascii_ints(text.strip(), f"indicator {text!r}"))

    def text(self) -> str:
        return "".join(str(b) for b in self.bits)


class SWord(_Value):
    """Jump targets s_0..s_{n-1} with 0 <= s_i <= i, defining a chase chain."""

    __slots__ = ("targets",)

    def __init__(self, targets: tuple[int, ...]) -> None:
        _within(targets, 0, None, "targets")
        if not targets:
            raise ValueError("jump-target word must be nonempty")
        for i, target in enumerate(targets):
            if target > i:
                raise ValueError(f"target s_{i}={target} violates 0 <= s_{i} <= {i}")
        object.__setattr__(self, "targets", targets)

    @property
    def n(self) -> int:
        return len(self.targets)

    @classmethod
    def parse(cls, text: str) -> SWord:
        """Parse comma-separated targets such as "0,1,1"."""
        return cls(_ascii_ints(text.strip().split(","), f"jump-target word {text!r}"))

    def text(self) -> str:
        return ",".join(str(t) for t in self.targets)


def _failure(b: tuple[int, ...]) -> list[int]:
    """Failure function: entry i is the length of the longest proper border of b[:i+1].

    The classic O(n) construction; `bifix_indicator` and the pattern
    automaton both build on it.
    """
    fail = [0] * len(b)
    k = 0
    for i in range(1, len(b)):
        while k > 0 and b[i] != b[k]:
            k = fail[k - 1]
        if b[i] == b[k]:
            k += 1
        fail[i] = k
    return fail


def bifix_indicator(word: Word) -> BifixIndicator:
    """Bifix indicator of a pattern, computed from its border chain.

    Runs in O(n) via the failure function; the quadratic prefix/suffix
    comparison serves as the test oracle. A length-1 word has no bit, so
    `BifixIndicator` refuses it.
    """
    n = len(word)
    fail = _failure(word.symbols)
    bits = [0] * (n - 1)
    length = fail[n - 1]
    while length > 0:
        bits[length - 1] = 1
        length = fail[length - 1]
    return BifixIndicator(tuple(bits))


def is_realizable(h: BifixIndicator) -> bool:
    """Whether some pattern has bifix indicator h.

    A border of length b' of a word holds exactly when the word has period
    n - b', and the borders shorter than a border b are the borders of the
    length-b prefix. So the generic word of h is built up the border chain:
    each border b extends to the next one b' (or to n) with period b' - b,
    and takes a fresh symbol wherever the period reaches back before the
    start. Every word with h's borders is an image of it, so it has the
    fewest borders of any such word, and h is realizable exactly when the
    generic word's indicator is h. By Guibas & Odlyzko, *Periods in strings*
    (JCTA 30, 1981), the answer is the same for every alphabet size >= 2.
    """
    word: list[int] = []
    fresh = 0
    start = 0
    for end in [i for i, bit in enumerate(h.bits, start=1) if bit] + [h.n]:
        period = end - start
        for j in range(start, end):
            if j >= period:
                word.append(word[j - period])
            else:
                word.append(fresh)
                fresh += 1
        start = end
    return bifix_indicator(Word(tuple(word), max(2, fresh))) == h


def _componentwise(x: tuple[int, ...], y: tuple[int, ...], what: str) -> Ordering:
    """Componentwise partial order of two equal-length vectors; LESS means x <= y, x != y."""
    if len(x) != len(y):
        raise ValueError(f"{what} lengths differ: {len(x)} vs {len(y)}")
    le = all(a <= b for a, b in zip(x, y))
    ge = all(a >= b for a, b in zip(x, y))
    if le and ge:
        return Ordering.EQUAL
    if le:
        return Ordering.LESS
    if ge:
        return Ordering.GREATER
    return Ordering.INCOMPARABLE


def compare_indicators(h: BifixIndicator, h_prime: BifixIndicator) -> Ordering:
    """Componentwise partial order; LESS means h <= h' with h != h'."""
    return _componentwise(h.bits, h_prime.bits, "indicator")


def _strict_positions(h: BifixIndicator, h_prime: BifixIndicator) -> list[int]:
    """1-based positions with h_i = 0 and h'_i = 1, for a strictly ordered pair."""
    if compare_indicators(h, h_prime) is not Ordering.LESS:
        raise ValueError("indicator pair is not strictly ordered (need h < h')")
    return [i + 1 for i, (a, b) in enumerate(zip(h.bits, h_prime.bits)) if a == 0 and b == 1]


def k0_of_pair(h: BifixIndicator, h_prime: BifixIndicator) -> int:
    """n plus the first 1-based position where h lacks a border that h' has.

    This is the classical statement of the separation threshold for a
    strictly ordered indicator pair. It is NOT sharp in general: the
    occurrence probabilities of the two classes can stay equal beyond it.
    See k0_sharp for the threshold at which they provably diverge.
    """
    return h.n + min(_strict_positions(h, h_prime))


def k0_sharp(h: BifixIndicator, h_prime: BifixIndicator) -> int:
    """Sharp separation threshold 2n - max{i : h_i = 0 and h'_i = 1} for a
    strictly ordered indicator pair.

    The occurrence probabilities of the two classes agree exactly for
    k < k0_sharp and separate strictly for every k >= k0_sharp. It equals
    `comparison_threshold` of the jump-target words, the k0 that
    `compare_chains` reports; the two are computed apart, so each checks
    the other.
    """
    return 2 * h.n - max(_strict_positions(h, h_prime))


def s_from_h(h: BifixIndicator) -> SWord:
    """Jump-target word (0, 1-h_{n-1}, 1-h_{n-2}, ..., 1-h_1) of an indicator."""
    n = h.n
    targets = [0] + [1 - h.bits[n - i - 1] for i in range(1, n)]
    return SWord(tuple(targets))


def compare_swords(s: SWord, s_prime: SWord) -> Ordering:
    """Componentwise partial order; GREATER means s >= s' with s != s'."""
    return _componentwise(s.targets, s_prime.targets, "jump-target word")


def comparison_threshold(s: SWord, s_prime: SWord) -> int:
    """n + 1 + min{i - s_i : s_i > s'_i} for a strictly ordered pair s > s'.

    The chains of s and s' have identical reach probabilities below this
    index and strictly ordered ones from it onward.
    """
    if compare_swords(s, s_prime) is not Ordering.GREATER:
        raise ValueError("jump-target pair is not strictly ordered (need s > s')")
    gaps = [i - a for i, (a, b) in enumerate(zip(s.targets, s_prime.targets)) if a > b]
    return s.n + 1 + min(gaps)


def expected_wait_closed(h: BifixIndicator, L: int) -> int:
    """Expected first-occurrence position: L**n + sum_i h_i * L**i, exactly."""
    _at_least(L, 2, "L", "alphabet size")
    return L**h.n + sum(L**i for i in range(1, h.n) if h.bits[i - 1] == 1)


DEFAULT_ENUM_BUDGET = 2**24


class EnumerationBudgetError(ValueError):
    """Raised when an exhaustive enumeration would exceed its word budget."""


def check_enum_budget(L: int, k: int, budget: int, what: str) -> None:
    """Refuse to enumerate L**k words when that exceeds the budget.

    With L >= 2, k >= budget.bit_length() gives L**k >= 2**k > budget, so a
    huge k is refused without computing the power.
    """
    if k >= budget.bit_length() or L**k > budget:
        raise EnumerationBudgetError(
            f"{what} would enumerate {L}^{k} words, exceeding the budget of {budget}"
        )


class CensusClass(_Value):
    """One bifix class, keyed by its indicator in `census`: population and capped representatives."""

    __slots__ = ("count", "representatives")


def _symbol_mask(k: int, L: int, i: int) -> int:
    """S(i, 0): mask of the length-k words whose symbol i is 0, in product order.

    Bit w of an L**k-bit integer stands for word number w in
    `itertools.product` order. Word number w has symbol
    i = (w // L**(k-1-i)) % L, so the mask is a run of L**(k-1-i) ones,
    repeated with period L**(k-i); shifted up by c runs, it is S(i, c). The
    period is doubled while the copy fits in L**k bits, and the last copy
    keeps only the bits that still fit, so no all-words mask trims it.
    """
    total = L**k
    run = L ** (k - 1 - i)
    mask, width = (1 << run) - 1, L * run
    while 2 * width <= total:
        mask |= mask << width
        width *= 2
    if width < total:
        mask |= (mask & ((1 << (total - width)) - 1)) << width
    return mask


def census(
    n: int,
    alphabet_size: int,
    budget: int = DEFAULT_ENUM_BUDGET,
    max_representatives: int = 4,
) -> dict[BifixIndicator, CensusClass]:
    """Partition all length-n words by bifix indicator, all words at once.

    Keys are exactly the indicators realizable at (n, alphabet_size); class
    sizes sum to alphabet_size**n. At most `max_representatives` words are
    retained per class (`itertools.product` order, hence deterministic).

    No word is visited: bit w of an L**n-bit integer stands for word number
    w in `itertools.product` order. The border mask B_i marks the words
    whose length-i prefix equals their length-i suffix, the AND over t < i
    of "symbols t and n-i+t agree". Splitting the all-words mask on
    B_{n-1}, ..., B_1 depth first, dropping empty parts, leaves one part per
    class; its lowest set bits are the representatives. Long borders are
    rare, so splitting on them first keeps the number of parts small. The
    budget still bounds L**n, since every mask has L**n bits: at n = 24,
    L = 2 each is 2 MiB. At most about 3n masks are live, whatever L: one
    symbol mask per position, the n - 1 border masks and one pending part
    per border length. The budget also bounds the representatives' symbols,
    n per word: their running sum before a class's words are built, and
    min(max_representatives, L**n) * n, a lower bound, before any mask.
    """
    _at_least(n, 2, "n", "pattern length")
    _at_least(alphabet_size, 2, "alphabet_size", "alphabet size")
    _at_least(max_representatives, 0, "max_representatives")
    _at_least(budget, 0, "budget")
    check_enum_budget(alphabet_size, n, budget, f"census(n={n}, L={alphabet_size})")
    L = alphabet_size
    over_budget = (
        f"census(n={n}, L={L}) with max_representatives={max_representatives} exceeds the "
        f"budget of {budget} symbols, keeping at least "
    )
    if (kept := min(max_representatives, L**n) * n) > budget:
        raise EnumerationBudgetError(f"{over_budget}{kept}")
    every_word = (1 << L**n) - 1
    # S(pos, c) is S(pos, 0) shifted by c runs, so one mask per position
    # stands for all L of them and a comparison holds O(1) masks.
    first_symbol = [_symbol_mask(n, L, pos) for pos in range(n)]
    borders = []
    for i in range(1, n):
        border = every_word
        for t in range(i):
            a, run_a = first_symbol[t], L ** (n - 1 - t)
            b, run_b = first_symbol[n - i + t], L ** (i - 1 - t)
            agree = 0
            for c in range(L):
                agree |= (a << c * run_a) & (b << c * run_b)
            border &= agree
        borders.append(border)
    del first_symbol
    classes: dict[BifixIndicator, CensusClass] = {}
    # Depth first on an explicit stack, so that a part is freed once split
    # and only one pending sibling per border length stays live.
    stack: list[tuple[int, tuple[int, ...]]] = [(every_word, ())]
    kept = 0
    while stack:
        part, bits = stack.pop()  # bits is h_i..h_{n-1}
        if len(bits) == n - 1:
            size = part.bit_count()
            if (kept := kept + min(max_representatives, size) * n) > budget:
                raise EnumerationBudgetError(f"{over_budget}{kept}")
            classes[BifixIndicator(bits)] = CensusClass(size, _lowest_words(part, n, L, max_representatives))
            continue
        inside = part & borders[n - 2 - len(bits)]
        part ^= inside
        if part:
            stack.append((part, (0, *bits)))
        if inside:
            stack.append((inside, (1, *bits)))
    return {h: classes[h] for h in sorted(classes, key=lambda ind: ind.bits)}


def _lowest_words(part: int, n: int, L: int, count: int) -> tuple[Word, ...]:
    """The words of the `count` lowest set bits of `part`, in product order.

    The search skips the zero bits below the lowest word and runs on a low
    slice of the rest, doubled until it holds `count` bits or all of it, so
    it costs the slice rather than all L**n bits. The slice is written once
    as binary digits, lowest bit first, and its set bits are found by
    scanning that text forward: one pass however many words it returns.
    """
    skip = (part & -part).bit_length() - 1  # bit of the lowest word
    part >>= skip
    width = 64
    while (low := part & ((1 << width) - 1)) != part and low.bit_count() < count:
        width *= 2
    text = bin(low)[:1:-1]  # text[w] is bit skip + w of the part
    words: list[Word] = []
    w = text.find("1")
    while w >= 0 and len(words) < count:
        index, symbols = skip + w, []
        for _ in range(n):
            index, digit = divmod(index, L)
            symbols.append(digit)
        words.append(Word(tuple(reversed(symbols)), L))
        w = text.find("1", w + 1)
    return tuple(words)
