import itertools
import random
import tracemalloc

import pytest

from patprob import EnumerationBudgetError, patterns
from patprob.patterns import (
    BifixIndicator,
    CensusClass,
    Ordering,
    SWord,
    Word,
    _lowest_words,
    _symbol_mask,
    bifix_indicator,
    census,
    compare_indicators,
    compare_swords,
    comparison_threshold,
    is_realizable,
    k0_of_pair,
    k0_sharp,
    s_from_h,
)


def naive_indicator(word):
    """Quadratic prefix/suffix comparison, straight from the definition."""
    n = len(word)
    bits = tuple(
        1 if word.symbols[:i] == word.symbols[n - i :] else 0 for i in range(1, n)
    )
    return BifixIndicator(bits)


def w(text, L=2):
    return Word.parse(text, L)


def census_reference(n, L, max_representatives):
    """The per-word loop that census replaced: failure function on every word."""
    counts, reps = {}, {}
    for symbols in itertools.product(range(L), repeat=n):
        word = Word(symbols, L)
        h = bifix_indicator(word)
        counts[h] = counts.get(h, 0) + 1
        kept = reps.setdefault(h, [])
        if len(kept) < max_representatives:
            kept.append(word)
    return {
        h: CensusClass(counts[h], tuple(reps[h]))
        for h in sorted(counts, key=lambda ind: ind.bits)
    }


# OEIS A005434: the number of distinct autocorrelations (bifix classes) of
# binary words of length n, for n = 2..20.
A005434 = (2, 3, 4, 6, 8, 10, 13, 17, 21, 27, 30, 37, 47, 57, 62, 75, 87, 102, 116)


@pytest.fixture(scope="module")
def small_censuses():
    """census(n, 2) for n = 2..20 and census(n, 3) for n = 2..12, built once."""
    binary = {(n, 2): census(n, 2) for n in range(2, 21)}
    return binary | {(n, 3): census(n, 3) for n in range(2, 13)}


class TestWord:
    def test_parse_digits(self):
        assert w("10011").symbols == (1, 0, 0, 1, 1)

    def test_parse_commas(self):
        word = Word.parse("0,1,12,3", 13)
        assert word.symbols == (0, 1, 12, 3)
        assert word.text() == "0,1,12,3"

    def test_text_round_trip(self):
        for text in ["01", "10011", "222", "0120"]:
            assert Word.parse(text, 3).text() == text

    @pytest.mark.parametrize("L", [10, 11, 2**40])
    def test_one_symbol_round_trip(self, L):
        for symbol in (0, 5, L - 1):
            word = Word((symbol,), L)
            assert Word.parse(word.text(), L) == word

    @pytest.mark.parametrize("text", ["05", "00", "11", "12", "1a", "\u0665"])
    def test_one_symbol_text_is_as_written(self, text):
        # Above ten symbols, a comma-less text must be exactly str(v) with v < L.
        with pytest.raises(ValueError, match="^alphabet size 11 needs comma-separated symbols$"):
            Word.parse(text, 11)

    def test_large_alphabet_needs_commas(self):
        with pytest.raises(ValueError):
            Word.parse("1011", 12)

    def test_digit_form_up_to_ten_symbols(self):
        # Ten symbols are the digits 0-9; from eleven on, one needs two digits.
        assert Word.parse("0919", 10).symbols == (0, 9, 1, 9)
        assert Word((0, 9, 1, 9), 10).text() == "0919"
        with pytest.raises(ValueError, match="^alphabet size 11 needs comma-separated symbols$"):
            Word.parse("0919", 11)
        assert Word((0, 9, 1, 9), 11).text() == "0,9,1,9"

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            Word.parse("012", 2)

    def test_alphabet_too_small(self):
        with pytest.raises(ValueError):
            Word((0, 1), 1)

    def test_malformed(self):
        with pytest.raises(ValueError):
            Word.parse("1a0", 2)
        for L in (2, 11):  # at L = 11 the comma rule came first
            with pytest.raises(ValueError, match="^word must be nonempty$"):
                Word.parse("", L)

    @pytest.mark.parametrize(
        "text,L",
        [
            ("\u0661\u0660\u0660", 2),  # Arabic-Indic digits for 100
            ("\uff11\uff10", 2),  # fullwidth digits for 10
            ("1_0,1", 11),
            ("+1,0", 11),
            ("1, 0", 11),
        ],
    )
    def test_only_ascii_digit_runs(self, text, L):
        with pytest.raises(ValueError, match="ASCII digits"):
            Word.parse(text, L)


class TestBifixIndicator:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("10000", "0000"),
            ("10001", "1000"),
            ("10010", "0100"),
            ("11011", "1100"),
        ],
    )
    def test_known_binary_patterns(self, word, expected):
        assert bifix_indicator(w(word)).text() == expected

    def test_constant_word_all_ones(self):
        assert bifix_indicator(w("00000")).bits == (1, 1, 1, 1)
        assert bifix_indicator(Word((2, 2, 2), 3)).bits == (1, 1)

    def test_distinct_symbols_all_zero(self):
        assert bifix_indicator(Word.parse("012", 3)).bits == (0, 0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            bifix_indicator(Word((1,), 2))

    def test_matches_naive_exhaustively_binary(self):
        for n in range(2, 13):
            for symbols in itertools.product((0, 1), repeat=n):
                word = Word(symbols, 2)
                assert bifix_indicator(word) == naive_indicator(word)

    def test_matches_naive_random_ternary(self):
        rng = random.Random(31337)
        for _ in range(1000):
            n = rng.randrange(2, 9)
            word = Word(tuple(rng.randrange(3) for _ in range(n)), 3)
            assert bifix_indicator(word) == naive_indicator(word)

    @pytest.mark.parametrize("L,top", [(2, 12), (3, 8)])
    def test_realizable_exactly_the_census_classes(self, L, top):
        for n in range(2, top + 1):
            every = {BifixIndicator(bits) for bits in itertools.product((0, 1), repeat=n - 1)}
            assert {h for h in every if is_realizable(h)} == set(census(n, L)), n

    def test_parse_and_text(self):
        assert BifixIndicator.parse("1000").bits == (1, 0, 0, 0)
        assert BifixIndicator((1, 0)).text() == "10"
        with pytest.raises(ValueError):
            BifixIndicator.parse("10x")
        with pytest.raises(ValueError):
            BifixIndicator(())

    @pytest.mark.parametrize("bits,bad", [((0, 2), 2), ((-1,), -1)])
    def test_bits_must_be_0_or_1(self, bits, bad):
        bound = "<= 1" if bad > 1 else ">= 0"
        with pytest.raises(ValueError, match=f"^bits must be {bound}, got {bad}$"):
            BifixIndicator(bits)


class TestCompare:
    def test_less(self):
        assert (
            compare_indicators(BifixIndicator.parse("0000"), BifixIndicator.parse("1000"))
            is Ordering.LESS
        )

    def test_incomparable(self):
        assert (
            compare_indicators(BifixIndicator.parse("1000"), BifixIndicator.parse("0100"))
            is Ordering.INCOMPARABLE
        )

    def test_equal_and_greater(self):
        h = BifixIndicator.parse("10")
        assert compare_indicators(h, h) is Ordering.EQUAL
        assert compare_indicators(BifixIndicator.parse("11"), h) is Ordering.GREATER

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compare_indicators(BifixIndicator.parse("10"), BifixIndicator.parse("100"))


class TestK0:
    @pytest.mark.parametrize(
        "h,h2,expected",
        [("0000", "1000", 6), ("0100", "1100", 6), ("00", "01", 5)],
    )
    def test_first_difference_formula(self, h, h2, expected):
        assert k0_of_pair(BifixIndicator.parse(h), BifixIndicator.parse(h2)) == expected

    def test_requires_strict_order(self):
        h = BifixIndicator.parse("10")
        for threshold in (k0_of_pair, k0_sharp):
            for pair in ((h, h), (BifixIndicator.parse("1000"), BifixIndicator.parse("0100"))):
                with pytest.raises(ValueError, match=r"indicator pair is not strictly ordered"):
                    threshold(*pair)

    def test_sharp_threshold_uses_last_difference(self):
        # The classes 0000 < 1000 differ only in the length-1 border; their
        # tables stay equal until two occurrences can overlap, at k = 9.
        hA, hB = BifixIndicator.parse("0000"), BifixIndicator.parse("1000")
        assert k0_sharp(hA, hB) == 9
        assert k0_of_pair(hA, hB) == 6  # not sharp: the tables still agree at 6..8

    def test_sharp_equals_first_difference_at_n2(self):
        hA, hB = BifixIndicator.parse("0"), BifixIndicator.parse("1")
        assert k0_sharp(hA, hB) == k0_of_pair(hA, hB) == 3

    def test_sharp_matches_chain_threshold_formula(self):
        # 2n - max strict position, via the jump-target mapping
        for bits_a, bits_b in [
            ((0, 0, 0, 0), (1, 1, 0, 0)),
            ((0, 0, 0, 0), (0, 1, 0, 0)),
            ((1, 0, 0, 0), (1, 1, 0, 0)),
        ]:
            ha, hb = BifixIndicator(bits_a), BifixIndicator(bits_b)
            strict = [i + 1 for i, (x, y) in enumerate(zip(bits_a, bits_b)) if x < y]
            assert k0_sharp(ha, hb) == 2 * ha.n - max(strict)

    def test_sharp_closed_form_equals_jump_word_threshold(self):
        # Every strictly ordered pair of binary indicators, realizable or not.
        for n in range(2, 8):
            indicators = [BifixIndicator(bits) for bits in itertools.product((0, 1), repeat=n - 1)]
            for ha, hb in itertools.permutations(indicators, 2):
                if compare_indicators(ha, hb) is Ordering.LESS:
                    assert k0_sharp(ha, hb) == comparison_threshold(s_from_h(ha), s_from_h(hb))


class TestSWords:
    @pytest.mark.parametrize(
        "bits,expected",
        [
            ((0, 0, 0, 0), (0, 1, 1, 1, 1)),
            ((1, 1, 0, 0), (0, 1, 1, 0, 0)),
            ((1,), (0, 0)),
        ],
    )
    def test_s_from_h(self, bits, expected):
        assert s_from_h(BifixIndicator(bits)).targets == expected

    def test_s_from_h_always_valid(self):
        for n in range(2, 8):
            for h in census(n, 2):
                s = s_from_h(h)
                assert all(0 <= t <= i for i, t in enumerate(s.targets))

    def test_sword_invariant(self):
        with pytest.raises(ValueError):
            SWord((0, 2))
        with pytest.raises(ValueError):
            SWord((1,))
        with pytest.raises(ValueError):
            SWord(())

    def test_parse(self):
        assert SWord.parse("0,1,2").targets == (0, 1, 2)
        with pytest.raises(ValueError):
            SWord.parse("0,x")

    @pytest.mark.parametrize("text", [" 0, +1,0_1", "0,\u0661", "0,1 ,1"])
    def test_parse_only_ascii_digit_runs(self, text):
        with pytest.raises(ValueError, match="ASCII digits"):
            SWord.parse(text)

    def test_order_swaps_under_mapping(self):
        # h < h' corresponds to s_from_h(h) > s_from_h(h')
        hA, hB = BifixIndicator.parse("0000"), BifixIndicator.parse("1000")
        assert compare_indicators(hA, hB) is Ordering.LESS
        assert compare_swords(s_from_h(hA), s_from_h(hB)) is Ordering.GREATER

    @pytest.mark.parametrize(
        "s,s2,expected",
        [
            ((0, 1), (0, 0), 3),
            ((0, 1, 1, 1, 1), (0, 1, 1, 1, 0), 9),
            ((0, 1, 2), (0, 0, 0), 4),
        ],
    )
    def test_comparison_threshold(self, s, s2, expected):
        assert comparison_threshold(SWord(s), SWord(s2)) == expected

    def test_comparison_threshold_requires_strict(self):
        with pytest.raises(ValueError):
            comparison_threshold(SWord((0, 0)), SWord((0, 1)))
        with pytest.raises(ValueError):
            comparison_threshold(SWord((0, 1)), SWord((0, 1)))


class TestCensus:
    def test_two_letter_census(self):
        classes = census(2, 2)
        assert {h.text(): cls.count for h, cls in classes.items()} == {"0": 2, "1": 2}
        reps = {h.text(): {w.text() for w in cls.representatives} for h, cls in classes.items()}
        assert reps == {"0": {"01", "10"}, "1": {"00", "11"}}

    def test_partition_sums(self):
        for n, L in [(3, 2), (5, 2), (6, 2), (4, 3)]:
            classes = census(n, L)
            assert sum(cls.count for cls in classes.values()) == L**n

    def test_known_words_land_in_their_classes(self):
        classes = census(5, 2)
        for text, bits in [("10000", "0000"), ("10001", "1000"), ("10010", "0100"), ("11011", "1100")]:
            h = BifixIndicator.parse(bits)
            assert h in classes
            assert bifix_indicator(w(text)) == h

    def test_all_zero_word_in_all_ones_class(self):
        for n, L in [(3, 2), (4, 3), (6, 2)]:
            classes = census(n, L)
            all_ones = BifixIndicator((1,) * (n - 1))
            assert any(
                word.symbols == (0,) * n for word in classes[all_ones].representatives
            )

    def test_representative_cap(self):
        classes = census(6, 2, max_representatives=2)
        assert all(len(cls.representatives) <= 2 for cls in classes.values())
        assert any(cls.count > 2 for cls in classes.values())

    def test_budget_error_names_budget(self):
        with pytest.raises(EnumerationBudgetError, match="budget of 100"):
            census(12, 2, budget=100)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="^budget must be >= 0, got -1$"):
            census(3, 2, budget=-1)

    def test_zero_budget_refuses_every_census(self):
        with pytest.raises(EnumerationBudgetError, match=r"2\^3 words, exceeding the budget of 0$"):
            census(3, 2, budget=0)

    def test_budget_counts_words_not_symbols(self):
        # 3**16 words exceed 2**24, though 16 is below the bit-length shortcut's 25.
        with pytest.raises(EnumerationBudgetError, match=r"3\^16 words, exceeding the budget of 16777216$"):
            patterns.check_enum_budget(3, 16, 2**24, "probe")
        patterns.check_enum_budget(3, 15, 2**24, "probe")  # 3**15 = 14348907 words

    def test_representative_symbols_are_budgeted(self):
        # 2^20 representatives of 20 symbols each peaked at 263 MiB; the lower
        # bound min(max_representatives, L**n) * n refuses them before any mask.
        message = (
            "census(n=20, L=2) with max_representatives=1048576 exceeds the budget of "
            "16777216 symbols, keeping at least 20971520"
        )
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationBudgetError) as exc:
                census(20, 2, max_representatives=2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == message
        assert peak < 2**20
        # The cap counts only words that exist: at most L**n of them, here 64 * 6.
        assert sum(len(c.representatives) for c in census(6, 2, 384, 10**9).values()) == 64
        # The cap is per class: at n = 6 the classes hold 2, 2, 2, 4, 6, 6, 20
        # and 22 words, so a cap of 22, 63 or 64 keeps all 64 words, 384
        # symbols, and a cap of 21 keeps 63 words, 378 symbols.
        assert sorted(c.count for c in census(6, 2).values()) == [2, 2, 2, 4, 6, 6, 20, 22]
        for cap in (22, 63, 64):
            with pytest.raises(EnumerationBudgetError, match=f"={cap} .* at least 384$"):
                census(6, 2, 383, cap)
        with pytest.raises(EnumerationBudgetError, match="=21 .* at least 378$"):
            census(6, 2, 377, 21)
        kept = census(6, 2, 378, 21)
        assert kept == census(6, 2, max_representatives=21)
        assert sum(len(c.representatives) for c in kept.values()) == 63

    def test_refused_representatives_are_never_built(self, monkeypatch):
        # The running sum is checked before a class's words are built, so a
        # refused census has built words of at most `budget` symbols.
        built = []

        def lowest_words(*args):
            words = real(*args)
            built.extend(words)
            return words

        real = patterns._lowest_words
        monkeypatch.setattr(patterns, "_lowest_words", lowest_words)
        with pytest.raises(EnumerationBudgetError):
            census(12, 2, 4096 * 12 - 1, 4095)
        assert built and sum(len(w.symbols) for w in built) <= 4096 * 12 - 1

    def test_negative_representative_cap_rejected(self):
        with pytest.raises(ValueError, match="max_representatives must be >= 0, got -1"):
            census(3, 2, max_representatives=-1)
        classes = census(3, 2, max_representatives=0)
        assert all(cls.representatives == () for cls in classes.values())

    def test_every_key_is_its_members_indicator(self, small_censuses):
        for classes in small_censuses.values():
            for h, cls in classes.items():
                assert cls.representatives
                for word in cls.representatives:
                    assert bifix_indicator(word) == h

    @pytest.mark.parametrize(
        "n,L",
        [(n, 2) for n in range(2, 11)] + [(n, 3) for n in range(2, 7)] + [(n, 4) for n in range(2, 6)],
    )
    def test_matches_per_word_reference(self, n, L):
        every = census_reference(n, L, L**n)
        # The last cap exceeds every class, so each class keeps all its words.
        for reps in (0, 1, 4, 7, L**n):
            expected = {
                h: CensusClass(cls.count, cls.representatives[:reps]) for h, cls in every.items()
            }
            got = census(n, L, max_representatives=reps)
            assert list(got) == list(expected)  # same keys in the same order
            assert got == expected  # same counts and representatives

    def test_class_counts_are_oeis_a005434(self, small_censuses):
        binary = tuple(len(small_censuses[n, 2]) for n in range(2, 21))
        assert binary == A005434
        for n in range(2, 13):
            # Guibas & Odlyzko: the realizable indicators do not depend on L >= 2.
            assert small_censuses[n, 3].keys() == small_censuses[n, 2].keys()

    @pytest.mark.parametrize("n,L", [(2, 1024), (3, 128)])
    def test_large_alphabet_in_bounded_memory(self, n, L):
        # Words aa.. are the only all-ones class; n = 3 also has aba (b != a).
        expected = {
            (2, 1024): {"0": L * (L - 1), "1": L},
            (3, 128): {"00": L**3 - L**2, "10": L * (L - 1), "11": L},
        }[n, L]
        tracemalloc.start()
        try:
            classes = census(n, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # n first-symbol masks, n - 1 border masks and the pending parts;
        # keeping all n * L symbol masks would need hundreds of masks here.
        assert peak < (3 * n + 8) * L**n // 8
        assert {h.text(): cls.count for h, cls in classes.items()} == expected
        reps = {h.text(): [word.symbols for word in cls.representatives] for h, cls in classes.items()}
        assert reps["1" * (n - 1)] == [(c,) * n for c in range(4)]
        assert reps["0" * (n - 1)] == [(0,) * (n - 1) + (c,) for c in range(1, 5)]

    @pytest.mark.parametrize("k,L", [(1, 2), (5, 2), (4, 3), (3, 5), (2, 7)])
    def test_symbol_masks_mark_their_words(self, k, L):
        # Bit w is word number w in product order; the mask has no bit past L**k.
        # Callers shift S(i, 0) up by c runs of L**(k-1-i) bits to get S(i, c).
        for i in range(k):
            for c in range(L):
                bits = [int(word[i] == c) for word in itertools.product(range(L), repeat=k)]
                expected = int("".join(map(str, reversed(bits))), 2)
                assert _symbol_mask(k, L, i) << c * L ** (k - 1 - i) == expected, (i, c)

    def test_every_word_of_a_class_in_product_order(self):
        # The borderless class of census(10, 2) spans nearly all 1024 bits, so
        # the decoder reads it from the widest slice and returns every set bit.
        n = 10
        h = BifixIndicator((0,) * (n - 1))
        cls = census(n, 2, max_representatives=2**n)[h]
        expected = [
            symbols
            for symbols in itertools.product(range(2), repeat=n)
            if naive_indicator(Word(symbols, 2)) == h
        ]
        assert [word.symbols for word in cls.representatives] == expected
        assert cls.count == len(expected) > 64

    def test_representatives_of_a_wide_part(self):
        # Set bits at both ends of a 2^16-bit part and on both sides of bit 2^15.
        positions = [0, 5, 32767, 32768, 2**16 - 1]
        part = sum(1 << p for p in positions)
        decoded = [
            int("".join(map(str, word.symbols)), 2) for word in _lowest_words(part, 16, 2, 10)
        ]
        assert decoded == positions
        assert len(_lowest_words(part, 16, 2, 3)) == 3
        assert _lowest_words(part, 16, 2, 0) == ()
