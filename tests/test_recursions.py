import itertools

import pytest

from patprob import TABLE_ROUTES, route_tables
from patprob.numerics import ExactProb
from patprob.oracle import automaton_prob_table, enum_counts
from patprob.patterns import BifixIndicator, Word, bifix_indicator, census
from patprob.recursions import (
    P_at,
    ProbTable,
    _iter_counts,
    P_table,
    expected_wait_closed,
    expected_wait_series,
    p_table_long,
    p_table_short,
)

H1 = BifixIndicator((1,))
H0 = BifixIndicator((0,))


def ep(num, exp, base=2):
    return ExactProb(num, exp, base)


class TestFrozenValues:
    def test_repeated_symbol_pattern(self):
        # All 8 length-3 binary words: first occurrence of "11" at the end
        # happens for 011 only; p_2 = 1/4 (words 11x restricted to length 2).
        t = p_table_long(H1, 2, 3)
        assert t.p[2] == ep(1, 2)
        assert t.p[3] == ep(1, 3)
        assert t.P[3] == ep(3, 3)
        assert t.P[2] == ep(1, 2)

    def test_borderless_pattern(self):
        # 4 of the 8 length-3 words contain "10": 010, 100, 101, 110.
        t = P_table(H0, 2, 3)
        assert t.P[3] == ep(1, 1)

    def test_first_possible_hit(self):
        for bits, L in [((1,), 2), ((0, 0), 3), ((1, 0, 1, 0), 2)]:
            h = BifixIndicator(bits)
            t = p_table_short(h, L, h.n)
            assert t.p[h.n] == ExactProb(1, h.n, L)

    def test_zero_below_pattern_length(self):
        t = P_table(BifixIndicator((1, 0, 0)), 2, 2)
        assert all(v == ep(0, 0) for v in t.p)
        assert all(v == ep(0, 0) for v in t.P)


class TestThreeWayEquality:
    # Every class route on every class of length 2..6; p and P are views of C.
    @pytest.mark.parametrize("L", [2, 3])
    def test_all_classes_small_n(self, L):
        for n in range(2, 7):
            for h in census(n, L):
                counts = {name: t.C for name, t in route_tables(h, L, 3 * n).items()}
                assert len(set(counts.values())) == 1, (h.text(), counts)

    def test_methods_tagged(self):
        h = H1
        assert p_table_long(h, 2, 4).method == "long-recursion"
        assert p_table_short(h, 2, 4).method == "short-recursion"
        assert P_table(h, 2, 4).method == "P-recursion"


class TestAgainstEnumeration:
    @pytest.mark.parametrize("text,bits", [("10000", "0000"), ("11011", "1100")])
    def test_P12_matches_brute_force(self, text, bits):
        word = Word.parse(text, 2)
        h = BifixIndicator.parse(bits)
        assert bifix_indicator(word) == h
        counts = enum_counts(word, 12)
        table = p_table_short(h, 2, 12)
        assert table.P[12] == counts.prob_contains()

    def test_full_distribution_matches_brute_force(self):
        word = Word.parse("110", 2)
        h = bifix_indicator(word)
        counts = enum_counts(word, 9)
        table = P_table(h, 2, 9)
        for j in range(1, 10):
            assert table.p[j] == ExactProb(counts.first_at[j], 9, 2)


class TestTableInvariants:
    def test_monotone_and_bounded(self):
        for bits, L in [((1, 1, 0, 0), 2), ((0, 0, 0), 3)]:
            h = BifixIndicator(bits)
            t = P_table(h, L, 40)
            one = ExactProb(1, 0, L)
            for k in range(1, 41):
                assert not t.P[k] < t.P[k - 1]
                assert not one < t.P[k]

    def test_nonzero_below_pattern_length_rejected(self):
        with pytest.raises(ValueError, match="below the pattern length"):
            ProbTable(H1, 2, 4, (0, 1, 3, 7, 15), "P-recursion")

    def test_P_above_one_rejected(self):
        # C_3 = 9 > 2**3: more length-3 words than there are
        with pytest.raises(ValueError, match="P exceeded 1"):
            ProbTable(H1, 2, 3, (0, 0, 1, 9), "P-recursion")

    def test_from_counts_rejects_decreasing_counts(self):
        # C_3 < 2 C_2 would make the first-occurrence count a_3 negative
        with pytest.raises(ValueError, match="below L"):
            ProbTable(H1, 2, 3, (0, 0, 1, 1), "P-recursion")

    def test_counts_must_cover_the_horizon(self):
        with pytest.raises(ValueError, match="cover k = 0..upto"):
            ProbTable(H1, 2, 4, (0, 0, 1, 3), "P-recursion")

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="upto must be >= 0, got -1"):
            ProbTable(H1, 2, -1, (), "P-recursion")

    @pytest.mark.parametrize("route", [*TABLE_ROUTES.values(), automaton_prob_table])
    def test_routes_leave_the_horizon_check_to_the_table(self, route):
        args = (Word.parse("11", 2),) if route is automaton_prob_table else (H1, 2)
        with pytest.raises(ValueError, match="upto must be >= 0, got -3"):
            route(*args, -3)

    def test_views_are_built_once(self):
        t = P_table(H1, 2, 12)
        assert t.P is t.P
        assert t.p is t.p
        assert t.C == tuple(x.num * 2 ** (k - x.den_exp) for k, x in enumerate(t.P))
        assert t.C[12] == sum(x.num * 2 ** (12 - x.den_exp) for x in t.p)

    def test_windowed_iterator_matches_table(self):
        h = BifixIndicator((1, 0, 1, 0))
        full = P_table(h, 2, 25)
        streamed = tuple(itertools.islice(_iter_counts(h, 2), 26))
        assert streamed == full.C
        assert P_at(h, 2, 25) == full.P[25]


class TestLongHorizonAgreement:
    # Enumeration stops near k = 20; the routes must still agree exactly far
    # beyond it, where the counts run to hundreds of bits.
    @pytest.mark.parametrize("text,L,K", [("2102", 3, 600), ("100100100100", 2, 640)])
    def test_five_routes_agree(self, text, L, K):
        word = Word.parse(text, L)
        h = bifix_indicator(word)
        tables = route_tables(h, L, K, word)
        first = tables["P"]
        for name, t in tables.items():
            assert t.C == first.C, name
        assert P_at(h, L, K) == first.P[K]
        assert first.P[K].den_exp > 0  # still short of certainty at K


class TestAlphabetCheck:
    @pytest.mark.parametrize("route", list(TABLE_ROUTES.values()))
    @pytest.mark.parametrize("L", [1, 0, -1])
    def test_rejected_before_the_recursion_runs(self, route, L):
        with pytest.raises(ValueError, match=f"alphabet size must be >= 2, got {L}"):
            route(H1, L, 100_000)


class TestExpectedWait:
    @pytest.mark.parametrize(
        "bits,L,expected",
        [
            ((0, 0, 0, 0), 2, 32),
            ((1, 1, 0, 0), 2, 38),
            ((1,), 2, 6),
            ((0,), 2, 4),
            ((1, 1), 3, 39),  # 27 + 3 + 9
        ],
    )
    def test_closed_form(self, bits, L, expected):
        assert expected_wait_closed(BifixIndicator(bits), L) == expected

    @pytest.mark.parametrize("bits,L", [((1,), 2), ((0,), 2), ((1, 1, 0, 0), 2)])
    def test_series_meets_closed_form(self, bits, L):
        h = BifixIndicator(bits)
        result = expected_wait_series(h, L, 1e-9)
        assert result.converged
        assert abs(result.value - expected_wait_closed(h, L)) < 1e-9
        assert result.tail_bound < 1e-9

    def test_series_flags_unconverged(self):
        result = expected_wait_series(BifixIndicator((1, 1, 0, 0)), 2, 1e-12, k_max=20)
        assert not result.converged
        assert result.upto == 20

    def test_series_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            expected_wait_series(H1, 2, 0.0)


def test_class_determines_table():
    # Two distinct members of one class produce identical exact counts,
    # whether counted by brute force or by the state-count recursion.
    from patprob.oracle import automaton_counts

    classes = census(4, 2)
    multi = [cls for cls in classes.values() if cls.count >= 2]
    assert multi
    for cls in multi:
        a, b = cls.representatives[0], cls.representatives[1]
        assert a != b
        ca, cb = enum_counts(a, 10), enum_counts(b, 10)
        assert ca.contains == cb.contains
        assert ca.first_at == cb.first_at
        fa, fb = automaton_counts(a, 14), automaton_counts(b, 14)
        assert fa.contains == fb.contains
        assert fa.first_at == fb.first_at
