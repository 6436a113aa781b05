import dataclasses
import itertools
import json

import pytest

from patprob import TABLE_ROUTES, route_tables
from patprob.markov import ChainSpec, reach_table
from patprob.numerics import (
    _VIEW_MEMO_SIZE,
    ExactProb,
    ProbTable,
    _P_view,
    _p_view,
    decimal_string,
)
from patprob.oracle import PatternAutomaton, automaton_counts, automaton_prob_table, enum_counts
from patprob.patterns import (
    BifixIndicator,
    Word,
    bifix_indicator,
    census,
    expected_wait_closed,
    s_from_h,
)
from patprob.recursions import (
    _iter_counts,
    P_table,
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

    @pytest.mark.parametrize("L,C", [(1, (0, 0, 1)), (0, (0, 0, 0)), (-2, (0, 0, 0))])
    def test_alphabet_below_two_rejected(self, L, C):
        # With L = 1, (0, 0, 1) passes every count check: only the L check rejects it.
        with pytest.raises(ValueError, match=f"alphabet size must be >= 2, got {L}"):
            ProbTable(H1, L, 2, C, "P-recursion")

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


# Patterns whose first hit can come at k = n (every route's first nonzero
# count) over several alphabets and classes.
EDGE_WORDS = [("11", 2), ("10", 2), ("110", 2), ("1011", 2), ("00", 3), ("012", 3), ("3003", 4)]


class TestEdgeHorizons:
    # Horizons at and just past the pattern length, where each route's
    # leading zeros end and its recursion starts.
    @pytest.mark.parametrize("text,L", EDGE_WORDS)
    def test_every_route_at_every_small_horizon(self, text, L):
        word = Word.parse(text, L)
        n = len(word)
        for upto in range(n + 2):
            expected = tuple(enum_counts(word, k).contains for k in range(upto + 1))
            tables = route_tables(bifix_indicator(word), L, upto, word)
            assert sorted(tables) == sorted([*TABLE_ROUTES, "automaton"])
            for name, table in tables.items():
                assert (table.upto, table.C) == (upto, expected), (name, upto)

    @pytest.mark.parametrize("text,L", EDGE_WORDS)
    def test_reach_table_at_horizon_zero(self, text, L):
        word = Word.parse(text, L)
        n = len(word)
        table = reach_table(ChainSpec(s_from_h(bifix_indicator(word)), L), 0)
        assert table.P == (tuple([0] * n + [1]),)
        assert table.P[0][0] == enum_counts(word, 0).contains

    @pytest.mark.parametrize("L", [2, 3])
    def test_length_one_pattern_automaton(self, L):
        for c in range(L):
            word = Word((c,), L)
            for k in range(6):
                assert automaton_counts(word, k) == enum_counts(word, k)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="pattern must be nonempty"):
            PatternAutomaton(Word((), 2))


class TestSharedViews:
    # Tables with equal counts share their p and P tuples; others do not.
    def test_agreeing_routes_share_views(self):
        word = Word.parse("1101", 2)
        tables = list(route_tables(bifix_indicator(word), 2, 40, word).values())
        first = tables[0]
        for t in tables[1:]:
            assert t.C == first.C and t.method != first.method
            assert t.p is first.p
            assert t.P is first.P

    def test_different_counts_get_views_of_their_own(self):
        t = P_table(H1, 2, 6)
        same = ProbTable(t.h, t.L, t.upto, t.C, "hand-built")
        assert same.P is t.P and same.p is t.p
        # One more word containing the pattern at k = 6: still a valid table.
        other = ProbTable(t.h, t.L, t.upto, t.C[:-1] + (t.C[-1] + 1,), "hand-built")
        assert other.P is not t.P and other.p is not t.p
        assert other.P[:-1] == t.P[:-1] and other.P[-1] != t.P[-1]
        assert other.p[-1] != t.p[-1]

    def test_memo_stays_bounded(self):
        for upto in range(2, 40):
            t = P_table(H1, 2, upto)
            assert t.p[-1] == ExactProb(t.C[-1] - 2 * t.C[-2], upto, 2)
            assert t.P[-1] == ExactProb(t.C[-1], upto, 2)
        for view in (_p_view, _P_view):
            info = view.cache_info()
            assert info.maxsize == _VIEW_MEMO_SIZE
            assert info.currsize <= info.maxsize


def _per_value_json_rows(table: ProbTable) -> list[dict]:
    """Reference rows in the per-value form: one validated ExactProb and its JSON each."""
    L, C = table.L, table.C
    return [
        {
            "k": k,
            "p": ExactProb(c - L * b, k, L).to_json_dict(),
            "P": ExactProb(c, k, L).to_json_dict(),
        }
        for k, (b, c) in enumerate(zip((0,) + C, C))
    ]


def _per_value_decimals(table: ProbTable, digits: int) -> list[tuple[int, str, str]]:
    """Reference decimals: the rounding rule applied to each validated ExactProb."""
    def dec(x: ExactProb) -> str:
        return decimal_string(x.num, x.base**x.den_exp, digits)

    L, C = table.L, table.C
    return [
        (k, dec(ExactProb(c - L * b, k, L)), dec(ExactProb(c, k, L)))
        for k, (b, c) in enumerate(zip((0,) + C, C))
    ]


def _exact_form(value):
    """Key order and float bits kept: what decides the bytes of the JSON."""
    if isinstance(value, dict):
        return [(key, _exact_form(v)) for key, v in value.items()]
    if isinstance(value, list):
        return [_exact_form(v) for v in value]
    if isinstance(value, float):
        return float.hex(value)
    return value


def _output_tables():
    # Every class of length 2..6 at L = 2, 3 (as in TestThreeWayEquality),
    # small classes at L = 3, 4, 10, and deep tables whose L**k runs past
    # the float range.
    for L, top in [(2, 6), (3, 6), (4, 4), (10, 3)]:
        for n in range(2, top + 1):
            for h in census(n, L):
                yield P_table(h, L, 3 * n)
    yield from route_tables(BifixIndicator.parse("100000000"), 2, 1100).values()
    yield P_table(BifixIndicator.parse("010"), 3, 700)
    yield P_table(BifixIndicator.parse("1"), 4, 520)
    yield P_table(BifixIndicator.parse("00"), 10, 320)


class TestOutputFromCounts:
    # Rows come from the counts over a running L**k; they must match the
    # per-value ExactProb output bit for bit.
    def test_json_rows_match_per_value_form(self):
        for table in _output_tables():
            d = table.to_json_dict()
            assert list(d) == ["h", "L", "n", "method", "rows"]
            expected = _per_value_json_rows(table)
            assert _exact_form(d["rows"]) == _exact_form(expected), table.h.text()

    @pytest.mark.parametrize("digits", [1, 3, 12, 40])
    def test_csv_and_text_match_per_value_decimals(self, digits):
        for table in _output_tables():
            expected = _per_value_decimals(table, digits)
            assert table.decimal_rows(digits) == expected
            csv_rows = "".join(f"{k},{p},{P}\n" for k, p, P in expected)
            assert table.to_csv(digits) == "k,p,P\n" + csv_rows
            text = table.to_text(digits).splitlines()
            assert text[2:] == [f"{k:>4} {p:>14} {P:>14}" for k, p, P in expected]

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_json_text_is_json_dumps_of_the_dict(self, depth):
        # The writer at `depth` nesting levels, against json's own indenting;
        # a method name that json must escape is written as json writes it.
        odd = dataclasses.replace(P_table(H1, 2, 4), method='q"\\\u00e9\n')
        for table in itertools.chain(_output_tables(), [odd]):
            value = table.to_json_dict()
            for _ in range(depth):
                value = {"x": value}
            expected = json.dumps(value, indent=2)
            head = "".join("{\n" + " " * (2 * d + 2) + '"x": ' for d in range(depth))
            tail = "".join("\n" + " " * (2 * d) + "}" for d in reversed(range(depth)))
            assert head + table.json_text(2 * depth) + tail == expected, table.h.text()

    def test_digits_below_one_rejected(self):
        table = P_table(H1, 2, 4)
        for render in (table.decimal_rows, table.to_csv, table.to_text):
            with pytest.raises(ValueError, match="digits must be >= 1, got 0"):
                render(0)


class TestLongHorizonAgreement:
    # Enumeration stops near k = 20; the routes must still agree exactly far
    # beyond it, where the counts run to hundreds of bits.
    # The last cases take alphabets far past any that could be stepped symbol
    # by symbol: every route, the automaton included, costs the same at any L.
    @pytest.mark.parametrize(
        "text,L,K",
        [("2102", 3, 600), ("100100100100", 2, 640)]
        + [
            (text, L, 40)
            for L in (2**33, 2**64)
            for text in ("0,1,0", "5,5,5,5", "0,1,2,3", f"{L - 1},7,{L - 1},7,{L - 1}",
                         f"{L - 1},0,0,{L - 1}")
        ],
    )
    def test_five_routes_agree(self, text, L, K):
        word = Word.parse(text, L)
        h = bifix_indicator(word)
        tables = route_tables(h, L, K, word)
        first = tables["P"]
        for name, t in tables.items():
            assert t.C == first.C, name
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
