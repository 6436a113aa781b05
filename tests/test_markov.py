import random

import pytest

from patprob.markov import (
    ChainSpec,
    ReachTable,
    _forward_cross_check,
    chain_prob_table,
    check_lemmas,
    compare_chains,
    reach_table,
    transition_matrix,
)
from patprob.numerics import ExactProb
from patprob.patterns import BifixIndicator, SWord, census, k0_sharp, s_from_h
from patprob.recursions import P_table


def ep(num, exp, base=2):
    return ExactProb(num, exp, base)


def spec(targets, L=2):
    return ChainSpec(SWord(targets), L)


class TestTransitionMatrix:
    def test_binary_restart_chain(self):
        m = transition_matrix(spec((0, 0)))
        zero, half, one = ExactProb.zero(2), ep(1, 1), ExactProb.one(2)
        assert m[0] == (half, half, zero)
        assert m[1] == (half, zero, half)
        assert m[2] == (zero, zero, one)

    def test_binary_sticky_chain(self):
        m = transition_matrix(spec((0, 1)))
        zero, half = ExactProb.zero(2), ep(1, 1)
        assert m[1] == (zero, half, half)

    def test_three_letter_split(self):
        m = transition_matrix(spec((0, 1), 3))
        third = ExactProb.inv_power(3, 1)
        two_thirds = ExactProb(2, 1, 3)
        assert m[0] == (two_thirds, third, ExactProb.zero(3))
        assert m[1] == (third, third, third)

    @pytest.mark.parametrize("targets,L", [((0,), 2), ((0, 1, 2), 4), ((0, 0, 2, 3), 5)])
    def test_rows_sum_to_one(self, targets, L):
        m = transition_matrix(spec(targets, L))
        one = ExactProb.one(L)
        for row in m:
            total = ExactProb.zero(L)
            for entry in row:
                total = total + entry
            assert total == one

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(ValueError):
            ChainSpec(SWord((0,)), 1)


class TestReachTable:
    def test_forced_path(self):
        t = reach_table(spec((0, 0)), 3)
        assert t.prob(2, 0) == ep(1, 2)

    def test_sticky_chain_value(self):
        t = reach_table(spec((0, 1)), 3)
        assert t.prob(3, 0) == ep(1, 1)

    def test_zero_exactly_below_diagonal(self):
        t = reach_table(spec((0, 1, 2, 3)), 12)
        n = 4
        for k in range(13):
            for i in range(n + 1):
                assert (t.prob(k, i) != ExactProb.zero(2)) == (k + i >= n)

    def test_absorbing_row_is_one(self):
        t = reach_table(spec((0, 1, 0), 3), 8)
        one = ExactProb.one(3)
        for k in range(9):
            assert t.prob(k, 3) == one

    def test_matches_matrix_powers_for_all_start_states(self):
        # Independent route: k-step absorption mass from every start state.
        for targets, L in [((0, 1, 1), 2), ((0, 0, 2), 3)]:
            sp = spec(targets, L)
            n = sp.n
            m = transition_matrix(sp)
            t = reach_table(sp, 10)
            power = [
                [ExactProb.one(L) if i == j else ExactProb.zero(L) for j in range(n + 1)]
                for i in range(n + 1)
            ]
            for k in range(1, 11):
                nxt = [[ExactProb.zero(L)] * (n + 1) for _ in range(n + 1)]
                for i in range(n + 1):
                    for mid in range(n + 1):
                        if power[i][mid].is_zero():
                            continue
                        for j in range(n + 1):
                            if not m[mid][j].is_zero():
                                nxt[i][j] = nxt[i][j] + power[i][mid] * m[mid][j]
                power = nxt
                for i in range(n + 1):
                    assert power[i][n] == t.prob(k, i), (targets, L, k, i)


class TestReachTableInvariants:
    def rows(self, targets=(0, 1, 0), L=2, upto=6):
        sp = spec(targets, L)
        return sp, [list(row) for row in reach_table(sp, upto).P]

    def build(self, sp, rows):
        return ReachTable(sp, len(rows) - 1, tuple(tuple(row) for row in rows))

    def test_counts_are_words_over_L_to_the_k(self):
        sp, rows = self.rows(L=3)
        t = self.build(sp, rows)
        assert t.P[2][0] == 0
        assert t.P[3][0] == 1  # the one word that climbs 0 -> 1 -> 2 -> 3
        assert t.prob(3, 0) == ExactProb(1, 3, 3)
        assert t.P[5][sp.n] == 3**5

    def test_bad_row_zero(self):
        sp, rows = self.rows()
        rows[0][0] = 1
        with pytest.raises(ValueError, match="row k=0"):
            self.build(sp, rows)

    def test_bad_absorbing_column(self):
        sp, rows = self.rows()
        rows[4][sp.n] -= 1
        with pytest.raises(ValueError, match="absorbing"):
            self.build(sp, rows)

    @pytest.mark.parametrize("count", [-1, 2**4 + 1])
    def test_entry_outside_unit_interval(self, count):
        sp, rows = self.rows()
        rows[4][1] = count  # row k=4 counts words out of 2**4
        with pytest.raises(ValueError, match=r"within \[0, 1\]"):
            self.build(sp, rows)

    def test_forward_cross_check_catches_in_range_corruption(self):
        sp, rows = self.rows(upto=10)
        _forward_cross_check(self.build(sp, rows))  # untouched table passes
        assert 0 < rows[6][0] < 2**6
        rows[6][0] += 1
        corrupted = self.build(sp, rows)  # still within [0, 1]
        with pytest.raises(AssertionError, match="k=6"):
            _forward_cross_check(corrupted)


class TestChainProbTable:
    def test_repeated_symbol_class(self):
        t = chain_prob_table(BifixIndicator((1,)), 2, 3)
        assert t.P == (ExactProb.zero(2), ExactProb.zero(2), ep(1, 2), ep(3, 3))
        assert t.method == "markov"

    def test_borderless_class(self):
        t = chain_prob_table(BifixIndicator((0,)), 2, 3)
        assert t.P == (ExactProb.zero(2), ExactProb.zero(2), ep(1, 2), ep(1, 1))

    @pytest.mark.parametrize("L", [2, 3])
    def test_equals_direct_recursion(self, L):
        for n in range(2, 7):
            for h in census(n, L):
                upto = 3 * n
                assert chain_prob_table(h, L, upto).P == P_table(h, L, upto).P


class TestCompareChains:
    def test_small_pair(self):
        report = compare_chains(SWord((0, 1)), SWord((0, 0)), 2, 10)
        assert report.k0 == 3
        assert report.conforms
        assert report.relations[2] == "="
        assert report.relations[3] == ">"

    def test_last_coordinate_pair(self):
        report = compare_chains(SWord((0, 1, 1, 1, 1)), SWord((0, 1, 1, 1, 0)), 2, 30)
        assert report.k0 == 9
        assert report.conforms
        assert all(rel == "=" for rel in report.relations[:9])
        assert all(rel == ">" for rel in report.relations[9:])

    def test_requires_strict_order(self):
        with pytest.raises(ValueError):
            compare_chains(SWord((0, 0)), SWord((0, 1)), 2, 5)
        with pytest.raises(ValueError):
            compare_chains(SWord((0, 1)), SWord((0, 1)), 2, 5)
        with pytest.raises(ValueError):
            compare_chains(SWord((0, 1)), SWord((0, 0, 0)), 2, 5)

    def test_json_shape(self):
        report = compare_chains(SWord((0, 1)), SWord((0, 0)), 2, 4)
        d = report.to_json_dict()
        assert d["k0"] == 3
        assert d["violations"] == []
        assert d["conforms"] is True

    def test_random_general_pairs(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randrange(2, 7)
            L = rng.choice([2, 3])
            s = tuple(rng.randint(0, i) for i in range(n))
            s2 = tuple(rng.randint(0, s[i]) for i in range(n))
            if s == s2:
                continue
            assert compare_chains(SWord(s), SWord(s2), L, 30).conforms

    def test_threshold_matches_indicator_mapping(self):
        for n in range(2, 7):
            classes = list(census(n, 2))
            for i, ha in enumerate(classes):
                for hb in classes[i + 1 :]:
                    pair = sorted([ha, hb], key=lambda h: sum(h.bits))
                    low, high = pair
                    if any(a > b for a, b in zip(low.bits, high.bits)):
                        continue  # incomparable
                    report = compare_chains(s_from_h(low), s_from_h(high), 2, 3 * n)
                    assert report.k0 == k0_sharp(low, high)


class TestLemmaSuite:
    @pytest.mark.parametrize(
        "targets,L",
        [
            ((0, 1), 2),
            ((0, 0, 0), 2),
            ((0, 1, 2, 3), 2),
            ((0, 1, 0, 2), 3),
            ((0,), 2),  # degenerate single-level chain
        ],
    )
    def test_laws_hold(self, targets, L):
        report = check_lemmas(spec(targets, L), 10 if len(targets) <= 10 else len(targets))
        assert report.passed
        assert report.monotone_k_violations == ()
        assert report.zero_pattern_violations == ()
        assert report.monotone_i_violations == ()

    def test_requires_enough_horizon(self):
        with pytest.raises(ValueError):
            check_lemmas(spec((0, 1, 2)), 2)

    def test_json_shape(self):
        d = check_lemmas(spec((0, 1)), 5).to_json_dict()
        assert d["passed"] is True
        assert d["spec"] == {"s": [0, 1], "L": 2}
