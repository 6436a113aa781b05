import json
import random
import sys
import tracemalloc

import pytest

from patprob import markov
from patprob.markov import (
    ChainComparison,
    ChainSpec,
    ReachTable,
    _start_counts,
    chain_prob_table,
    check_lemmas,
    compare_chains,
    reach_table,
)
from patprob.numerics import ExactProb
from patprob.patterns import BifixIndicator, SWord, census, k0_sharp, s_from_h
from patprob.recursions import P_table


def ep(num, exp, base=2):
    return ExactProb(num, exp, base)


def spec(targets, L=2):
    return ChainSpec(SWord(targets), L)


def _step_counts(spec: ChainSpec) -> tuple[tuple[int, ...], ...]:
    """(n+1) x (n+1) one-step counts: entry (i, j) is how many of the L
    symbols move state i to state j, so every row sums to L. The reference
    for the reach DP's matrix-power test."""
    n, L = spec.n, spec.L
    rows = []
    for i in range(n):
        row = [0] * (n + 1)
        row[i + 1] += 1
        row[spec.s.targets[i]] += 1
        row[0] += L - 2  # 0 when L = 2, no special-casing needed
        rows.append(tuple(row))
    rows.append(tuple([0] * n + [L]))
    for i, row in enumerate(rows):
        if sum(row) != L:
            raise AssertionError(f"row {i} of transition matrix sums to {sum(row)}/{L}, not 1")
    return tuple(rows)


class TestTransitionMatrix:
    # The one-step matrix as counts: entry (i, j) is how many of the L
    # symbols move state i to state j, i.e. L times the probability.
    def test_binary_restart_chain(self):
        m = _step_counts(spec((0, 0)))
        assert m == ((1, 1, 0), (1, 0, 1), (0, 0, 2))

    def test_binary_sticky_chain(self):
        m = _step_counts(spec((0, 1)))
        assert m[1] == (0, 1, 1)

    def test_three_letter_split(self):
        m = _step_counts(spec((0, 1), 3))
        assert m[0] == (2, 1, 0)
        assert m[1] == (1, 1, 1)

    @pytest.mark.parametrize("targets,L", [((0,), 2), ((0, 1, 2), 4), ((0, 0, 2, 3), 5)])
    def test_rows_sum_to_one(self, targets, L):
        for row in _step_counts(spec(targets, L)):
            assert sum(row) == L

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(ValueError):
            ChainSpec(SWord((0,)), 1)


class TestReachTable:
    def test_forced_path(self):
        t = reach_table(spec((0, 0)), 3)
        assert t.P[2][0] == 1  # 1 of the 4 length-2 words

    def test_sticky_chain_value(self):
        t = reach_table(spec((0, 1)), 3)
        assert t.P[3][0] == 4  # half of the 8 length-3 words

    def test_zero_exactly_below_diagonal(self):
        t = reach_table(spec((0, 1, 2, 3)), 12)
        n = 4
        for k in range(13):
            for i in range(n + 1):
                assert (t.P[k][i] != 0) == (k + i >= n)

    def test_absorbing_row_is_one(self):
        t = reach_table(spec((0, 1, 0), 3), 8)
        for k in range(9):
            assert t.P[k][3] == 3**k

    def test_negative_horizon_rejected(self):
        # compare_chains builds no table whose own checks would refuse it.
        with pytest.raises(ValueError, match="upto must be >= 0, got -1"):
            reach_table(spec((0, 1)), -1)
        with pytest.raises(ValueError, match="upto must be >= 0, got -2"):
            compare_chains(SWord((0, 1)), SWord((0, 0)), 2, -2)

    def test_matches_matrix_powers_for_all_start_states(self):
        # Independent route: entry (i, n) of the k-th power of the one-step
        # count matrix is the number of length-k words that take i to n.
        for targets, L in [((0, 1, 1), 2), ((0, 0, 2), 3)]:
            sp = spec(targets, L)
            n = sp.n
            m = _step_counts(sp)
            t = reach_table(sp, 10)
            power = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
            for k in range(1, 11):
                power = [
                    [sum(power[i][mid] * m[mid][j] for mid in range(n + 1)) for j in range(n + 1)]
                    for i in range(n + 1)
                ]
                for i in range(n + 1):
                    assert power[i][n] == t.P[k][i], (targets, L, k, i)


class TestReachTableInvariants:
    def rows(self, targets=(0, 1, 0), L=2, upto=6):
        sp = spec(targets, L)
        return sp, [list(row) for row in reach_table(sp, upto).P]

    def build(self, sp, rows):
        return ReachTable(sp, tuple(tuple(row) for row in rows))

    def test_counts_are_words_over_L_to_the_k(self):
        sp, rows = self.rows(L=3)
        t = self.build(sp, rows)
        assert t.P[2][0] == 0
        assert t.P[3][0] == 1  # the one word that climbs 0 -> 1 -> 2 -> 3
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
        bound = ">= 0" if count < 0 else "<= 16"
        with pytest.raises(ValueError, match=f"^P must be {bound}, got {count}$"):
            self.build(sp, rows)

    @pytest.mark.parametrize("defect", ["no rows", "row short", "row long"])
    def test_wrong_shape(self, defect):
        sp, rows = self.rows()
        if defect == "no rows":
            rows = []
        else:
            rows[3] = rows[3][:-1] if defect == "row short" else rows[3] + [0]
        with pytest.raises(ValueError, match=r"^reach table needs >= 1 row of n\+1 counts$"):
            self.build(sp, rows)

    def test_forward_cross_check_catches_in_range_corruption(self):
        sp, rows = self.rows(upto=10)
        assert list(_start_counts(sp, rows)) == [row[0] for row in rows]  # untouched rows pass
        assert 0 < rows[6][0] < 2**6
        rows[6][0] += 1
        self.build(sp, rows)  # still within [0, 1]
        checked = _start_counts(sp, rows)
        assert [next(checked) for _ in range(6)] == [row[0] for row in rows[:6]]
        with pytest.raises(AssertionError, match="k=6"):
            next(checked)  # the wrong count is never yielded

    @pytest.mark.parametrize("k", [3, 0])
    def test_forward_cross_check_compares_every_k(self, k):
        # One in-range wrong count at any k is caught: k = 3 lies between the
        # horizons a check at ten evenly spaced k of upto = 25 would compare,
        # and k = 0 is the count the evolution starts from.
        sp, rows = self.rows(upto=25)
        rows[k][0] += 1
        assert rows[k][0] <= 2**k
        with pytest.raises(AssertionError, match=rf"k={k}\b"):
            list(_start_counts(sp, rows))

    def test_every_path_runs_the_forward_check(self, monkeypatch):
        # A wrong count in column 0 that the table checks accept is caught
        # on each path that reads the DP, the column paths included.
        rows = markov._reach_rows

        def off_by_one_at_k3(spec, upto):
            for k, row in enumerate(rows(spec, upto)):
                yield (row[0] + 1,) + row[1:] if k == 3 else row

        monkeypatch.setattr(markov, "_reach_rows", off_by_one_at_k3)
        for call in (
            lambda: reach_table(spec((0, 1, 1)), 8),
            lambda: chain_prob_table(BifixIndicator((0, 0)), 2, 8),
            lambda: compare_chains(SWord((0, 1, 1)), SWord((0, 0, 0)), 2, 8),
        ):
            with pytest.raises(AssertionError, match=r"k=3\b"):
                call()


class TestStartColumn:
    # chain_prob_table and compare_chains keep only the start-state column
    # of the reach DP as its rows stream past; it must be column 0 of the
    # full table.
    def test_equals_column_zero_of_reach_table(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randrange(2, 8)
            L = rng.choice([2, 3])
            K = rng.randrange(0, 41)
            h = BifixIndicator(tuple(rng.randint(0, 1) for _ in range(n - 1)))
            table = reach_table(ChainSpec(s_from_h(h), L), K)
            assert chain_prob_table(h, L, K).C == tuple(row[0] for row in table.P)

            s = tuple(rng.randint(0, i) for i in range(n))
            s2 = tuple(rng.randint(0, t) for t in s)
            if s == s2:
                continue
            a = reach_table(spec(s, L), K).P
            b = reach_table(spec(s2, L), K).P
            expected = tuple("=" if x[0] == y[0] else (">" if x[0] > y[0] else "<") for x, y in zip(a, b))
            assert compare_chains(SWord(s), SWord(s2), L, K).relations == expected

    @pytest.mark.parametrize(
        "call,h",
        [
            (lambda: chain_prob_table(BifixIndicator.parse("00000000000"), 2, 3000), "00000000000"),
            (
                lambda: compare_chains(
                    s_from_h(BifixIndicator.parse("0000000000")),
                    s_from_h(BifixIndicator.parse("1000000000")),
                    2,
                    3000,
                ),
                "0000000000",
            ),
        ],
        ids=["chain_prob_table", "compare_chains"],
    )
    def test_memory_is_one_column(self, call, h):
        # The whole (K+1) x (n+1) reach table would be about n + 1 columns
        # per chain; the column paths hold one column per chain plus the
        # DP's current rows.
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column = chain_prob_table(BifixIndicator.parse(h), 2, 3000).C
        assert peak < 3 * (sys.getsizeof(column) + sum(map(sys.getsizeof, column)))


class TestChainProbTable:
    def test_repeated_symbol_class(self):
        t = chain_prob_table(BifixIndicator((1,)), 2, 3)
        assert tuple(t.P) == (ep(0, 0), ep(0, 0), ep(1, 2), ep(3, 3))
        assert t.method == "markov"

    def test_borderless_class(self):
        t = chain_prob_table(BifixIndicator((0,)), 2, 3)
        assert tuple(t.P) == (ep(0, 0), ep(0, 0), ep(1, 2), ep(1, 1))

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

    def test_violations_list_the_deviating_k(self, monkeypatch):
        # No valid pair deviates (that is the theorem), so the comparison is
        # fed two count streams that do: still equal at k0 = 3, reversed at k = 4.
        columns = iter([(0, 0, 1, 3, 7, 15), (0, 0, 1, 3, 8, 14)])
        monkeypatch.setattr(markov, "_start_counts", lambda spec, rows: iter(next(columns)))
        report = compare_chains(SWord((0, 1)), SWord((0, 0)), 2, 5)
        assert report.k0 == 3
        assert report.relations == ("=", "=", "=", "=", "<", ">")
        assert report.violations == (3, 4)
        assert not report.conforms

    def test_violations_are_derived_from_relations(self):
        # k0 = 3: "=" below it and ">" from it on; every other k is listed.
        def build(relations):
            return ChainComparison(SWord((0, 1)), SWord((0, 0)), 2, 3, relations)

        assert build(("=", "=", "=", ">", ">")).violations == ()
        assert build(("=", "=", "=", ">", ">")).conforms
        assert build(("=", ">", "=", "=", "<", ">")).violations == (1, 3, 4)
        assert not build(("=", ">", "=", "=", "<", ">")).conforms

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
        # upto = n is enough: row n is the first where the start state can absorb.
        report = check_lemmas(spec((0, 1, 2)), 3)
        assert report.passed and report.upto == 3

    # Each law broken by one planted cell of the true s = 0,1,0, L = 3 table,
    # whose rows 1..6 are (0,0,1,3) (0,1,3,9) (1,4,9,27) (6,14,29,81)
    # (26,49,93,243) (101,168,295,729). Every planted table passes
    # ReachTable's own checks. Expected: (monotone_k, zero_pattern, monotone_i).
    PLANTED = [
        # 3 * R_4(1) = 42 > R_5(1) = 41: P_k(1) falls from k = 4 to 5.
        ((5, 1, 41), ([(4, 1)], [], [])),
        # R_3(0) = 0 although k + i = n: the one word that climbs 0 -> 3 is lost.
        ((3, 0, 0), ([], [(3, 0)], [])),
        # R_6(1) = R_6(2): not strictly increasing in i where k + i + 1 >= n.
        ((6, 1, 295), ([], [], [(6, 1)])),
        # R_1(0) = 1 where k + i + 1 < n: nonzero where both sides must be 0,
        # which also breaks the zero pattern and, since R_2(0) = 0, law k.
        ((1, 0, 1), ([(1, 0)], [(1, 0)], [(1, 0)])),
        # R_1(2) = 0 although k + i = n, so R_1(1) = R_1(2) = 0 at k + i + 1 = n:
        # the one strict violation below k = n - 1.
        ((1, 2, 0), ([], [(1, 2)], [(1, 1)])),
        # 3 * R_5(1) = 147 > R_6(1) = 146: between the last two rows.
        ((6, 1, 146), ([(5, 1)], [], [])),
    ]

    def planted(self, monkeypatch, k, i, value):
        sp = spec((0, 1, 0), 3)
        rows = [list(row) for row in reach_table(sp, 6).P]
        rows[k][i] = value
        table = ReachTable(sp, tuple(tuple(row) for row in rows))

        def fake(spec_, upto):
            assert (spec_, upto) == (sp, 6)
            return table

        monkeypatch.setattr(markov, "reach_table", fake)
        return sp

    @pytest.mark.parametrize("cell,expected", PLANTED)
    def test_each_violation_is_reported(self, monkeypatch, cell, expected):
        report = check_lemmas(self.planted(monkeypatch, *cell), 6)
        found = (
            report.monotone_k_violations,
            report.zero_pattern_violations,
            report.monotone_i_violations,
        )
        assert found == tuple(tuple(cells) for cells in expected)
        assert report.passed is False

    @pytest.mark.parametrize("cell,expected", PLANTED)
    def test_cli_exits_1_on_a_violation(self, monkeypatch, capsys, cell, expected):
        from patprob.cli import main

        self.planted(monkeypatch, *cell)
        assert main(["lemmas", "--s", "0,1,0", "--L", "3", "--K", "6"]) == 1
        out = capsys.readouterr().out
        assert '"passed": false' in out
        result = json.loads(out)["result"]
        keys = ("monotone_k_violations", "zero_pattern_violations", "monotone_i_violations")
        assert [result[key] for key in keys] == [[list(c) for c in cells] for cells in expected]

    def test_json_shape(self):
        d = check_lemmas(spec((0, 1)), 5).to_json_dict()
        assert d["passed"] is True
        assert d["spec"] == {"s": [0, 1], "L": 2}
