"""Every route is an endless stream of counts C_0, C_1, ..., and
`patterns._cut` is the one place where a horizon cuts it: `ProbTable.from_counts`
cuts a route's counts, and the Markov comparison and reach table cut the
reach DP's rows with it too."""

import ast
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

from patprob import markov, oracle, patterns, recursions
from patprob.numerics import ProbTable
from patprob.patterns import BifixIndicator, Word, bifix_indicator, s_from_h

SRC = Path(__file__).resolve().parent.parent / "src" / "patprob"


def _markov_counts(h, L):
    return (row[0] for row in markov._reach_rows(markov.ChainSpec(s_from_h(h), L)))


# (route, stream of (h, L), table builder (h, L, upto)); the automaton runs on
# `word`, whose class is h.
def _routes(word):
    return [
        ("long", recursions._long_counts, recursions.p_table_long),
        ("short", recursions._short_counts, recursions.p_table_short),
        ("P", recursions._iter_counts, recursions.P_table),
        ("markov", _markov_counts, markov.chain_prob_table),
        (
            "automaton",
            lambda h, L: oracle._absorbed_counts(Word(word, L)),
            lambda h, L, upto: oracle.automaton_prob_table(Word(word, L), upto),
        ),
    ]


WORDS = [(1, 1), (1, 0), (1, 0, 1), (1, 1, 0, 1, 1), (0, 1, 0, 0, 1, 0)]


@pytest.mark.parametrize("word", WORDS, ids=lambda w: "".join(map(str, w)))
@pytest.mark.parametrize("L", [2, 3])
def test_a_stream_does_not_depend_on_the_horizon(word, L):
    h = bifix_indicator(Word(word, L))
    n = len(word)
    for name, stream, build in _routes(word):
        for upto in sorted({0, n - 1, n, n + 1, 2 * n, 3 * n + 2}):
            table = build(h, L, upto)
            assert tuple(islice(stream(h, L), upto + 1)) == table.C, (name, upto)
            assert build(h, L, upto + 7).C[: upto + 1] == table.C, (name, upto)


@pytest.mark.parametrize(
    "n,borders,L,expected",
    [
        (3, [2] * 5, 2, {"long": "k=4: -3", "short": "k=4: -3", "P": "k=4: -1"}),
        (5, [4] * 4, 3, {"long": "k=6: -1", "short": "k=6: -1", "P": "k=16: -426428"}),
    ],
)
def test_a_negative_count_stops_the_stream_at_its_k(monkeypatch, n, borders, L, expected):
    # No indicator drives a count below 0, so a transcription bug is planted:
    # a border list with repeats, which no indicator has.
    monkeypatch.setattr(recursions, "_borders", lambda h, L: borders)
    h = BifixIndicator((0,) * (n - 1))
    for name, _, build in _routes((1,) + (0,) * (n - 1))[:3]:
        with pytest.raises(ValueError, match=rf"^count underflow at {expected[name]}$"):
            build(h, L, 40)


def test_the_markov_stream_names_both_counts_of_a_disagreement(monkeypatch):
    spec = markov.ChainSpec(s_from_h(BifixIndicator.parse("01")), 3)
    good = markov.reach_table(spec, 8).P[5][0]

    def absorbed(L, jumps, extra):  # the forward count at k = 5 one too high
        for k, count in enumerate(patterns._absorbed(L, jumps, extra)):
            yield count + (k == 5)

    monkeypatch.setattr(markov, "_absorbed", absorbed)
    with pytest.raises(AssertionError) as info:
        list(islice(markov._reach_rows(spec), 9))
    assert str(info.value) == (
        f"forward evolution disagrees with reach DP at k=5: {good + 1} vs {good} words of 3^5"
    )


@pytest.mark.parametrize("upto", [-1, sys.maxsize])
def test_the_markov_paths_cut_their_rows_by_the_one_rule(upto):
    # compare and lemmas reach no from_counts; a huge horizon must not start the DP.
    bound = "upto must be >= 0" if upto < 0 else f"upto must be <= {sys.maxsize - 1}"
    spec = markov.ChainSpec(s_from_h(BifixIndicator.parse("0")), 2)
    for call in (
        lambda: markov.reach_table(spec, upto),
        lambda: markov.compare_chains(patterns.SWord((0, 1)), patterns.SWord((0, 0)), 2, upto),
    ):
        with pytest.raises(ValueError, match=rf"^{bound}, got {upto}$"):
            call()


def test_from_counts_refuses_a_negative_horizon_before_pulling():
    def untouchable():
        raise AssertionError("a count was pulled")
        yield 0

    with pytest.raises(ValueError, match=r"^upto must be >= 0, got -1$"):
        ProbTable.from_counts(BifixIndicator.parse("0"), 2, -1, untouchable(), "none")


@pytest.mark.parametrize("upto", [sys.maxsize, 10**23])
def test_from_counts_refuses_a_horizon_islice_cannot_stop_at(upto):
    def untouchable():
        raise AssertionError("a count was pulled")
        yield 0

    with pytest.raises(ValueError, match=rf"^upto must be <= {sys.maxsize - 1}, got {upto}$"):
        ProbTable.from_counts(BifixIndicator.parse("0"), 2, upto, untouchable(), "none")


def test_from_counts_pulls_exactly_upto_plus_one_counts():
    pulled = []

    def counts():
        for c in (0, 0, 1, 3, 8, 19, 43):
            pulled.append(c)
            yield c

    table = ProbTable.from_counts(BifixIndicator.parse("0"), 2, 4, counts(), "hand-built")
    assert table.C == (0, 0, 1, 3, 8)
    assert pulled == [0, 0, 1, 3, 8]


def test_streams_hold_a_window_not_the_history():
    # 4001 counts of a 10-symbol class at L = 2; the counts are up to 4000
    # bits, so a list of them (what the table keeps) would take about 1 MiB.
    h = BifixIndicator.parse("000000000")
    word = (1,) + (0,) * 9
    assert bifix_indicator(Word(word, 2)) == h
    for name, stream, _ in _routes(word):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in islice(stream(h, 2), 4001):
                pass
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (name, peak)


@pytest.mark.parametrize("module", ["recursions", "markov", "oracle"])
def test_route_modules_build_tables_only_through_from_counts(module):
    calls = [
        node
        for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text()))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "ProbTable")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "ProbTable")
        )
    ]
    assert not calls, [node.lineno for node in calls]
