"""The value types behave as frozen dataclasses over their field tuple.

Construction, equality, hash, repr, immutability and every validation
message are pinned here, whatever mechanism builds the classes.
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest

from patprob import ROUTE_NAMES, _route
from patprob.markov import (
    ChainComparison,
    ChainSpec,
    LemmaReport,
    ReachTable,
    compare_chains,
    reach_table,
)
from patprob.numerics import ExactProb, ProbTable, _ProbView
from patprob.oracle import (
    CounterexampleReport,
    McConfig,
    OccurrenceCounts,
    automaton_counts,
    automaton_prob_table,
    enum_counts,
    monte_carlo,
)
from patprob.patterns import (
    BifixIndicator,
    CensusClass,
    SWord,
    Word,
    bifix_indicator,
    census,
    expected_wait_closed,
)
from patprob.recursions import P_table, SeriesResult, expected_wait_series

SRC = Path(__file__).resolve().parent.parent / "src" / "patprob"

S01 = SWord((0, 1))
SPEC = ChainSpec(SWord((0,)), 2)

# (class, field names, positional args, args of an unequal instance, repr of the first)
CASES = [
    (Word, ("symbols", "alphabet_size"), ((1, 0), 2), ((1, 1), 2),
     "Word(symbols=(1, 0), alphabet_size=2)"),
    (BifixIndicator, ("bits",), ((1, 0),), ((0, 0),),
     "BifixIndicator(bits=(1, 0))"),
    (SWord, ("targets",), ((0, 1),), ((0, 0),),
     "SWord(targets=(0, 1))"),
    (CensusClass, ("count", "representatives"),
     (2, (Word((0, 0), 2), Word((1, 1), 2))), (3, (Word((0, 0), 2), Word((1, 1), 2))),
     "CensusClass(count=2, representatives=("
     "Word(symbols=(0, 0), alphabet_size=2), Word(symbols=(1, 1), alphabet_size=2)))"),
    (ExactProb, ("num", "den_exp", "base"), (1, 2, 3), (1, 2, 2),
     "ExactProb(num=1, den_exp=2, base=3)"),
    (_ProbView, ("L", "C", "column"), (2, (0, 0, 1), "P"), (2, (0, 0, 1), "p"),
     "_ProbView(L=2, C=(0, 0, 1), column='P')"),
    (SeriesResult, ("value", "tail_bound", "upto", "converged"),
     (2.5, 0.125, 10, True), (2.5, 0.125, 10, False),
     "SeriesResult(value=2.5, tail_bound=0.125, upto=10, converged=True)"),
    (ChainSpec, ("s", "L"), (S01, 2), (S01, 3),
     "ChainSpec(s=SWord(targets=(0, 1)), L=2)"),
    (ReachTable, ("spec", "P"), (SPEC, ((0, 1), (1, 2))), (SPEC, ((0, 1),)),
     "ReachTable(spec=ChainSpec(s=SWord(targets=(0,)), L=2), P=((0, 1), (1, 2)))"),
    (ChainComparison, ("s", "s_prime", "L", "k0", "relations"),
     (S01, SWord((0, 0)), 2, 3, ("=", "=", "=", ">")),
     (S01, SWord((0, 0)), 2, 3, ("=", "=", ">", ">")),
     "ChainComparison(s=SWord(targets=(0, 1)), s_prime=SWord(targets=(0, 0)), L=2, "
     "k0=3, relations=('=', '=', '=', '>'))"),
    (LemmaReport,
     ("spec", "upto", "monotone_k_violations", "zero_pattern_violations", "monotone_i_violations"),
     (SPEC, 1, (), (), ()), (SPEC, 1, (), ((0, 0),), ()),
     "LemmaReport(spec=ChainSpec(s=SWord(targets=(0,)), L=2), upto=1, monotone_k_violations=(), "
     "zero_pattern_violations=(), monotone_i_violations=())"),
    (OccurrenceCounts, ("pattern", "first_at"),
     (Word((1, 1), 2), (0, 0, 1)), (Word((1, 1), 2), (0, 0, 2)),
     "OccurrenceCounts(pattern=Word(symbols=(1, 1), alphabet_size=2), first_at=(0, 0, 1))"),
    (CounterexampleReport, ("words", "horizon", "counts"),
     ((Word((1, 0), 2),), 12, (2048,)), ((Word((1, 0), 2),), 12, (2047,)),
     "CounterexampleReport(words=(Word(symbols=(1, 0), alphabet_size=2),), horizon=12, "
     "counts=(2048,))"),
    (McConfig, ("trials", "k", "seed"), (100, 10, 7), (100, 10, 8),
     "McConfig(trials=100, k=10, seed=7)"),
]
IDS = [case[0].__name__ for case in CASES]
# The types whose fields need no check, so patterns._Value.__init__ stores them.
FIELD_ONLY = {CensusClass, _ProbView, SeriesResult, ChainComparison, LemmaReport, OccurrenceCounts,
              CounterexampleReport}
UNCHECKED = [case for case in CASES if case[0] in FIELD_ONLY]


@pytest.mark.parametrize("cls, names, args, other, text", CASES, ids=IDS)
def test_value_semantics(cls, names, args, other, text):
    value = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert tuple(getattr(value, name) for name in names) == args
    assert value == by_keyword and not value != by_keyword
    assert hash(value) == hash(by_keyword) == hash(args)
    assert value != cls(*other) and not value == cls(*other)
    assert value != args  # a tuple of the same fields is another value
    assert repr(value) == text
    assert copy.deepcopy(value) == value == pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("cls, names, args, other, text", CASES, ids=IDS)
def test_values_are_immutable(cls, names, args, other, text):
    value = cls(*args)
    for name in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    # The escape hatch for code that must patch a value still works.
    object.__setattr__(value, names[-1], other[-1])
    assert getattr(value, names[-1]) == other[-1]


@pytest.mark.parametrize("cls, names, args, other, text", UNCHECKED,
                         ids=[case[0].__name__ for case in UNCHECKED])
def test_value_base_binds_fields(cls, names, args, other, text):
    value = cls(*args)
    by_keyword = dict(zip(names, args))
    assert cls(**dict(reversed(by_keyword.items()))) == value
    assert cls(*args[:1], **dict(list(by_keyword.items())[1:])) == value
    first, last = names[0], names[-1]
    name = cls.__qualname__
    for build, message in [
        (lambda: cls(*args[:-1]), f"{name}() missing field {last!r}"),
        (lambda: cls(**dict(list(by_keyword.items())[1:])), f"{name}() missing field {first!r}"),
        (lambda: cls(*args, None), f"{name}() takes {len(names)} fields, got {len(names) + 1}"),
        (lambda: cls(*args[:-1], **{first: args[0], last: args[-1]}),
         f"{name}() got multiple values for field {first!r}"),
        (lambda: cls(*args, no_such_field=1), f"{name}() got an unexpected field 'no_such_field'"),
    ]:
        with pytest.raises(TypeError) as exc:
            build()
        assert str(exc.value) == message


def test_distinct_types_with_equal_fields_differ():
    assert BifixIndicator((0, 1)) != SWord((0, 1))
    assert ExactProb(1, 1, 2) != (1, 1, 2)


@pytest.mark.parametrize("name, slots", [("Named", ()), ("Tagged", ("tag",))])
def test_value_types_cannot_be_subclassed(name, slots):
    # A value type's fields are its own __slots__: with none, Named failed in
    # attrgetter at class creation; Tagged compared and printed only its tag.
    with pytest.raises(TypeError) as exc:
        type(name, (Word,), {"__slots__": slots})
    assert str(exc.value) == f"{name} cannot subclass value type Word"


def test_exact_prob_orders_only_by_less_than():
    half, quarter = ExactProb(1, 1, 2), ExactProb(1, 2, 2)
    assert quarter < half and half > quarter
    assert not half < quarter and not quarter > half
    assert ExactProb(2, 2, 2) == half  # canonical form
    for compare in (lambda a, b: a <= b, lambda a, b: a >= b):
        with pytest.raises(TypeError):
            compare(half, quarter)


@pytest.mark.parametrize("other", [0.5, 1, None])
def test_exact_prob_orders_only_against_exact_prob(other):
    # Either side of < or > answers NotImplemented, so Python raises TypeError.
    half = ExactProb(1, 1, 2)
    for compare in (lambda a, b: a < b, lambda a, b: a > b):
        for a, b in ((half, other), (other, half)):
            with pytest.raises(TypeError):
                compare(a, b)


# Every row is named. A row older than the names keeps the id pytest derived from
# its first message ("<lambda>-" and that message, with pytest's suffix for a
# repeat), so a row whose message is retargeted keeps its name; newer rows are
# named for the value they refuse.
@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: Word((0, 1), 1), "alphabet size must be >= 2, got 1",
                     id="<lambda>-alphabet size must be >= 2, got 1_0"),
        pytest.param(lambda: Word((), 2), "word must be nonempty",
                     id="<lambda>-word must be nonempty"),
        pytest.param(lambda: Word((0, 2), 2), "symbols must be <= 1, got 2",
                     id="<lambda>-symbol 2 out of range for alphabet size 2"),
        pytest.param(lambda: Word((0, -1), 2), "symbols must be >= 0, got -1", id="Word-symbol-below"),
        pytest.param(lambda: Word([0, 1], 2), "malformed symbols: expected a tuple, got [0, 1]",
                     id="Word-list"),
        pytest.param(lambda: Word((True, False, True), 2), "malformed symbols: expected an int, got True",
                     id="<lambda>-malformed symbols: expected an int, got True"),
        pytest.param(lambda: Word((0, 1.0), 2), "malformed symbols: expected an int, got 1.0",
                     id="<lambda>-malformed symbols: expected an int, got 1.0"),
        pytest.param(lambda: Word((0, 1), 2.5), "malformed alphabet_size: expected an int, got 2.5",
                     id="<lambda>-malformed alphabet_size: expected an int, got 2.5"),
        pytest.param(lambda: Word((0, 1), True), "malformed alphabet_size: expected an int, got True",
                     id="<lambda>-malformed alphabet_size: expected an int, got True"),
        pytest.param(lambda: BifixIndicator(()), "pattern length must be >= 2, got 1",
                     id="<lambda>-pattern length must be >= 2, got 1_0"),
        pytest.param(lambda: bifix_indicator(Word((1,), 2)), "pattern length must be >= 2, got 1",
                     id="<lambda>-pattern length must be >= 2, got 1_1"),
        pytest.param(lambda: monte_carlo(Word((1,), 2), McConfig(1, 1, 0)),
                     "pattern length must be >= 2, got 1", id="<lambda>-pattern length must be >= 2, got 1_2"),
        pytest.param(lambda: BifixIndicator((0, 2)), "bits must be <= 1, got 2",
                     id="<lambda>-indicator bits must be 0 or 1, got 2"),
        pytest.param(lambda: BifixIndicator((0, -1)), "bits must be >= 0, got -1",
                     id="BifixIndicator-bit-below"),
        pytest.param(lambda: BifixIndicator([0, 1]), "malformed bits: expected a tuple, got [0, 1]",
                     id="BifixIndicator-list"),
        pytest.param(lambda: BifixIndicator((True, False)), "malformed bits: expected an int, got True",
                     id="<lambda>-malformed bits: expected an int, got True"),
        pytest.param(lambda: BifixIndicator((0, 1.0)), "malformed bits: expected an int, got 1.0",
                     id="<lambda>-malformed bits: expected an int, got 1.0"),
        pytest.param(lambda: SWord(()), "jump-target word must be nonempty",
                     id="<lambda>-jump-target word must be nonempty"),
        pytest.param(lambda: SWord((0, 2)), "target s_1=2 violates 0 <= s_1 <= 1",
                     id="<lambda>-target s_1=2 violates 0 <= s_1 <= 1"),
        pytest.param(lambda: SWord((0, -1)), "targets must be >= 0, got -1", id="SWord-target-below"),
        pytest.param(lambda: SWord([0, 1]), "malformed targets: expected a tuple, got [0, 1]",
                     id="SWord-list"),
        pytest.param(lambda: SWord((False, True)), "malformed targets: expected an int, got False",
                     id="<lambda>-malformed targets: expected an int, got False"),
        pytest.param(lambda: SWord((0, 1.0)), "malformed targets: expected an int, got 1.0",
                     id="<lambda>-malformed targets: expected an int, got 1.0"),
        pytest.param(lambda: ExactProb(True, 1, 2), "malformed num: expected an int, got True",
                     id="<lambda>-malformed num: expected an int, got True"),
        pytest.param(lambda: ExactProb(1, 1.0, 2), "malformed den_exp: expected an int, got 1.0",
                     id="<lambda>-malformed den_exp: expected an int, got 1.0"),
        pytest.param(lambda: ExactProb(1, 1, 2.0), "malformed base: expected an int, got 2.0",
                     id="<lambda>-malformed base: expected an int, got 2.0"),
        pytest.param(lambda: ExactProb(1, 1, 1), "base must be >= 2, got 1",
                     id="<lambda>-base must be >= 2, got 1"),
        pytest.param(lambda: ExactProb(-1, 1, 2), "num must be >= 0, got -1",
                     id="<lambda>-num must be >= 0, got -1"),
        pytest.param(lambda: ExactProb(1, -1, 2), "den_exp must be >= 0, got -1",
                     id="<lambda>-den_exp must be >= 0, got -1"),
        pytest.param(lambda: ExactProb(6, 2, 2), "probability must be <= 1, got num > 2**2",
                     id="<lambda>-probability must be <= 1, got num > 2**2"),
        pytest.param(lambda: ChainSpec(S01, 1), "alphabet size must be >= 2, got 1",
                     id="<lambda>-alphabet size must be >= 2, got 1_1"),
        pytest.param(lambda: ChainSpec(S01, 2.5), "malformed L: expected an int, got 2.5",
                     id="<lambda>-malformed L: expected an int, got 2.5_0"),
        pytest.param(lambda: ChainSpec(S01, True), "malformed L: expected an int, got True",
                     id="<lambda>-malformed L: expected an int, got True0"),
        pytest.param(lambda: P_table(BifixIndicator.parse("10"), 2.5, 5),
                     "malformed L: expected an int, got 2.5", id="<lambda>-malformed L: expected an int, got 2.5_1"),
        pytest.param(lambda: ProbTable(BifixIndicator((0,)), True, (0,), "P"),
                     "malformed L: expected an int, got True", id="<lambda>-malformed L: expected an int, got True1"),
        pytest.param(lambda: ProbTable(BifixIndicator((0,)), 2, (0, 0, 1.0), "P"),
                     "malformed C: expected an int, got 1.0", id="<lambda>-malformed C: expected an int, got 1.0"),
        pytest.param(lambda: ProbTable(BifixIndicator((0,)), 2, (0, -1), "P"), "C must be >= 0, got -1",
                     id="ProbTable-count-below"),
        pytest.param(lambda: ProbTable(BifixIndicator((0,)), 2, [0, 0, 1], "P"),
                     "malformed C: expected a tuple, got [0, 0, 1]", id="ProbTable-list"),
        pytest.param(lambda: ReachTable(SPEC, ()), "reach table needs >= 1 row of n+1 counts",
                     id="<lambda>-reach table needs >= 1 row of n+1 counts"),
        pytest.param(lambda: ReachTable(SPEC, ((1, 1),)), "row k=0 must be the unit vector at the absorbing state",
                     id="<lambda>-row k=0 must be the unit vector at the absorbing state"),
        pytest.param(lambda: ReachTable(SPEC, ((0, 1), (1, 1))), "absorbing state must have probability 1 at every k",
                     id="<lambda>-absorbing state must have probability 1 at every k"),
        pytest.param(lambda: ReachTable(SPEC, ((0, 1), (3, 2))), "P must be <= 2, got 3",
                     id="<lambda>-reach probabilities must stay within [0, 1]"),
        pytest.param(lambda: ReachTable(SPEC, ((0, 1), (-1, 2))), "P must be >= 0, got -1",
                     id="ReachTable-count-below"),
        pytest.param(lambda: ReachTable(SPEC, [(0, 1), (1, 2)]),
                     "malformed P: expected a tuple, got [(0, 1), (1, 2)]", id="ReachTable-list"),
        pytest.param(lambda: ReachTable(SPEC, ((0, 1), [1, 2])), "malformed P: expected a tuple, got [1, 2]",
                     id="ReachTable-list-row"),
        # Every row passes the tuple test before row 0 is compared with the unit vector.
        pytest.param(lambda: ReachTable(SPEC, ([0, 1], (1, 2))), "malformed P: expected a tuple, got [0, 1]",
                     id="ReachTable-list-row-0"),
        pytest.param(lambda: ReachTable(SPEC, ((0.0, 1), (1.0, 2))), "malformed P: expected an int, got 0.0",
                     id="<lambda>-malformed P: expected an int, got 0.0"),
        pytest.param(lambda: McConfig(0, 10, 1), "trials must be >= 1, got 0",
                     id="<lambda>-trials must be >= 1, got 0"),
        pytest.param(lambda: McConfig(1, 0, 1), "k must be >= 1, got 0", id="<lambda>-k must be >= 1, got 0"),
        pytest.param(lambda: McConfig(1, 10, -1), "seed must be >= 0, got -1",
                     id="<lambda>-seed must be >= 0, got -1"),
        pytest.param(lambda: McConfig(True, 5, 1), "malformed trials: expected an int, got True",
                     id="<lambda>-malformed trials: expected an int, got True"),
        pytest.param(lambda: McConfig(10, 5.0, 1), "malformed k: expected an int, got 5.0",
                     id="<lambda>-malformed k: expected an int, got 5.0"),
        pytest.param(lambda: McConfig(10, 5, 1.5), "malformed seed: expected an int, got 1.5",
                     id="<lambda>-malformed seed: expected an int, got 1.5"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


H10 = BifixIndicator((1, 0))
W01 = Word((0, 1), 2)

# (call that passes x as the checked argument, the name a value that is not an int
# is refused under, the name a value below the bound is refused under, least value)
BOUNDS = {
    "Word.alphabet_size": (lambda x: Word((0, 1), x), "alphabet_size", "alphabet size", 2),
    "ChainSpec.L": (lambda x: ChainSpec(S01, x), "L", "alphabet size", 2),
    "ProbTable.L": (lambda x: ProbTable(H10, x, (0,), "P"), "L", "alphabet size", 2),
    "ProbTable.from_counts.upto": (lambda x: ProbTable.from_counts(H10, 2, x, iter(()), "P"),
                                   "upto", "upto", 0),
    "ProbTable.decimal_rows.digits": (lambda x: P_table(H10, 2, 4).decimal_rows(x), "digits", "digits", 1),
    "ExactProb.num": (lambda x: ExactProb(x, 1, 2), "num", "num", 0),
    "ExactProb.den_exp": (lambda x: ExactProb(1, x, 2), "den_exp", "den_exp", 0),
    "ExactProb.base": (lambda x: ExactProb(1, 1, x), "base", "base", 2),
    "McConfig.trials": (lambda x: McConfig(x, 10, 1), "trials", "trials", 1),
    "McConfig.k": (lambda x: McConfig(10, x, 1), "k", "k", 1),
    "McConfig.seed": (lambda x: McConfig(10, 10, x), "seed", "seed", 0),
    "census.n": (lambda x: census(x, 2), "n", "pattern length", 2),
    "census.alphabet_size": (lambda x: census(3, x), "alphabet_size", "alphabet size", 2),
    "census.max_representatives": (lambda x: census(3, 2, max_representatives=x),
                                   "max_representatives", "max_representatives", 0),
    "census.budget": (lambda x: census(3, 2, budget=x), "budget", "budget", 0),
    "expected_wait_closed.L": (lambda x: expected_wait_closed(H10, x), "L", "alphabet size", 2),
    "expected_wait_series.L": (lambda x: expected_wait_series(H10, x, 1e-9), "L", "alphabet size", 2),
    # 2.0**1101 overflows a float before the series starts.
    "expected_wait_series.L-n1101": (
        lambda x: expected_wait_series(BifixIndicator((0,) * 1100), x, 1e-9), "L", "alphabet size", 2),
    "expected_wait_series.k_max": (lambda x: expected_wait_series(H10, 2, 1e-9, x), "k_max", "k_max", 0),
    **{f"{name}.L": (lambda x, name=name: _route(name)(H10, x, 5), "L", "alphabet size", 2)
       for name in ROUTE_NAMES},
    **{f"{name}.upto": (lambda x, name=name: _route(name)(H10, 2, x), "upto", "upto", 0)
       for name in ROUTE_NAMES},
    "automaton_prob_table.upto": (lambda x: automaton_prob_table(W01, x), "upto", "upto", 0),
    "reach_table.upto": (lambda x: reach_table(SPEC, x), "upto", "upto", 0),
    "compare_chains.L": (lambda x: compare_chains(S01, SWord((0, 0)), x, 5), "L", "alphabet size", 2),
    "compare_chains.upto": (lambda x: compare_chains(S01, SWord((0, 0)), 2, x), "upto", "upto", 0),
    "enum_counts.k": (lambda x: enum_counts(W01, x), "k", "k", 0),
    "automaton_counts.k": (lambda x: automaton_counts(W01, x), "k", "k", 0),
}


@pytest.mark.parametrize("kind", ["bool", "float", "fraction", "below"])
@pytest.mark.parametrize("call, field, described, least", BOUNDS.values(), ids=BOUNDS)
def test_bound_rule_names_the_argument(call, field, described, least, kind):
    # A bool, or a float the range check passes, is refused by patterns._at_least
    # like a value below the bound: P_table(h, 2, True) built a two-row table,
    # census(3, 2.0) failed inside the computation with TypeError.
    value = {"bool": True, "float": float(least), "fraction": least + 0.5, "below": least - 1}[kind]
    with pytest.raises(ValueError) as exc:
        call(value)
    if kind == "below":
        assert str(exc.value) == f"{described} must be >= {least}, got {value}"
    else:
        assert str(exc.value) == f"malformed {field}: expected an int, got {value!r}"


def test_only_replaced_types_are_dataclasses():
    # Building a dataclass generates and compiles its methods at import, so
    # only the types that callers pass to dataclasses.replace are dataclasses;
    # the other value types subclass patterns._Value.
    decorated = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = target.attr if isinstance(target, ast.Attribute) else target.id
                    if name == "dataclass":
                        decorated.add(node.name)
    assert decorated == {"ProbTable", "McResult"}


def test_only_value_base_writes_value_methods():
    # patterns._Value holds the one copy of the value methods; no other class
    # writes its own.
    value_methods = {"__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__", "__reduce__"}
    writers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in value_methods:
                        writers.add((path.stem, node.name, item.name))
    assert {(module, cls) for module, cls, _ in writers} == {("patterns", "_Value")}
    assert {method for _, _, method in writers} == value_methods


def _checks(init: ast.FunctionDef) -> bool:
    """Whether a function raises or calls one of the int rules or the sequence rule."""
    return any(
        isinstance(node, ast.Raise)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("_check_int", "_at_least", "_within")
        for node in ast.walk(init)
    )


def test_only_checked_types_write_a_constructor():
    # A constructor that only stores its fields is patterns._Value's job: every
    # __init__ of a value type checks its input and can raise, directly or
    # through an int rule, and no module makes an instance past its __init__
    # with object.__new__.
    stores_only = ast.parse("def __init__(self, L):\n    object.__setattr__(self, 'L', L)\n")
    assert not _checks(stores_only.body[0])
    inits, new_calls = {}, []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                new_calls.append((path.stem, node.lineno))
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "_Value" for base in node.bases
            ):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                        inits[node.name] = item
    assert [name for name, init in inits.items() if not _checks(init)] == []
    assert set(inits) == {"Word", "BifixIndicator", "SWord", "ExactProb", "ChainSpec",
                          "ReachTable", "McConfig"}
    assert new_calls == []


def test_every_class_is_a_value_or_a_named_exception():
    # A class is a value type on patterns._Value, one of the two dataclasses,
    # the comparison enum or the budget error; no helper class holds state
    # that a function could return.
    others = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name != "_Value" and not any(
                isinstance(base, ast.Name) and base.id == "_Value" for base in node.bases
            ):
                others.add(node.name)
    assert others == {"ProbTable", "McResult", "Ordering", "EnumerationBudgetError"}
