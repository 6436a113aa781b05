import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patprob.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

EXACT_PROB_SCHEMA = {
    "type": "object",
    "required": ["num", "base", "den_exp", "approx"],
    "properties": {
        "num": {"type": "string", "pattern": "^[0-9]+$"},
        "base": {"type": "integer", "minimum": 2},
        "den_exp": {"type": "integer", "minimum": 0},
        "approx": {"type": "number"},
    },
    "additionalProperties": False,
}

ENVELOPE_SCHEMA = {
    "type": "object",
    "required": ["command", "params", "result", "version"],
    "properties": {
        "command": {"type": "string"},
        "params": {"type": "object"},
        "result": {"type": "object"},
        "version": {"type": "string"},
    },
    "additionalProperties": False,
}

TABLE_SCHEMA = {
    "type": "object",
    "required": ["h", "L", "n", "method", "rows"],
    "properties": {
        "h": {"type": "string"},
        "L": {"type": "integer"},
        "n": {"type": "integer"},
        "method": {"type": "string"},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["k", "p", "P"],
                "properties": {
                    "k": {"type": "integer"},
                    "p": EXACT_PROB_SCHEMA,
                    "P": EXACT_PROB_SCHEMA,
                },
            },
        },
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    envelope = json.loads(out)
    jsonschema.validate(envelope, ENVELOPE_SCHEMA)
    return code, envelope, err


class TestBifix:
    def test_bordered_word(self, capsys):
        code, env, _ = run_json(capsys, "bifix", "--word", "10001", "--L", "2")
        assert code == 0
        assert env["result"] == {"h": "1000", "s": [0, 1, 1, 1, 0], "expected_wait": "34"}

    def test_double_border_word(self, capsys):
        code, env, _ = run_json(capsys, "bifix", "--word", "11011", "--L", "2")
        assert code == 0
        assert env["result"]["h"] == "1100"
        assert env["result"]["expected_wait"] == "38"

    def test_ternary_borderless(self, capsys):
        code, env, _ = run_json(capsys, "bifix", "--word", "012", "--L", "3")
        assert code == 0
        assert env["result"]["h"] == "00"
        assert env["result"]["expected_wait"] == "27"

    @pytest.mark.parametrize(
        "argv",
        [
            ("bifix", "--word", "1a1"),
            ("bifix", "--word", "012", "--L", "2"),
            ("bifix", "--word", "1"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert not out
        assert "error" in err.lower()


class TestProb:
    def test_short_method_values(self, capsys):
        code, env, _ = run_json(capsys, "prob", "--h", "1", "--L", "2", "--K", "3",
                                "--method", "short")
        assert code == 0
        table = env["result"]["table"]
        jsonschema.validate(table, TABLE_SCHEMA)
        assert table["rows"][3]["P"] == {"num": "3", "base": 2, "den_exp": 3, "approx": 0.375}

    def test_default_horizon_is_3n(self, capsys):
        _, env, _ = run_json(capsys, "prob", "--h", "1000", "--L", "2")
        assert len(env["result"]["table"]["rows"]) == 16  # K = 15, rows 0..15

    def test_below_length_all_zero(self, capsys):
        _, env, _ = run_json(capsys, "prob", "--h", "1", "--L", "2", "--K", "1")
        rows = env["result"]["table"]["rows"]
        assert all(row["P"]["num"] == "0" for row in rows)

    def test_check_all_agreement(self, capsys):
        code, env, _ = run_json(capsys, "prob", "--word", "11", "--L", "2", "--K", "3",
                                "--check-all")
        assert code == 0
        assert env["result"]["agreement"] is True
        assert set(env["params"]["methods"]) == {"long", "short", "P", "markov", "automaton"}

    def test_check_all_without_word_skips_automaton(self, capsys):
        code, env, _ = run_json(capsys, "prob", "--h", "11", "--L", "2", "--check-all")
        assert code == 0
        assert "automaton" not in env["params"]["methods"]

    def test_check_all_disagreement_exits_1(self, capsys, monkeypatch):
        # Both --check-all and --method resolve the builder on its module at
        # call time, so a rebound builder reaches them even after an earlier
        # route_tables call.
        from patprob import BifixIndicator, recursions, route_tables
        from patprob.numerics import ProbTable

        h = BifixIndicator.parse("1")
        route_tables(h, 2, 6)
        real = recursions.p_table_long

        def one_count_off(h, L, upto):
            table = real(h, L, upto)
            C = table.C[:-1] + (table.C[-1] + 1,)
            return ProbTable(table.h, table.L, C, table.method)

        monkeypatch.setattr(recursions, "p_table_long", one_count_off)
        code, env, err = run_json(capsys, "prob", "--h", "1", "--K", "6", "--check-all")
        assert code == 1
        assert env["result"]["agreement"] is False
        assert err == "methods disagree: long differ from P (first at k=6)\n"
        code, env, _ = run_json(capsys, "prob", "--h", "1", "--K", "6", "--method", "long")
        assert code == 0
        assert env["result"]["table"]["rows"][-1]["P"]["num"] == str(one_count_off(h, 2, 6).P[6].num)

    def test_automaton_requires_word(self, capsys):
        code, _, err = run(capsys, "prob", "--h", "1", "--method", "automaton")
        assert code == 2
        assert "--word" in err

    def test_exactly_one_input(self, capsys):
        assert run(capsys, "prob", "--h", "1", "--word", "11")[0] == 2
        assert run(capsys, "prob")[0] == 2

    def test_csv_and_json_carry_same_numbers(self, capsys):
        _, env, _ = run_json(capsys, "prob", "--word", "101", "--L", "2", "--K", "9")
        code, out, _ = run(capsys, "prob", "--word", "101", "--L", "2", "--K", "9",
                           "--format", "csv", "--digits", "12")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,p,P"
        rows = env["result"]["table"]["rows"]
        assert len(lines) == 1 + len(rows)
        for line, row in zip(lines[1:], rows):
            k, p_text, P_text = line.split(",")
            assert int(k) == row["k"]
            assert abs(float(p_text) - row["p"]["approx"]) < 1e-12
            assert abs(float(P_text) - row["P"]["approx"]) < 1e-12

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "prob", "--h", "1", "--K", "3", "--format", "table")
        assert code == 0
        assert "P_k" in out and "method=short" in out


class TestCompare:
    def test_indicator_pair(self, capsys):
        code, env, _ = run_json(capsys, "compare", "--h", "0000", "--h2", "1000",
                                "--L", "2", "--K", "12")
        assert code == 0
        result = env["result"]
        assert result["conforms"] is True
        assert result["violations"] == []
        # Sharp separation happens at 9; the naive first-difference index 6
        # is reported alongside for reference.
        assert result["k0"] == 9
        assert env["params"]["k0_indicator_formula"] == 6
        assert env["params"]["k0_sharp"] == 9
        assert result["relations"][:9] == ["="] * 9
        assert result["relations"][9:] == [">"] * 4

    def test_sword_pair(self, capsys):
        code, env, _ = run_json(capsys, "compare", "--s", "0,1", "--s2", "0,0",
                                "--L", "2", "--K", "10")
        assert code == 0
        assert env["result"]["k0"] == 3
        assert env["result"]["conforms"] is True

    def test_order_is_auto_oriented(self, capsys):
        code, env, _ = run_json(capsys, "compare", "--h", "1000", "--h2", "0000",
                                "--L", "2", "--K", "10")
        assert code == 0
        assert env["params"]["oriented"] == ["0000", "1000"]

    def test_incomparable_pair_is_usage_error(self, capsys):
        code, out, err = run(capsys, "compare", "--h", "1000", "--h2", "0100", "--L", "2")
        assert code == 2
        assert "incomparable" in err

    def test_equal_pair_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compare", "--h", "10", "--h2", "10")
        assert code == 2
        assert "equal" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("--h 1000 --h2 0100", "indicators are incomparable"),
            ("--h 10 --h2 10", "indicators are equal; nothing to compare"),
            ("--s 0,1,0 --s2 0,0,1", "jump-target words are incomparable"),
            ("--s 0,1 --s2 0,1", "jump-target words are equal; nothing to compare"),
        ],
    )
    def test_unordered_pair_message(self, capsys, argv, message):
        assert run(capsys, "compare", *argv.split()) == (2, "", f"error: {message}\n")

    def test_nonconforming_comparison_exits_1(self, capsys, monkeypatch):
        # No valid pair breaks the pattern (that is the theorem), so the
        # comparison is replaced by one that reverses at k = 4 >= k0 = 3.
        from patprob import markov

        def reversed_at_4(s, s_prime, L, upto):
            relations = ("=",) * 3 + (">", "<") + (">",) * (upto - 4)
            return markov.ChainComparison(s, s_prime, L, 3, relations)

        monkeypatch.setattr(markov, "compare_chains", reversed_at_4)
        code, env, _ = run_json(capsys, "compare", "--s", "0,1", "--s2", "0,0", "--K", "6")
        assert code == 1
        assert env["result"]["conforms"] is False
        assert env["result"]["violations"] == [4]
        assert env["result"]["relations"] == ["=", "=", "=", ">", "<", ">", ">"]

    def test_mixed_inputs_rejected(self, capsys):
        assert run(capsys, "compare", "--h", "10", "--s2", "0,0")[0] == 2
        assert run(capsys, "compare")[0] == 2


class TestCensus:
    def test_two_classes(self, capsys):
        code, env, _ = run_json(capsys, "census", "--n", "2", "--L", "2")
        assert code == 0
        classes = env["result"]["classes"]
        assert [c["h"] for c in classes] == ["0", "1"]
        assert all(c["count"] == 2 for c in classes)

    def test_budget_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PATPROB_ENUM_BUDGET", "10")
        code, _, err = run(capsys, "census", "--n", "4", "--L", "2")
        assert code == 2
        assert "budget of 10" in err
        # Each n = 6 class has at most 22 words, so a cap of 22 keeps all 64.
        monkeypatch.setenv("PATPROB_ENUM_BUDGET", "383")
        assert run(capsys, "census", "--n", "6", "--max-reps", "22") == (2, "", (
            "error: census(n=6, L=2) with max_representatives=22 exceeds the budget of "
            "383 symbols, keeping at least 384\n"
        ))
        assert run(capsys, "census", "--n", "6", "--max-reps", "21")[0] == 0

    def test_bad_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PATPROB_ENUM_BUDGET", "lots")
        assert run(capsys, "census", "--n", "2", "--L", "2")[0] == 2

    @pytest.mark.parametrize("raw", ["١٠", "1_0", " 10 ", "-1"])
    def test_budget_env_only_ascii_digits(self, capsys, monkeypatch, raw):
        # int() would read the first three as 10; a sign is malformed too, so
        # the budget is never negative.
        monkeypatch.setenv("PATPROB_ENUM_BUDGET", raw)
        code, out, err = run(capsys, "census", "--n", "4", "--L", "2")
        assert (code, out) == (2, "")
        assert "malformed PATPROB_ENUM_BUDGET" in err


class TestCounterexample:
    def test_reproduces(self, capsys):
        code, env, _ = run_json(capsys, "counterexample")
        assert code == 0
        result = env["result"]
        assert result["ok"] is True
        assert result["indicators"] == ["0000", "1000", "0100", "1100"]
        assert result["indicator_sums_equal"] is True
        assert result["probability_sums_equal"] is False


class TestSimulate:
    def test_deterministic_per_seed(self, capsys):
        args = ("simulate", "--word", "11", "--L", "2", "--trials", "400",
                "--k", "10", "--seed", "1")
        _, env1, _ = run_json(capsys, *args)
        _, env2, _ = run_json(capsys, *args)
        assert env1 == env2

    def test_reports_generator(self, capsys):
        code, env, _ = run_json(capsys, "simulate", "--word", "10", "--trials", "100",
                                "--k", "8", "--seed", "5")
        assert code == 0
        assert env["result"]["generator"] == "python-mt19937/bit-planes"
        assert env["result"]["seed"] == 5

    def test_word_validation(self, capsys):
        assert run(capsys, "simulate", "--word", "21", "--L", "2")[0] == 2


class TestLemmas:
    def test_pass(self, capsys):
        code, env, _ = run_json(capsys, "lemmas", "--s", "0,1", "--L", "2", "--K", "10")
        assert code == 0
        assert env["result"]["passed"] is True

    def test_horizon_too_small(self, capsys):
        assert run(capsys, "lemmas", "--s", "0,1,2", "--L", "2", "--K", "2")[0] == 2

    def test_malformed_sword(self, capsys):
        assert run(capsys, "lemmas", "--s", "0,9", "--L", "2")[0] == 2


class TestTopLevel:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_args(self, capsys):
        assert main([]) == 2

    def test_failed_property_check_exits_1(self, capsys, monkeypatch):
        # Force a non-reproducing report to exercise the verified-failure path.
        import patprob.oracle as oracle_module
        from patprob.oracle import CounterexampleReport

        real = oracle_module.counterexample_check

        def broken(L=2):
            # Counts with c1 + c4 == c2 + c3: the probability sums agree.
            report = real(L)
            c1, c2, c3, _ = report.counts
            return CounterexampleReport(report.words, report.horizon, (c1, c2, c3, c2 + c3 - c1))

        monkeypatch.setattr(oracle_module, "counterexample_check", broken)
        code, out, _ = run(capsys, "counterexample")
        assert code == 1
        assert json.loads(out)["result"]["ok"] is False

    def test_version_in_envelope(self, capsys):
        _, env, _ = run_json(capsys, "bifix", "--word", "11")
        assert env["version"] == "0.1.0"

    def test_no_subcommand_loads_numpy(self):
        # A fresh interpreter, since pytest's plugins may have loaded numpy here.
        script = f"""
import contextlib, io, json, sys
import patprob, patprob.cli
from patprob.cli import main
assert "numpy" not in sys.modules, "import"
for argv in (["bifix", "--word", "10001"], ["prob", "--h", "10", "--K", "6"], ["census", "--n", "3"],
             ["compare", "--h", "00", "--h2", "10"], ["counterexample"], ["lemmas", "--s", "0,1"],
             ["simulate", "--word", "11", "--trials", "200", "--k", "10"],
             ["simulate", "--word", "0,1", "--L", "{2**64}"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    json.loads(out.getvalue())
    assert "numpy" not in sys.modules, argv
"""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_no_module_imports_numpy(self):
        # patprob has no runtime dependency: every module runs on the standard library.
        for path in (SRC / "patprob").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(name.split(".")[0] == "numpy" for name in names), (path.name, names)

    @pytest.mark.parametrize("module", ["recursions", "markov", "oracle"])
    def test_route_modules_import_only_numerics_and_patterns(self, module):
        # The routes stay independent: none imports another route's module.
        imported = set()
        for node in ast.walk(ast.parse((SRC / "patprob" / f"{module}.py").read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                # The package is flat, so a relative import starts at patprob.
                base = ".".join(filter(None, ["patprob" if node.level else "", node.module]))
                # `from . import x` and `from patprob import x` name x in the package.
                names = [f"{base}.{a.name}" if base == "patprob" else base for a in node.names]
            else:
                continue
            for name in names:
                top, _, rest = name.partition(".")
                if top == "patprob":
                    imported.add(rest.split(".")[0])
        assert imported == {"numerics", "patterns"}

    def test_each_subcommand_loads_only_its_modules(self):
        # A fresh interpreter, since this test process has every module loaded.
        script = """
import contextlib, io, sys
import patprob, patprob.cli
from patprob.cli import main

def loaded():
    return sorted(m for m in sys.modules if m.startswith("patprob."))

assert loaded() == ["patprob.cli"], loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["census", "--n", "3"]) == 0
assert loaded() == ["patprob.cli", "patprob.patterns"], loaded()
# The value types of patterns are no dataclasses, so census loads neither
# dataclasses nor the inspect module it imports.
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["bifix", "--word", "10001"]) == 0
# bifix needs the closed-form expected wait alone, which patterns holds.
assert loaded() == ["patprob.cli", "patprob.patterns"], loaded()
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["prob", "--h", "10", "--K", "6", "--method", "short"]) == 0
assert "patprob.oracle" not in sys.modules
assert "patprob.markov" not in sys.modules  # prob --method imports that route's module alone
assert patprob.ProbTable is patprob.numerics.ProbTable is patprob.recursions.ProbTable

import importlib, inspect

# Every public name resolves to the object its defining module holds.
assert len(patprob.__all__) == len(set(patprob.__all__)) == 42
defined_by = {"DEFAULT_ENUM_BUDGET": "patprob.patterns", "ROUTE_NAMES": "patprob"}
for name in patprob.__all__:
    value = getattr(patprob, name)
    where = value.__module__ if inspect.isclass(value) or inspect.isfunction(value) else defined_by[name]
    assert value is getattr(importlib.import_module(where), name), name
assert patprob.P_table is patprob.recursions.P_table
assert patprob.ROUTE_NAMES == ("long", "short", "P", "markov")
assert [patprob._route(name).__module__ for name in patprob.ROUTE_NAMES] == [
    "patprob.recursions", "patprob.recursions", "patprob.recursions", "patprob.markov"]
try:
    patprob.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'patprob' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("patprob.no_such_name resolved")
from patprob import markov
assert markov is sys.modules["patprob.markov"]

names = {}
exec("from patprob import *", names)
assert sorted(set(names) - {"__builtins__"}) == sorted(patprob.__all__)
assert set(patprob.__all__) <= set(dir(patprob))
"""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

        # The chain and oracle routes write their tables without the recursions,
        # and compare and lemmas, which build no table, load no numerics (and so
        # neither dataclasses nor inspect).
        loaded_by = """
import contextlib, io, sys
from patprob.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
print(" ".join(sorted(m for m in sys.modules if m.startswith("patprob."))))
print(" ".join(m for m in ("dataclasses", "inspect") if m in sys.modules))
"""
        for argv, modules in (
            ("compare --h 00 --h2 10", "markov patterns"),
            ("lemmas --s 0,1", "markov patterns"),
            ("counterexample", "numerics oracle patterns"),
            ("prob --word 010 --method automaton", "numerics oracle patterns"),
            ("prob --h 10 --K 6 --method markov", "markov numerics patterns"),
        ):
            proc = subprocess.run([sys.executable, "-c", loaded_by, *argv.split()],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            patprob_modules, other_modules = proc.stdout.split("\n")[:2]
            expected = ["patprob.cli", *(f"patprob.{m}" for m in modules.split())]
            assert patprob_modules.split() == expected, argv
            if "numerics" not in modules:
                assert other_modules == "", argv


# Every digest-checked call in bench/golden.json: exit code and stdout SHA-256.
# Any change in the numbers or their rendering shows up here. The one call
# without a digest is simulate, which the benchmark checks against bands;
# test_simulate_stdout_digest pins its bytes here.
GOLDEN_CLI = json.loads((SRC.parent / "bench" / "golden.json").read_text())["cli"]


class TestByteIdentity:
    @pytest.mark.parametrize(
        "argv,digest",
        [(argv, golden["sha256"]) for argv, golden in GOLDEN_CLI.items() if golden["sha256"]],
    )
    def test_stdout_digest(self, capsys, monkeypatch, argv, digest):
        monkeypatch.delenv("PATPROB_ENUM_BUDGET", raising=False)
        code, out, _ = run(capsys, *argv.split())
        assert code == GOLDEN_CLI[argv]["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_simulate_stdout_digest(self, capsys):
        # Pins the Monte Carlo stream, the bit planes of MT19937's getrandbits:
        # a Python release whose getrandbits words differ fails here.
        argv = "simulate --word 11 --L 2 --trials 20000 --k 20 --seed 12345"
        code, out, _ = run(capsys, *argv.split())
        assert code == GOLDEN_CLI[argv]["exit"] == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f4edd2d7706f031a8b3229b9562f8fcf6f2efcf0a7f1f011bb8703c5e1045081"
        )


def _prob_cases():
    # Each route at the edge horizons 0, n - 1, n, n + 1 and 3n for one word
    # per alphabet, and two deep horizons at L = 2; always with --word, so
    # that the automaton runs too.
    for L, text in [(2, "10010"), (3, "2102"), (2**33, "0,1,0")]:
        n = len(text.split(",")) if L > 10 else len(text)
        for K in (0, n - 1, n, n + 1, 3 * n):
            yield text, L, K
    yield "10010", 2, 400
    yield "1000110001", 2, 2000


class TestRowWriter:
    # prob writes its table rows itself; the bytes must be those of
    # json.dumps(indent=2) on the envelope built from to_json_dict().
    @pytest.mark.parametrize("text,L,K", list(_prob_cases()))
    def test_prob_stdout_is_json_dumps_of_the_envelope(self, capsys, text, L, K):
        from patprob import bifix_indicator, route_tables
        from patprob.patterns import Word

        word = Word.parse(text, L)
        h = bifix_indicator(word)
        tables = route_tables(h, L, K, word)

        def expected(params, result):
            envelope = {"command": "prob", "params": params, "result": result, "version": "0.1.0"}
            return json.dumps(envelope, indent=2) + "\n"

        for method, table in tables.items():
            argv = ["prob", "--word", text, "--L", str(L), "--K", str(K), "--method", method]
            params = {"h": h.text(), "L": L, "K": K, "method": method}
            assert run(capsys, *argv) == (0, expected(params, {"table": table.to_json_dict()}), "")
        names = sorted(tables)
        params = {"h": h.text(), "L": L, "K": K, "check_all": True, "methods": names}
        result = {"agreement": True, "table": tables[names[0]].to_json_dict()}
        argv = ["prob", "--word", text, "--L", str(L), "--K", str(K), "--check-all"]
        assert run(capsys, *argv) == (0, expected(params, result), "")


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            "prob --h 1 --K -1",
            "prob --h 1 --L 1",
            "prob --h 1 --L 0",
            "prob --h 1 --digits 0 --format csv",
            "prob --h 1 --digits 0 --format table",
            "simulate --word 11 --seed -1",
            "simulate --word 0,1 --trials 0",
            "simulate --word 1",
            "census --n 1",
            "census --n 3 --max-reps -1",
            "census --n 20 --max-reps 1048576",
            "lemmas --s 0,1 --L 1",
            "compare --h 0 --h2 1 --L 1",
            "counterexample --L 1",
            "compare --h 00 --h2 10 --K -3",
            "prob --h 1 --K 2 --check-all --format csv",
            "prob --h 1 --K 2 --check-all --format table",
            "prob --h 1 --K 3 --check-all --digits -5",
            "prob --h 1 --digits 0",
            "bifix --word \u0661\u0660\u0660",
            "bifix --word 1_0,1 --L 11",
            "lemmas --s 0,+1,0_1",
            "compare --h 1",
            "compare --s 0,1",
            "compare --s 0,1,0 --s2 0,0,1",
        ],
    )
    def test_bad_argument_exits_2_with_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [f"simulate --word 11 --seed {2**128}", f"simulate --word 0,1 --L {2**64}"])
    def test_any_seed_and_alphabet_size_run(self, capsys, argv):
        # Monte Carlo has no key range and no 64-bit symbol type to refuse them.
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, "")
        json.loads(out)

    @pytest.mark.parametrize(
        "argv",
        ["bifix --word 1", "prob --word 1", "prob --word 1 --method automaton",
         "simulate --word 1", "census --n 1", "bifix --word 5 --L 11"],
    )
    def test_one_pattern_length_rule(self, capsys, argv):
        # The library states the rule once, and every subcommand reaches it.
        assert run(capsys, *argv.split()) == (2, "", "error: pattern length must be >= 2, got 1\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("prob", "--h", "012"), "bits must be <= 1, got 2"),
            (("prob", "--h", ""), "pattern length must be >= 2, got 1"),
            (("bifix", "--word", "012"), "symbols must be <= 1, got 2"),
        ],
    )
    def test_sequence_text_reaches_the_constructor(self, capsys, argv, message):
        # Indicator and word text are read as digits and checked by the value type alone.
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("detail", ["Unable to allocate 763. MiB", ""])
    def test_out_of_memory_exits_2_with_one_error_line(self, capsys, monkeypatch, detail):
        # A MemoryError may carry a message; Python's own has none.
        import patprob.oracle
        import patprob.recursions

        def exhausted(*args, **kwargs):
            raise MemoryError(*([detail] if detail else []))

        monkeypatch.setattr(patprob.oracle, "monte_carlo", exhausted)
        # prob --method P calls the builder its route module holds.
        monkeypatch.setattr(patprob.recursions, "P_table", exhausted)
        expected = f"error: out of memory{': ' + detail if detail else ''}\n"
        for argv in ("simulate --word 11 --trials 1 --k 100", "prob --h 1 --K 5 --method P"):
            code, out, err = run(capsys, *argv.split())
            assert (code, out, err) == (2, "", expected), argv
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,option,token",
        [
            (["census", "--n", "\uff15"], "--n", "\uff15"),  # fullwidth 5
            (["simulate", "--word", "11", "--trials", "\u0665", "--k", "3"], "--trials", "\u0665"),
            (["prob", "--h", "1", "--K", "1_0"], "--K", "1_0"),
            (["prob", "--h", "1", "--K", "+3"], "--K", "+3"),
            (["prob", "--h", "1", "--L", " 3"], "--L", " 3"),
        ],
    )
    def test_integer_options_take_only_ascii_digits(self, capsys, argv, option, token):
        # int() would read each of these tokens as a number.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"argument {option}: malformed integer {token!r}" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer string limit")
    def test_digits_above_the_integer_string_limit_is_refused(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert run(capsys, "prob", "--h", "1", "--K", "3", "--format", "csv", "--digits", "5000") == (
            2, "", f"error: --digits must be <= {limit} (the integer string limit) "
                   "for --format csv, got 5000\n"
        )

    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000, reason="5000 digits within the limit"
    )
    @pytest.mark.parametrize(
        "argv, field",
        [
            (("bifix", "--word", "1" * 5000, "--L", "11"), "error: malformed word '1"),
            (("bifix", "--word", "1" * 5000 + ",1", "--L", "11"), "error: malformed word '1"),
            (("prob", "--h", "1", "--K", "1" * 5000), "error: argument --K: malformed integer '1"),
        ],
    )
    def test_run_past_the_integer_string_limit_is_refused_by_name(self, capsys, argv, field):
        code, out, err = run(capsys, *argv)
        errors = [line for line in err.splitlines() if "error: " in line]
        assert (code, out, len(errors)) == (2, "", 1)
        assert field in errors[0]
        assert errors[0].endswith(": 5000 digits exceed the integer string limit")
        assert "set_int_max_str_digits" not in err

    def test_horizon_past_the_largest_stream_cut_is_refused_by_name(self, capsys):
        # islice's own message ("Stop argument for islice() ...") names no argument.
        assert run(capsys, "prob", "--h", "1", "--K", str(10**23)) == (
            2, "", f"error: upto must be <= {sys.maxsize - 1}, got {10**23}\n"
        )

    @pytest.mark.parametrize("command", ["compare --h 0 --h2 1", "lemmas --s 0,1"])
    def test_chain_horizon_past_the_largest_stream_cut_is_refused_at_once(self, capsys, command):
        # compare and lemmas build no ProbTable; they cut the reach rows by the same rule.
        start = time.perf_counter()
        assert run(capsys, *command.split(), "--K", str(10**23)) == (
            2, "", f"error: upto must be <= {sys.maxsize - 1}, got {10**23}\n"
        )
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("sizes", [("--trials", "1", "--k", str(10**23)),
                                       ("--trials", str(10**23), "--k", "2")])
    def test_monte_carlo_past_the_largest_int_is_refused(self, capsys, sizes):
        # Its trials * k cells do not fit one int: an OverflowError, not a traceback.
        start = time.perf_counter()
        code, out, err = run(capsys, "simulate", "--word", "11", *sizes)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_digits_unbounded_without_a_limit(self, capsys, monkeypatch):
        # No limit (0), or an interpreter without the function, lets a table of
        # zeros print 5000 digits.
        argv = ("prob", "--h", "1", "--K", "1", "--format", "csv", "--digits", "5000")
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        assert run(capsys, *argv)[:2] == (0, f"k,p,P\n0,0.{'0' * 5000},0.{'0' * 5000}\n"
                                                f"1,0.{'0' * 5000},0.{'0' * 5000}\n")
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert run(capsys, *argv)[0] == 0

    @pytest.mark.parametrize(
        "argv,bad",
        [
            ("prob --h 01 --K 4 --format csv", "01"),  # a border of length 2 forces length 1
            ("compare --h 001 --h2 011 --K 8", "001"),
            ("compare --h 0100 --h2 011 --K 8", "011"),
        ],
    )
    def test_unrealizable_indicator_is_refused(self, capsys, argv, bad):
        assert run(capsys, *argv.split()) == (
            2, "", f"error: indicator {bad} is not the bifix indicator of any pattern\n"
        )

    @pytest.mark.parametrize("n", [5000, 100_000_000, 10_000_000_000])
    def test_census_past_budget_is_refused_at_once(self, capsys, n):
        # 2**n is never built: at n = 10**10 it would take 1.25 GB.
        start = time.perf_counter()
        code, out, err = run(capsys, "census", "--n", str(n))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            f"error: census(n={n}, L=2) would enumerate 2^{n} words, "
            "exceeding the budget of 16777216\n"
        )

    def test_closed_stdout_is_not_an_error(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-m", "patprob.cli", "prob", "--h", "1000", "--K", "2000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        head = proc.stdout.read(10)
        proc.stdout.close()  # the 1.8 MB envelope is far larger than the pipe buffer
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert head == b'{\n  "comma'
        assert err == b""


# Argv fuzzing: bounded values keep every run small. Now and then --K is
# 2**63 - 1 or 10**23 and --k or --trials is 10**23, sizes that are refused
# before anything is allocated (--trials 2**63 - 1 would reach malloc, so it is
# not drawn); a large K, trials or k below them is unbounded work, which no
# budget refuses yet.
_NON_NUMERIC = ["x", "1.5", "", "0x10", "\u0661", "1_0", "+3", " 3"]


def _int(lo, hi, *huge):
    """Mostly an integer in [lo, hi], now and then a token argparse refuses or one of `huge`."""
    return st.tuples(st.integers(0, 4), st.integers(lo, hi), st.sampled_from([*_NON_NUMERIC, *huge])).map(
        lambda t: t[2] if t[0] == 0 else str(t[1])
    )


_WORDS = st.one_of(
    st.text("01", min_size=1, max_size=6),
    st.text("0123", min_size=1, max_size=6),
    st.text("0123,x -", max_size=5),
)
# Short indicators and jump words, so that compare often draws a comparable pair.
_INDICATORS = st.text("01", min_size=1, max_size=3) | st.text("012x ", max_size=4)
_SWORDS = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(
    lambda xs: ",".join(str(min(x, i)) for i, x in enumerate(xs))
) | st.text("0123,x ", max_size=6)
_L = _int(-1, 4)
_K = _int(-3, 40, str(2**63 - 1), str(10**23))

# (subcommand, flags always given, flags given half the time); each flag maps to
# the strategy for its value, or to None when it takes no value. Flags that
# argparse requires, and compare's --h/--h2 or --s/--s2 pair, are always given
# so that most calls get past argparse; TestBifix, TestCompare and TestTopLevel
# cover a missing or mixed flag.
_CALLS = [
    ("bifix", {"--word": _WORDS}, {"--L": _L}),
    (
        "prob",
        {},
        {
            "--h": _INDICATORS,
            "--word": _WORDS,
            "--L": _L,
            "--K": _K,
            "--method": st.sampled_from(["long", "short", "P", "markov", "automaton", "x"]),
            "--check-all": None,
            "--format": st.sampled_from(["json", "csv", "table"]),
            "--digits": _int(-1, 15),
        },
    ),
    ("compare", {"--h": _INDICATORS, "--h2": _INDICATORS}, {"--L": _L, "--K": _K}),
    ("compare", {"--s": _SWORDS, "--s2": _SWORDS}, {"--L": _L, "--K": _K}),
    ("census", {"--n": _int(-1, 7)}, {"--L": _L, "--max-reps": _int(-2, 5)}),
    ("counterexample", {}, {"--L": _L}),
    (
        "simulate",
        {"--word": _WORDS},
        {
            "--L": _L,
            "--trials": _int(-2, 30, str(10**23)),
            "--k": _int(-2, 20, str(10**23)),
            "--seed": st.sampled_from(["-1", "0", "5", str(2**128)]),
        },
    ),
    ("lemmas", {"--s": _SWORDS}, {"--L": _L, "--K": _K}),
]

# The only calls that check a property and so may exit 1.
_PROPERTY_COMMANDS = {"compare", "counterexample", "lemmas"}


@st.composite
def _argvs(draw):
    command, always, optional = draw(st.sampled_from(_CALLS))
    argv = [command]
    for flag, values in always.items():
        argv += [flag, draw(values)]
    for flag, values in optional.items():
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_argvs())
def test_argv_fuzz_keeps_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert "error:" in err.getvalue()
        return
    if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
        jsonschema.validate(json.loads(out.getvalue()), ENVELOPE_SCHEMA)
    if code == 1:
        assert argv[0] in _PROPERTY_COMMANDS or (argv[0] == "prob" and "--check-all" in argv)
