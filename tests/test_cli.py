import hashlib
import json

import jsonschema
import pytest

from patprob.cli import main

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

    def test_bad_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PATPROB_ENUM_BUDGET", "lots")
        assert run(capsys, "census", "--n", "2", "--L", "2")[0] == 2


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
        assert env["result"]["generator"] == "numpy-philox4x64"
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
        import patprob.cli as cli_module

        real = cli_module.counterexample_check

        def broken(L=2):
            report = real(L)
            object.__setattr__(report, "probability_sums_equal", True)
            return report

        monkeypatch.setattr(cli_module, "counterexample_check", broken)
        code, out, _ = run(capsys, "counterexample")
        assert code == 1
        assert json.loads(out)["result"]["ok"] is False

    def test_version_in_envelope(self, capsys):
        _, env, _ = run_json(capsys, "bifix", "--word", "11")
        assert env["version"] == "0.1.0"


class TestByteIdentity:
    # stdout SHA-256 digests recorded in bench/golden.json; any change in
    # the numbers or their rendering shows up here.
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                "prob --h 1000 --K 2000",
                "e2611b9df39d1d47feabe756670005fd19f0cbc93bb7a48e359b71a6101af3f1",
            ),
            (
                "prob --word 1000110001 --K 400 --check-all",
                "bb995d86009f4fb21d639b395bffb73c7c921956a5f6a264a2cdfbd1366a44ea",
            ),
            (
                "prob --h 11 --L 2 --K 9 --format csv --digits 8",
                "189e18daefd9ff89484542f851f3c63bc9a385b4baf652f0ec15ac3a19fddfd1",
            ),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
