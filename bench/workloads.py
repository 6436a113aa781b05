"""The four workloads of the patprob benchmark and the checks on their outputs.

A workload is a list of ops. Each op has a `run` that does the work being
timed and a `check` that verifies its output afterwards, untimed. The
benchmark seed picks which patterns, class pairs and jump words fill each
fixed (n, L, K) slot, so it changes the inputs but not the amount of work.
The program only ever sees the generated inputs.

Layer functions are called through their modules (`recursions.P_table`,
not a name bound at import) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from patprob import markov, oracle, patterns, recursions
from patprob.numerics import ExactProb
from patprob.patterns import Ordering, SWord, Word

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"


@dataclass(frozen=True)
class Op:
    """One unit of verified work: `check(run())` must be true."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


# ---------------------------------------------------------------- deep_tables

# (n, L, K, bifix class) of the --check-all slots: every route to K plus the
# JSON rendering. The work of the class routes depends on the class, so each
# slot fixes one; the seed picks the concrete pattern within it, which is
# what the automaton route sees.
DEEP_CHECK_ALL_SLOTS = (
    (10, 2, 1000, "100000000"),
    (5, 2, 1000, "0000"),
    (4, 3, 800, "010"),
    (12, 2, 800, "00100000000"),
)
# (L, bifix class) of the expectation-series slots; the series sees only the class.
DEEP_SERIES_SLOTS = ((2, "000000"), (3, "100"))
SERIES_TOL = 1e-9

ROUTES = ("P", "automaton", "long", "markov", "short")


def tables_agree(tables: dict) -> bool:
    """Exact equality of every route's p and P columns (the --check-all test)."""
    first = tables["P"]
    return all(t.p == first.p and t.P == first.P for t in tables.values())


def check_all_op(word: Word, K: int) -> Op:
    """The in-process equivalent of `patprob prob --word W --K K --check-all`."""

    def run():
        h = patterns.bifix_indicator(word)
        L = word.alphabet_size
        tables = {
            "long": recursions.p_table_long(h, L, K),
            "short": recursions.p_table_short(h, L, K),
            "P": recursions.P_table(h, L, K),
            "markov": markov.chain_prob_table(h, L, K),
            "automaton": oracle.automaton_prob_table(word, K),
        }
        agree = tables_agree(tables)
        text = json.dumps({"agreement": agree, "table": tables["P"].to_json_dict()}, indent=2)
        return tables, agree, text

    def check(result) -> bool:
        tables, agree, text = result
        if sorted(tables) != sorted(ROUTES) or not agree:
            return False
        first = tables["P"]
        if any(t.upto != K or t.p != first.p or t.P != first.P for t in tables.values()):
            return False
        rows = json.loads(text)["table"]["rows"]
        n = len(word)
        return len(rows) == K + 1 and all(
            ExactProb.from_json_dict(rows[k]["P"]) == first.P[k] for k in (n - 1, n, K // 2, K)
        )

    return Op("check_all", run, check)


def series_op(h, L: int) -> Op:
    closed = recursions.expected_wait_closed(h, L)

    def run():
        return recursions.expected_wait_series(h, L, SERIES_TOL)

    def check(result) -> bool:
        return result.converged and abs(result.value - closed) < SERIES_TOL

    return Op("series", run, check)


def _random_word(rng: random.Random, n: int, L: int) -> Word:
    return Word(tuple(rng.randrange(L) for _ in range(n)), L)


def _random_word_in_class(rng: random.Random, n: int, L: int, h_text: str) -> Word:
    for _ in range(100_000):
        word = _random_word(rng, n, L)
        if patterns.bifix_indicator(word).text() == h_text:
            return word
    raise ValueError(f"no pattern of class {h_text} found over L={L}")


def build_deep_tables(seed: int) -> list[Op]:
    rng = random.Random(f"deep_tables/{seed}")
    ops = [
        check_all_op(_random_word_in_class(rng, n, L, h), K)
        for n, L, K, h in DEEP_CHECK_ALL_SLOTS
    ]
    ops += [series_op(patterns.BifixIndicator.parse(h), L) for L, h in DEEP_SERIES_SLOTS]
    return ops


# ---------------------------------------------------------------- class_sweep

# census(n, L) slots; their class populations are pinned in golden.json.
SWEEP_CENSUS_SLOTS = ((6, 2), (8, 2), (10, 2), (4, 3), (5, 3), (6, 3))
# Strictly ordered binary class pairs: pattern lengths and pairs drawn per length.
SWEEP_PAIR_NS = (5, 6, 7, 8)
SWEEP_PAIRS_PER_N = 10
# check_lemmas(K=30) slots: (n, L), jump words drawn per slot.
SWEEP_LEMMA_SLOTS = tuple(itertools.product((3, 4, 5, 6, 7), (2, 3)))
SWEEP_LEMMAS_PER_SLOT = 6
SWEEP_LEMMA_K = 30
# enum_counts == automaton_counts over all 2^12 binary words of length 12.
SWEEP_ENUM_NS = (3, 4, 5, 6)
SWEEP_ENUMS_PER_N = 10
SWEEP_ENUM_K = 12


def census_digest(classes: dict) -> str:
    rows = [[h.text(), cls.count] for h, cls in classes.items()]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _naive_indicator(word: Word) -> tuple[int, ...]:
    b = word.symbols
    return tuple(int(b[:i] == b[-i:]) for i in range(1, len(b)))


def census_op(n: int, L: int, golden_digest: str) -> Op:
    def run():
        return patterns.census(n, L)

    def check(classes) -> bool:
        if sum(cls.count for cls in classes.values()) != L**n:
            return False
        for h, cls in classes.items():
            if any(_naive_indicator(w) != h.bits for w in cls.representatives):
                return False
        return census_digest(classes) == golden_digest

    return Op("census", run, check)


def pair_op(low, high) -> Op:
    """Class pair low < high: P tables to 3n plus the chain comparison."""
    K = 3 * low.n
    threshold = patterns.k0_sharp(low, high)

    def run():
        t_low = recursions.P_table(low, 2, K)
        t_high = recursions.P_table(high, 2, K)
        report = markov.compare_chains(patterns.s_from_h(low), patterns.s_from_h(high), 2, K)
        return t_low, t_high, report

    def check(result) -> bool:
        t_low, t_high, report = result
        if not report.conforms or report.k0 != threshold:
            return False
        for k in range(K + 1):
            if k < threshold and t_low.P[k] != t_high.P[k]:
                return False
            if k >= threshold and not t_high.P[k] < t_low.P[k]:
                return False
        return True

    return Op("pair", run, check)


def lemma_op(s: SWord, L: int) -> Op:
    spec = markov.ChainSpec(s, L)

    def run():
        return markov.check_lemmas(spec, SWEEP_LEMMA_K)

    def check(report) -> bool:
        return report.passed and report.upto == SWEEP_LEMMA_K

    return Op("lemmas", run, check)


def enum_op(word: Word) -> Op:
    def run():
        return (
            oracle.enum_counts(word, SWEEP_ENUM_K),
            oracle.automaton_counts(word, SWEEP_ENUM_K),
        )

    def check(result) -> bool:
        brute, machine = result
        return (
            brute.contains == machine.contains
            and brute.first_at == machine.first_at
            and len(brute.first_at) == SWEEP_ENUM_K + 1
        )

    return Op("enum", run, check)


def build_class_sweep(seed: int) -> list[Op]:
    rng = random.Random(f"class_sweep/{seed}")
    golden = load_golden()["census"]
    ops = [census_op(n, L, golden[f"{n},{L}"]) for n, L in SWEEP_CENSUS_SLOTS]
    for n in SWEEP_PAIR_NS:
        classes = list(patterns.census(n, 2))
        pool = [
            (low, high)
            for low, high in itertools.permutations(classes, 2)
            if patterns.compare_indicators(low, high) is Ordering.LESS
        ]
        ops += [pair_op(low, high) for low, high in rng.sample(pool, SWEEP_PAIRS_PER_N)]
    for n, L in SWEEP_LEMMA_SLOTS:
        for _ in range(SWEEP_LEMMAS_PER_SLOT):
            ops.append(lemma_op(SWord(tuple(rng.randint(0, i) for i in range(n))), L))
    for n in SWEEP_ENUM_NS:
        ops += [enum_op(_random_word(rng, n, 2)) for _ in range(SWEEP_ENUMS_PER_N)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- mc_stream

# (pattern, L, horizon k). Trials per op are fixed, so every op draws
# MC_TRIALS * k symbols whatever the seed.
MC_STREAMS = (("11", 2, 200), ("10010", 2, 100), ("210", 3, 60))
MC_TRIALS = 6000
MC_SEEDS_PER_STREAM = 2
MC_BAND_K = 20
MC_BAND_SIGMAS = 4


def band_ok(p_hat, stderr, trials: int, exact_P) -> bool:
    """p_hat_k within MC_BAND_SIGMAS standard errors of the exact P_k, k <= 20.

    The band uses the exact standard error sqrt(P(1-P)/trials); the reported
    stderr must equal its plug-in estimate sqrt(p_hat(1-p_hat)/trials).
    """
    for k in range(1, min(MC_BAND_K, len(p_hat) - 1) + 1):
        P = float(exact_P[k])
        if abs(p_hat[k] - P) > MC_BAND_SIGMAS * math.sqrt(P * (1.0 - P) / trials):
            return False
        if not math.isclose(stderr[k], math.sqrt(p_hat[k] * (1.0 - p_hat[k]) / trials), abs_tol=1e-12):
            return False
    return True


def mc_op(word: Word, k: int, mc_seed: int) -> Op:
    config = oracle.McConfig(trials=MC_TRIALS, k=k, seed=mc_seed)
    exact = recursions.P_table(patterns.bifix_indicator(word), word.alphabet_size, MC_BAND_K).P

    def run():
        return oracle.monte_carlo(word, config)

    def check(result) -> bool:
        hits = sum(result.wait_counts.values())
        return (
            len(result.p_hat) == k + 1
            and hits + result.censored == MC_TRIALS
            and all(a <= b for a, b in zip(result.p_hat, result.p_hat[1:]))
            and band_ok(result.p_hat, result.stderr, MC_TRIALS, exact)
        )

    return Op("mc", run, check)


def build_mc_stream(seed: int) -> list[Op]:
    # Monte Carlo seeds are fixed: a 4-stderr band over k <= 20 misses about
    # once in 1500 checks by chance, so drawing fresh streams for every run
    # would fail honest code now and then. The seed permutes the op order.
    ops = [
        mc_op(Word.parse(text, L), k, oracle.DEFAULT_MC_SEED + j)
        for text, L, k in MC_STREAMS
        for j in range(MC_SEEDS_PER_STREAM)
    ]
    random.Random(f"mc_stream/{seed}").shuffle(ops)
    return ops


# ---------------------------------------------------------------- cli_calls

# The README examples plus two large tables; golden.json pins exit code and
# stdout SHA-256 of each (simulate: exit code, then the band check). The
# README's simulate runs 100000 trials; 20000 keeps one pass near 4 s.
CLI_GOLDEN_ARGS = (
    ("bifix", "--word", "10001", "--L", "2"),
    ("prob", "--h", "1000", "--L", "2", "--K", "12", "--method", "short"),
    ("prob", "--word", "10010", "--L", "2", "--K", "14", "--check-all"),
    ("prob", "--h", "11", "--L", "2", "--K", "9", "--format", "csv", "--digits", "8"),
    ("compare", "--h", "0000", "--h2", "1000", "--L", "2", "--K", "12"),
    ("compare", "--s", "0,1,2", "--s2", "0,0,0", "--L", "3"),
    ("census", "--n", "5", "--L", "2"),
    ("counterexample",),
    ("simulate", "--word", "11", "--L", "2", "--trials", "20000", "--k", "20", "--seed", "12345"),
    ("lemmas", "--s", "0,1,1", "--L", "2", "--K", "10"),
    ("prob", "--h", "1000", "--K", "2000"),
    ("prob", "--word", "1000110001", "--K", "400", "--check-all"),
    ("prob", "--h", "1000", "--word", "10001"),
)


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliLauncher:
    """Starts one `patprob` process per call; traced calls go through the shim.

    While `trace_dir` is set, each call runs bench/cli_shim.py, which writes
    that process's spans to a numbered file in trace_dir.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = cli_env(root)
        self.trace_dir: Path | None = None
        self.traced_calls = 0
        self.traced_stdout_bytes = 0

    def call(self, argv: tuple[str, ...]) -> tuple[int, bytes]:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "patprob.cli", *argv]
        else:
            out = self.trace_dir / f"call-{self.traced_calls:04d}.json"
            self.traced_calls += 1
            cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(out), *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=120)
        if self.trace_dir is not None:
            self.traced_stdout_bytes += len(proc.stdout)
        return proc.returncode, proc.stdout


def simulate_band_ok(stdout: bytes) -> bool:
    envelope = json.loads(stdout)
    params, result = envelope["params"], envelope["result"]
    word = Word.parse(params["word"], params["L"])
    exact = recursions.P_table(patterns.bifix_indicator(word), params["L"], MC_BAND_K).P
    return band_ok(result["p_hat"], result["stderr"], params["trials"], exact)


def cli_op(launcher: CliLauncher, argv: tuple[str, ...], golden: dict) -> Op:
    def run():
        return launcher.call(argv)

    def check(result) -> bool:
        code, stdout = result
        if code != golden["exit"]:
            return False
        if golden.get("sha256") is None:
            return simulate_band_ok(stdout)
        return hashlib.sha256(stdout).hexdigest() == golden["sha256"]

    return Op(f"cli.{argv[0]}", run, check)


def build_cli_calls(seed: int, launcher: CliLauncher) -> list[Op]:
    import patprob.cli  # noqa: F401  (the import is part of this workload's set-up)

    golden = load_golden()["cli"]
    ops = [cli_op(launcher, argv, golden[" ".join(argv)]) for argv in CLI_GOLDEN_ARGS]
    random.Random(f"cli_calls/{seed}").shuffle(ops)
    return ops


def build(name: str, seed: int, launcher: CliLauncher) -> list[Op]:
    if name == "deep_tables":
        return build_deep_tables(seed)
    if name == "class_sweep":
        return build_class_sweep(seed)
    if name == "mc_stream":
        return build_mc_stream(seed)
    if name == "cli_calls":
        return build_cli_calls(seed, launcher)
    raise ValueError(f"unknown workload {name!r}")
