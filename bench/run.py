"""patprob benchmark: python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload in this single-threaded process (cli_calls also starts one
`patprob` process at a time) from the source tree in ../src. Every op's
output is checked. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See bench/README.md.

Timing: the op list is run in whole passes until --seconds have gone by, at
least MIN_PASSES times, after one warm-up pass. Op times are scaled to the
nominal speed of a fixed reference task timed between the ops
(calibration.py), which takes out the slow phases of a shared machine.
An op's latency is its mean scaled time over the passes; ops_per_s is the
ops in one pass divided by the sum of those latencies, op_ms_p50 their
median.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from calibration import (
    INTERPRETER_START,
    NUMPY_IMPORT_CODE,
    NUMPY_IMPORT_S,
    NUMPY_START,
    PYTHON_WORK,
    Reference,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MIN_PASSES = 3
SETUP_PROBES = 5
CLI_PROBES = 5
WORKLOADS = ("deep_tables", "class_sweep", "mc_stream", "cli_calls")

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Span names of the traced layers, in report order.
LAYERS = (
    "patterns.census",
    "patterns.bifix_indicator",
    "recursions.p_table_long",
    "recursions.p_table_short",
    "recursions.P_table",
    "recursions.expected_wait_series",
    "markov.chain_prob_table",
    "markov.reach_table",
    "markov.compare_chains",
    "markov.check_lemmas",
    "oracle.automaton_prob_table",
    "oracle.automaton_counts",
    "oracle.enum_counts",
    "oracle.monte_carlo",
    "numerics.render",
    "numerics.table_eq",
    "cli.main",
)
COUNTERS = (
    ("patterns.census.words", "count"),
    ("oracle.enum_counts.words", "count"),
    ("markov.reach_rows", "count"),
    ("recursions.expected_wait_series.terms", "count"),
    ("oracle.monte_carlo.trials", "count"),
    ("oracle.monte_carlo.symbols", "count"),
    ("numerics.max_num_bits", "bits"),
    ("cli.stdout_bytes", "bytes"),
)
CLI_SUBCOMMANDS = ("bifix", "prob", "compare", "census", "counterexample", "simulate", "lemmas")


def per_layer_catalogue() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, the same for every workload."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.busy_s", "s"), (f"{layer}.self_s", "s")]
    out += list(COUNTERS)
    out += [("cli.import_s", "s"), ("cli.interp_s", "s")]
    out += [(f"cli.{sub}.call_ms_p50", "ms") for sub in CLI_SUBCOMMANDS]
    out += [
        ("bench.ops", "count"),
        ("bench.trace_overhead_frac", "ratio"),
        ("bench.op_ms_tail", "ms"),
        ("bench.op_tail_pct", "%"),
        ("bench.op_samples", "count"),
        ("bench.raw_ops_per_s", "ops/s"),
        ("bench.machine_slowdown", "ratio"),
    ]
    return out


# ------------------------------------------------------------------ running


# The reference is measured before a pass and again after each op that ends
# REF_INTERVAL_S or more after the last measurement, so short ops share one.
REF_INTERVAL_S = 0.05


# The reference task of each workload. class_sweep's small-integer ops slow
# down in step with PYTHON_WORK; the big-integer ops of deep_tables and the
# numpy-driven ones of mc_stream slow down less, and on sets of ten runs an
# exponent of 0.75 left the smallest spread for them (1 over-corrects).
REFERENCES = {
    "deep_tables": replace(PYTHON_WORK, sensitivity=0.75),
    "class_sweep": PYTHON_WORK,
    "mc_stream": replace(PYTHON_WORK, sensitivity=0.75),
    "cli_calls": NUMPY_START,
}


@dataclass
class Timings:
    """Wall-clock op times of the timed passes, the reference times taken
    between them, and the check tally."""

    reference: Reference
    raw: list[list[float]] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def slowdown(self) -> float:
        """Mean reference time over its nominal time: how slow the machine ran."""
        return statistics.fmean(self.ref_s) / self.reference.nominal_s

    def scale(self) -> float:
        """Factor that takes this run's times to the machine's nominal speed."""
        return self.slowdown() ** -self.reference.sensitivity

    def raw_typical(self) -> list[float]:
        """Each op's mean wall time over the passes."""
        return [statistics.fmean(column) for column in zip(*self.raw)]

    def typical(self) -> list[float]:
        """Each op's mean time over the passes, scaled to nominal speed."""
        return [self.scale() * t for t in self.raw_typical()]

    def samples(self) -> list[float]:
        """Every op time of every pass, pass by pass, scaled to nominal speed."""
        return [self.scale() * t for times in self.raw for t in times]


def run_op(op, tracer=None) -> tuple[float, bool]:
    """Run op (timed) and check its output (untimed, untraced): (seconds, ok).

    An op that raises, or whose output fails its check, is not ok.
    """
    started = perf_counter()
    try:
        result = op.run()
    except Exception:
        traceback.print_exc()
        return perf_counter() - started, False
    elapsed = perf_counter() - started
    if tracer is not None:
        tracer.paused = True
    try:
        return elapsed, bool(op.check(result))
    except Exception:
        traceback.print_exc()
        return elapsed, False
    finally:
        if tracer is not None:
            tracer.paused = False


def run_pass(ops, timings: Timings, tracer=None) -> None:
    """Run and check every op once, timing the reference in between."""
    raw = []
    timings.ref_s += timings.reference.times()
    last_ref = perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        elapsed, ok = run_op(op, tracer)
        if not ok:
            print(f"op {index} ({op.kind}) failed its check", file=sys.stderr)
        timings.attempted += 1
        timings.failed += not ok
        raw.append(elapsed)
        if perf_counter() - last_ref >= REF_INTERVAL_S:
            timings.ref_s += timings.reference.times()
            last_ref = perf_counter()
    timings.raw.append(raw)


def timed_passes(
    ops, reference: Reference, seconds: float, min_passes: int = MIN_PASSES, between=None
) -> Timings:
    """One warm-up pass, then whole passes until `seconds` have gone by.

    The warm-up pass is checked but not timed; it fills caches and finishes
    lazy set-up. `between` is called after each timed pass.
    """
    timings = Timings(reference)
    run_pass(ops, timings)
    timings.raw.clear()
    timings.ref_s.clear()
    started = perf_counter()
    while len(timings.raw) < min_passes or perf_counter() - started < seconds:
        run_pass(ops, timings)
        if between is not None:
            between()
    return timings


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    ordered = sorted(samples)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


# ------------------------------------------------------------------ set-up


def build_workload(name: str, seed: int):
    """Import patprob and build the workload's inputs: what setup_s times."""
    workloads = importlib.import_module("workloads")
    launcher = workloads.CliLauncher(ROOT)
    return workloads, launcher, workloads.build(name, seed, launcher)


def probe(argv: list[str], env=None) -> float:
    """Run a fresh interpreter that prints one number; return that number."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv} failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


class SetupProbes:
    """Set-up times (imports plus inputs) of fresh interpreters.

    The probes run between the timed passes, spread over the run, each next
    to a fresh interpreter that times its `import numpy`. Set-up is mostly
    that import, so the median set-up time is scaled by the median of those
    import times. Medians, because single interpreter starts now and then
    take three times as long.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.argv = [str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                     "--setup-probe"]
        self.samples: list[float] = []
        self.ref_s: list[float] = []

    def __call__(self) -> None:
        if len(self.samples) < SETUP_PROBES:
            self.ref_s.append(probe(["-c", NUMPY_IMPORT_CODE]))
            self.samples.append(probe(self.argv))

    def seconds(self) -> float:
        return statistics.median(self.samples) * NUMPY_IMPORT_S / statistics.median(self.ref_s)


def cli_floor_seconds(env) -> tuple[float, float]:
    """Medians of a fresh `import patprob.cli` and of a bare interpreter's wall time."""
    code = "import time; t = time.perf_counter(); import patprob.cli; print(time.perf_counter() - t)"
    import_s = statistics.median(probe(["-c", code], env) for _ in range(CLI_PROBES))
    return import_s, statistics.median(INTERPRETER_START.times()[0] for _ in range(CLI_PROBES))


# ------------------------------------------------------------------ reporting


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, loadavg_start) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": loadavg_start,
        "loadavg_end": list(os.getloadavg()),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(workload: str, ops, timings: Timings, setup_s: float) -> dict:
    typical = timings.typical()
    who = resource.RUSAGE_CHILDREN if workload == "cli_calls" else resource.RUSAGE_SELF
    return {
        "ops_per_s": len(ops) / sum(typical),
        "op_ms_p50": 1000.0 * statistics.median(typical),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def per_layer(workloads, launcher, ops, timings: Timings) -> tuple[dict, dict]:
    """Run one traced pass after the untraced ones; return metrics and raw spans."""
    from tracing import Tracer, library_layers

    shim_dir = OUT_DIR / "cli-spans"
    shutil.rmtree(shim_dir, ignore_errors=True)
    shim_dir.mkdir(parents=True)
    tracer = Tracer()
    tracer.install(
        library_layers() + [(workloads, "tables_agree", "numerics.table_eq")],
        extra_modules=[workloads],
    )
    launcher.trace_dir = shim_dir
    launcher.traced_stdout_bytes = 0
    traced = Timings(timings.reference)
    try:
        run_pass(ops, traced, tracer)
    finally:
        tracer.uninstall()
        launcher.trace_dir = None
    timings.attempted += traced.attempted
    timings.failed += traced.failed
    # span times are scaled like op times
    scale = traced.scale()
    summary = tracer.summary()
    shim_dumps = []
    for path in sorted(shim_dir.glob("call-*.json")):
        with open(path) as f:
            shim_dumps.append(json.load(f))
        summary.add_dump(shim_dumps[-1])
    shutil.rmtree(shim_dir)

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = summary.calls[layer]
        metrics[f"{layer}.busy_s"] = scale * summary.busy_s[layer]
        metrics[f"{layer}.self_s"] = scale * summary.self_s[layer]
    extra = {"numerics.max_num_bits": summary.max_num_bits,
             "cli.stdout_bytes": launcher.traced_stdout_bytes}
    for name, _unit in COUNTERS:
        metrics[name] = extra[name] if name in extra else summary.counters[name]
    metrics["cli.import_s"], metrics["cli.interp_s"] = cli_floor_seconds(launcher.env)
    typical = timings.typical()
    for sub in CLI_SUBCOMMANDS:
        mine = [t for op, t in zip(ops, typical) if op.kind == f"cli.{sub}"]
        metrics[f"cli.{sub}.call_ms_p50"] = 1000.0 * statistics.median(mine) if mine else 0.0
    value, pct, samples = tail(timings.samples())
    metrics.update({
        "bench.ops": len(ops),
        "bench.trace_overhead_frac": sum(traced.typical()) / sum(typical) - 1.0,
        "bench.op_ms_tail": 1000.0 * value,
        "bench.op_tail_pct": pct,
        "bench.op_samples": samples,
        "bench.raw_ops_per_s": len(ops) / sum(timings.raw_typical()),
        "bench.machine_slowdown": timings.slowdown(),
    })
    spans = {"in_process": tracer.dump(), "cli_processes": shim_dumps}
    return metrics, spans


def print_summary(workload: str, timings: Timings, metrics: dict, units: dict) -> None:
    print(
        f"# {workload}: {len(timings.raw)} untraced passes, "
        f"{timings.attempted} ops attempted, {timings.failed} failed"
    )
    for name, value in metrics.items():
        print(f"#   {name:<42} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "patprob" / "__init__.py").is_file():
        print(f"error: no patprob source tree at {ROOT / 'src' / 'patprob'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    started = perf_counter()
    workloads, launcher, ops = build_workload(args.workload, args.seed)
    if args.setup_probe:
        print(perf_counter() - started)
        return 0
    import patprob

    if Path(patprob.__file__).resolve().parent != (ROOT / "src" / "patprob").resolve():
        print(f"error: imported patprob from {patprob.__file__}, not ../src", file=sys.stderr)
        return 2

    loadavg_start = list(os.getloadavg())
    gc.collect()
    gc.freeze()
    setup_probes = None if args.trace else SetupProbes(args.workload, args.seed)
    timings = timed_passes(ops, REFERENCES[args.workload], args.seconds, between=setup_probes)
    run_record: dict = {}
    if args.trace:
        metrics, run_record["spans"] = per_layer(workloads, launcher, ops, timings)
        units = dict(per_layer_catalogue())
    else:
        for _ in range(SETUP_PROBES):
            setup_probes()
        setup_s = setup_probes.seconds()
        metrics = end_to_end(args.workload, ops, timings, setup_s)
        units = dict(END_TO_END)
    env = environment(args, loadavg_start)
    failed_frac = timings.failed / timings.attempted

    OUT_DIR.mkdir(exist_ok=True)
    run_record.update(env=env, metrics=metrics, failed_ops_frac=failed_frac, raw=timings.raw,
                      ref_s=timings.ref_s)
    if setup_probes is not None:
        run_record.update(setup_raw=setup_probes.samples, setup_ref_s=setup_probes.ref_s)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w") as f:
        json.dump(run_record, f)

    print(json.dumps({"env": env}))
    print_summary(args.workload, timings, {**metrics, "failed_ops_frac": failed_frac},
                  {**units, "failed_ops_frac": "ratio"})
    if not args.trace:
        value, pct, samples = tail(timings.samples())
        print(f"#   op_ms_p50 is over {len(ops)} ops, each the mean of {len(timings.raw)} passes")
        print(f"#   op_ms_tail: {1000.0 * value:.6g} ms at p{pct:.1f} of {samples} op samples")
        print(f"#   unscaled: {len(ops) / sum(timings.raw_typical()):.6g} ops/s; "
              f"machine slowdown {timings.slowdown():.3f}")
    print(json.dumps({
        "correct": timings.failed == 0,
        "attempted": timings.attempted,
        "failed": timings.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
