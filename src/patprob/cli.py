"""Command-line frontend with machine-readable output.

Every successful invocation prints exactly one JSON envelope
{"command", "params", "result", "version"} on stdout (or the CSV / table
rendering when requested). Diagnostics go to stderr.

Exit codes: 0 success / property conforms, 1 a checked property does not
hold, 2 usage error. Every rejected input, from argparse or from the
library's own `ValueError` checks, is mapped to exit 2 in `main` alone, and
so is a `MemoryError`: an input too large for the machine is not a failed
check.

`prob` takes its routes from the package's registry: `--method` names a
route of `patprob.ROUTE_NAMES`, whose module alone it imports, or
`automaton`, and `--check-all` runs `patprob.route_tables`, which adds the
automaton when `--word` is given.
On disagreement it names the routes that differ from the first in sorted
order on stderr and exits 1.

Importing this module loads no other patprob module. Each subcommand
imports what it calls when it runs, and checks its options before it loads
a route module; `prob` writes its table rows with `ProbTable.json_text`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import ROUTE_NAMES, __version__

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_USAGE = 2


def _int_option(text: str) -> int:
    """argparse type of every integer option: ASCII digits 0-9, one optional
    leading '-' (so that a negative value reaches the library's own check)."""
    from .patterns import _ascii_ints

    digits = text.removeprefix("-")
    try:
        (value,) = _ascii_ints([digits], f"integer {text!r}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value if digits == text else -value


def _write(text: str) -> None:
    """Write to stdout; a reader that closed the pipe early is not an error."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(command: str, params: dict, result: dict, table: ProbTable | None = None) -> None:
    """Write the envelope; `table`, if given, becomes the last key of `result`.

    The table's text comes from its own writer. json.dumps writes the rest,
    with "table": null where the table goes: the last such text, since only
    "version" follows the result.
    """
    if table is not None:
        result = {**result, "table": None}
    envelope = {
        "command": command,
        "params": params,
        "result": result,
        "version": __version__,
    }
    text = json.dumps(envelope, indent=2)
    if table is not None:
        head, _, tail = text.rpartition('"table": null')
        text = f'{head}"table": {table.json_text(4)}{tail}'  # "table" sits 4 spaces deep
    _write(text + "\n")


def cmd_bifix(args) -> int:
    from .patterns import Word, bifix_indicator, expected_wait_closed, s_from_h

    word = Word.parse(args.word, args.L)
    h = bifix_indicator(word)
    s = s_from_h(h)
    _emit(
        "bifix",
        {"word": word.text(), "L": args.L},
        {
            "h": h.text(),
            "s": list(s.targets),
            "expected_wait": str(expected_wait_closed(h, args.L)),
        },
    )
    return EXIT_OK


def _parse_indicator(text: str) -> BifixIndicator:
    """An indicator from --h/--h2; one that no pattern has is refused."""
    from .patterns import BifixIndicator, is_realizable

    h = BifixIndicator.parse(text)
    if not is_realizable(h):
        raise ValueError(f"indicator {h.text()} is not the bifix indicator of any pattern")
    return h


def cmd_prob(args) -> int:
    from .patterns import Word, _at_least, bifix_indicator

    _at_least(args.digits, 1, "--digits")
    # Python 3.10.0-3.10.6 have no limit on integer strings.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if args.format != "json" and limit and args.digits > limit:
        raise ValueError(
            f"--digits must be <= {limit} (the integer string limit) "
            f"for --format {args.format}, got {args.digits}"
        )
    if (args.h is None) == (args.word is None):
        raise ValueError("give exactly one of --h or --word")
    word = None
    if args.word is not None:
        word = Word.parse(args.word, args.L)
        h = bifix_indicator(word)
    else:
        h = _parse_indicator(args.h)
    upto = args.K if args.K is not None else 3 * h.n

    if args.check_all:
        if args.format != "json":
            raise ValueError(f"--check-all prints JSON only, not --format {args.format}")
        from . import route_tables

        tables = route_tables(h, args.L, upto, word)
        names = sorted(tables)
        first = tables[names[0]]
        differ = [m for m in names if tables[m].C != first.C]
        _emit(
            "prob",
            {"h": h.text(), "L": args.L, "K": upto, "check_all": True, "methods": names},
            {"agreement": not differ},
            first,
        )
        if differ:
            k = min(k for m in differ
                    for k, (a, b) in enumerate(zip(tables[m].C, first.C)) if a != b)
            print(f"methods disagree: {', '.join(differ)} differ from {names[0]} (first at k={k})",
                  file=sys.stderr)
            return EXIT_PROPERTY_FAILED
        return EXIT_OK

    if args.method == "automaton":
        if word is None:
            raise ValueError("--method automaton needs --word, not --h")
        from .oracle import automaton_prob_table

        table = automaton_prob_table(word, upto)
    else:
        from . import _route

        table = _route(args.method)(h, args.L, upto)
    if args.format == "csv":
        _write(table.to_csv(args.digits))
    elif args.format == "table":
        _write(table.to_text(args.digits))
    else:
        _emit(
            "prob",
            {"h": h.text(), "L": args.L, "K": upto, "method": args.method},
            {},
            table,
        )
    return EXIT_OK


def _oriented_swords(args) -> tuple[SWord, SWord, dict]:
    """Resolve --h/--h2 or --s/--s2 into a strictly ordered pair s > s'. The
    lower indicator has the greater jump-target word, so it is put first."""
    from .patterns import Ordering, SWord, compare_indicators, compare_swords, k0_of_pair, k0_sharp, s_from_h

    by_h = args.h is not None or args.h2 is not None
    by_s = args.s is not None or args.s2 is not None
    if by_h == by_s:
        raise ValueError("give either --h and --h2, or --s and --s2")
    if by_h:
        if args.h is None or args.h2 is None:
            raise ValueError("need both --h and --h2")
        a, b = _parse_indicator(args.h), _parse_indicator(args.h2)
        order, first, what = compare_indicators(a, b), Ordering.LESS, "indicators"
    else:
        if args.s is None or args.s2 is None:
            raise ValueError("need both --s and --s2")
        a, b = SWord.parse(args.s), SWord.parse(args.s2)
        order, first, what = compare_swords(a, b), Ordering.GREATER, "jump-target words"
    if order is Ordering.INCOMPARABLE:
        raise ValueError(f"{what} are incomparable")
    if order is Ordering.EQUAL:
        raise ValueError(f"{what} are equal; nothing to compare")
    x, y = (a, b) if order is first else (b, a)
    if not by_h:
        return x, y, {"s": a.text(), "s2": b.text()}
    params = {"h": a.text(), "h2": b.text(), "oriented": [x.text(), y.text()],
              "k0_indicator_formula": k0_of_pair(x, y), "k0_sharp": k0_sharp(x, y)}
    return s_from_h(x), s_from_h(y), params


def cmd_compare(args) -> int:
    s_big, s_small, params = _oriented_swords(args)
    upto = args.K if args.K is not None else 3 * s_big.n
    from .markov import compare_chains

    report = compare_chains(s_big, s_small, args.L, upto)
    params.update({"L": args.L, "K": upto})
    _emit("compare", params, report.to_json_dict())
    return EXIT_OK if report.conforms else EXIT_PROPERTY_FAILED


def cmd_census(args) -> int:
    from .patterns import DEFAULT_ENUM_BUDGET, _ascii_ints, census

    raw = os.environ.get("PATPROB_ENUM_BUDGET")  # ASCII digits: a sign is malformed
    budget = DEFAULT_ENUM_BUDGET if raw is None else _ascii_ints([raw], "PATPROB_ENUM_BUDGET")[0]
    classes = census(args.n, args.L, budget=budget, max_representatives=args.max_reps)
    _emit(
        "census",
        {"n": args.n, "L": args.L, "max_representatives": args.max_reps},
        {
            "classes": [
                {
                    "h": h.text(),
                    "count": cls.count,
                    "representatives": [w.text() for w in cls.representatives],
                }
                for h, cls in classes.items()
            ]
        },
    )
    return EXIT_OK


def cmd_counterexample(args) -> int:
    from .oracle import counterexample_check

    report = counterexample_check(args.L)
    _emit("counterexample", {"L": args.L}, report.to_json_dict())
    return EXIT_OK if report.ok else EXIT_PROPERTY_FAILED


def cmd_simulate(args) -> int:
    from .oracle import DEFAULT_MC_SEED, McConfig, monte_carlo
    from .patterns import Word

    word = Word.parse(args.word, args.L)
    seed = DEFAULT_MC_SEED if args.seed is None else args.seed
    result = monte_carlo(word, McConfig(trials=args.trials, k=args.k, seed=seed))
    _emit(
        "simulate",
        {"word": word.text(), "L": args.L, "trials": args.trials, "k": args.k, "seed": seed},
        result.to_json_dict(),
    )
    return EXIT_OK


def cmd_lemmas(args) -> int:
    from .markov import ChainSpec, check_lemmas
    from .patterns import SWord

    s = SWord.parse(args.s)
    upto = args.K if args.K is not None else 3 * s.n
    report = check_lemmas(ChainSpec(s, args.L), upto)
    _emit("lemmas", {"s": s.text(), "L": args.L, "K": upto}, report.to_json_dict())
    return EXIT_OK if report.passed else EXIT_PROPERTY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patprob",
        description="Exact pattern-occurrence probabilities in random words",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Every subcommand takes the alphabet size; argparse lists it first.
    alphabet = argparse.ArgumentParser(add_help=False)
    alphabet.add_argument("--L", type=_int_option, default=2, help="alphabet size (default 2)")
    add = functools.partial(sub.add_parser, parents=[alphabet])

    p = add("bifix", help="bifix indicator, jump targets and expected wait")
    p.add_argument("--word", required=True, help="the pattern")
    p.set_defaults(func=cmd_bifix)

    p = add("prob", help="table of p_k and P_k by a chosen method")
    p.add_argument("--h", help="bifix indicator bits, e.g. 1000")
    p.add_argument("--word", help="pattern; implies its indicator")
    p.add_argument("--K", type=_int_option, help="table horizon (default 3n)")
    p.add_argument("--method", choices=[*ROUTE_NAMES, "automaton"], default="short")
    p.add_argument("--check-all", action="store_true",
                   help="run every applicable method (--method is not used) and require "
                        "exact agreement; prints JSON only")
    p.add_argument("--format", choices=["json", "csv", "table"], default="json")
    p.add_argument("--digits", type=_int_option, default=12, help="decimal digits for csv/table")
    p.set_defaults(func=cmd_prob)

    p = add("compare", help="compare two classes or two jump-target words")
    p.add_argument("--h")
    p.add_argument("--h2")
    p.add_argument("--s")
    p.add_argument("--s2")
    p.add_argument("--K", type=_int_option, help="comparison horizon (default 3n)")
    p.set_defaults(func=cmd_compare)

    p = add("census", help="partition all length-n words by bifix class")
    p.add_argument("--n", type=_int_option, required=True)
    p.add_argument("--max-reps", type=_int_option, default=4)
    p.set_defaults(func=cmd_census)

    p = add("counterexample", help="verify that occurrence probability is not affine in the indicator")
    p.set_defaults(func=cmd_counterexample)

    p = add("simulate", help="seeded Monte Carlo first-occurrence simulation")
    p.add_argument("--word", required=True)
    p.add_argument("--trials", type=_int_option, default=10_000)
    p.add_argument("--k", type=_int_option, default=20)
    p.add_argument("--seed", type=_int_option)
    p.set_defaults(func=cmd_simulate)

    p = add("lemmas", help="check the reach-probability laws of a chain")
    p.add_argument("--s", required=True, help="jump targets, e.g. 0,1,1")
    p.add_argument("--K", type=_int_option, help="horizon (default 3n, must be >= n)")
    p.set_defaults(func=cmd_lemmas)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
