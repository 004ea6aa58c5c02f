"""Command-line front end.

Subcommands: gen, enumerate, parallel, uniformity, profile, verify.
Exit codes: 0 pass, 1 assertion/statistical failure, 2 usage error (an
option value out of its range too), an unreadable or malformed instance
file, an instance over a counting or brute-force budget (`BudgetExceeded`),
or too many slaves for the instance (`DegeneratePartition`).
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import exact, fptas, fpras, parallel, stats, swor
from .problem import (BudgetExceeded, brute_force_solutions,
                      verify_self_reducibility)
from .problems import (SimulatedOracleConfig, SimulatedOracles,
                       default_oracle_factory, format_instance,
                       generate_knapsack, parse_instance, Knapsack)
from .record import EmissionRecord


def _write(args, text: str):
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _oracles(problem, args, nonce: int = 0):
    cfg = SimulatedOracleConfig(
        noise_mode=getattr(args, "noise", "none"),
        seed=args.seed,
        nonce=nonce)
    return SimulatedOracles(problem, cfg)


def _run_one(problem, x, args, seed: int,
             nonce: int = 0) -> list[EmissionRecord]:
    """One session; `nonce` salts the FPRAS failure draws of the session."""
    sim = _oracles(problem, args, nonce)
    rng = random.Random(seed)
    algo = args.algo
    if algo == "exact":
        width = Fraction(1, sim.exact(x))  # M >= 1 in every parsed file
        return [EmissionRecord(w, None, None, width, 1, i)
                for i, w in enumerate(
                    exact.ara_enumerate(problem, sim.exact, x, rng), 1)]
    if algo == "fptas":
        return list(fptas.aia_enumerate(problem, sim.fptas, x, rng))
    if algo == "fpras":
        return list(fpras.axa_enumerate(problem, sim.fpras, x, args.delta,
                                        rng))
    return list(swor.swor_enumerate(problem, sim.exact, x, rng))  # "swor"


def cmd_gen(args) -> int:
    inst = generate_knapsack(args.n, args.seed, args.capacity_frac)
    _write(args, format_instance(Knapsack(), inst))
    return 0


def cmd_enumerate(args) -> int:
    problem, x = args.loaded
    _write(args, stats.emissions_csv(_run_one(problem, x, args, args.seed)))
    return 0


def cmd_parallel(args) -> int:
    problem, x = args.loaded
    if args.algo == "pswor":
        sim = _oracles(problem, args)
        outputs, draws, makespan = parallel.pswor_run(
            problem, sim.exact, x, args.slaves, args.seed,
            s_ticks=args.s_ticks, t_ticks=args.t_ticks)
        print(f"pswor outputs={len(outputs)} draws={draws} "
              f"makespan={makespan}", file=sys.stderr)
        _write(args, stats.emissions_csv(outputs))
        return 0
    factory = default_oracle_factory(
        problem, noise_mode=args.noise, seed=args.seed)
    result = parallel.run_parallel(
        problem, x, args.delta, args.slaves, args.seed,
        oracle_factory=factory, mode=args.mode,
        alpha=args.alpha, delta_star=args.delta_star,
        s_ticks=args.s_ticks, t_ticks=args.t_ticks)
    print(f"Q={result.prefill_q} prefill_tick={result.prefill_tick} "
          f"makespan={result.makespan} stalls={result.stalls}",
          file=sys.stderr)
    _write(args, stats.emissions_csv(result.outputs))
    return 0 if result.complete else 1


def cmd_uniformity(args) -> int:
    problem, x = args.loaded
    runs = [[e.solution for e in _run_one(problem, x, args, args.seed + k,
                                          nonce=k)]
            for k in range(args.runs)]
    try:
        result = stats.uniformity_test(runs, mode=args.mode)
    except stats.InsufficientRuns as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"{result['test']}: pvalue={result['pvalue']:.6g} "
          f"runs={result['runs']} passed={result['passed']}")
    return 0 if result["passed"] else 1


def cmd_profile(args) -> int:
    problem, x = args.loaded
    emissions = _run_one(problem, x, args, args.seed)
    _write(args, stats.profile_csv(stats.delay_profile(emissions,
                                                       args.window)))
    return 0


def cmd_verify(args) -> int:
    problem, x = args.loaded
    ok = verify_self_reducibility(problem, x, args.max_count)
    sol = brute_force_solutions(problem, x)
    print(f"self-reducible={ok} solutions={len(sol)}")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one stderr line, as every CLI error is."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _ranged(cast, ok, what: str):
    """argparse type: the text read by `cast`, which must satisfy `ok`."""

    def parse(text: str):
        try:
            value = cast(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"{text!r} is not a number")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value

    return parse


COUNT = _ranged(int, lambda v: v >= 1, "a positive integer")
TICKS = _ranged(int, lambda v: v >= 0, "a non-negative integer")
SHARE = _ranged(float, lambda v: 0 <= v <= 1, "in [0, 1]")
POSITIVE = _ranged(Fraction, lambda v: v > 0, "positive")
PROBABILITY = _ranged(Fraction, lambda v: 0 <= v <= 1, "in [0, 1]")
FAILURE_BOUND = _ranged(Fraction, lambda v: 0 < v < 1, "in (0, 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="roenum")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    p = sub.add_parser("gen", help="generate a knapsack instance file")
    p.add_argument("--n", type=COUNT, required=True)
    p.add_argument("--capacity-frac", type=SHARE, default=0.25)
    common(p)
    p.set_defaults(func=cmd_gen)

    def enum_args(p):
        p.add_argument("--instance", required=True)
        p.add_argument("--algo",
                       choices=["exact", "fptas", "fpras", "swor"],
                       default="fptas")
        p.add_argument("--delta", type=PROBABILITY, default="1/10")
        p.add_argument("--noise", choices=["none", "hash", "extreme"],
                       default="none")
        common(p)

    p = sub.add_parser("enumerate", help="run one enumeration session")
    enum_args(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("parallel", help="run the master/slave pipeline")
    p.add_argument("--instance", required=True)
    p.add_argument("--algo", choices=["paraxa", "pswor"], default="paraxa")
    p.add_argument("--slaves", type=COUNT, default=2)
    p.add_argument("--alpha", type=POSITIVE, default="1/2")
    p.add_argument("--delta", type=PROBABILITY, default="1/10")
    p.add_argument("--delta-star", type=FAILURE_BOUND, default="1/10")
    p.add_argument("--mode", choices=["greedy", "paced"], default="greedy")
    p.add_argument("--s-ticks", type=TICKS, default=100)
    p.add_argument("--t-ticks", type=TICKS, default=100)
    p.add_argument("--noise", choices=["none", "hash", "extreme"],
                   default="none")
    common(p)
    p.set_defaults(func=cmd_parallel)

    p = sub.add_parser("uniformity", help="chi-square uniformity check")
    enum_args(p)
    p.add_argument("--runs", type=COUNT, default=1000)
    p.add_argument("--mode", choices=["first", "full"], default="first")
    p.set_defaults(func=cmd_uniformity)

    p = sub.add_parser("profile", help="windowed delay/attempt profile")
    enum_args(p)
    p.add_argument("--window", type=COUNT, default=100)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verify", help="brute-force self-reducibility check")
    p.add_argument("--instance", required=True)
    p.add_argument("--max-count", type=COUNT, default=1 << 20)
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    if getattr(args, "instance", None) is not None:
        try:
            args.loaded = parse_instance(Path(args.instance).read_text())
        except (ValueError, OSError) as err:
            print(f"roenum: {args.instance}: {err}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except BudgetExceeded as err:
        print(f"roenum: instance too large: {err}", file=sys.stderr)
        return 2
    except parallel.DegeneratePartition as err:
        print(f"roenum: cannot partition: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
