"""Command-line interface: compute margins, generate systems, run benchmarks.

Exit codes: 0 success, 1 I/O or parse failure, 2 solver failure (with a
diagnostic report on stdout), 3 exhausted generation retries, 64 usage
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from ximargin.baselines import compute_xi_bisection, compute_xi_mp, oracle_xi
from ximargin.drivers import EigCounts, XiResult, compute_xi_cont, compute_xi_disc
from ximargin.generate import GenerationError, oracle_suite, random_system
from ximargin.hec import ConvergenceError, TraceStep
from ximargin.systems import StateSpaceSystem, TimeDomain, Tolerances, xi_bracket
from ximargin.sysio import (
    TABLE_HEADER,
    SystemFileError,
    load_system,
    report_dict,
    report_to_json,
    report_to_text,
    system_to_json,
    table_row,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_SOLVER = 2
EXIT_GENERATION = 3
EXIT_USAGE = 64

_SOLVER_ERRORS = (ConvergenceError, ArithmeticError, np.linalg.LinAlgError)
ALGORITHMS = ("hec", "mp", "bisection", "oracle")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _tolerance(text: str) -> Tolerances:
    try:
        return Tolerances(tau=float(text))
    except ValueError as exc:  # InvalidParameterError included
        raise argparse.ArgumentTypeError(str(exc)) from None


def _algorithm_list(text: str) -> list[str]:
    names = [a.strip() for a in text.split(",") if a.strip()]
    unknown = [a for a in names if a not in ALGORITHMS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown algorithms {unknown}")
    return names


def _build_parser() -> _Parser:
    parser = _Parser(prog="ximargin",
                     description="Extremal passivity margin of parametric LTI systems")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute the margin of one system",
                          parents=[], add_help=True)
    comp.add_argument("--input", required=True, help="system JSON file")
    comp.add_argument("--algorithm", choices=ALGORITHMS, default="hec")
    comp.add_argument("--tol", type=_tolerance, default=Tolerances(),
                      help="relative accuracy of the estimate, in [2.2e-16, 1) (default 1e-14)")
    comp.add_argument("--report", choices=("json", "text"), default="json")
    comp.set_defaults(func=cmd_compute)

    rand = sub.add_parser("random", help="generate a strictly passive system")
    rand.add_argument("--n", type=int, required=True)
    rand.add_argument("--m", type=int, required=True)
    rand.add_argument("--domain", choices=("continuous", "discrete"), required=True)
    rand.add_argument("--seed", type=int, required=True)
    rand.add_argument("--margin", type=float, default=0.1)
    rand.add_argument("--real", action="store_true",
                      help="draw real matrices (default complex)")
    rand.set_defaults(func=cmd_random)

    bench = sub.add_parser("bench", help="compare algorithms over systems")
    bench.add_argument("--input", nargs="*", default=[], help="system JSON files")
    bench.add_argument("--suite", choices=("oracle",),
                       help="use the built-in cross-validation suite")
    bench.add_argument("--algorithms", type=_algorithm_list, default=None,
                       help="comma list from: " + ",".join(ALGORITHMS))
    bench.add_argument("--tol", type=_tolerance, default=Tolerances())
    bench.add_argument("--report", choices=("json", "text"), default="text")
    bench.set_defaults(func=cmd_bench)
    return parser


def _run_algorithm(alg: str, system: StateSpaceSystem, tol: Tolerances) -> dict:
    if alg == "oracle":
        t0 = time.perf_counter()
        tau = max(tol.tau, 1e-12)
        result = XiResult(
            xi=oracle_xi(system, tol=tau), bracket=xi_bracket(system), pseudoroots=(),
            eig_counts=EigCounts(2 * system.n + system.m, 0, 0),
            elapsed=time.perf_counter() - t0, certificate=None,
            algorithm="oracle", tolerance=tau, iterates=(),
        )
    elif alg == "hec":
        run = compute_xi_cont if system.is_continuous else compute_xi_disc
        result = run(system, tol=tol)
    elif alg == "mp":
        result = compute_xi_mp(system, tol=tol)
    else:
        result = compute_xi_bisection(system, tol=tol)
    return report_dict(result)


def cmd_compute(args) -> int:
    try:
        system = load_system(args.input)
    except (OSError, SystemFileError) as exc:
        sys.stderr.write(f"ximargin: cannot load {args.input}: {exc}\n")
        return EXIT_IO
    try:
        report = _run_algorithm(args.algorithm, system, args.tol)
    except _SOLVER_ERRORS as exc:
        trace = [dataclasses.asdict(step) if isinstance(step, TraceStep)
                 else [float(v) for v in step] for step in getattr(exc, "trace", ())]
        diagnostic = {
            "algorithm": args.algorithm,
            "error": f"{type(exc).__name__}: {exc}",
            "trace": trace,
        }
        sys.stdout.write(report_to_json(diagnostic))
        return EXIT_SOLVER
    if args.report == "json":
        sys.stdout.write(report_to_json(report))
    else:
        sys.stdout.write(report_to_text(report))
    return EXIT_OK


def cmd_random(args) -> int:
    try:
        system = random_system(args.n, args.m, TimeDomain(args.domain),
                               seed=args.seed, margin=args.margin,
                               complex_data=not args.real)
    except ValueError as exc:  # InvalidParameterError included
        sys.stderr.write(f"ximargin: error: {exc}\n")
        return EXIT_USAGE
    except GenerationError as exc:
        sys.stderr.write(f"ximargin: generation failed: {exc}\n")
        return EXIT_GENERATION
    sys.stdout.write(system_to_json(system))
    return EXIT_OK


def _bench_rows(systems, algorithms, tol):
    """One row per system and algorithm; rows after the oracle's carry their distance to it."""
    rows = []
    for name, system in systems:
        xi_oracle = None
        for alg in algorithms:
            try:
                row = {"system": name, **_run_algorithm(alg, system, tol)}
            except _SOLVER_ERRORS as exc:
                rows.append({"system": name, "algorithm": alg,
                             "error": f"{type(exc).__name__}: {exc}"})
                continue
            if alg == "oracle":
                xi_oracle = row["xi_estimate"]
            elif xi_oracle is not None:
                row["oracle_abs_diff"] = abs(row["xi_estimate"] - xi_oracle)
            rows.append(row)
    return rows


def _bench_text(rows) -> str:
    lines = [f"system | {TABLE_HEADER} | certificate | vs. oracle"]
    for row in rows:
        if "error" in row:
            lines.append(f'{row["system"]} | {row["algorithm"]} | ERROR: {row["error"]}')
            continue
        diff = row.get("oracle_abs_diff")
        lines.append(f'{row["system"]} | {table_row(row)} | {row["certificate"]} | '
                     f'{"-" if diff is None else format(diff, ".2e")}')
    return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    algorithms = args.algorithms
    if algorithms is None:
        algorithms = ["hec", "mp", "bisection"] + (["oracle"] if args.suite else [])
    if "oracle" in algorithms:
        # the oracle runs first, once, so every other row can be compared with it
        algorithms = ["oracle"] + [a for a in algorithms if a != "oracle"]
    systems: list[tuple[str, StateSpaceSystem]] = []
    if args.suite:
        systems.extend(oracle_suite())
    for path in args.input:
        try:
            systems.append((path, load_system(path)))
        except (OSError, SystemFileError) as exc:
            sys.stderr.write(f"ximargin: cannot load {path}: {exc}\n")
            return EXIT_IO
    rows = _bench_rows(systems, algorithms, args.tol)
    if args.report == "json":
        sys.stdout.write(report_to_json(rows))
    else:
        sys.stdout.write(_bench_text(rows))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else EXIT_OK
    return args.func(args)


def script_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    script_entry()
