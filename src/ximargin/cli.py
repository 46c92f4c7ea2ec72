"""Command-line interface: compute margins, generate systems, run benchmarks.

Exit codes: 0 success, 1 I/O or parse failure, 2 solver failure (with a
diagnostic report on stdout), 3 exhausted generation retries, 64 usage
errors.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from ximargin.baselines import (
    StagnationError,
    compute_xi_bisection,
    compute_xi_mp,
    oracle_xi,
)
from ximargin.drivers import compute_xi_cont, compute_xi_disc
from ximargin.generate import GenerationError, oracle_suite, random_system
from ximargin.hec import ConvergenceError
from ximargin.systems import (
    InvalidParameterError,
    StateSpaceSystem,
    TimeDomain,
    Tolerances,
    xi_bracket,
)
from ximargin.sysio import (
    SystemFileError,
    load_system,
    report_dict,
    report_to_json,
    report_to_text,
    system_to_json,
    _dump,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_SOLVER = 2
EXIT_GENERATION = 3
EXIT_USAGE = 64

_SOLVER_ERRORS = (ConvergenceError, StagnationError, ArithmeticError, np.linalg.LinAlgError)
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
    comp.add_argument("--omega0", type=float, default=0.0,
                      help="initial frequency guess (default 0)")
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
    bench.add_argument("--algorithms", default=None,
                       help="comma list from: " + ",".join(ALGORITHMS))
    bench.add_argument("--tol", type=_tolerance, default=Tolerances())
    bench.add_argument("--omega0", type=float, default=0.0)
    bench.add_argument("--report", choices=("json", "text"), default="text")
    bench.set_defaults(func=cmd_bench)
    return parser


def _run_algorithm(alg: str, system: StateSpaceSystem, tol: Tolerances,
                   omega0: float) -> dict:
    if alg == "oracle":
        t0 = time.perf_counter()
        xi = oracle_xi(system, tol=max(tol.tau, 1e-12))
        br = xi_bracket(system)
        return {
            "algorithm": "oracle",
            "xi_estimate": xi,
            "bracket": {"xi_lb": br.xi_lb, "xi_ub": br.xi_ub},
            "iterations": 0,
            "hec_avg_inner_iters": None,
            "eig_counts": {"pencil_order": 2 * system.n + system.m,
                           "pencil_solves": 0, "small_solves": 0},
            "pseudoroots": [],
            "elapsed_seconds": time.perf_counter() - t0,
            "certificate": None,
            "tolerance": max(tol.tau, 1e-12),
        }
    if alg == "hec":
        run = compute_xi_cont if system.is_continuous else compute_xi_disc
        result = run(system, omega0=omega0, tol=tol)
    elif alg == "mp":
        result = compute_xi_mp(system, tol=tol)
    elif alg == "bisection":
        result = compute_xi_bisection(system, tol=tol)
    else:
        raise InvalidParameterError(f"unknown algorithm {alg!r}")
    return report_dict(result)


def cmd_compute(args) -> int:
    try:
        system = load_system(args.input)
    except (OSError, SystemFileError) as exc:
        sys.stderr.write(f"ximargin: cannot load {args.input}: {exc}\n")
        return EXIT_IO
    try:
        report = _run_algorithm(args.algorithm, system, args.tol, args.omega0)
    except _SOLVER_ERRORS as exc:
        trace = []
        for step in getattr(exc, "trace", ()):
            if hasattr(step, "phase"):
                trace.append({"iteration": step.iteration, "phase": step.phase,
                              "eps": step.eps, "x": step.x, "g": step.g})
            elif isinstance(step, (tuple, list)):
                trace.append([float(v) for v in step])
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
    except (ValueError, InvalidParameterError) as exc:
        sys.stderr.write(f"ximargin: error: {exc}\n")
        return EXIT_USAGE
    except GenerationError as exc:
        sys.stderr.write(f"ximargin: generation failed: {exc}\n")
        return EXIT_GENERATION
    sys.stdout.write(system_to_json(system))
    return EXIT_OK


def _bench_rows(systems, algorithms, tol, omega0):
    rows = []
    for name, system in systems:
        xi_oracle = None
        if "oracle" in algorithms:
            try:
                oracle_report = _run_algorithm("oracle", system, tol, omega0)
                xi_oracle = oracle_report["xi_estimate"]
                rows.append({"system": name, **oracle_report})
            except _SOLVER_ERRORS as exc:
                rows.append({"system": name, "algorithm": "oracle",
                             "error": f"{type(exc).__name__}: {exc}"})
        for alg in algorithms:
            if alg == "oracle":
                continue
            try:
                report = _run_algorithm(alg, system, tol, omega0)
            except _SOLVER_ERRORS as exc:
                rows.append({"system": name, "algorithm": alg,
                             "error": f"{type(exc).__name__}: {exc}"})
                continue
            row = {"system": name, **report}
            if xi_oracle is not None:
                row["oracle_abs_diff"] = abs(report["xi_estimate"] - xi_oracle)
            rows.append(row)
    return rows


def _bench_text(rows) -> str:
    header = ("system | alg. | iters. | #eig (2n+m, P) | #eig (m, M) | "
              "time (sec.) | xi estimate | certificate | vs. oracle")
    lines = [header]
    for row in rows:
        if "error" in row:
            lines.append(f'{row["system"]} | {row["algorithm"]} | ERROR: {row["error"]}')
            continue
        iters = str(row["iterations"])
        if row.get("hec_avg_inner_iters") is not None:
            iters = f'{row["iterations"]}({row["hec_avg_inner_iters"]:.1f})'
        ec = row["eig_counts"]
        diff = row.get("oracle_abs_diff")
        lines.append(
            f'{row["system"]} | {row["algorithm"]} | {iters} | {ec["pencil_solves"]} | '
            f'{ec["small_solves"]} | {row["elapsed_seconds"]:.3f} | '
            f'{row["xi_estimate"]:.15g} | {row["certificate"]} | '
            f'{"-" if diff is None else format(diff, ".2e")}'
        )
    return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    if args.algorithms is None:
        algorithms = ["hec", "mp", "bisection"]
        if args.suite:
            algorithms.append("oracle")
    else:
        algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
        unknown = [a for a in algorithms if a not in ALGORITHMS]
        if unknown:
            sys.stderr.write(f"ximargin: error: unknown algorithms {unknown}\n")
            return EXIT_USAGE
    systems: list[tuple[str, StateSpaceSystem]] = []
    if args.suite:
        systems.extend(oracle_suite())
    for path in args.input:
        try:
            systems.append((path, load_system(path)))
        except (OSError, SystemFileError) as exc:
            sys.stderr.write(f"ximargin: cannot load {path}: {exc}\n")
            return EXIT_IO
    rows = _bench_rows(systems, algorithms, args.tol, args.omega0)
    if args.report == "json":
        sys.stdout.write(_dump(rows) + "\n")
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
