"""Seeded inputs, algorithms and stored references of the benchmark workloads.

Each workload is a fixed list of base systems drawn by the library's own
generator (with its passivity verification).  The seed picks a signed change
of state and port coordinates, ``A -> S A S, B -> S B P, C -> P C S,
D -> P D P`` with random diagonal sign matrices ``S`` and ``P``, applied to
every base system; seed 0 is the identity, so the ``suite`` at seed 0 is
exactly ``oracle_suite()``.  Sign changes are exact in floating point and
leave the transfer function's Hermitian part congruent, so the margin, the
bracket and the work done are those of the base system, while the matrices
the solvers see differ.  That keeps the stored references valid and the
timings comparable at every seed; NOTES.md gives the measurements behind
this choice.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import ximargin.generate as generate
from ximargin.systems import StateSpaceSystem, TimeDomain

REFS_DIR = Path(__file__).resolve().parent / "refs"

ALGORITHMS = {
    "suite": ("hec", "mp", "bisection"),
    "ladder": ("hec", "mp"),
    "oracle": ("oracle",),
}

# the reference of each workload comes from code its timed algorithms do not run
REFERENCE = {"suite": "oracle", "ladder": "bisection", "oracle": "oracle"}

LADDER_SIZES = (20, 60, 120)
LADDER_PORTS = 2
# the oracle_suite() settings of its real-data draws
LADDER_MARGIN = 0.2
LADDER_BASE_SEED = 9000
_DRAW_STRIDE = 977
_MAX_DRAWS = 60

ORACLE_GRID = 100_000
ORACLE_TOL = 1e-10


def ladder_base() -> list[tuple[str, StateSpaceSystem]]:
    """Real two-port draws at n = 20, 60, 120 in both domains.

    Uses the interior-margin filter of ``oracle_suite()``: draws whose margin
    sits at a bracket end are skipped in favour of later seeds.
    """
    systems = []
    for domain in (TimeDomain.CONTINUOUS, TimeDomain.DISCRETE):
        for n in LADDER_SIZES:
            base = LADDER_BASE_SEED + 101 * n + int(domain is TimeDomain.DISCRETE)
            for k in range(_MAX_DRAWS):
                try:
                    system = generate.random_system(
                        n, LADDER_PORTS, domain, seed=base + _DRAW_STRIDE * k,
                        margin=LADDER_MARGIN, complex_data=False,
                        d_floor=LADDER_MARGIN + 1.0,
                    )
                except generate.GenerationError:
                    continue
                if generate.loses_passivity_inside_bracket(system):
                    break
            else:
                raise generate.GenerationError(f"no interior-margin draw at n={n}")
            systems.append((f"{domain.value[:4]}-n{n}-m{LADDER_PORTS}-real", system))
    return systems


def change_coordinates(system: StateSpaceSystem, rng: np.random.Generator) -> StateSpaceSystem:
    """Flip the signs of a random subset of states and of ports."""
    S = rng.choice((1.0, -1.0), size=system.n)
    P = rng.choice((1.0, -1.0), size=system.m)
    return StateSpaceSystem(
        S[:, None] * system.A * S[None, :],
        S[:, None] * system.B * P[None, :],
        P[:, None] * system.C * S[None, :],
        P[:, None] * system.D * P[None, :],
        system.domain,
    )


def inputs(workload: str, seed: int) -> list[tuple[str, StateSpaceSystem]]:
    """The named systems of a workload at a seed (seed 0: the base draws)."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    base = ladder_base() if workload == "ladder" else generate.oracle_suite()
    if seed == 0:
        return base
    rng = np.random.default_rng(seed)
    return [(name, change_coordinates(system, rng)) for name, system in base]


def refs_path(workload: str) -> Path:
    return REFS_DIR / f"{'ladder' if workload == 'ladder' else 'suite'}.json"


def load_refs(workload: str) -> dict[str, float]:
    """Stored reference margins of the workload's base systems, by name."""
    data = json.loads(refs_path(workload).read_text())
    if data["algorithm"] != REFERENCE[workload]:
        raise ValueError(f"{refs_path(workload)} holds {data['algorithm']} references")
    return {row["name"]: float(row["xi"]) for row in data["systems"]}


def within_tolerance(xi: float, ref: float) -> bool:
    """Acceptance criterion 1: relative 1e-8, absolute 1e-8 below |ref| 1e-6."""
    err = abs(xi - ref) / abs(ref) if abs(ref) >= 1e-6 else abs(xi - ref)
    return err <= 1e-8
