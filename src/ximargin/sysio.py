"""JSON schemas for system files and solver reports.

A system file carries the four matrices as row-major nested arrays of
[re, im] pairs together with the domain tag and dimensions.  Reports mirror
the benchmark-table columns: estimate, bracket, iteration and eigenproblem
counts, timings, certificate.  All real numbers are emitted with 17
significant digits, which round-trips IEEE doubles losslessly, and the
emitter is deterministic so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from ximargin.drivers import XiResult
from ximargin.systems import StateSpaceSystem, TimeDomain


class SystemFileError(ValueError):
    """The document does not describe a valid system."""


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x} cannot be serialized")
    return format(float(x), ".17g")


def _dump(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting and key order."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_dump(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(_dump(v) for v in obj) + "]"
        items = [f"{pad}  {_dump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _matrix_to_pairs(M: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(M)]


def _pairs_to_matrix(data, rows: int, cols: int, name: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
        if arr.shape != (rows, cols, 2):
            raise ValueError
    except (TypeError, ValueError):
        raise SystemFileError(f'"{name}" must be a {rows}x{cols} array of [re, im] pairs') from None
    if not np.all(np.isfinite(arr)):
        raise SystemFileError(f'"{name}" contains non-finite numbers')
    return arr[..., 0] + 1j * arr[..., 1]


def system_to_dict(system: StateSpaceSystem) -> dict:
    return {
        "domain": system.domain.value,
        "n": system.n,
        "m": system.m,
        "A": _matrix_to_pairs(system.A),
        "B": _matrix_to_pairs(system.B),
        "C": _matrix_to_pairs(system.C),
        "D": _matrix_to_pairs(system.D),
    }


def system_to_json(system: StateSpaceSystem) -> str:
    return _dump(system_to_dict(system)) + "\n"


def system_from_dict(doc: dict) -> StateSpaceSystem:
    if not isinstance(doc, dict):
        raise SystemFileError("system document must be a JSON object")
    try:
        domain = TimeDomain(doc["domain"])
        n, m = doc["n"], doc["m"]
    except (KeyError, ValueError, TypeError) as exc:
        raise SystemFileError(f"bad or missing header field: {exc}") from exc
    for key, size in (("n", n), ("m", m)):
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise SystemFileError(f'"{key}" must be a positive integer, got {size!r}')
    mats = {}
    shapes = {"A": (n, n), "B": (n, m), "C": (m, n), "D": (m, m)}
    for name, (r, c) in shapes.items():
        if name not in doc:
            raise SystemFileError(f'missing matrix "{name}"')
        mats[name] = _pairs_to_matrix(doc[name], r, c, name)
    return StateSpaceSystem(mats["A"], mats["B"], mats["C"], mats["D"], domain)


def load_system(path) -> StateSpaceSystem:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"not valid JSON: {exc}") from exc
    return system_from_dict(doc)


def save_system(system: StateSpaceSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(system_to_json(system))


def report_dict(result: XiResult) -> dict:
    """Report document for a solver result; the oracle's has certificate None."""
    pairs = [[float(e), None if x is None else float(x)] for e, x in result.iterates]
    avg = result.hec_avg_inner_iters
    return {
        "algorithm": result.algorithm,
        "xi_estimate": float(result.xi),
        "bracket": {"xi_lb": float(result.bracket.xi_lb),
                    "xi_ub": float(result.bracket.xi_ub)},
        "iterations": int(result.restarts),
        "hec_avg_inner_iters": None if avg is None else float(avg),
        "eig_counts": {
            "pencil_order": int(result.eig_counts.pencil_order),
            "pencil_solves": int(result.eig_counts.pencil_solves),
            "small_solves": int(result.eig_counts.small_solves),
        },
        "pseudoroots": pairs,
        "elapsed_seconds": float(result.elapsed),
        "certificate": None if result.certificate is None else result.certificate.value,
        "tolerance": float(result.tolerance),
    }


def report_to_json(report: dict | list[dict]) -> str:
    return _dump(report) + "\n"


def report_from_json(text: str) -> dict:
    return json.loads(text)


TABLE_HEADER = "alg. | iters. | #eig (2n+m, P) | #eig (m, M) | time (sec.) | xi estimate"


def table_row(report: dict) -> str:
    """One row of the paper's table; HEC's iterations carry the mean inner iterations."""
    iters = str(report["iterations"])
    if report["hec_avg_inner_iters"] is not None:
        iters += f'({report["hec_avg_inner_iters"]:.1f})'
    ec = report["eig_counts"]
    return (f'{report["algorithm"]} | {iters} | {ec["pencil_solves"]} | {ec["small_solves"]} | '
            f'{report["elapsed_seconds"]:.3f} | {report["xi_estimate"]:.15g}')


def report_to_text(report: dict) -> str:
    """Benchmark-table style text rendering (human-oriented, not a contract)."""
    ec = report["eig_counts"]
    lines = [
        f'bracket: [{report["bracket"]["xi_lb"]:.7g}, {report["bracket"]["xi_ub"]:.7g}]'
        f'  (pencil order {ec["pencil_order"]}, tolerance {report["tolerance"]:.3g})',
        TABLE_HEADER,
        table_row(report),
        f'certificate: {report["certificate"]}',
    ]
    return "\n".join(lines) + "\n"
