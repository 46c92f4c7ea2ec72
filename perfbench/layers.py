"""Per-layer tracing of ximargin from outside the library.

``Tracer.install`` wraps each layer's entry points in every ``ximargin``
module namespace (and class) that binds them, so calls made through
``from ximargin.evaluation import gamma`` style imports are seen too.  Each
call becomes one span: entry point, start, end, parent span, plus an
optional size and outcome.  Spans stay in memory, in flat arrays, until
the run writes them out; ``layer_metrics`` derives counts and self times
from them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# (layer, module, attribute).  Private names appear only where they are the
# layer's sole entry point: the dense QZ behind every pencil solve, one HEC
# contraction / expansion, and the oracle's grid pass / scalar refinement.
ENTRY_POINTS = (
    ("evaluation", "ximargin.evaluation", "build_cache"),
    ("evaluation", "ximargin.evaluation", "phi_eval"),
    ("evaluation", "ximargin.evaluation", "gamma"),
    ("evaluation", "ximargin.evaluation", "gamma_derivs_omega"),
    ("evaluation", "ximargin.evaluation", "gamma_derivs_xi"),
    ("evaluation", "ximargin.evaluation", "gamma_at_infinity"),
    ("pencils", "ximargin.pencils", "gamma_zeros"),
    ("pencils", "ximargin.pencils", "negative_intervals"),
    ("pencils", "ximargin.pencils", "xi_roots_at_omega"),
    ("pencils", "ximargin.pencils", "_finite_eigenvalues"),
    ("hec", "ximargin.hec", "hec_solve"),
    ("hec", "ximargin.hec", "_contract_root_min"),
    ("hec", "ximargin.hec", "_expand_min"),
    ("drivers", "ximargin.drivers", "compute_xi_cont"),
    ("drivers", "ximargin.drivers", "compute_xi_disc"),
    ("drivers", "ximargin.drivers", "initial_negative_search"),
    ("drivers", "ximargin.drivers", "probe_near_zeros"),
    ("baselines", "ximargin.baselines", "compute_xi_mp"),
    ("baselines", "ximargin.baselines", "compute_xi_bisection"),
    ("baselines", "ximargin.baselines", "oracle_xi"),
    ("baselines", "ximargin.baselines", "_GridEvaluator.min_gamma"),
    ("baselines", "ximargin.baselines", "_GridEvaluator.gamma_scalar"),
    ("generate", "ximargin.generate", "oracle_suite"),
    ("generate", "ximargin.generate", "random_system"),
    ("generate", "ximargin.generate", "loses_passivity_inside_bracket"),
)

_POINT_EVALUATIONS = ("phi_eval", "gamma", "gamma_derivs_omega", "gamma_derivs_xi",
                      "gamma_at_infinity")

# per-call extras: the pencil order of a QZ, and whether a search found anything
_SIZE = {"_finite_eigenvalues": lambda args, kwargs: args[0].shape[0]}
_OUTCOME = {
    "negative_intervals": lambda ret: len(ret) > 0,
    "initial_negative_search": lambda ret: ret is not None,
}
_RAISED = -2
_NO_OUTCOME = -1


class Recording:
    """Spans of one phase of a run, as parallel flat arrays."""

    def __init__(self, label: str):
        self.label = label
        self.entry = array("i")
        self.parent = array("i")
        self.owner = array("i")
        self.size = array("q")
        self.outcome = array("b")
        self.start = array("d")
        self.end = array("d")

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "entry": np.frombuffer(self.entry, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "owner": np.frombuffer(self.owner, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.int64),
            "outcome": np.frombuffer(self.outcome, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }


class Tracer:
    """Wraps the entry points while installed and records into ``recording``.

    ``owner`` tags each span with the index of the top-level call the
    benchmark is making (its algorithm), so counts can be split per
    algorithm.
    """

    def __init__(self):
        self.recording = Recording("idle")
        self.owner = -1
        self.wrapped: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn, size, outcome):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.recording
            i = len(rec.start)
            rec.entry.append(index)
            rec.parent.append(tracer._stack[-1])
            rec.owner.append(tracer.owner)
            rec.size.append(size(args, kwargs) if size else 0)
            rec.outcome.append(_NO_OUTCOME)
            rec.end.append(0.0)
            tracer._stack.append(i)
            rec.start.append(clock())
            try:
                ret = fn(*args, **kwargs)
            except BaseException:
                rec.end[i] = clock()
                tracer._stack.pop()
                rec.outcome[i] = _RAISED
                raise
            rec.end[i] = clock()
            tracer._stack.pop()
            if outcome:
                rec.outcome[i] = int(outcome(ret))
            return ret

        return traced

    @contextlib.contextmanager
    def recording_into(self, recording: Recording):
        """Record into ``recording`` with the wrappers installed."""
        self.recording = recording
        self.install()
        try:
            yield recording
        finally:
            self.uninstall()

    def install(self) -> None:
        """Wrap every binding of every entry point; ``uninstall`` undoes it."""
        self.wrapped = []
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "ximargin" or name.startswith("ximargin.")}
        for index, (_, module, attr) in enumerate(ENTRY_POINTS):
            if "." in attr:
                cls_name, name = attr.split(".")
                home = getattr(modules[module], cls_name)
                namespaces = [(home, f"{module}:{attr}")]
            else:
                name, home = attr, modules[module]
                namespaces = [(mod, f"{mod_name}:{name}") for mod_name, mod in modules.items()]
            original = getattr(home, name)
            traced = self._wrap(index, original, _SIZE.get(name), _OUTCOME.get(name))
            for namespace, label in namespaces:
                if vars(namespace).get(name) is original:
                    self._patches.append((namespace, name, original))
                    setattr(namespace, name, traced)
                    self.wrapped.append(label)

    def uninstall(self) -> None:
        for namespace, name, original in reversed(self._patches):
            setattr(namespace, name, original)
        self._patches.clear()


def _spans(rec: Recording):
    """Span arrays plus derived duration, self time and layer index."""
    a = rec.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    covered = np.zeros(len(dur))
    np.add.at(covered, a["parent"][has_parent], dur[has_parent])
    layers = sorted({layer for layer, _, _ in ENTRY_POINTS})
    layer_of_entry = np.array([layers.index(layer) for layer, _, _ in ENTRY_POINTS])
    layer = layer_of_entry[a["entry"]] if len(dur) else np.zeros(0, dtype=int)
    return a, dur, dur - covered, layer, layers


def _entry_mask(a, *attrs) -> np.ndarray:
    ids = [i for i, (_, _, attr) in enumerate(ENTRY_POINTS) if attr.rsplit(".", 1)[-1] in attrs]
    return np.isin(a["entry"], ids)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(rec: Recording) -> dict[str, float]:
    """Per-layer counts and times of one traced pass (``trace.overhead`` and
    ``generate.system_s`` are filled in by the caller)."""
    a, dur, self_t, layer, layers = _spans(rec)
    parent = a["parent"]
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)

    def in_layer(name):
        return layer == layers.index(name)

    def self_s(name):
        return float(self_t[in_layer(name)].sum())

    points = _entry_mask(a, *_POINT_EVALUATIONS)
    eval_entries = points & (parent_layer != layers.index("evaluation"))
    build = _entry_mask(a, "build_cache")
    point_self = float(self_t[in_layer("evaluation") & ~build].sum())

    # evaluation entries made (transitively) inside hec_solve
    hec_solve = _entry_mask(a, "hec_solve")
    inside = np.zeros(len(dur), dtype=bool)
    for i in np.nonzero(parent >= 0)[0]:
        p = parent[i]
        inside[i] = inside[p] or hec_solve[p]
    pseudoroots = int((hec_solve & (a["outcome"] != _RAISED)).sum())

    qz = _entry_mask(a, "_finite_eigenvalues")
    neg = _entry_mask(a, "negative_intervals")
    search = _entry_mask(a, "initial_negative_search")
    grid = _entry_mask(a, "min_gamma")
    refine = _entry_mask(a, "gamma_scalar")
    calls = int(eval_entries.sum())
    return {
        "evaluation.calls": calls,
        "evaluation.derivs_calls": int(_entry_mask(a, "gamma_derivs_omega", "gamma_derivs_xi").sum()),
        "evaluation.self_s": self_s("evaluation"),
        "evaluation.us_per_call": 1e6 * _ratio(point_self, calls),
        "evaluation.build_cache_s": float(dur[build].sum()),
        "pencils.qz_calls": int(qz.sum()),
        "pencils.qz_s": float(dur[qz].sum()),
        "pencils.qz_order3_sum": int((a["size"][qz] ** 3).sum()),
        "pencils.self_s": self_s("pencils"),
        "pencils.negative_hit_ratio": _ratio((a["outcome"][neg] == 1).sum(), neg.sum()),
        "hec.pseudoroots": pseudoroots,
        "hec.contract_calls": int(_entry_mask(a, "_contract_root_min").sum()),
        "hec.expand_calls": int(_entry_mask(a, "_expand_min").sum()),
        "hec.evals_per_pseudoroot": _ratio((eval_entries & inside).sum(), pseudoroots),
        "hec.self_s": self_s("hec"),
        "drivers.negative_search_calls": int(search.sum()),
        "drivers.negative_search_hit_ratio": _ratio((a["outcome"][search] == 1).sum(), search.sum()),
        "drivers.negative_search_s": float(dur[search].sum()),
        "drivers.near_zero_probe_calls": int(_entry_mask(a, "probe_near_zeros").sum()),
        "drivers.self_s": self_s("drivers"),
        "baselines.grid_passes": int(grid.sum()),
        "baselines.grid_s": float(dur[grid].sum()),
        "baselines.refine_calls": int(refine.sum()),
        "baselines.refine_s": float(dur[refine].sum()),
    }


def qz_calls_by_owner(rec: Recording) -> dict[int, int]:
    a = rec.arrays()
    owners, counts = np.unique(a["owner"][_entry_mask(a, "_finite_eigenvalues")],
                               return_counts=True)
    return {int(o): int(c) for o, c in zip(owners, counts)}


def shares_by_owner(rec: Recording, owners: list[str]) -> dict[str, dict[str, float]]:
    """Per top-level algorithm: its traced seconds and the shares of them spent
    in evaluation (self), the QZ, the negative-frequency search and hec (self)."""
    a, dur, self_t, layer, layers = _spans(rec)
    qz = _entry_mask(a, "_finite_eigenvalues")
    search = _entry_mask(a, "initial_negative_search")
    out = {}
    for i, name in enumerate(owners):
        mine = a["owner"] == i
        total = float(dur[mine & (a["parent"] < 0)].sum())
        out[name] = {
            "seconds": total,
            "evaluation_self": _ratio(self_t[mine & (layer == layers.index("evaluation"))].sum(), total),
            "qz": _ratio(dur[mine & qz].sum(), total),
            "negative_search": _ratio(dur[mine & search].sum(), total),
            "hec_self": _ratio(self_t[mine & (layer == layers.index("hec"))].sum(), total),
        }
    return out


def top_level_seconds(rec: Recording, layer_name: str) -> float:
    """Summed duration of the spans of a layer that no other span encloses."""
    a, dur, _, layer, layers = _spans(rec)
    top = (layer == layers.index(layer_name)) & (a["parent"] < 0)
    return float(dur[top].sum())


def save_spans(path, recordings: list[Recording]) -> None:
    """Write every recording's spans into one compressed ``.npz`` file."""
    payload = {"entry_points": np.array([":".join(entry) for entry in ENTRY_POINTS])}
    for rec in recordings:
        for key, arr in rec.arrays().items():
            payload[f"{rec.label}.{key}"] = arr
    np.savez_compressed(path, **payload)
