"""Per-layer spans and counters for the traced run, installed from outside
the package.

Each hook replaces one hyperforge function with a wrapper that records a
span: calls, self time (span minus the spans of hooked callees) and, for some
layers, a count of the work done.  A module that imported the function by
name (``from .core import cauchy_product``) holds its own binding, so the
wrapper is written into every ``hyperforge.*`` namespace that binds the
original, not only into the defining module.  Methods are replaced on their
class.  A hook whose target is gone is listed as missing, so a renamed
function shows up as a lost hook rather than as a silent zero.
"""
from __future__ import annotations

import importlib
import sys
import time

# counters merged by maximum across processes; all others are summed
MAX_COUNTERS = {"core.v_log_array.max_index", "criteria.pk.entries", "criteria.pk.bytes"}


def _v_log_array(counters, args, out):
    upto = int(args[1])
    if upto > counters.get("core.v_log_array.max_index", 0):
        counters["core.v_log_array.max_index"] = upto


def _seminorm_terms(counters, args, out):
    counters["spaces.seminorm_eval.terms"] = counters.get("spaces.seminorm_eval.terms", 0) + len(args[2])


def _basis_elements(counters, args, out):
    counters["spaces.basis_log_array.elements"] = (
        counters.get("spaces.basis_log_array.elements", 0) + len(args[2])
    )


def _pk_witness(counters, args, out):
    if out.count > counters.get("criteria.pk.entries", 0):
        arrays = (out.p, out.value_log, out.tol_log, out.vmin_log, out.growth_log)
        counters["criteria.pk.entries"] = out.count
        counters["criteria.pk.bytes"] = sum(a.nbytes for a in arrays if a is not None)


def _screen(counters, args, out):
    state, lower = args[0], args[4]
    p = state.pk.p
    counters["coordwise.screen.candidates"] = (
        counters.get("coordwise.screen.candidates", 0) + len(p) - int(p.searchsorted(lower, side="right"))
    )
    counters["coordwise.screen.survivors"] = counters.get("coordwise.screen.survivors", 0) + len(out)


def _scan_pairs(counters, args, out):
    counters["cauchy.pairs_scanned"] = counters.get("cauchy.pairs_scanned", 0) + int(out[3])


def _scan_eta_m1(counters, args, out):
    # the degree-1 scan walks eta = N, N+1, ... and returns the first admitted
    N = args[4]
    counters["cauchy.pairs_scanned"] = counters.get("cauchy.pairs_scanned", 0) + int(out) - N + 1


def _dumps_bytes(counters, args, out):
    counters["bundle.bytes"] = counters.get("bundle.bytes", 0) + len(out)


# (layer, module, attribute path, counter hook)
HOOKS = [
    ("core.sum_of", "hyperforge.core", "WideComplex.sum_of", None),
    ("core.cauchy_product", "hyperforge.core", "cauchy_product", None),
    ("core.v_log_array", "hyperforge.core", "WeightSpec.v_log_array", _v_log_array),
    ("spaces.seminorm_eval", "hyperforge.spaces", "seminorm_eval", _seminorm_terms),
    ("spaces.basis_log_array", "hyperforge.spaces", "basis_log_array", _basis_elements),
    ("criteria.pk_scan", "hyperforge.criteria", "find_pk_witness", _pk_witness),
    ("criteria.pk_scan", "hyperforge.criteria", "extend_pk_witness", _pk_witness),
    ("criteria.mixing", "hyperforge.criteria", "check_mixing", None),
    ("criteria.prop_b", "hyperforge.criteria", "property_b_witness", None),
    ("coordwise.screen", "hyperforge.coordwise", "_screen", _screen),
    ("coordwise.certify", "hyperforge.coordwise", "certify_coord_round", None),
    ("coordwise.round", "hyperforge.coordwise", "select_ar", None),
    ("cauchy.solve", "hyperforge.cauchy", "solve_building_block", None),
    ("cauchy.round", "hyperforge.cauchy", "build_round", None),
    ("cauchy.pair_scan", "hyperforge.cauchy", "_scan_pairs", _scan_pairs),
    ("cauchy.pair_scan", "hyperforge.cauchy", "_scan_eta_m1", _scan_eta_m1),
    ("cauchy.d4", "hyperforge.cauchy", "_d4_worst", None),
    ("cauchy.certify", "hyperforge.cauchy", "_certify_round", None),
    ("verify.revalidate", "hyperforge.verify", "revalidate_bundle", None),
    ("verify.orbit", "hyperforge.verify", "orbit_power_report", None),
    ("verify.orbit", "hyperforge.verify", "orbit_element_report", None),
    ("verify.expansion", "hyperforge.verify", "expansion_oracle", None),
    ("bundle.dumps", "hyperforge.bundle", "Bundle.dumps", _dumps_bytes),
    ("bundle.from_json", "hyperforge.bundle", "Bundle.from_json", None),
    ("cli.run_command", "hyperforge.cli", "run_command", None),
]

# counters a hook adds to; a process that never enters the layer reports 0
COUNTERS = [
    "core.v_log_array.max_index",
    "spaces.seminorm_eval.terms",
    "spaces.basis_log_array.elements",
    "criteria.pk.entries",
    "criteria.pk.bytes",
    "coordwise.screen.candidates",
    "coordwise.screen.survivors",
    "cauchy.pairs_scanned",
    "bundle.bytes",
]


class Tracer:
    """Spans kept in memory: layer -> [calls, self seconds, span seconds]."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._child = [0.0]  # time covered by hooked callees, per open span

    def _wrap(self, layer, fn, count):
        stats = self.spans.setdefault(layer, [0, 0.0, 0.0])
        child, counters, clock = self._child, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                stats[0] += 1
                stats[1] += dt - inner
                stats[2] += dt
            if count is not None:
                count(counters, args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def install(self) -> None:
        """Import every hyperforge module and replace each hooked function."""
        importlib.import_module("hyperforge")
        importlib.import_module("hyperforge.cli")
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "hyperforge" or name.startswith("hyperforge."))]
        for layer, module, path, count in HOOKS:
            target = f"{module}.{path}"
            owner = sys.modules.get(module)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.missing.append(target)
                continue
            if cls_path:
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if kind else raw
                wrapped = self._wrap(layer, fn, count)
                setattr(owner, attr, kind(wrapped) if kind else wrapped)
                self.installed.append(f"{layer} <- {target}")
                continue
            wrapped = self._wrap(layer, raw, count)
            bound = []
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is raw:
                        setattr(ns, name, wrapped)
                        bound.append(f"{ns.__name__}.{name}")
            self.installed.append(f"{layer} <- {target} [{', '.join(bound)}]")

    def export(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counters": dict(self.counters),
            "installed": list(self.installed),
            "missing": list(self.missing),
        }


def merge(records: list[dict]) -> dict:
    """Combine exported traces of several processes (CLI commands)."""
    out = {"spans": {}, "counters": {}, "installed": [], "missing": []}
    for rec in records:
        for layer, (calls, self_s, span_s) in rec["spans"].items():
            acc = out["spans"].setdefault(layer, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += span_s
        for key, val in rec["counters"].items():
            prev = out["counters"].get(key, 0)
            out["counters"][key] = max(prev, val) if key in MAX_COUNTERS else prev + val
        for key in ("installed", "missing"):
            out[key] = sorted(set(out[key]) | set(rec[key]))
    return out


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer values from one (merged) trace; layers never entered read 0."""
    spans, counters = trace["spans"], trace["counters"]

    def calls(layer):
        return spans.get(layer, [0, 0.0, 0.0])[0]

    def self_s(layer):
        return spans.get(layer, [0, 0.0, 0.0])[1]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {name: counters.get(name, 0) for name in COUNTERS}
    for layer in {h[0] for h in HOOKS}:
        values[f"{layer}.calls"] = calls(layer)
        values[f"{layer}.s"] = self_s(layer)
    values["coordwise.certify.accept_ratio"] = ratio(calls("coordwise.round"), calls("coordwise.certify"))
    values["cauchy.tighten.accept_ratio"] = ratio(calls("cauchy.round"), calls("cauchy.solve"))
    values["trace.hooks_missing"] = len(trace["missing"])
    return values


def import_breakdown(stderr: str) -> dict[str, float]:
    """Cumulative import seconds from `python -X importtime` output; a module
    that `import hyperforge` no longer pulls in reads 0."""
    want = {"hyperforge": "cli.import.hyperforge_s", "scipy.special": "cli.import.scipy_special_s",
            "numpy": "cli.import.numpy_s"}
    out = dict.fromkeys(want.values(), 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        key = want.get(name.strip())
        if key is not None and out[key] == 0.0:
            out[key] = int(cumulative) / 1e6
    return out
