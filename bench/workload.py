"""Child process of the benchmark: runs one in-process workload, one set-up
probe, or the correctness gate of the CLI session's bundles.

    python bench/workload.py run   --workload coord-deep --seed 0 --seconds 30 --trace 0
    python bench/workload.py setup --workload cauchy-deep --seed 0
    python bench/workload.py gate  g.json c.json ...

`hyperforge` must be importable (PYTHONPATH=src).  The last line of stdout is
one JSON object; bench/run.py reads it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import inputs

clock = time.perf_counter


class Pass:
    """Operations of one pass: phase, name, seconds, ok, detail."""

    def __init__(self):
        self.ops: list[dict] = []
        self.bundles: dict[str, str] = {}  # name -> Bundle.dumps()

    def op(self, phase: str, name: str, fn, ok):
        t0 = clock()
        try:
            out = fn()
        except Exception as exc:  # a raising operation counts as failed
            self.ops.append({"phase": phase, "name": name, "s": clock() - t0, "ok": False,
                             "detail": f"{type(exc).__name__}: {exc}"})
            return None
        dt = clock() - t0
        passed = bool(ok(out))
        self.ops.append({"phase": phase, "name": name, "s": dt, "ok": passed,
                         "detail": "" if passed else "report or bundle did not pass"})
        return out if passed else None

    def seconds(self, phase: str) -> float:
        return sum(o["s"] for o in self.ops if o["phase"] == phase)

    def build(self, name: str, make_state, build, rounds: int, phase: str = "build") -> None:
        state = make_state()
        bundle = self.op(phase, f"{name}: {state.space.cli_id}/{state.w.describe()} "
                         f"K={state.K} R={rounds}", lambda: build(state, rounds), lambda b: b.passed)
        del state  # one state's witness and caches are freed before the next build
        if bundle is not None:
            self.bundles[name] = bundle.dumps()


def _targets(seed):
    from hyperforge import FiniteSeq

    return [FiniteSeq.from_json(t) for t in inputs.targets_json(seed)]


def _loaded(text):
    from hyperforge import Bundle

    return Bundle.from_json(json.loads(text))


def _element(text, K):
    from hyperforge import parse_element

    return parse_element(text, num_generators=K).element()


def coord_builds(targets):
    """(name, state factory, build function, rounds); the first is the cheap one."""
    import hyperforge as hf

    return [
        ("g", lambda: hf.CoordState(hf.space("entire_hadamard"), hf.WeightSpec.parse("maclane"),
                                    targets), hf.build_generator, 12),
        ("g3", lambda: hf.CoordState(hf.space("l1"), hf.WeightSpec.parse("const:2"), targets, K=3),
         hf.build_algebrable, 18),
    ]


def coord_verify(p: Pass, bundles: dict[str, str]) -> None:
    import hyperforge as hf

    g, g3 = _loaded(bundles["g"]), _loaded(bundles["g3"])
    p.op("verify", "revalidate g", lambda: hf.revalidate_bundle(g), lambda r: r.passed)
    p.op("verify", "revalidate g3", lambda: hf.revalidate_bundle(g3), lambda r: r.passed)
    for j in (1, 2, 3):
        p.op("verify", f"power g j={j}", lambda: hf.orbit_power_report(g, j), lambda r: r.passed)
    p.op("verify", "zero-products g3", lambda: hf.zero_product_report(g3), lambda r: r.passed)
    z = _element("x1^2 + 0.3*x1^3", g3.K)
    p.op("verify", "element g3", lambda: hf.orbit_element_report(g3, z), lambda r: r.passed)


def cauchy_builds(targets):
    """(name, state factory, build function, rounds); the first is the cheap one."""
    import hyperforge as hf

    ec, mac = hf.space("entire_cauchy"), hf.WeightSpec.parse
    return [
        ("c2", lambda: hf.CauchyState(ec, mac("maclane"), targets, algebrable=True, K=2),
         hf.build_algebrable_cauchy, 10),
        ("c", lambda: hf.CauchyState(ec, mac("maclane"), targets), hf.build_generator_cauchy, 10),
    ]


def cauchy_verify(p: Pass, bundles: dict[str, str]) -> None:
    import hyperforge as hf

    c, c2 = _loaded(bundles["c"]), _loaded(bundles["c2"])
    p.op("verify", "revalidate c", lambda: hf.revalidate_bundle(c), lambda r: r.passed)
    p.op("verify", "revalidate c2", lambda: hf.revalidate_bundle(c2), lambda r: r.passed)
    for j in (1, 2, 3, 4):
        p.op("verify", f"power c j={j}", lambda: hf.orbit_power_report(c, j), lambda r: r.passed)
    z = _element("x1^3 + 0.5*x1", 1)
    p.op("verify", "element c", lambda: hf.orbit_element_report(c, z), lambda r: r.passed)
    z = _element("x1^2 + x1", 1)
    p.op("verify", "expansion c", lambda: hf.expansion_oracle(c, z), lambda r: r.agree)
    z = _element("x1*x2 + x1", c2.K)
    p.op("verify", "element c2", lambda: hf.orbit_element_report(c2, z), lambda r: r.passed)


# coord-deep: witness scan, vectorised screen and weight-cache growth.
# cauchy-deep: seminorm evaluation, the (eta, gamma) pair scan and D4.
WORKLOADS = {"coord-deep": (coord_builds, coord_verify), "cauchy-deep": (cauchy_builds, cauchy_verify)}


def run_pass(workload: str, targets) -> tuple[Pass, float]:
    builds, verify = WORKLOADS[workload]
    specs = builds(targets)
    p = Pass()
    t0 = clock()
    for spec in specs:
        p.build(*spec)
    if len(p.bundles) == len(specs):
        verify(p, p.bundles)
    return p, clock() - t0


def cmd_run(args) -> dict:
    """Whole passes while the window lasts, at least one.  With a single pass
    the cheapest build runs once more so that every run compares a repeated
    build; the verify phase then repeats on the first pass's bundle bytes
    until the window is spent.  With --trace 1: one untraced and one traced
    pass, nothing else."""
    targets = _targets(args.seed)
    builds, verify = WORKLOADS[args.workload]
    passes: list[tuple[Pass, float]] = []
    tracer = None
    t_start = clock()

    def time_left(typical):
        elapsed = clock() - t_start
        return elapsed + typical <= min(args.seconds, inputs.PASS_LIMIT_S)

    while True:
        if args.trace and len(passes) == 1:
            import layers

            tracer = layers.Tracer()
            tracer.install()
        passes.append(run_pass(args.workload, targets))
        if args.trace:
            if len(passes) == 2:
                break
        elif not time_left(statistics.median(s for _, s in passes)):
            break
    first = passes[0][0]
    repeats = [p.bundles for p, _ in passes[1:]]
    extra, verify_repeats = [], []
    if len(passes) == 1:
        again = Pass()
        again.build(*builds(targets)[0], phase="repeat")
        repeats.append(again.bundles)
        extra += again.ops
        if len(first.bundles) == len(builds(targets)):
            while time_left(first.seconds("verify")):
                again = Pass()
                verify(again, first.bundles)
                extra += again.ops
                verify_repeats.append(again.seconds("verify"))
    out = {
        "passes": [{"ops": p.ops, "session_s": s} for p, s in passes],
        "extra_ops": extra,
        "verify_repeats_s": verify_repeats,
        "bundle_ids": {},
        "determinism": [],
    }
    for name, text in first.bundles.items():
        out["bundle_ids"][name] = json.loads(text)["bundle_id"]
        seen = [r[name] for r in repeats if name in r]
        if seen:
            out["determinism"].append({"bundle": name, "builds": len(seen) + 1,
                                       "identical": all(t == text for t in seen)})
    if tracer is not None:
        out["trace"] = tracer.export()
    return out


def cmd_setup(args) -> dict:
    """Fresh-interpreter import plus state construction, timed by the parent."""
    import hyperforge  # noqa: F401

    states = [make_state() for _, make_state, _, _ in WORKLOADS[args.workload][0](_targets(args.seed))]
    return {"states": len(states)}


def cmd_gate(args) -> dict:
    """Each bundle file must load, be marked passed and revalidate."""
    import hyperforge as hf

    checks = []
    for path in args.bundles:
        t0 = clock()
        try:
            bundle = hf.Bundle.load(path)
            ok = bundle.passed and hf.revalidate_bundle(bundle).passed
            detail = bundle.bundle_id
        except Exception as exc:  # a bundle that cannot be checked fails the gate
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append({"bundle": path, "ok": ok, "detail": detail, "s": clock() - t0})
    return {"checks": checks}


def main() -> int:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    setup.add_argument("--seed", type=int, required=True)
    gate = sub.add_parser("gate")
    gate.add_argument("bundles", nargs="+")
    args = ap.parse_args()
    result = {"run": cmd_run, "setup": cmd_setup, "gate": cmd_gate}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
