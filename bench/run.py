"""hyperforge benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cli-session --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs to be installed, every
child gets PYTHONPATH=src.  Load is closed loop from one client: one command
or one build at a time, no worker pools.

Workloads
  cli-session  the 15 commands of the README "CLI session", each a fresh
               `python -m hyperforge` process (interpreter, import, JSON I/O).
  coord-deep   in process: coordinatewise builds deep enough that the
               hypercyclicity-witness scan, the vectorised screen and the
               weight cache dominate; then a verify phase.
  cauchy-deep  in process: Cauchy-product builds dominated by seminorm
               evaluation, the (eta, gamma) pair scan and D4 certification;
               then a verify phase that re-runs D4.

With --trace 0 the last line of stdout carries the end-to-end metrics that
BENCHMARK.json declares; with --trace 1 the per-layer metrics of
bench/layers.py, taken from one untraced and one traced pass.  Every bundle
and report is checked: a command that exits nonzero, a build or report that
raises or does not pass, a bundle that fails revalidation, or a repeated
build whose bytes differ is a failed operation; `fail_ratio` is failed over
attempted.

End-to-end values (each a median over its samples in the run):
  setup_s        fresh-interpreter import plus state construction (deep), or
                 writing the inputs plus an import-only interpreter (CLI)
  session_s      wall time of one whole pass: the 15 commands, or the builds
                 plus the verify phase
  peak_rss_mb    peak RSS of the workload process; the largest command (CLI)
  build_s        wall time of the construction calls or build commands
  verify_s       wall time of the verify phase, from the bundle bytes
  cli_cmd_p50_s  median wall time per CLI command (cli-session only)
The last three are printed as `info` lines and not declared for gating: on a
shared two-vCPU host a fixed Python loop slows by up to a third for tens of
seconds at a time, and over ten seeds the quartile spread of these values
reached 0.25 to 0.34 of their median, past the largest bound allowed.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run
WORKLOADS = ("cli-session", "coord-deep", "cauchy-deep")
clock = time.perf_counter


class Child:
    """One finished child process: exit code, wall time, peak RSS, output."""

    def __init__(self, code: int, wall_s: float, rss_mb: float, stdout: str, stderr: str):
        self.code, self.wall_s, self.rss_mb = code, wall_s, rss_mb
        self.stdout, self.stderr = stdout, stderr

    def result(self) -> dict:
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            raise RuntimeError(f"child failed with code {self.code}: {self.stderr[-2000:]}")
        return json.loads(lines[-1])


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work, self.deadline = work, deadline
        env = {k: v for k, v in os.environ.items() if not k.startswith("HYPERFORGE_")}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            HYPERFORGE_BUDGET=inputs.BUDGET,
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.env = env

    def spawn(self, argv: list[str]) -> Child:
        """Run argv to completion in the work directory.  Peak RSS comes from
        os.wait4 on this child alone, not the running maximum over all
        children that RUSAGE_CHILDREN would give."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = clock()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: end the child first
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = clock() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def run_context(seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hyperforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": Path("/proc/loadavg").read_text().strip(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "hyperforge_budget": inputs.BUDGET,
    }


def _median(values):
    return statistics.median(values)


# -- cli-session ---------------------------------------------------------------


def _write_targets(runner: Runner, seed: int) -> None:
    (runner.work / "targets.json").write_text(json.dumps(inputs.targets_json(seed)))


def cli_setup(runner: Runner, seed: int) -> float:
    """Writing the inputs plus one import-only interpreter."""
    t0 = clock()
    _write_targets(runner, seed)
    child = runner.spawn([sys.executable, "-c", "import hyperforge"])
    if child.code != 0:
        raise RuntimeError(f"import failed: {child.stderr[-2000:]}")
    return clock() - t0


def cli_command(runner: Runner, phase: str, argv: list[str], trace_path: Path | None) -> dict:
    if trace_path is not None:
        cmd = [sys.executable, str(BENCH / "cli_shim.py"), str(trace_path), *argv]
    else:
        cmd = [sys.executable, "-m", "hyperforge", *argv]
    child = runner.spawn(cmd)
    ok = child.code == 0
    return {"phase": phase, "name": " ".join(argv), "s": child.wall_s, "ok": ok, "rss_mb": child.rss_mb,
            "detail": "" if ok else f"exit {child.code}: {child.stdout[-300:]}{child.stderr[-500:]}"}


def cli_pass(runner: Runner, traced: bool) -> dict:
    ops, traces = [], []
    t0 = clock()
    for i, (phase, argv) in enumerate(inputs.CLI_SESSION):
        trace_path = runner.work / f"trace-{i}.json" if traced else None
        ops.append(cli_command(runner, phase, argv, trace_path))
        if traced and trace_path.exists():
            traces.append(json.loads(trace_path.read_text()))
    session_s = clock() - t0
    bundles = {name: (runner.work / name).read_bytes() if (runner.work / name).exists() else None
               for name in inputs.CLI_BUNDLES}
    return {"ops": ops, "session_s": session_s, "bundles": bundles, "traces": traces}


def cli_session(runner: Runner, seed: int, seconds: float, trace: bool) -> dict:
    """Whole sessions while the window lasts, at least three: every run
    compares each bundle across repeated builds, and over ten seeds the
    median of three sessions spread 0.08 of its median where one or two
    sessions spread 0.17 to 0.23.  With --trace 1 one untraced and one traced
    session."""
    _write_targets(runner, seed)
    passes = []
    t_start = clock()
    while True:
        passes.append(cli_pass(runner, traced=trace and len(passes) == 1))
        elapsed = clock() - t_start
        typical = _median(p["session_s"] for p in passes)
        if trace:
            if len(passes) == 2:
                break
        elif len(passes) >= 3 and elapsed + typical > min(seconds, inputs.PASS_LIMIT_S):
            break
    gate = runner.spawn([sys.executable, str(BENCH / "workload.py"), "gate", *inputs.CLI_BUNDLES])
    try:
        checks = gate.result()["checks"]
    except (RuntimeError, ValueError) as exc:
        checks = [{"bundle": name, "ok": False, "detail": str(exc)} for name in inputs.CLI_BUNDLES]
    out = {
        "passes": [{"ops": p["ops"], "session_s": p["session_s"]} for p in passes],
        "extra_ops": [],
        "verify_repeats_s": [],
        "gate": checks,
        "bundle_ids": {c["bundle"]: c["detail"] for c in checks if c["ok"]},
        "determinism": [],
        "peak_rss_mb": max(o["rss_mb"] for p in passes for o in p["ops"]),
    }
    for name in inputs.CLI_BUNDLES:
        first = passes[0]["bundles"][name]
        same = first is not None and all(p["bundles"][name] == first for p in passes[1:])
        out["determinism"].append({"bundle": name, "builds": len(passes), "identical": same})
    if trace:
        merged = layers.merge(passes[1]["traces"])
        spans = merged["spans"].get("cli.run_command", [0, 0.0, 0.0])
        merged["cli_overhead_s"] = sum(o["s"] for o in passes[1]["ops"]) - spans[2]
        if len(passes[1]["traces"]) != len(inputs.CLI_SESSION):
            merged["missing"].append("trace output of some CLI commands")
        out["trace"] = merged
    return out


# -- deep workloads --------------------------------------------------------------


def deep_setup(runner: Runner, workload: str, seed: int) -> float:
    child = runner.spawn([sys.executable, str(BENCH / "workload.py"), "setup",
                          "--workload", workload, "--seed", str(seed)])
    child.result()
    return child.wall_s


def deep(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    child = runner.spawn([sys.executable, str(BENCH / "workload.py"), "run", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))])
    out = child.result()
    out["peak_rss_mb"] = child.rss_mb
    out["gate"] = []
    return out


# -- metrics ---------------------------------------------------------------------


def _phase_s(p: dict, name: str) -> float:
    return sum(o["s"] for o in p["ops"] if o["phase"] == name)


def end_to_end(res: dict, setups: list[float], cli: bool) -> dict[str, tuple[float, str]]:
    """Every end-to-end value the run produced, each a median over its samples."""
    passes = res["passes"]
    values = {
        "setup_s": (_median(setups), "s"),
        "build_s": (_median(_phase_s(p, "build") for p in passes), "s"),
        "verify_s": (_median([_phase_s(p, "verify") for p in passes] + res["verify_repeats_s"]), "s"),
        "session_s": (_median(p["session_s"] for p in passes), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    if cli:
        values["cli_cmd_p50_s"] = (_median(_median(o["s"] for o in p["ops"]) for p in passes), "s")
    return values


def _declared(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares under `kind`, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    unknown = [m["name"] for m in spec if m["name"] not in values]
    if unknown:
        raise RuntimeError(f"BENCHMARK.json names {kind} metrics this run does not give: {unknown}")
    return {m["name"]: (values[m["name"]][0], m["unit"]) for m in spec}


def per_layer(res: dict, import_times: dict) -> dict[str, tuple[float, None]]:
    """Every per-layer value of the traced pass."""
    trace = res["trace"]
    values = layers.layer_metrics(trace)
    values.update(import_times)
    values["cli.overhead_s"] = trace.get("cli_overhead_s", 0.0)
    untraced, traced = res["passes"]
    values["trace.overhead_s"] = _phase_s(traced, "build") - _phase_s(untraced, "build")
    return {name: (value, None) for name, value in values.items()}


def import_breakdown(runner: Runner) -> dict:
    child = runner.spawn([sys.executable, "-X", "importtime", "-c", "import hyperforge"])
    if child.code != 0:
        raise RuntimeError(f"import failed: {child.stderr[-2000:]}")
    return layers.import_breakdown(child.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "hyperforge" / "__init__.py").is_file():
        print(f"no hyperforge sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    context = run_context(args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    try:
        if args.workload == "cli-session":
            setups = [cli_setup(runner, args.seed) for _ in range(SETUP_REPEATS)]
            res = cli_session(runner, args.seed, args.seconds, bool(args.trace))
        else:
            setups = [deep_setup(runner, args.workload, args.seed) for _ in range(SETUP_REPEATS)]
            res = deep(runner, args.workload, args.seed, args.seconds, bool(args.trace))
        import_times = import_breakdown(runner) if args.trace else {}
    except RuntimeError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    context["loadavg_end"] = Path("/proc/loadavg").read_text().strip()
    context["passes"] = len(res["passes"])
    print("context " + json.dumps(context, sort_keys=True))

    ops = [o for p in res["passes"] for o in p["ops"]] + res["extra_ops"]
    failed = [f"{o['name']}: {o['detail']}" for o in ops if not o["ok"]]
    failed += [f"gate {c['bundle']}: {c['detail']}" for c in res["gate"] if not c["ok"]]
    failed += [f"bundle {d['bundle']} differs between {d['builds']} builds"
               for d in res["determinism"] if not d["identical"]]
    attempted = len(ops) + len(res["gate"]) + len(res["determinism"])
    for name, bundle_id in sorted(res["bundle_ids"].items()):
        print(f"bundle {name} {bundle_id}")
    for line in failed:
        print(f"FAILED {line}")

    if args.trace:
        trace = res["trace"]
        for hook in trace["installed"]:
            print(f"hook installed {hook}")
        for hook in trace["missing"]:
            print(f"hook missing {hook}")
        metrics = _declared("per_layer", per_layer(res, import_times))
    else:
        values = end_to_end(res, setups, args.workload == "cli-session")
        metrics = _declared("end_to_end", values)
        for name, (value, unit) in values.items():
            if name not in metrics:
                print(f"info {name} {value} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_ratio {len(failed) / attempted} ratio ({len(failed)} of {attempted} operations)")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
